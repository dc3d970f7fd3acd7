"""Drift, diffusion and covariance matrices in the fixed quadrature basis.

Basis ordering is immutable throughout the package:

    [x_c1, y_c1, x_c2, y_c2, x_d1, y_d1, x_d2, y_d2]

with x = (a' + a)/sqrt(2), y = i(a' - a)/sqrt(2), so a single vacuum mode
has variance 1/2 on each quadrature.

The model is symmetric under exchanging the two cavity-mechanics pairs, so
in the sum/difference quadratures (q_1 +- q_2)/sqrt(2) the drift and the
diffusion split exactly into two 4x4 sectors, W_+ (+) W_- and D_+ (+) D_-.
This module is the only one that knows that basis: `split_sectors` reads
the sectors off by index arithmetic, `join_sectors` rotates them back, and
the solvers work on the sectors in between.
"""

from __future__ import annotations

import numpy as np

from .params import ModelParams

QUADRATURES = ("x_c1", "y_c1", "x_c2", "y_c2", "x_d1", "y_d1", "x_d2", "y_d2")

# Quadratures of each cavity-mechanics pair, in the order of a 4x4 sector.
MODE_1 = np.array([0, 1, 4, 5])
MODE_2 = np.array([2, 3, 6, 7])
_SECTOR_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1, 1, 1)  # A + B, A - B
_0 = None  # a structural zero of the drift or diffusion


def coupling_coefficients(m: ModelParams) -> tuple[float, float, float, float]:
    """Return (A, B, C, S): tone difference/sum and pump quadrature parts.

    A = G_- - G_+ damps the mechanics (beam-splitter weight), B = G_- + G_+
    drives it (two-mode-squeeze weight); C and S are the pump coupling
    resolved along the two cavity quadrature axes.
    """
    a = m.G_minus - m.G_plus
    b = m.G_minus + m.G_plus
    c = m.lambda_pa * np.cos(m.phi)
    s = m.lambda_pa * np.sin(m.phi)
    return a, b, c, s


def _assemble(rows: list[list], *values) -> np.ndarray:
    """The 8x8 matrix with these entries, or the stack of one per element if
    the `values` they are built from are arrays.  Entries other than the
    structural zeros `_0` are written one by one and keep their bits."""
    shapes = [v.shape for v in values if isinstance(v, np.ndarray)]
    out = np.zeros(np.broadcast_shapes(*shapes) + (8, 8))
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x is not _0:
                out[..., i, j] = x
    return out


def build_drift(m: ModelParams) -> np.ndarray:
    """Assemble the 8x8 drift matrix of the linearized quadrature dynamics
    (a stack (..., 8, 8) for a model with array fields)."""
    a, b, c, s = coupling_coefficients(m)
    k2 = -m.kappa / 2.0
    g2 = -m.gamma / 2.0
    return _assemble(
        [
            [k2, _0, c, s, _0, -a, _0, _0],
            [_0, k2, s, -c, b, _0, _0, _0],
            [c, s, k2, _0, _0, _0, _0, -a],
            [s, -c, _0, k2, _0, _0, b, _0],
            [_0, -a, _0, _0, g2, _0, _0, _0],
            [b, _0, _0, _0, _0, g2, _0, _0],
            [_0, _0, _0, -a, _0, _0, g2, _0],
            [_0, _0, b, _0, _0, _0, _0, g2],
        ],
        a, b, c, s, k2, g2,
    )


def split_sectors(x: np.ndarray) -> np.ndarray:
    """The sum and difference sectors of an 8x8 matrix (or a stack), as
    (..., 2, 4, 4): [..., 0, :, :] is S_+ and [..., 1, :, :] is S_-.

    With A the pair-1 block and B the pair-1 <- pair-2 block, a matrix that
    is symmetric under the pair exchange (pair-2 blocks equal to A and B
    exactly, as `build_drift` and `build_diffusion` place them) splits as
    S_+ = A + B and S_- = A - B in the quadratures (q_1 +- q_2)/sqrt(2),
    ordered as MODE_1.  Any other matrix raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-2:] != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got {x.shape}")
    # quadrature index = 4 (cavity, mechanics) + 2 pair + (x, y), rows then columns
    blocks = x.reshape(*x.shape[:-2], 2, 2, 2, 2, 2, 2)
    pair_1, pair_2 = blocks[..., :, 0, :, :, :, :], blocks[..., :, 1, :, :, :, :]
    if not (pair_2[..., ::-1, :] == pair_1).all():  # [X_21, X_22] == [X_12, X_11]
        raise ValueError("matrix does not split into sum and difference sectors")
    a = pair_1[..., None, :, :, :, 0, :]
    b = pair_1[..., None, :, :, :, 1, :]
    return (a + _SECTOR_SIGNS * b).reshape(*x.shape[:-2], 2, 4, 4)


def join_sectors(sectors: np.ndarray) -> np.ndarray:
    """The 8x8 matrix (or stack) whose sectors are `sectors` (..., 2, 4, 4):
    the inverse of `split_sectors`, with pair blocks A = (S_+ + S_-)/2 and
    B = (S_+ - S_-)/2."""
    s = np.asarray(sectors, dtype=float)
    if s.shape[-3:] != (2, 4, 4):
        raise ValueError(f"expected (..., 2, 4, 4) sectors, got {s.shape}")
    s = s.reshape(*s.shape[:-3], 2, 2, 2, 2, 2)  # [sector, (c, m), (x, y)] twice
    a = (s[..., 0, :, :, :, :] + s[..., 1, :, :, :, :]) / 2.0
    b = (s[..., 0, :, :, :, :] - s[..., 1, :, :, :, :]) / 2.0
    pair_1 = np.stack([a, b], axis=-2)  # column pair inserted before (x, y)
    blocks = np.stack([pair_1, pair_1[..., ::-1, :]], axis=-5)  # row pair likewise
    return blocks.reshape(*s.shape[:-5], 8, 8)


def build_diffusion(m: ModelParams) -> np.ndarray:
    """Diagonal noise-injection matrix from the delta-correlated baths (a
    stack for a model with array fields)."""
    cav = m.kappa * (m.n_c + 0.5)
    mech = m.gamma * (m.n_m + 0.5)
    diagonal = [cav] * 4 + [mech] * 4
    return _assemble(
        [[x if i == j else _0 for j in range(8)] for i, x in enumerate(diagonal)], cav, mech
    )


def initial_covariance(m: ModelParams) -> np.ndarray:
    """Thermal product state matching the bath occupations."""
    return np.diag([m.n_c + 0.5] * 4 + [m.n_m + 0.5] * 4)


def symplectic_form(n_modes: int = 4) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0,1],[-1,0]] block per mode."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    return omega


def require_symmetric(sigma: np.ndarray, tol: float = 1e-9) -> None:
    """Raise if sigma (or any matrix of a stack) is not symmetric to within
    tol (Frobenius norm)."""
    sigma = np.asarray(sigma)
    if sigma.shape[-2:] != (8, 8):
        raise ValueError(f"expected an 8x8 covariance matrix, got {sigma.shape}")
    if not np.all(np.linalg.norm(sigma - sigma.swapaxes(-1, -2), axis=(-2, -1)) <= tol):
        raise ValueError(f"covariance matrix asymmetric beyond {tol}")


def covariance_to_json(sigma: np.ndarray) -> dict:
    """Serialize as a row-major list of 64 numbers plus the basis labels."""
    sigma = np.asarray(sigma, dtype=float)
    return {"basis": list(QUADRATURES), "sigma": sigma.reshape(-1).tolist()}


def covariance_from_json(obj: dict) -> np.ndarray:
    if list(obj.get("basis", [])) != list(QUADRATURES):
        raise ValueError(f"covariance basis must be {list(QUADRATURES)}")
    flat = np.asarray(obj["sigma"], dtype=float)
    if flat.shape != (64,):
        raise ValueError("covariance payload must hold exactly 64 numbers")
    if not np.all(np.isfinite(flat)):
        raise ValueError("covariance entries must be finite")
    return flat.reshape(8, 8)
