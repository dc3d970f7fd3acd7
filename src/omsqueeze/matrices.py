"""Drift, diffusion and covariance matrices in the fixed quadrature basis.

Basis ordering is immutable throughout the package:

    [x_c1, y_c1, x_c2, y_c2, x_d1, y_d1, x_d2, y_d2]

with x = (a' + a)/sqrt(2), y = i(a' - a)/sqrt(2), so a single vacuum mode
has variance 1/2 on each quadrature.

The model is symmetric under exchanging the two cavity-mechanics pairs, so
in the sum/difference quadratures (q_1 +- q_2)/sqrt(2) the drift and the
diffusion split exactly into two 4x4 sectors, W_+ (+) W_- and D_+ (+) D_-.
This module is the only one that knows that basis: `split_sectors` reads
the sectors off by index arithmetic, `split_drift` also checks that a drift
has the model's form, for which W_- is similar to W_+, `join_sectors`
rotates them back, `pair_blocks` gives the 8x8 entries of either form, and
the solvers and the metrics work on the sectors in between.

It also owns the upper-triangle form of a symmetric n x n matrix
(`upper_triangle`), on which both the sector solve (n = 4) and the
relaxation (n = 8) pose W sigma + sigma W^T (`lyapunov_operator`).
"""

from __future__ import annotations

import functools

import numpy as np

from .params import ModelParams, expect_json

QUADRATURES = ("x_c1", "y_c1", "x_c2", "y_c2", "x_d1", "y_d1", "x_d2", "y_d2")

# Quadratures of each cavity-mechanics pair, in the order of a 4x4 sector.
MODE_1 = np.array([0, 1, 4, 5])
MODE_2 = np.array([2, 3, 6, 7])
_SECTOR_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)  # A + B, A - B

# A covariance whose antisymmetric part exceeds this (Frobenius) is rejected.
SYMMETRY_TOL = 1e-9


def _positions(rows, columns):
    return (rows[:, None] * 8 + columns).reshape(16)


# Row-major 8x8 positions of the pair-1 blocks [A, B] and of the pair-2
# blocks that must equal them, [A, B] again.
_PAIR_1 = np.concatenate([_positions(MODE_1, MODE_1), _positions(MODE_1, MODE_2)])
_PAIR_2 = np.concatenate([_positions(MODE_2, MODE_2), _positions(MODE_2, MODE_1)])


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


def _fill(template: np.ndarray, *values) -> np.ndarray:
    """The 8x8 matrix that holds values[k - 1] where `template` holds k and
    0.0 where it holds 0, or the stack of one per element if `values` are
    arrays.  Every entry is a copy of its value and keeps its bits."""
    return np.stack(np.broadcast_arrays(0.0, *values), axis=-1)[..., template]


# build_drift's template, over the values (k2, g2, c, s, -c, -a, b).
_K, _G, _C, _S, _NC, _NA, _B = range(1, 8)
_DRIFT = np.array(
    [
        [_K, 0, _C, _S, 0, _NA, 0, 0],
        [0, _K, _S, _NC, _B, 0, 0, 0],
        [_C, _S, _K, 0, 0, 0, 0, _NA],
        [_S, _NC, 0, _K, 0, 0, _B, 0],
        [0, _NA, 0, 0, _G, 0, 0, 0],
        [_B, 0, 0, 0, 0, _G, 0, 0],
        [0, 0, 0, _NA, 0, 0, _G, 0],
        [0, 0, _B, 0, 0, 0, 0, _G],
    ]
)
_DIFFUSION = np.diag([1] * 4 + [2] * 4)  # over the values (cavity, mechanics)

# split_drift's form check as one gather-compare: flat entry i must equal
# _SIGNS[i] * entry _SOURCES[i].  build_drift's values k2, g2, c, s, -c, -a, b
# are read from w[0, 0], w[4, 4], w[0, 2], w[0, 3], -w[0, 2], w[0, 5], w[1, 4];
# a template zero is read from itself times 0.0, which x equals for x = +-0.0 only.
_SOURCES = np.where(_DRIFT.ravel() == 0, np.arange(64),
                    np.array([0, 0, 36, 2, 3, 2, 5, 12])[_DRIFT.ravel()])
_SIGNS = np.array([0.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0])[_DRIFT.ravel()]


def build_drift(m: ModelParams) -> np.ndarray:
    """Assemble the 8x8 drift matrix of the linearized quadrature dynamics
    (a stack (..., 8, 8) for a model with array fields)."""
    a, b, c, s = coupling_coefficients(m)
    return _fill(_DRIFT, -0.5, -m.gamma / 2.0, c, s, -c, -a, b)  # -kappa/2, kappa = 1


def pair_blocks(x: np.ndarray) -> np.ndarray:
    """The pair-1 blocks [A, B] (..., 2, 4, 4) of an 8x8 matrix (or a stack)
    whose pair-2 blocks equal them exactly (any other raises ValueError), or
    A, B = (S_+ +- S_-)/2 of sectors (..., 2, 4, 4), as `join_sectors` places them."""
    x = np.asarray(x, dtype=float)
    if x.shape[-3:] == (2, 4, 4):
        return (x[..., :1, :, :] + _SECTOR_SIGNS * x[..., 1:, :, :]) / 2.0
    if x.shape[-2:] != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got {x.shape}")
    flat = x.reshape(*x.shape[:-2], 64)
    pair_1 = flat[..., _PAIR_1]
    if not (flat[..., _PAIR_2] == pair_1).all():  # [X_22, X_21] == [X_11, X_12]
        raise ValueError("matrix does not split into sum and difference sectors")
    return pair_1.reshape(*x.shape[:-2], 2, 4, 4)


def split_sectors(x: np.ndarray) -> np.ndarray:
    """The sum and difference sectors (..., 2, 4, 4), S_+ = A + B and
    S_- = A - B in the quadratures (q_1 +- q_2)/sqrt(2) ordered as MODE_1, of
    an 8x8 matrix (or a stack) whose `pair_blocks` are A and B."""
    if np.shape(x)[-2:] != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got {np.shape(x)}")
    blocks = pair_blocks(x)
    return blocks[..., :1, :, :] + _SECTOR_SIGNS * blocks[..., 1:, :, :]


def split_drift(w: np.ndarray) -> np.ndarray:
    """`split_sectors` of a drift (or a stack) that `build_drift`'s template,
    filled with its own entries, rebuilds exactly; any other raises
    ValueError.  Its W_+ has the whole spectrum: W_+- = [[k2 I +- P, C],
    [C, g2 I]] with P the pump and C the cavity-mechanics block, so
    W_- = T W_+ T^-1 for T = diag(R, C^-1 R C), R the quarter-turn of the
    cavity quadratures (R P R^-1 = -P, C^2 = -ab I); by continuity where
    det C = 0."""
    sectors = split_sectors(w)
    # Entries first: a view, not a copy, for the stack-innermost layout of build_drift.
    entries = np.moveaxis(np.asarray(w, dtype=float), (-2, -1), (0, 1)).reshape(64, -1)
    expected = entries[_SOURCES]
    with np.errstate(invalid="ignore"):  # inf * 0.0 is nan, which equals nothing
        expected *= _SIGNS[:, None]
    if not (expected == entries).all():
        raise ValueError("drift is not of the model's form")
    return sectors


def join_sectors(sectors: np.ndarray) -> np.ndarray:
    """The 8x8 matrix (or stack) whose sectors are `sectors` (..., 2, 4, 4):
    the inverse of `split_sectors`, with pair blocks A = (S_+ + S_-)/2 and
    B = (S_+ - S_-)/2."""
    s = np.asarray(sectors, dtype=float)
    if s.shape[-3:] != (2, 4, 4):
        raise ValueError(f"expected (..., 2, 4, 4) sectors, got {s.shape}")
    pair_1 = pair_blocks(s).reshape(*s.shape[:-3], 32)
    out = np.empty((*s.shape[:-3], 64))
    out[..., _PAIR_1] = pair_1
    out[..., _PAIR_2] = pair_1
    return out.reshape(*s.shape[:-3], 8, 8)


@functools.cache
def upper_triangle(n: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """(upper, gather, pattern) of a symmetric n x n sigma, built once per n,
    read-only.  Its m = n(n+1)/2 unknowns are sigma[upper], the entries i <= j
    row by row; sigma = unknowns[gather], gather (n, n).  vec(W) @ pattern,
    pattern (n^2, m^2), is `lyapunov_operator`'s operator, row-major."""
    rows, cols = upper = np.triu_indices(n)
    m, k = rows.size, np.arange(n)
    gather = np.empty((n, n), dtype=int)
    gather[rows, cols] = gather[cols, rows] = np.arange(m)
    # [row of W, column of W, equation, unknown]: equation (i, j) is
    # sum_k W_ik sigma_kj + W_jk sigma_ik
    pattern = np.zeros((n, n, m, m))
    equation, i, j = np.arange(m)[:, None], rows[:, None], cols[:, None]
    np.add.at(pattern, (i, k, equation, gather[k, j]), 1.0)
    np.add.at(pattern, (j, k, equation, gather[i, k]), 1.0)
    pattern = pattern.reshape(n * n, m * m)
    for array in (rows, cols, gather, pattern):
        array.flags.writeable = False
    return upper, gather, pattern


def lyapunov_operator(w: np.ndarray) -> np.ndarray:
    """The operator of W sigma + sigma W^T on the `upper_triangle` unknowns of
    a symmetric sigma, (..., m, m) for an n x n W or a stack (..., n, n).
    Each entry sums at most two entries of W, or doubles one, so it is exact
    to one rounding whatever the order of the product."""
    n = w.shape[-1]
    m = n * (n + 1) // 2
    flat = w.reshape(*w.shape[:-2], n * n)
    return (flat @ upper_triangle(n)[2]).reshape(*w.shape[:-2], m, m)


def build_diffusion(m: ModelParams) -> np.ndarray:
    """Diagonal noise-injection matrix from the delta-correlated baths (a
    stack for a model with array fields), with kappa = 1."""
    return _fill(_DIFFUSION, m.n_c + 0.5, m.gamma * (m.n_m + 0.5))


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


def require_symmetric(sigma: np.ndarray) -> None:
    """Raise if sigma, an 8x8 matrix or its sectors (..., 2, 4, 4), or any
    of a stack, is not symmetric to within SYMMETRY_TOL (Frobenius norm)."""
    sigma = np.asarray(sigma)
    sectors = sigma.shape[-3:] == (2, 4, 4)
    if sigma.shape[-2:] != (8, 8) and not sectors:
        raise ValueError(f"expected an 8x8 covariance matrix, got {sigma.shape}")
    asymmetry = sigma - sigma.swapaxes(-1, -2)
    if sectors:  # the rotation to the sectors keeps the norm
        asymmetry = asymmetry.reshape(*sigma.shape[:-3], 8, 4)
    if not np.all(np.linalg.norm(asymmetry, axis=(-2, -1)) <= SYMMETRY_TOL):
        raise ValueError(f"covariance matrix asymmetric beyond {SYMMETRY_TOL}")


def covariance_to_json(sigma: np.ndarray) -> dict:
    """Serialize as a row-major list of 64 numbers plus the basis labels."""
    sigma = np.asarray(sigma, dtype=float)
    return {"basis": list(QUADRATURES), "sigma": sigma.reshape(-1).tolist()}


def covariance_from_json(obj: dict) -> np.ndarray:
    if expect_json(obj, dict, "a covariance").get("basis") != list(QUADRATURES):
        raise ValueError(f"covariance basis must be {list(QUADRATURES)}")
    sigma = obj.get("sigma")
    numbers = type(sigma) is list and all(type(v) in (int, float) for v in sigma)
    if not numbers or len(sigma) != 64:  # bool, str, list and null are not numbers
        raise ValueError("covariance payload must hold exactly 64 numbers")
    flat = np.array(sigma, dtype=float)
    if not np.all(np.isfinite(flat)):
        raise ValueError("covariance entries must be finite")
    return flat.reshape(8, 8)
