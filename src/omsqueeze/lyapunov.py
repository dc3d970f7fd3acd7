"""Steady-state covariance from the continuous-time Lyapunov equation.

Solves W sigma + sigma W^T = -D in the sum/difference quadratures, where
the drift is block diagonal, W = W_+ (+) W_- (`matrices.split_sectors`).
Each 4x4 block sigma_ij of the rotated covariance then solves its own
Sylvester equation W_i sigma_ij + sigma_ij W_j^T = -D_ij, a 16x16 dense
system; D may be any 8x8 matrix, so the mixed blocks are solved too.  The
rotation has entries +-1/2 per block pair, so it adds no rounding beyond
its sums.  Every solve first checks strict stability on the spectrum of
the two sectors; no caller can skip that check.

W and D may be stacks (..., 8, 8): each matrix is solved as it would be
alone, so a sweep solves many grid points in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ThresholdError, UnstableSystemError
from .matrices import MODE_1, MODE_2, split_sectors
from .stability import MARGINAL_BAND

# Quadratures reordered pair by pair; the permutation is its own inverse.
_PAIRS = np.concatenate([MODE_1, MODE_2])


@dataclass(frozen=True)
class LyapunovSolution:
    sigma: np.ndarray  # (..., n, n) like W; for a stack, each float is the worst
    residual_norm: float  # ||W s + s W^T + D||_F / ||D||_F, post-symmetrization
    condition_estimate: float


def residual(w: np.ndarray, d: np.ndarray, sigma: np.ndarray) -> float:
    """Relative Frobenius residual of a candidate steady state (a stack's worst)."""
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    r = w @ sigma + sigma @ w.swapaxes(-1, -2) + d
    return float(np.max(np.linalg.norm(r, axis=(-2, -1)) / np.linalg.norm(d, axis=(-2, -1))))


def _exchange(blocks: np.ndarray) -> np.ndarray:
    """Blocks [r, c] (..., 2, 2, 4, 4) of a matrix over the pairs (1, 2) as
    blocks over the sectors (+, -), and back: the rotation is an involution."""
    rows = np.stack([blocks[..., 0, :, :, :] + blocks[..., 1, :, :, :],
                     blocks[..., 0, :, :, :] - blocks[..., 1, :, :, :]], axis=-4)
    return np.stack([rows[..., 0, :, :] + rows[..., 1, :, :],
                     rows[..., 0, :, :] - rows[..., 1, :, :]], axis=-3) / 2.0


def solve_lyapunov(w: np.ndarray, d: np.ndarray) -> LyapunovSolution:
    """Solve for the steady-state covariance of a strictly stable drift.

    The stability precheck is mandatory and cannot be skipped: a sector
    system is exactly singular whenever two drift eigenvalues sum to zero,
    and a clean rejection beats a garbage solve.  One eigensolve per call,
    over the (..., 2, 4, 4) stack of sectors, serves both the precheck and
    the condition estimate.  A drift that does not split raises ValueError.
    """
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    if w.ndim < 2 or w.shape[-2] != w.shape[-1] or d.shape != w.shape:
        raise ValueError("drift and diffusion matrices must be square and congruent")
    batch = w.shape[:-2]
    sectors = split_sectors(w)

    eigenvalues = np.linalg.eigvals(sectors).reshape(*batch, 8)
    spectral_abscissa = float(np.max(eigenvalues.real))
    if spectral_abscissa >= -MARGINAL_BAND:
        kind = "marginal" if abs(spectral_abscissa) < MARGINAL_BAND else "unstable"
        raise UnstableSystemError(
            f"drift is {kind}: spectral abscissa {spectral_abscissa:.3e} fails the "
            f"strict-stability precheck (required < -{MARGINAL_BAND:.0e})"
        )

    # W_i (x) I + I (x) W_j for each sector pair (i, j), acting on the
    # row-major vec of sigma_ij and indexed [..., i, j, p, a, q, b]; the
    # right-hand sides are (..., 2, 2, 16, 1).
    kron = np.zeros((*batch, 2, 2, 4, 4, 4, 4))
    for k in range(4):
        kron[..., k, :, k, :] += sectors[..., None, :, :, :]
        kron[..., :, k, :, k] += sectors[..., :, None, :, :]
    kron = kron.reshape(*batch, 2, 2, 16, 16)
    pairs = d[..., _PAIRS[:, None], _PAIRS].reshape(*batch, 2, 4, 2, 4).swapaxes(-3, -2)
    rhs = -_exchange(pairs).reshape(*batch, 2, 2, 16, 1)
    try:
        vec = np.linalg.solve(kron, rhs)
    except np.linalg.LinAlgError as exc:
        raise ThresholdError(f"sector Lyapunov system is singular: {exc}") from exc
    blocks = _exchange(vec.reshape(*batch, 2, 2, 4, 4))
    sigma = blocks.swapaxes(-3, -2).reshape(*batch, 8, 8)[..., _PAIRS[:, None], _PAIRS]
    sigma = (sigma + sigma.swapaxes(-1, -2)) / 2.0

    sums = np.abs(eigenvalues[..., :, None] + eigenvalues[..., None, :])
    condition = float(np.max(np.max(sums, axis=(-2, -1)) / np.min(sums, axis=(-2, -1))))

    return LyapunovSolution(
        sigma=sigma,
        residual_norm=residual(w, d, sigma),
        condition_estimate=condition,
    )
