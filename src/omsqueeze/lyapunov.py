"""Steady-state covariance from the continuous-time Lyapunov equation.

Solves W sigma + sigma W^T = -D in the sum/difference quadratures, where
the drift and the diffusion are block diagonal, W = W_+ (+) W_- and
D = D_+ (+) D_- (`matrices.split_sectors`), and so is the steady state:
each sector solves W_s sigma_s + sigma_s W_s^T = -D_s as a 16x16 dense
system, and `matrices.join_sectors` rotates sigma_+ (+) sigma_- back, with
no rounding beyond its sums.  A W or a D that does not split raises
ValueError.  Every solve first checks strict stability on the spectrum of
the two sectors, by the rule `stability.spectral_verdict` owns; no caller
can skip that check.

W and D may be stacks (..., 8, 8): each matrix is solved as it would be
alone, so a sweep solves many grid points in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ThresholdError, UnstableSystemError
from .matrices import join_sectors, split_sectors
from .stability import MARGINAL_BAND, spectral_verdict


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


def _sector_operator(sectors: np.ndarray) -> np.ndarray:
    """I (x) W_s + W_s (x) I for each sector of a (..., 2, 4, 4) stack: the
    Lyapunov operator on the row-major vec of sigma_s, as (..., 2, 16, 16)."""
    op = np.zeros((*sectors.shape[:-2], 4, 4, 4, 4))  # indexed [..., p, a, q, b]
    for k in range(4):
        op[..., k, :, k, :] += sectors
        op[..., :, k, :, k] += sectors
    return op.reshape(*sectors.shape[:-2], 16, 16)


def solve_lyapunov(w: np.ndarray, d: np.ndarray) -> LyapunovSolution:
    """Solve for the steady-state covariance of a strictly stable drift.

    The stability precheck is mandatory and cannot be skipped: a sector
    system is exactly singular whenever two drift eigenvalues sum to zero,
    and a clean rejection beats a garbage solve.  The precheck accepts a
    drift, and words its rejection, by `stability.spectral_verdict` of the
    largest real part over the whole stack.  One eigensolve per call, over
    the (..., 2, 4, 4) stack of sectors, serves both the precheck and the
    condition estimate.  A drift or a diffusion that does not split
    raises ValueError.
    """
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    if w.ndim < 2 or w.shape[-2] != w.shape[-1] or d.shape != w.shape:
        raise ValueError("drift and diffusion matrices must be square and congruent")
    batch = w.shape[:-2]
    sectors = split_sectors(w)
    rhs = -split_sectors(d).reshape(*batch, 2, 16, 1)

    eigenvalues = np.linalg.eigvals(sectors).reshape(*batch, 8)
    spectral_abscissa = float(np.max(eigenvalues.real))
    kind = spectral_verdict(spectral_abscissa)
    if kind != "stable":
        raise UnstableSystemError(
            f"drift is {kind}: spectral abscissa {spectral_abscissa:.3e} fails the "
            f"strict-stability precheck (required < -{MARGINAL_BAND:.0e})"
        )

    try:
        vec = np.linalg.solve(_sector_operator(sectors), rhs)
    except np.linalg.LinAlgError as exc:
        raise ThresholdError(f"sector Lyapunov system is singular: {exc}") from exc
    sigma = join_sectors(vec.reshape(*batch, 2, 4, 4))
    # + 0.0 turns -0.0 into 0.0: the sign of an exact zero follows the pivots
    sigma = (sigma + sigma.swapaxes(-1, -2)) / 2.0 + 0.0

    sums = np.abs(eigenvalues[..., :, None] + eigenvalues[..., None, :])
    condition = float(np.max(np.max(sums, axis=(-2, -1)) / np.min(sums, axis=(-2, -1))))

    return LyapunovSolution(
        sigma=sigma,
        residual_norm=residual(w, d, sigma),
        condition_estimate=condition,
    )
