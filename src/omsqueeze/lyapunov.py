"""Steady-state covariance from the continuous-time Lyapunov equation.

Solves W sigma + sigma W^T = -D by Kronecker vectorization: at n = 8 the
64x64 dense solve is trivially fast and free of Schur-form edge cases, so
Bartels-Stewart stays an optional optimization, not a dependency.  Every
solve first checks strict stability on the spectrum of W itself; no caller
can skip that check.

W and D may be stacks (..., n, n): each matrix is solved as it would be
alone, so a sweep solves many grid points in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ThresholdError, UnstableSystemError
from .stability import MARGINAL_BAND


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


def solve_lyapunov(w: np.ndarray, d: np.ndarray) -> LyapunovSolution:
    """Solve for the steady-state covariance of a strictly stable drift.

    The stability precheck is mandatory and cannot be skipped: the
    vectorized system is exactly singular whenever two drift eigenvalues
    sum to zero, and a clean rejection beats a garbage solve.  One
    eigensolve of W per call, over the whole stack, serves both the
    precheck and the condition estimate.
    """
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    if w.ndim < 2 or w.shape[-2] != w.shape[-1] or d.shape != w.shape:
        raise ValueError("drift and diffusion matrices must be square and congruent")
    n = w.shape[-1]

    eigenvalues = np.linalg.eigvals(w)
    spectral_abscissa = float(np.max(eigenvalues.real))
    if spectral_abscissa >= -MARGINAL_BAND:
        kind = "marginal" if abs(spectral_abscissa) < MARGINAL_BAND else "unstable"
        raise UnstableSystemError(
            f"drift is {kind}: spectral abscissa {spectral_abscissa:.3e} fails the "
            f"strict-stability precheck (required < -{MARGINAL_BAND:.0e})"
        )

    # I (x) W + W (x) I of each matrix, indexed [..., i, a, j, b] (np.kron does
    # not broadcast); the right-hand side is an explicit (..., n^2, 1) column.
    batch = w.shape[:-2]
    kron = np.zeros((*batch, n, n, n, n))
    for k in range(n):
        kron[..., k, :, k, :] += w
        kron[..., :, k, :, k] += w
    kron = kron.reshape(*batch, n * n, n * n)
    try:
        vec = np.linalg.solve(kron, -d.reshape(*batch, n * n, 1))
    except np.linalg.LinAlgError as exc:
        raise ThresholdError(f"vectorized Lyapunov system is singular: {exc}") from exc
    sigma = vec.reshape(*batch, n, n)
    sigma = (sigma + sigma.swapaxes(-1, -2)) / 2.0

    sums = np.abs(eigenvalues[..., :, None] + eigenvalues[..., None, :])
    condition = float(np.max(np.max(sums, axis=(-2, -1)) / np.min(sums, axis=(-2, -1))))

    return LyapunovSolution(
        sigma=sigma,
        residual_norm=residual(w, d, sigma),
        condition_estimate=condition,
    )
