"""Steady-state covariance from the continuous-time Lyapunov equation.

Solves W sigma + sigma W^T = -D by Kronecker vectorization: at n = 8 the
64x64 dense solve is trivially fast and free of Schur-form edge cases, so
Bartels-Stewart stays an optional optimization, not a dependency.  Every
solve first checks strict stability on the spectrum of W itself; no caller
can skip that check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ThresholdError, UnstableSystemError
from .stability import MARGINAL_BAND, drift_eigenvalues


@dataclass(frozen=True)
class LyapunovSolution:
    sigma: np.ndarray
    residual_norm: float  # ||W s + s W^T + D||_F / ||D||_F, post-symmetrization
    condition_estimate: float


def residual(w: np.ndarray, d: np.ndarray, sigma: np.ndarray) -> float:
    """Relative Frobenius residual of a candidate steady-state covariance."""
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    return float(np.linalg.norm(w @ sigma + sigma @ w.T + d) / np.linalg.norm(d))


def solve_lyapunov(w: np.ndarray, d: np.ndarray) -> LyapunovSolution:
    """Solve for the steady-state covariance of a strictly stable drift.

    The stability precheck is mandatory and cannot be skipped: the
    vectorized system is exactly singular whenever two drift eigenvalues
    sum to zero, and a clean rejection beats a garbage solve.  One
    eigensolve of W per call serves both the precheck and the condition
    estimate.
    """
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    n = w.shape[0]
    if w.shape != (n, n) or d.shape != (n, n):
        raise ValueError("drift and diffusion matrices must be square and congruent")

    eigenvalues = drift_eigenvalues(w)
    spectral_abscissa = float(np.max(eigenvalues.real))
    if spectral_abscissa >= -MARGINAL_BAND:
        kind = "marginal" if abs(spectral_abscissa) < MARGINAL_BAND else "unstable"
        raise UnstableSystemError(
            f"drift is {kind}: spectral abscissa {spectral_abscissa:.3e} fails the "
            f"strict-stability precheck (required < -{MARGINAL_BAND:.0e})"
        )

    eye = np.eye(n)
    kron = np.kron(eye, w) + np.kron(w, eye)
    try:
        vec = np.linalg.solve(kron, -d.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise ThresholdError(f"vectorized Lyapunov system is singular: {exc}") from exc
    sigma = vec.reshape(n, n)
    sigma = (sigma + sigma.T) / 2.0

    sums = np.abs(eigenvalues[:, None] + eigenvalues[None, :])
    condition = float(np.max(sums) / np.min(sums))

    return LyapunovSolution(
        sigma=sigma,
        residual_norm=residual(w, d, sigma),
        condition_estimate=condition,
    )
