"""Steady-state covariance from the continuous-time Lyapunov equation.

Solves W sigma + sigma W^T = -D in the sum/difference quadratures, where
the drift and the diffusion are block diagonal, W = W_+ (+) W_- and
D = D_+ (+) D_- (`matrices.split_sectors`), and so is the steady state.
Each sigma_s is symmetric, so each sector is a 10x10 system in the upper
triangle of sigma_s (of the symmetric part of D_s), posed on the form that
`matrices.upper_triangle` and `matrices.lyapunov_operator` share with the
relaxation in `dynamics`.  sigma stays in sector form, (..., 2, 4, 4), for
`metrics.metric_row`, with the residual taken per sector (the rotation
keeps Frobenius norms); the 8x8 sigma
(`matrices.join_sectors`) is built only when read.  A W not of
`build_drift`'s form, or a D that does not split, raises ValueError.  W and
D may be stacks (..., 8, 8), each matrix solved as it would be alone.  The
stability decision and the condition estimate take W_+'s spectrum, which
is W's (W_- = T W_+ T^-1, `matrices.split_drift`), in closed form
(`stability.sector_spectrum`), so the sector solve is the one LAPACK
kernel of a call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ThresholdError, UnstableSystemError
from .matrices import join_sectors, lyapunov_operator, split_drift, split_sectors, upper_triangle
from .stability import MARGINAL_BAND, sector_spectrum, spectral_verdict


@dataclass(frozen=True)
class LyapunovSolution:
    sectors: np.ndarray  # (..., 2, 4, 4): sigma_+ and sigma_- of each drift
    residual_norm: float  # ||W s + s W^T + D||_F / ||D||_F; a stack's worst
    condition_estimate: float  # a stack's worst
    residuals: np.ndarray  # (...) residual of each matrix of a stack
    conditions: np.ndarray  # (...) condition estimate of each matrix

    @property
    def sigma(self) -> np.ndarray:
        """The 8x8 steady state, joined when read (+ 0.0: a zero's sign follows pivots)."""
        return join_sectors(self.sectors) + 0.0


def _residuals(w: np.ndarray, d: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """||W s + s W^T + D||_F / ||D||_F of each (..., 2, 4, 4) sector pair:
    the norms of the two sectors add in squares."""
    r = w @ sigma + sigma @ np.ascontiguousarray(w.swapaxes(-1, -2)) + d
    r, d = (x.reshape(*x.shape[:-3], 32) for x in (r, d))
    return np.sqrt(np.einsum("...i,...i", r, r) / np.einsum("...i,...i", d, d))


def _split(w, d):
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    if w.ndim < 2 or w.shape[-2] != w.shape[-1] or d.shape != w.shape:
        raise ValueError("drift and diffusion matrices must be square and congruent")
    return split_drift(w), split_sectors(d)


def _solve(sectors, d_sectors, eigenvalues) -> LyapunovSolution:
    (rows, cols), gather, _ = upper_triangle(4)
    rhs = -(d_sectors[..., rows, cols] + d_sectors[..., cols, rows]) / 2.0
    try:
        upper = np.linalg.solve(lyapunov_operator(sectors), rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ThresholdError(f"sector Lyapunov system is singular: {exc}") from exc
    sigma = upper[..., gather]

    # W_+'s spectrum is W's, each eigenvalue once: the same pairwise sums
    sums = np.abs(eigenvalues[..., :, None] + eigenvalues[..., None, :])
    conditions = np.max(sums, axis=(-2, -1)) / np.min(sums, axis=(-2, -1))
    residuals = _residuals(sectors, d_sectors, sigma)
    return LyapunovSolution(
        sectors=sigma,
        residual_norm=float(np.max(residuals)),
        condition_estimate=float(np.max(conditions)),
        residuals=residuals,
        conditions=conditions,
    )


def solve_lyapunov(w: np.ndarray, d: np.ndarray) -> LyapunovSolution:
    """Solve for the steady-state covariance of a strictly stable drift.

    The stability precheck is mandatory and cannot be skipped: a sector
    system is exactly singular whenever two drift eigenvalues sum to zero,
    and a clean rejection beats a garbage solve.  The precheck accepts a
    drift, and words its rejection, by `stability.spectral_verdict` of the
    largest real part over the whole stack.
    """
    sectors, d_sectors = _split(w, d)
    eigenvalues = sector_spectrum(sectors[..., 0, :, :])  # W_+'s, which is W's
    spectral_abscissa = float(np.max(eigenvalues.real))
    kind = spectral_verdict(spectral_abscissa)
    if kind != "stable":
        raise UnstableSystemError(
            f"drift is {kind}: spectral abscissa {spectral_abscissa:.3e} fails the "
            f"strict-stability precheck (required < -{MARGINAL_BAND:.0e})"
        )
    return _solve(sectors, d_sectors, eigenvalues)


def solve_stable(
    w: np.ndarray, d: np.ndarray, rhsc_stable: np.ndarray
) -> tuple[np.ndarray, LyapunovSolution | None]:
    """Gate each drift of a stack (n, 8, 8) and solve the ones that pass:
    those whose `rhsc_stable` (the Routh-Hurwitz verdict of its model)
    holds and whose spectral abscissa `stability.spectral_verdict` calls
    stable.  Returns that mask and the solution of the drifts it selects,
    in order (None if it selects none).  The whole stack is validated, but
    only the drifts that `rhsc_stable` passes reach `sector_spectrum`."""
    sectors, d_sectors = _split(w, d)
    stable = np.array(rhsc_stable, dtype=bool)  # narrowed to the spectrum's verdict
    eigenvalues = sector_spectrum(sectors[stable, 0])  # W_+'s, which is W's
    passed = spectral_verdict(eigenvalues.real.max(axis=-1)) == "stable"
    stable[stable] = passed
    if not stable.any():
        return stable, None
    return stable, _solve(sectors[stable], d_sectors[stable], eigenvalues[passed])
