"""Time integration of the covariance equation of motion.

Integrates sigma' = W sigma + sigma W^T + D with an adaptive embedded
Dormand-Prince 5(4) pair, records the covariance trace at every accepted
step, and detects relaxation to the steady state.  All times are in units
of 1/kappa.

The state is y = svec(sigma): the n(n+1)/2 upper-triangle entries of the
(exactly symmetric) sigma, off-diagonal ones times sqrt(2), so ||y||_2 =
||sigma||_F and each norm the stepper takes is one dot product.  On y,
y' = L y + d, and one DP5(4) trial step is exactly a polynomial in hL applied
to f = L y + d (`_STEP_POLY`).  Each run multiplies the Krylov block [I; L;
...; L^6] by L and by d once (K_L, K_d); an accepted state costs K_L y + K_d,
a trial one 2x7 by 7xm product; sigma and the traces are rebuilt at the end.
The integration never consults the Lyapunov solution: it checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConvergenceError, DivergenceError, StiffnessError

MIN_STEP = 1e-14
DIVERGENCE_NORM = 1e150

# Step-error tolerances: relative to the state, and absolute.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Steady-state threshold on ||sigma'||_F / ||D||_F.
STEADY_EPS = 1e-8
# The steady-state window and the give-up time, in relaxation times of the
# slowest drift mode (1 / |spectral abscissa|).
WINDOW_RELAXATIONS = 10.0
MAX_RELAXATIONS = 1e4
# `Trajectory.resample_log`: samples on a log grid from LOG_T_MIN (1/kappa).
LOG_SAMPLES = 400
LOG_T_MIN = 1e-2

# One DP5(4) trial step from y with f = L y + d, with the stages collapsed
# in exact arithmetic: row 0 gives the 5th-order step and row 1 the error
# estimate (5th minus 4th order), each as sum_m c_m h^(m+1) L^m f.
_STEP_POLY = np.array([
    (1, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 600, 0),
    (0, 0, 0, 0, -97 / 120000, 13 / 40000, -1 / 24000),
])
_H_POWERS = np.arange(1.0, 8.0)  # float: int exponents cost a cast per step


def _vec_operator(w: np.ndarray) -> np.ndarray:
    """L = W (x) I + I (x) W: L @ sigma.ravel() = (W sigma + sigma W^T).ravel()."""
    eye = np.eye(w.shape[0])
    return np.kron(w, eye) + np.kron(eye, w)


def _svec_basis(n: int) -> tuple[np.ndarray, tuple, np.ndarray]:
    """(s, upper, gather): y = svec(sigma) = s * sigma[upper], s = sqrt(2) off the
    diagonal, so ||y||_2 = ||sigma||_F; a symmetric sigma = (y / s)[gather].reshape(n, n)."""
    rows, cols = upper = np.triu_indices(n)
    gather = np.empty(n * n, dtype=int)
    gather[rows * n + cols] = gather[cols * n + rows] = np.arange(rows.size)
    return np.where(rows == cols, 1.0, math.sqrt(2.0)), upper, gather


def _upper_form(w: np.ndarray) -> np.ndarray:
    """L_y = S L_z S^-1, so L_y svec(sigma) = svec(W sigma + sigma W^T); L_z, on the
    unscaled upper entries, is `_vec_operator`'s upper rows, columns (i, j) + (j, i)."""
    n = w.shape[0]
    s, (rows, cols), gather = _svec_basis(n)
    l_z = _vec_operator(w)[rows * n + cols] @ np.eye(s.size)[gather]
    return s[:, None] * l_z / s


@dataclass
class Trajectory:
    """Trace record of one covariance integration (times in 1/kappa)."""

    times: np.ndarray
    traces: np.ndarray
    converged: bool = False
    t_converged: float | None = None

    def resample_log(self) -> tuple[np.ndarray, np.ndarray]:
        """Samples on a log-spaced time grid (plot-friendly): the first
        accepted step at or after each grid time, duplicates dropped."""
        t_last = self.times[-1]
        if t_last <= LOG_T_MIN:
            return self.times, self.traces
        grid = np.geomspace(LOG_T_MIN, t_last, LOG_SAMPLES)
        idx = np.searchsorted(self.times, grid)
        idx = np.unique(np.clip(idx, 0, len(self.times) - 1))
        return self.times[idx], self.traces[idx]

    def to_csv(self, path) -> None:
        times, traces = self.resample_log()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t_over_kappa,trace\n")
            for t, tr in zip(times, traces):
                fh.write(f"{t:.12g},{tr:.12g}\n")


def _require_positive(**values: float) -> None:
    """Reject a non-finite or non-positive argument before any stepping."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def _accepted_steps(
    w: np.ndarray,
    d: np.ndarray,
    sigma0: np.ndarray,
    targets: list[float],
) -> Iterator[tuple[float, np.ndarray, float]]:
    """Yield (t, y = svec(sigma), ||sigma'||_F) at t=0 and every accepted step,
    with errors held to REL_TOL and ABS_TOL in RMS over the n^2 entries of sigma.

    `targets` must be sorted ascending; the stepper lands on each exactly.
    Iteration ends after the last target is reached.
    """
    n, op = w.shape[0], _upper_form(w)
    s, upper, _ = _svec_basis(n)
    abs_tol, rel = ABS_TOL, REL_TOL / s  # error floor ABS_TOL + REL_TOL |sigma_ij|, on y
    krylov = np.concatenate([np.linalg.matrix_power(op, m) for m in range(7)])
    # ndarray.dot throughout: np.dot adds a dispatch wrapper to every call
    k_l, k_d = krylov.dot(op), krylov.dot(s * d[upper])
    y = s * ((sigma0 + sigma0.T) / 2.0)[upper]

    t = 0.0
    powers = (k_l.dot(y) + k_d).reshape(7, -1)  # L^m f, m = 0..6
    f = powers[0]
    yield t, y, math.sqrt(f.dot(f))

    pending = [x for x in targets if x > 0.0]
    if not pending:
        return
    h = 0.01 * (math.sqrt(y.dot(y)) + abs_tol) / (math.sqrt(f.dot(f)) + 1e-300)
    h = min(max(h, MIN_STEP * 10), pending[-1] / 10, 1.0)

    floor, rejected = abs_tol + rel * np.abs(y), False
    while pending:
        target = pending[0]
        clamped = target - t < h
        h_try = min(h, target - t)
        if h_try < MIN_STEP:
            raise StiffnessError(
                f"step size underflow ({h_try:.3e} < {MIN_STEP:.0e}) at t={t:.6g}"
            )

        step = (_STEP_POLY * h_try**_H_POWERS).dot(powers)
        y_new = y + step[0]
        if not math.sqrt(y_new.dot(y_new)) <= DIVERGENCE_NORM:  # also inf and nan
            raise DivergenceError(
                f"covariance diverged at t={t:.6g} (unstable drift integrated too long)"
            )

        floor_new = abs_tol + rel * np.abs(y_new)
        err_vec = step[1] / np.maximum(floor, floor_new)
        err = math.sqrt(err_vec.dot(err_vec)) / n
        if not math.isfinite(err):
            h = h_try * 0.2
            rejected = True
            continue

        if err <= 1.0:
            t = target if (target - t - h_try) < 1e-12 * max(1.0, target) else t + h_try
            y, floor = y_new, floor_new
            powers = (k_l.dot(y) + k_d).reshape(7, -1)
            f = powers[0]
            yield t, y, math.sqrt(f.dot(f))
            while pending and t >= pending[0] - 1e-12 * max(1.0, pending[0]):
                pending.pop(0)
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            if rejected:
                factor = min(factor, 1.0)
            if not (clamped and factor >= 1.0):
                h = h_try * factor
            rejected = False
        else:
            h = h_try * max(0.2, 0.9 * err ** -0.2)
            rejected = True


def _record(times: list[float], states: list[np.ndarray], n: int,
            t_converged: float | None) -> tuple[np.ndarray, Trajectory]:
    """sigma at the last svec state, and the trajectory of Tr sigma: diagonal
    entries (s = 1) summed as one C-contiguous (steps, n) array, as `np.trace` sums."""
    s, _, gather = _svec_basis(n)
    traces = np.array(states).take(gather[:: n + 1], axis=1).sum(axis=1)
    trajectory = Trajectory(np.asarray(times), traces, t_converged is not None, t_converged)
    return (states[-1] / s)[gather].reshape(n, n), trajectory


def integrate(
    w: np.ndarray, d: np.ndarray, sigma0: np.ndarray, t_end: float
) -> tuple[np.ndarray, Trajectory]:
    """Integrate the covariance ODE: sigma(t_end), and Tr sigma per accepted step."""
    _require_positive(t_end=t_end)
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    sigma0 = np.asarray(sigma0, dtype=float)

    times, states = [], []
    # Overflow gives a non-finite state: DivergenceError, whatever the warning filter.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, y, _ in _accepted_steps(w, d, sigma0, [t_end]):
            times.append(t)
            states.append(y)
    return _record(times, states, w.shape[0], None)


def evolve_to_steady(
    w: np.ndarray,
    d: np.ndarray,
    sigma0: np.ndarray,
    eps: float = STEADY_EPS,
) -> tuple[np.ndarray, Trajectory]:
    """Relax the covariance until ||sigma'||_F stays below eps ||D||_F.

    The drop below threshold must be sustained over a trailing window of
    WINDOW_RELAXATIONS relaxation times (from the spectral abscissa); after
    MAX_RELAXATIONS of them without that, ConvergenceError.  Unstable
    drifts are not rejected up front: integration then grows exponentially
    and raises DivergenceError, which is itself the verdict.
    """
    _require_positive(eps=eps)
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    sigma0 = np.asarray(sigma0, dtype=float)

    abscissa = float(np.max(np.linalg.eigvals(w).real))
    rate = max(abs(abscissa), 1e-12)
    window = WINDOW_RELAXATIONS / rate
    max_time = MAX_RELAXATIONS / rate

    threshold = eps * float(np.linalg.norm(d))
    times, states = [], []
    streak_start: float | None = None
    t_converged = None

    # Chunked targets keep steps aligned with the window bookkeeping.
    chunk = window / 4.0
    targets = np.arange(chunk, max_time + chunk / 2, chunk).tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # as in `integrate`
        for t, y, deriv_norm in _accepted_steps(w, d, sigma0, targets):
            times.append(t)
            states.append(y)
            if deriv_norm < threshold:
                if streak_start is None:
                    streak_start = t
                elif t - streak_start >= window:
                    t_converged = t
                    break
            else:
                streak_start = None

    if t_converged is None:
        raise ConvergenceError(
            f"no steady state within t={max_time:.3g}/kappa "
            f"(threshold {threshold:.3e}, window {window:.3g})"
        )
    return _record(times, states, w.shape[0], t_converged)
