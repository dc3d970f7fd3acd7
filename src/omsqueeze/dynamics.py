"""Time integration of the covariance equation of motion.

Integrates sigma' = W sigma + sigma W^T + D with an adaptive embedded
Dormand-Prince 5(4) pair, records the covariance trace at every accepted
step, and detects relaxation to the steady state.  All times are in units
of 1/kappa.

The stepper holds the state as the flat vector y = sigma.ravel() and
builds the operator L = W (x) I + I (x) W once per run, so each stage is
one tableau-row product over the stored stages and one L @ y + vec D.
The integration never consults the Lyapunov solution: it is the
independent check of it.
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

# Dormand-Prince 5(4) tableau (autonomous right-hand side, so no stage
# times needed).  Row i of _A weighs the stages k_0..k_6 for stage i + 1;
# the last row is b5, so the last stage argument is the 5th-order solution
# and k_6 enters only the error row _E = b5 - b4.
_A = np.array([
    (1 / 5, 0, 0, 0, 0, 0, 0),
    (3 / 40, 9 / 40, 0, 0, 0, 0, 0),
    (44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0),
    (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0),
])
_E = np.array(
    (71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
)


def _vec_operator(w: np.ndarray) -> np.ndarray:
    """L = W (x) I + I (x) W: L @ sigma.ravel() = (W sigma + sigma W^T).ravel()."""
    eye = np.eye(w.shape[0])
    return np.kron(w, eye) + np.kron(eye, w)


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
    """Yield (t, sigma, ||sigma'||_F) for t=0 and every accepted step, with
    errors held to REL_TOL and ABS_TOL.

    `targets` must be sorted ascending; the stepper lands on each exactly.
    Iteration ends after the last target is reached.  The state is the flat
    vector y = sigma.ravel(); each yielded sigma is a view of a vector that
    is never written again.
    """
    dot = np.dot  # for a matrix times a vector: a third of matmul's call overhead
    rel_tol, abs_tol = REL_TOL, ABS_TOL
    n = w.shape[0]
    op = _vec_operator(w)
    d_vec = d.ravel()
    swap = np.arange(n * n).reshape(n, n).T.ravel()  # y[swap] = sigma.T.ravel()
    y = ((sigma0 + sigma0.T) / 2.0).ravel()
    t = 0.0
    f_cur = dot(op, y) + d_vec
    f_norm = math.sqrt(f_cur @ f_cur)
    yield t, y.reshape(n, n), f_norm

    pending = [x for x in targets if x > 0.0]
    if not pending:
        return
    h = 0.01 * (math.sqrt(y @ y) + abs_tol) / (f_norm + 1e-300)
    h = min(max(h, MIN_STEP * 10), pending[-1] / 10, 1.0)

    # Stage i + 1 weighs rows i + 1.. of k by zero, so those stale rows must
    # stay finite (0 * inf is nan): a non-finite k_1..k_5 makes y_new
    # non-finite, which raises, and a non-finite k_6 is cleared below.
    k = np.zeros((7, n * n))
    rejected = False
    while pending:
        target = pending[0]
        clamped = target - t < h
        h_try = min(h, target - t)
        if h_try < MIN_STEP:
            raise StiffnessError(
                f"step size underflow ({h_try:.3e} < {MIN_STEP:.0e}) at t={t:.6g}"
            )

        k[0] = f_cur
        for i, row in enumerate(h_try * _A):
            y_new = y + dot(row, k)
            k[i + 1] = dot(op, y_new) + d_vec
        # y_new is now the last stage argument, the 5th-order solution.

        if not y_new @ y_new <= DIVERGENCE_NORM**2:  # also catches inf and nan
            raise DivergenceError(
                f"covariance diverged at t={t:.6g} (unstable drift integrated too long)"
            )

        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        ratio = dot(h_try * _E, k) / scale
        err = math.sqrt(ratio @ ratio / ratio.size)
        if not math.isfinite(err):
            k[6] = 0.0
            h = h_try * 0.2
            rejected = True
            continue

        if err <= 1.0:
            t = target if (target - t - h_try) < 1e-12 * max(1.0, target) else t + h_try
            y = (y_new + y_new[swap]) / 2.0
            f_cur = dot(op, y) + d_vec
            yield t, y.reshape(n, n), math.sqrt(f_cur @ f_cur)
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


def integrate(
    w: np.ndarray, d: np.ndarray, sigma0: np.ndarray, t_end: float
) -> tuple[np.ndarray, Trajectory]:
    """Integrate the covariance ODE to t_end, recording Tr sigma per step.

    Returns sigma(t_end) and the trajectory.
    """
    _require_positive(t_end=t_end)
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    sigma0 = np.asarray(sigma0, dtype=float)

    times, traces = [], []
    for t, sigma, _ in _accepted_steps(w, d, sigma0, [t_end]):
        times.append(t)
        traces.append(float(np.trace(sigma)))
    return sigma, Trajectory(times=np.asarray(times), traces=np.asarray(traces))


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
    times, traces = [], []
    streak_start: float | None = None
    final_sigma: np.ndarray | None = None
    converged = False
    t_converged = None

    # Chunked targets keep steps aligned with the window bookkeeping.
    chunk = window / 4.0
    targets = np.arange(chunk, max_time + chunk / 2, chunk).tolist()
    for t, sigma, deriv_norm in _accepted_steps(w, d, sigma0, targets):
        times.append(t)
        traces.append(float(np.trace(sigma)))
        final_sigma = sigma
        if deriv_norm < threshold:
            if streak_start is None:
                streak_start = t
            elif t - streak_start >= window:
                converged = True
                t_converged = t
                break
        else:
            streak_start = None

    trajectory = Trajectory(
        times=np.asarray(times),
        traces=np.asarray(traces),
        converged=converged,
        t_converged=t_converged,
    )
    if not converged:
        raise ConvergenceError(
            f"no steady state within t={max_time:.3g}/kappa "
            f"(threshold {threshold:.3e}, window {window:.3g})"
        )
    return final_sigma, trajectory
