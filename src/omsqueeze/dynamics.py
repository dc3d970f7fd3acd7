"""Time integration of the covariance equation of motion.

Relaxes sigma' = W sigma + sigma W^T + D with its exact propagator on a
uniform time grid, records the covariance trace at every grid time, and
detects relaxation to the steady state.  All times are in units of 1/kappa.

The state is y = svec(sigma): the n(n+1)/2 upper-triangle entries of the
(exactly symmetric) sigma, off-diagonal ones times sqrt(2), so ||y||_2 =
||sigma||_F.  The entries and the operator of W sigma + sigma W^T on them are
`matrices.upper_triangle`'s and `matrices.lyapunov_operator`'s, which the
sector solve in `lyapunov` shares; only the sqrt(2) scaling is this module's.
On y the equation is the constant-coefficient flow y' = L y + d, so with
e^(hA) = [[Phi, g], [0, 1]] for A = [[L, d], [0, 0]] (`_expm_chain`, Pade-13
scaling and squaring) one step of length h is exactly y <- Phi y + g.
sigma' = L y + d obeys the homogeneous flow, f <- Phi f, so ||sigma'||_F keeps
full relative precision down to the steady state.  Samples before the first
step, log-spaced from LOG_T_MIN, come from the squaring chain e^(hA / 2^k)
and are for output only.  The integration never consults the Lyapunov
solution: it checks it, all but the operator the two share, which the tests
check against the Kronecker route W (x) I + I (x) W.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConvergenceError, DivergenceError
from .matrices import lyapunov_operator, upper_triangle

DIVERGENCE_NORM = 1e150

# Steady-state threshold on ||sigma'||_F / ||D||_F.
STEADY_EPS = 1e-8
# The steady-state window and the give-up time, in relaxation times of the
# slowest drift mode (1 / |spectral abscissa|).
WINDOW_RELAXATIONS = 10.0
MAX_RELAXATIONS = 1e4
# Grid steps per steady-state window, and per `integrate` horizon.
GRID_STEPS = 40
# The output-only samples before the first step start at LOG_T_MIN (1/kappa).
LOG_T_MIN = 1e-2

# Pade-13 coefficients of e^x, and the 1-norm up to which that approximant
# needs no scaling (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA_13 = 5.371920351148152


@functools.cache
def _svec_basis(n: int) -> tuple[np.ndarray, tuple, np.ndarray]:
    """(s, upper, gather): y = svec(sigma) = s * sigma[upper], s = sqrt(2) off the
    diagonal, so ||y||_2 = ||sigma||_F; a symmetric sigma = (y / s)[gather].
    upper and gather are `matrices.upper_triangle`'s; s is built once per n,
    read-only."""
    upper, gather, _ = upper_triangle(n)
    s = np.where(upper[0] == upper[1], 1.0, math.sqrt(2.0))
    s.flags.writeable = False
    return s, upper, gather


def _upper_form(w: np.ndarray) -> np.ndarray:
    """L_y = S L_z S^-1, so L_y svec(sigma) = svec(W sigma + sigma W^T), with L_z
    the operator on the unscaled upper entries (`matrices.lyapunov_operator`)."""
    s, _, _ = _svec_basis(w.shape[0])
    return s[:, None] * lyapunov_operator(w) / s


def _squarings(a: np.ndarray) -> int:
    """The fewest squarings s with ||a / 2^s||_1 <= _THETA_13, for a finite a."""
    norm = np.abs(a).sum(axis=0).max()
    return max(0, math.ceil(math.log2(norm / _THETA_13))) if norm > 0 else 0


def _expm_chain(a: np.ndarray, squarings: int) -> list[np.ndarray]:
    """[e^(a / 2^s), ..., e^(a / 2), e^a] for s = `squarings`, which must be at
    least `_squarings(a)`: the Pade-13 approximant of e^(a / 2^s), squared s
    times.  a's last row must be zero, as in [[hL, hd], [0, 0]]; e^a's last row
    is then (0, ..., 0, 1), and is set so exactly, which keeps the squarings
    from scaling the last column by a drifting 1."""
    b = _PADE13
    a = a * 2.0**-squarings
    eye = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    chain = [np.linalg.solve(v - u, v + u)]
    chain[0][-1] = eye[-1]
    for _ in range(squarings):
        chain.append(chain[-1] @ chain[-1])
    return chain


@dataclass
class Trajectory:
    """Trace record of one covariance integration (times in 1/kappa)."""

    times: np.ndarray
    traces: np.ndarray
    converged: bool = False
    t_converged: float | None = None

    def to_csv(self, path) -> None:
        """Write every recorded sample, t = 0 first."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t_over_kappa,trace\n")
            for t, tr in zip(self.times, self.traces):
                fh.write(f"{t:.12g},{tr:.12g}\n")


def _require_positive(**values: float) -> None:
    """Reject a non-finite or non-positive argument before any stepping."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def _exact_steps(
    w: np.ndarray, d: np.ndarray, sigma0: np.ndarray, span: float
) -> Iterator[tuple[float, np.ndarray, float | None]]:
    """Yield (t, y = svec(sigma), ||sigma'||_F) at t = 0 and at t = span * k /
    GRID_STEPS for k = 1, 2, ... without end; between 0 and the first step, at
    t = h / 2^k from LOG_T_MIN up, samples for output only, whose norm is None.
    """
    s, upper, _ = _svec_basis(w.shape[0])
    m, h = s.size, span / GRID_STEPS
    op, drive = _upper_form(w), s * d[upper]
    a = np.zeros((m + 1, m + 1))
    a[:m, :m], a[:m, m] = h * op, h * drive
    if not np.isfinite(a).all():
        raise DivergenceError(f"covariance diverged: the step e^(hL) overflows at h={h:.6g}")

    y = s * ((sigma0 + sigma0.T) / 2.0)[upper]
    f = op.dot(y) + drive
    yield 0.0, y, math.sqrt(f.dot(f))

    # Steps start from sigma0 with a normally scaled e^(hA): the extra
    # squarings down to LOG_T_MIN cost accuracy and are for output only.
    natural = _squarings(a)
    early = max(0, math.floor(math.log2(h) - math.log2(LOG_T_MIN)))
    chain = _expm_chain(a, max(natural, early))
    for k in range(early, 0, -1):
        e = chain[-1 - k]
        yield h * 0.5**k, e[:m, :m].dot(y) + e[:m, m], None
    e = chain[-1] if natural >= early else _expm_chain(a, natural)[-1]

    # Rows [y; f] step together: [y; f] <- [y; f] Phi^T + [g; 0].
    phi_t, shift = e[:m, :m].T.copy(), np.zeros((2, m))
    shift[0] = e[:m, m]
    state = np.stack([y, f])
    for k in itertools.count(1):
        state = state.dot(phi_t) + shift
        y, f = state
        if not math.sqrt(y.dot(y)) <= DIVERGENCE_NORM:  # also inf and nan
            raise DivergenceError(
                f"covariance diverged at t={span * (k / GRID_STEPS):.6g} "
                "(unstable drift integrated too long)"
            )
        yield span * (k / GRID_STEPS), y, math.sqrt(f.dot(f))


def _record(times: list[float], states: list[np.ndarray], n: int,
            t_converged: float | None) -> tuple[np.ndarray, Trajectory]:
    """sigma at the last svec state, and the trajectory of Tr sigma: diagonal
    entries (s = 1) summed as one C-contiguous (steps, n) array, as `np.trace` sums."""
    s, _, gather = _svec_basis(n)
    traces = np.array(states).take(gather.diagonal(), axis=1).sum(axis=1)
    trajectory = Trajectory(np.asarray(times), traces, t_converged is not None, t_converged)
    return (states[-1] / s)[gather], trajectory


def integrate(
    w: np.ndarray, d: np.ndarray, sigma0: np.ndarray, t_end: float
) -> tuple[np.ndarray, Trajectory]:
    """Integrate the covariance ODE: sigma(t_end), and Tr sigma at GRID_STEPS
    uniform steps to t_end (and the early samples before the first)."""
    _require_positive(t_end=t_end)
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    sigma0 = np.asarray(sigma0, dtype=float)

    times, states = [], []
    # Overflow gives a non-finite state: DivergenceError, whatever the warning filter.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, y, _ in _exact_steps(w, d, sigma0, t_end):
            times.append(t)
            states.append(y)
            if t == t_end:
                break
    return _record(times, states, w.shape[0], None)


def evolve_to_steady(
    w: np.ndarray,
    d: np.ndarray,
    sigma0: np.ndarray,
    eps: float = STEADY_EPS,
) -> tuple[np.ndarray, Trajectory]:
    """Relax the covariance until ||sigma'||_F stays below eps ||D||_F.

    The drop below threshold must be sustained over a trailing window of
    WINDOW_RELAXATIONS relaxation times (from the spectral abscissa), which
    the grid divides into GRID_STEPS steps; after MAX_RELAXATIONS of them
    without that, ConvergenceError.  Unstable drifts are not rejected up
    front: integration then grows exponentially and raises DivergenceError,
    which is itself the verdict.
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
    streak = 0  # grid times in a row below threshold
    t_converged = None
    with np.errstate(over="ignore", invalid="ignore"):  # as in `integrate`
        for t, y, deriv_norm in _exact_steps(w, d, sigma0, window):
            if t > max_time:
                break
            times.append(t)
            states.append(y)
            if deriv_norm is None:  # an output-only early sample
                continue
            streak = streak + 1 if deriv_norm < threshold else 0
            if streak > GRID_STEPS:  # below threshold from one window back to now
                t_converged = t
                break

    if t_converged is None:
        raise ConvergenceError(
            f"no steady state within t={max_time:.3g}/kappa "
            f"(threshold {threshold:.3e}, window {window:.3g})"
        )
    return _record(times, states, w.shape[0], t_converged)
