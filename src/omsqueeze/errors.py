"""Exception types shared across the package.

The CLI maps these onto exit codes: instability rejections exit with 3,
numerical failures with 4, everything parameter/usage related with 2.
"""


class ThresholdError(ValueError):
    """A denominator vanished: the pump sits on a parametric threshold."""


class UnstableSystemError(RuntimeError):
    """A steady-state computation was requested for an unstable drift."""


class DivergenceError(RuntimeError):
    """The integrated covariance grew without bound (unstable drift)."""


class ConvergenceError(RuntimeError):
    """Steady-state relaxation did not settle within the time cap."""


class PhysicalityError(ValueError):
    """A covariance matrix violates the Gaussian physicality constraints."""


class EmptySweepError(RuntimeError):
    """A sweep produced no stable grid point to report on."""
