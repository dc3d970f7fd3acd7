"""Routh-Hurwitz stability check and the eigenvalue-based cross-check.

The characteristic polynomial of the drift matrix factors exactly as the
square of a quartic whose coefficients do not involve the pump phase, so
the analysis runs two independent routes: closed-form Hurwitz minors of
that quartic, and a direct dense eigensolve of the 8x8 drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import build_drift
from .params import ModelParams

# Verdicts within this distance of a zero spectral abscissa are marginal:
# both routes lose sign reliability exactly on the threshold manifolds.
MARGINAL_BAND = 1e-9


@dataclass(frozen=True)
class RhscCoefficients:
    """Quartic coefficients s_r, in powers of kappa (s1: kappa .. s4: kappa^4)."""

    s1: float
    s2: float
    s3: float
    s4: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.s1, self.s2, self.s3, self.s4)


@dataclass(frozen=True)
class StabilityReport:
    coefficients: RhscCoefficients
    h1: float
    h2: float
    h3: float
    s_positive: tuple[bool, bool, bool, bool]
    rhsc_stable: bool
    eigenvalues: np.ndarray  # 8 complex, sorted by (Re, Im) ascending
    spectral_abscissa: float
    eig_stable: bool
    marginal: bool
    consistent: bool

    @property
    def stable(self) -> bool:
        """Both routes find strict stability and the spectrum is not marginal.

        This is the gate every steady-state computation passes through.
        """
        return self.rhsc_stable and self.eig_stable and not self.marginal

    def failure_reason(self) -> str | None:
        """Short machine-greppable tag for the first failed condition."""
        for name, value in zip(("s1", "s2", "s3", "s4"), self.coefficients.as_tuple()):
            if value <= 0:
                return f"{name}<0" if value < 0 else f"{name}=0"
        for name, value in (("h1", self.h1), ("h2", self.h2), ("h3", self.h3)):
            if value <= 0:
                return f"{name}<0" if value < 0 else f"{name}=0"
        if not self.eig_stable:
            return "spectral_abscissa>=0"
        return None

    def to_json(self) -> dict:
        c = self.coefficients
        return {
            "s1": float(c.s1),
            "s2": float(c.s2),
            "s3": float(c.s3),
            "s4": float(c.s4),
            "h1": float(self.h1),
            "h2": float(self.h2),
            "h3": float(self.h3),
            "s_positive": [bool(flag) for flag in self.s_positive],
            "rhsc_stable": bool(self.rhsc_stable),
            "eigenvalues": [
                {"re": float(ev.real), "im": float(ev.imag)} for ev in self.eigenvalues
            ],
            "spectral_abscissa": float(self.spectral_abscissa),
            "eig_stable": bool(self.eig_stable),
            "marginal": bool(self.marginal),
            "consistent": bool(self.consistent),
        }


def rhsc_coefficients(m: ModelParams) -> RhscCoefficients:
    """Closed-form quartic coefficients; independent of the pump phase."""
    kap, gam = m.kappa, m.gamma
    lam2 = m.lambda_pa**2
    dg2 = m.G_minus**2 - m.G_plus**2
    s1 = gam + kap
    s2 = gam * kap + 0.25 * (gam**2 + kap**2 - 4.0 * lam2) + 2.0 * dg2
    s3 = (gam + kap) * (0.25 * gam * kap + dg2) - gam * lam2
    s4 = dg2 * (dg2 + 0.5 * gam * kap) + gam**2 / 16.0 * (kap**2 - 4.0 * lam2)
    return RhscCoefficients(s1, s2, s3, s4)


def rhsc_check(m: ModelParams) -> tuple[float, float, float, bool]:
    """Hurwitz minors (h1, h2, h3) and the combined stability verdict."""
    return _hurwitz(rhsc_coefficients(m))


def _hurwitz(c: RhscCoefficients) -> tuple[float, float, float, bool]:
    h1 = c.s4
    h2 = c.s2 * c.s3 - c.s1 * h1
    h3 = c.s1 * h2 - c.s3**2
    verdict = bool(all(s > 0 for s in c.as_tuple()) and h1 > 0 and h2 > 0 and h3 > 0)
    return h1, h2, h3, verdict


def _sort_complex(values: np.ndarray) -> np.ndarray:
    order = np.lexsort((values.imag, values.real))
    return values[order]


def quartic_eigenvalues(m: ModelParams) -> np.ndarray:
    """Roots of the stability quartic via its 4x4 companion matrix.

    The companion route avoids the catastrophic cancellation the closed-form
    resolvent cubic suffers near marginal parameters.  Roots of the real
    quartic are returned conjugate-paired to machine precision; pairing is
    verified to 1e-10.
    """
    s1, s2, s3, s4 = rhsc_coefficients(m).as_tuple()
    companion = np.array(
        [
            [0.0, 0.0, 0.0, -s4],
            [1.0, 0.0, 0.0, -s3],
            [0.0, 1.0, 0.0, -s2],
            [0.0, 0.0, 1.0, -s1],
        ]
    )
    roots = np.linalg.eigvals(companion)
    _enforce_conjugate_pairing(roots, tol=1e-10)
    return _sort_complex(roots)


def _enforce_conjugate_pairing(roots: np.ndarray, tol: float) -> None:
    unmatched = [r for r in roots if r.imag > tol]
    pool = [r for r in roots if r.imag < -tol]
    for r in unmatched:
        best = min(pool, key=lambda q: abs(q - r.conjugate()))
        if abs(best - r.conjugate()) > tol:
            raise np.linalg.LinAlgError(
                "complex roots of a real quartic failed conjugate pairing"
            )
        pool.remove(best)


def drift_eigenvalues(w: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real drift matrix, sorted by (Re, Im) ascending."""
    return _sort_complex(np.linalg.eigvals(np.asarray(w, dtype=float)))


def analyze(m: ModelParams) -> StabilityReport:
    """Run both stability routes and the consistency cross-check."""
    coeffs = rhsc_coefficients(m)
    h1, h2, h3, rhsc_stable = _hurwitz(coeffs)
    eigenvalues = drift_eigenvalues(build_drift(m))
    abscissa = float(np.max(eigenvalues.real))
    eig_stable = abscissa < 0.0
    marginal = abs(abscissa) < MARGINAL_BAND
    consistent = (rhsc_stable == eig_stable) or marginal
    return StabilityReport(
        coefficients=coeffs,
        h1=h1,
        h2=h2,
        h3=h3,
        s_positive=tuple(s > 0 for s in coeffs.as_tuple()),
        rhsc_stable=rhsc_stable,
        eigenvalues=eigenvalues,
        spectral_abscissa=abscissa,
        eig_stable=eig_stable,
        marginal=marginal,
        consistent=consistent,
    )
