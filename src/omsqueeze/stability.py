"""Routh-Hurwitz stability check and the closed-form spectral cross-check.

The drift splits exactly into a sum and a difference sector, W_+ (+) W_-
(`matrices.split_sectors`), whose 4x4 characteristic polynomials are the
same quartic, with coefficients that do not involve the pump phase: that
is why the 8x8 characteristic polynomial is a perfect square.  The
analysis runs two independent routes: closed-form Hurwitz minors of that
quartic, from the model, and W_+'s eigenvalues, from the drift's entries,
which `sector_spectrum` reads in closed form off the two 2x2 blocks that
W_+'s characteristic polynomial factors into; no eigensolver runs.
`analyze` reports both for one model.  A sweep takes the minors of a
model with array fields first (one verdict per row), and
`lyapunov.solve_stable` takes the spectrum of only the rows they pass.
Every spectral verdict is W_+'s, since W_- = T W_+ T^-1
(`matrices.split_drift`): `analyze`, the sweep gate and the Lyapunov
precheck read the same `sector_spectrum` values, so they reach one verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import build_drift, split_drift
from .params import ModelParams

# Verdicts within this distance of a zero spectral abscissa are marginal:
# both routes lose sign reliability exactly on the threshold manifolds.
MARGINAL_BAND = 1e-9


def spectral_verdict(abscissa):
    """'stable', 'marginal' or 'unstable' for a spectral abscissa (an array
    of them for an array).

    |abscissa| <= MARGINAL_BAND is marginal, so strict stability needs
    abscissa < -MARGINAL_BAND; NaN is unstable.  `analyze`, the sweep gate
    and the Lyapunov precheck all read this rule.
    """
    a = np.asarray(abscissa)
    verdict = np.where(
        np.abs(a) <= MARGINAL_BAND, "marginal", np.where(a < 0.0, "stable", "unstable")
    )
    return verdict.item() if verdict.ndim == 0 else verdict


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


def _square(x, name):
    """x * x.  numpy squares an array by multiplying, and a float's pow()
    can differ from that in the last bit, so squares are products: a row
    of a stacked model gets the scalar call's bits.  A square of a finite
    value that overflows raises OverflowError naming `name` and the value,
    for a float as for an array."""
    square = x * x
    overflow = (square == math.inf) & (abs(x) < math.inf)
    if overflow is not False and np.any(overflow):
        value = float(np.extract(overflow, x)[0])
        raise OverflowError(f"the square of {name} = {value!r} overflows a float")
    return square


def rhsc_coefficients(m: ModelParams) -> RhscCoefficients:
    """Closed-form quartic coefficients (kappa = 1); independent of the pump phase."""
    gam = m.gamma
    lam2 = _square(m.lambda_pa, "lambda_pa")
    dg2 = _square(m.G_minus, "G_minus") - _square(m.G_plus, "G_plus")
    gam2 = _square(gam, "gamma")
    s1 = gam + 1.0
    s2 = gam + 0.25 * (gam2 + 1.0 - 4.0 * lam2) + 2.0 * dg2
    s3 = s1 * (0.25 * gam + dg2) - gam * lam2
    s4 = dg2 * (dg2 + 0.5 * gam) + gam2 / 16.0 * (1.0 - 4.0 * lam2)
    return RhscCoefficients(s1, s2, s3, s4)


def rhsc_check(m: ModelParams) -> tuple[float, float, float, bool]:
    """Hurwitz minors (h1, h2, h3) and the combined stability verdict (per
    row, for a model with array fields)."""
    return _hurwitz(rhsc_coefficients(m))


def _hurwitz(c: RhscCoefficients) -> tuple[float, float, float, bool]:
    h1 = c.s4
    h2 = c.s2 * c.s3 - c.s1 * h1
    h3 = c.s1 * h2 - _square(c.s3, "s3")
    verdict = (c.s1 > 0) & (c.s2 > 0) & (c.s3 > 0) & (c.s4 > 0) & (h1 > 0) & (h2 > 0) & (h3 > 0)
    return h1, h2, h3, verdict


def sector_spectrum(w_plus: np.ndarray) -> np.ndarray:
    """The 4 eigenvalues of W_+ (or of each of a stack (..., 4, 4)) in
    closed form, as (..., 4) complex.

    `matrices.split_drift` gives W_+ = [[k2 I + P, C], [C, g2 I]] with the
    pump P symmetric and C = [[0, -a], [b, 0]], so C^2 = -ab I and
    det(W_+ - x) is the product over the eigenvalues p of k2 I + P of
    (p - x)(r - x) - q, with r = g2 and q = -ab: the spectrum of the two
    2x2 blocks [[p, q], [1, r]], whose roots are (p + r)/2 +- sqrt(((p -
    r)/2)^2 + q).  Only the entries W_00, W_11, W_01, W_22, W_03 and W_12
    are read, so W_+ must be of that form, as `split_drift` ensures.  Each
    value is computed elementwise from its own matrix's entries, so a row of
    a stack gets the bits of the matrix alone.  A value that is not finite
    raises LinAlgError, under any warning filter, as a dense eigensolve does.
    """
    w = np.asarray(w_plus, dtype=float)
    with np.errstate(all="ignore"):  # a value that is not finite raises below
        mean = (w[..., 0, 0] + w[..., 1, 1]) / 2.0
        radius = np.hypot((w[..., 0, 0] - w[..., 1, 1]) / 2.0, w[..., 0, 1])
        p = np.stack([mean + radius, mean - radius], axis=-1)
        r = w[..., 2, 2, None]
        q = (w[..., 0, 3] * w[..., 1, 2])[..., None]
        centre = (p + r) / 2.0
        half_gap = (p - r) / 2.0
        disc = half_gap * half_gap + q
        root = np.sqrt(np.abs(disc))
        shift = np.where(disc >= 0.0, root, 0.0)
        spread = root - shift  # the imaginary part, +0.0 for a real root
        parts = np.stack([centre + shift, spread, centre - shift, 0.0 - spread], axis=-1)
    if not np.isfinite(parts).all():
        raise np.linalg.LinAlgError(
            f"W_+ has a spectrum that is not finite (largest |entry| {np.max(np.abs(w)):.3e})"
        )
    return parts.view(complex).reshape(*w.shape[:-2], 4)


def drift_eigenvalues(w: np.ndarray) -> np.ndarray:
    """All 8 eigenvalues of a drift of `build_drift`'s form (or of each of a
    stack), sorted by (Re, Im) ascending: W_+'s 4 (`sector_spectrum`), each
    twice, since W_- is similar to W_+.  Any other matrix raises ValueError.
    """
    values = np.repeat(sector_spectrum(split_drift(w)[..., 0, :, :]), 2, axis=-1)
    return np.sort(values, axis=-1, kind="stable")


def analyze(m: ModelParams) -> StabilityReport:
    """Run both stability routes and the consistency cross-check.

    The eigenvalues listed, and their abscissa, are `drift_eigenvalues`,
    W_+'s spectrum as the sweep gate and the Lyapunov precheck take it, so
    all three reach one verdict on one model.
    """
    coeffs = rhsc_coefficients(m)
    h1, h2, h3, rhsc_stable = _hurwitz(coeffs)
    eigenvalues = drift_eigenvalues(build_drift(m))
    abscissa = eigenvalues.real.max().item()
    eig_stable = abscissa < 0.0
    marginal = spectral_verdict(abscissa) == "marginal"
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
        consistent=(rhsc_stable == eig_stable) or marginal,
    )
