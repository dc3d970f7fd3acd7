"""Raw experimental inputs and their reduction to the dimensionless model.

Everything downstream works in cavity-decay units (kappa = 1). This module
owns the conversion: laser powers turn into intracavity field strengths,
field strengths into steady cavity amplitudes, amplitudes into effective
two-tone coupling rates, and bath temperatures into mean occupations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ThresholdError

# CODATA 2018; fixed, never user-configurable.
HBAR = 1.054571817e-34  # J s
K_BOLTZMANN = 1.380649e-23  # J / K

# Linearization guard: the rotating-wave step needs every rate well below
# the mechanical frequency.  Warn (never error) above this fraction.
RWA_GUARD_FRACTION = 0.3


def _require_finite(obj, names: tuple[str, ...]) -> None:
    """Reject NaN and infinite fields; range checks alone let NaN through."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def wrap_phase(phi: float) -> float:
    """Reduce an angle to the canonical interval (-pi, pi]."""
    r = math.fmod(phi, 2.0 * math.pi)
    if r > math.pi:
        r -= 2.0 * math.pi
    elif r <= -math.pi:
        r += 2.0 * math.pi
    return r


@dataclass(frozen=True)
class PowerDrive:
    """Two-tone drive given as laser powers on the red/blue sidebands (W)."""

    P_minus: float
    P_plus: float

    def __post_init__(self):
        _require_finite(self, ("P_minus", "P_plus"))
        if self.P_minus < 0 or self.P_plus < 0:
            raise ValueError("drive powers must be >= 0")


@dataclass(frozen=True)
class DirectCouplings:
    """Two-tone drive given directly as effective coupling rates (rad/s)."""

    G_minus: float
    G_plus: float

    def __post_init__(self):
        _require_finite(self, ("G_minus", "G_plus"))
        if self.G_minus < 0 or self.G_plus < 0:
            raise ValueError("effective couplings must be >= 0")


@dataclass(frozen=True)
class PhysicalParams:
    """Raw system parameters in SI angular-frequency units (rad/s, K, W).

    One (kappa, gamma, g, temperature) set serves both cavities and both
    mechanical modes; the model is hard-wired symmetric.
    """

    omega_m: float
    omega_c: float
    kappa: float
    gamma: float
    g: float
    lambda_pa: float
    phi: float
    temperature: float
    drive: PowerDrive | DirectCouplings

    def __post_init__(self):
        _require_finite(self, ("omega_m", "omega_c", "kappa", "gamma", "g",
                               "lambda_pa", "phi", "temperature"))
        for name in ("omega_m", "omega_c", "kappa", "gamma", "g"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.lambda_pa < 0:
            raise ValueError("lambda_pa must be >= 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        object.__setattr__(self, "phi", wrap_phase(self.phi))

    def to_json(self) -> dict:
        drive: dict[str, float]
        if isinstance(self.drive, PowerDrive):
            drive = {"P_minus": self.drive.P_minus, "P_plus": self.drive.P_plus}
        else:
            drive = {"G_minus": self.drive.G_minus, "G_plus": self.drive.G_plus}
        return {
            "omega_m": self.omega_m,
            "omega_c": self.omega_c,
            "kappa": self.kappa,
            "gamma": self.gamma,
            "g": self.g,
            "lambda_pa": self.lambda_pa,
            "phi": self.phi,
            "temperature": self.temperature,
            "drive": drive,
        }

    @staticmethod
    def from_json(obj: dict) -> "PhysicalParams":
        fields = dict(obj)
        if "drive" in fields:
            drive = fields.pop("drive")
        elif "drive_spec" in fields:  # accepted alias
            drive = fields.pop("drive_spec")
        else:
            raise ValueError("missing drive specification")
        if set(drive) == {"P_minus", "P_plus"}:
            parsed: PowerDrive | DirectCouplings = PowerDrive(**drive)
        elif set(drive) == {"G_minus", "G_plus"}:
            parsed = DirectCouplings(**drive)
        else:
            raise ValueError(
                "drive must carry either {P_minus, P_plus} or {G_minus, G_plus}"
            )
        known = {
            "omega_m", "omega_c", "kappa", "gamma", "g",
            "lambda_pa", "phi", "temperature",
        }
        unknown = set(fields) - known
        if unknown:
            raise ValueError(f"unknown parameter fields: {sorted(unknown)}")
        return PhysicalParams(drive=parsed, **fields)


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless model with every rate in units of kappa.

    gamma may be zero here (the gamma -> 0 limit is a useful analytic
    check) even though PhysicalParams requires strictly positive damping.
    omega_m is retained only so the RWA guard can be re-evaluated.
    """

    G_minus: float
    G_plus: float
    lambda_pa: float
    phi: float
    gamma: float
    n_c: float
    n_m: float
    omega_m: float = 8.0
    kappa: float = 1.0
    rwa_flagged: bool = False

    def __post_init__(self):
        _require_finite(self, ("G_minus", "G_plus", "lambda_pa", "phi", "gamma",
                               "n_c", "n_m", "omega_m", "kappa"))
        for name in ("G_minus", "G_plus", "lambda_pa", "gamma", "n_c", "n_m"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        object.__setattr__(self, "phi", wrap_phase(self.phi))


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein mean occupation of a bath mode at angular frequency omega.

    Returns exactly 0 at zero temperature instead of evaluating exp(inf).
    """
    if omega <= 0:
        raise ValueError("omega must be > 0")
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0:
        return 0.0
    x = HBAR * omega / (K_BOLTZMANN * temperature)
    if x > 700.0:  # occupation below ~1e-304; expm1 would overflow
        return 0.0
    return 1.0 / math.expm1(x)


def drive_amplitude(power: float, omega_drive: float, kappa: float) -> float:
    """Intracavity field strength |E| = sqrt(kappa P / (hbar omega)) in rad/s."""
    if power < 0:
        raise ValueError("power must be >= 0")
    if omega_drive <= 0 or kappa <= 0:
        raise ValueError("omega_drive and kappa must be > 0")
    return math.sqrt(kappa * power / (HBAR * omega_drive))


def steady_cavity_amplitude(
    field: float,
    kappa: float,
    delta_j: float,
    delta_k: float,
    lambda_pa: float,
) -> complex:
    """Steady amplitude of one cavity tone with the pump-coupled partner.

    The sideband convention fixes the detunings: +omega_m for the red
    (anti-Stokes) tone and -omega_m for the blue (Stokes) tone of each
    cavity.  A vanishing denominator means the pump sits exactly on the
    parametric threshold of the empty-cavity response.
    """
    den = (kappa / 2 + 1j * delta_j) * (kappa / 2 - 1j * delta_k) - lambda_pa**2
    scale = kappa**2 / 4 + abs(delta_j * delta_k) + lambda_pa**2
    if abs(den) <= 1e-12 * scale:
        raise ThresholdError(
            "steady-state denominator vanished (parametric threshold hit)"
        )
    return 1j * field * (kappa / 2 - 1j * delta_k) / den


def effective_couplings(params: PhysicalParams) -> tuple[float, float]:
    """Effective two-tone couplings (G_minus, G_plus) in rad/s.

    For power-specified drives this runs the full chain power -> field
    strength -> steady amplitude -> g |c_s|; magnitudes are taken, which is
    exact in the weak-coupling resolved-sideband regime where the steady
    amplitudes can be chosen real.
    """
    if isinstance(params.drive, DirectCouplings):
        return params.drive.G_minus, params.drive.G_plus
    e_minus = drive_amplitude(
        params.drive.P_minus, params.omega_c - params.omega_m, params.kappa
    )
    e_plus = drive_amplitude(
        params.drive.P_plus, params.omega_c + params.omega_m, params.kappa
    )
    cs_minus = steady_cavity_amplitude(
        e_minus, params.kappa, +params.omega_m, +params.omega_m, params.lambda_pa
    )
    cs_plus = steady_cavity_amplitude(
        e_plus, params.kappa, -params.omega_m, -params.omega_m, params.lambda_pa
    )
    return params.g * abs(cs_minus), params.g * abs(cs_plus)


def as_direct_drive(params: PhysicalParams) -> PhysicalParams:
    """Replace a power drive by the equivalent direct couplings (no-op if direct)."""
    if isinstance(params.drive, DirectCouplings):
        return params
    g_minus, g_plus = effective_couplings(params)
    return replace(params, drive=DirectCouplings(G_minus=g_minus, G_plus=g_plus))


def derive_model(params: PhysicalParams) -> ModelParams:
    """Reduce raw inputs to the kappa-normalized model parameters."""
    g_minus, g_plus = effective_couplings(params)
    kappa = params.kappa
    omega_m_k = params.omega_m / kappa
    g_minus_k = g_minus / kappa
    g_plus_k = g_plus / kappa
    lambda_k = params.lambda_pa / kappa
    flagged = max(g_minus_k, g_plus_k, lambda_k, 1.0) > RWA_GUARD_FRACTION * omega_m_k
    return ModelParams(
        G_minus=g_minus_k,
        G_plus=g_plus_k,
        lambda_pa=lambda_k,
        phi=params.phi,
        gamma=params.gamma / kappa,
        n_c=thermal_occupation(params.omega_c, params.temperature),
        n_m=thermal_occupation(params.omega_m, params.temperature),
        omega_m=omega_m_k,
        kappa=1.0,
        rwa_flagged=flagged,
    )
