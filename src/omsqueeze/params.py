"""Raw experimental inputs and their reduction to the dimensionless model.

Everything downstream works in cavity-decay units (kappa = 1). This module
owns the conversion: laser powers turn into intracavity field strengths,
field strengths into steady cavity amplitudes, amplitudes into effective
two-tone coupling rates, and bath temperatures into mean occupations.

Fields may also be float arrays, one element per grid row: the reductions
then give each row the bits of the scalar call, and validation raises if
any row breaks a rule, so no instance ever holds an invalid row.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import ThresholdError

# CODATA 2018; fixed, never user-configurable.
HBAR = 1.054571817e-34  # J s
K_BOLTZMANN = 1.380649e-23  # J / K

# Linearization guard: the rotating-wave step needs every rate well below
# the mechanical frequency.  Warn (never error) above this fraction.
RWA_GUARD_FRACTION = 0.3


# Each class lists its validation RULES, (fields, test, message), in the
# order they are checked; finiteness comes first, since range tests alone
# let NaN through.  Each test takes a float or an array.
_FINITE = "{name} must be finite, got {value}"


def _finite(value):
    return abs(value) < math.inf  # False for inf and NaN; cheaper than np.isfinite on a float


def _validate(obj) -> None:
    """Raise ValueError for the first rule a field breaks, in any row; for
    an array field the message names the first bad row and its value."""
    for names, test, message in obj.RULES:
        for name in names:
            value = getattr(obj, name)
            ok = test(value)
            if ok is True or np.all(ok):
                continue
            if np.ndim(value) == 0:
                raise ValueError(message.format(name=name, value=value))
            row = int(np.argmin(ok))  # the first False
            value = value.flat[row].item()
            got = "" if "{value}" in message else f", got {value}"
            raise ValueError(f"{message.format(name=name, value=value)}{got} at row {row}")


# JSON names of the types json.load returns
_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               int: "number", float: "number", type(None): "null"}


def expect_json(value, kind: type, what: str):
    """`value` if it is a `kind` (dict, list or str); else a ValueError
    naming `what` and the JSON type found, so a malformed file is a usage
    error instead of a TypeError deeper down."""
    if not isinstance(value, kind):
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"{what} must be a JSON {_JSON_TYPES[kind]}, got {got}")
    return value


def _per_distinct(fn, *args):
    """The pair fn(*args) returns, as a pair of arrays when an argument is
    an array: fn runs once per distinct row of the broadcast array
    arguments, on plain floats and the other arguments as given, so every
    row gets the scalar call's bits.  One array alone is compared as floats,
    not as rows: on 512 rows that takes 0.03 ms instead of 1.3 ms."""
    arrays = [i for i, arg in enumerate(args) if isinstance(arg, np.ndarray)]
    if not arrays:
        return fn(*args)
    columns = np.broadcast_arrays(*(args[i] for i in arrays))
    if len(arrays) == 1:
        distinct, inverse = np.unique(columns[0], return_inverse=True)
        distinct = distinct[:, None]
    else:
        table = np.stack([c.reshape(-1) for c in columns], axis=-1)
        distinct, inverse = np.unique(table, axis=0, return_inverse=True)
    values = []
    for row in distinct.tolist():
        call = list(args)
        for i, value in zip(arrays, row):
            call[i] = value
        values.append(fn(*call))
    values = np.array(values)[inverse.reshape(-1)]
    return tuple(v.reshape(columns[0].shape) for v in values.T)


def wrap_phase(phi):
    """Reduce an angle (or each of an array) to the canonical interval (-pi, pi]."""
    if isinstance(phi, np.ndarray):  # the same steps element by element
        r = np.fmod(phi, 2.0 * math.pi)
        return np.where(r > math.pi, r - 2.0 * math.pi,
                        np.where(r <= -math.pi, r + 2.0 * math.pi, r))
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

    RULES = (
        (("P_minus", "P_plus"), _finite, _FINITE),
        (("P_minus", "P_plus"), lambda v: v >= 0, "drive powers must be >= 0"),
    )

    def __post_init__(self):
        _validate(self)


@dataclass(frozen=True)
class DirectCouplings:
    """Two-tone drive given directly as effective coupling rates (rad/s)."""

    G_minus: float
    G_plus: float

    RULES = (
        (("G_minus", "G_plus"), _finite, _FINITE),
        (("G_minus", "G_plus"), lambda v: v >= 0, "effective couplings must be >= 0"),
    )

    def __post_init__(self):
        _validate(self)


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

    RULES = (
        (("omega_m", "omega_c", "kappa", "gamma", "g", "lambda_pa", "phi", "temperature"),
         _finite, _FINITE),
        (("omega_m", "omega_c", "kappa", "gamma", "g"), lambda v: v > 0, "{name} must be > 0"),
        (("lambda_pa",), lambda v: v >= 0, "lambda_pa must be >= 0"),
        (("temperature",), lambda v: v >= 0, "temperature must be >= 0"),
    )

    def __post_init__(self):
        _validate(self)
        object.__setattr__(self, "phi", wrap_phase(self.phi))

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(obj: dict) -> "PhysicalParams":
        values = dict(expect_json(obj, dict, "parameters"))
        if "drive" in values:
            drive = values.pop("drive")
        elif "drive_spec" in values:  # accepted alias
            drive = values.pop("drive_spec")
        else:
            raise ValueError("missing drive specification")
        expect_json(drive, dict, "drive")
        kinds = {frozenset(f.name for f in fields(kind)): kind
                 for kind in (PowerDrive, DirectCouplings)}
        kind = kinds.get(frozenset(drive))
        if kind is None:
            raise ValueError(
                "drive must carry either "
                + " or ".join("{" + ", ".join(sorted(names)) + "}" for names in kinds)
            )
        names = {f.name for f in fields(PhysicalParams)} - {"drive"}
        unknown = set(values) - names
        if unknown:
            raise ValueError(f"unknown parameter fields: {sorted(unknown)}")
        missing = names - set(values)
        if missing:
            raise ValueError(f"missing parameter fields: {sorted(missing)}")
        for name, value in {**values, **drive}.items():
            if type(value) not in (int, float):  # bool, str, list, null
                raise ValueError(f"parameter {name} must be a number, got {value!r}")
        return PhysicalParams(drive=kind(**drive), **values)


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless model with every rate in units of kappa.

    gamma may be zero here (the gamma -> 0 limit is a useful analytic
    check) even though PhysicalParams requires strictly positive damping.
    """

    G_minus: float
    G_plus: float
    lambda_pa: float
    phi: float
    gamma: float
    n_c: float
    n_m: float
    rwa_flagged: bool = False

    RULES = (
        (("G_minus", "G_plus", "lambda_pa", "phi", "gamma", "n_c", "n_m"), _finite, _FINITE),
        (("G_minus", "G_plus", "lambda_pa", "gamma", "n_c", "n_m"), lambda v: v >= 0,
         "{name} must be >= 0"),
    )

    def __post_init__(self):
        _validate(self)
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
    amplitudes can be chosen real.  Array fields run the chain once per
    distinct input.
    """
    if isinstance(params.drive, DirectCouplings):
        return params.drive.G_minus, params.drive.G_plus
    return _per_distinct(
        _power_couplings, params.drive.P_minus, params.drive.P_plus,
        params.omega_m, params.omega_c, params.kappa, params.g, params.lambda_pa,
    )


def _power_couplings(p_minus, p_plus, omega_m, omega_c, kappa, g, lambda_pa):
    e_minus = drive_amplitude(p_minus, omega_c - omega_m, kappa)
    e_plus = drive_amplitude(p_plus, omega_c + omega_m, kappa)
    cs_minus = steady_cavity_amplitude(e_minus, kappa, +omega_m, +omega_m, lambda_pa)
    cs_plus = steady_cavity_amplitude(e_plus, kappa, -omega_m, -omega_m, lambda_pa)
    return g * abs(cs_minus), g * abs(cs_plus)


def as_direct_drive(params: PhysicalParams) -> PhysicalParams:
    """Replace a power drive by the equivalent direct couplings (no-op if direct)."""
    if isinstance(params.drive, DirectCouplings):
        return params
    g_minus, g_plus = effective_couplings(params)
    return replace(params, drive=DirectCouplings(G_minus=g_minus, G_plus=g_plus))


def _occupations(omega_c, omega_m, temperature):
    return thermal_occupation(omega_c, temperature), thermal_occupation(omega_m, temperature)


def derive_model(params: PhysicalParams) -> ModelParams:
    """Reduce raw inputs to the kappa-normalized model parameters."""
    g_minus, g_plus = effective_couplings(params)
    kappa = params.kappa
    omega_m_k = params.omega_m / kappa
    g_minus_k = g_minus / kappa
    g_plus_k = g_plus / kappa
    lambda_k = params.lambda_pa / kappa
    n_c, n_m = _per_distinct(_occupations, params.omega_c, params.omega_m, params.temperature)
    limit = RWA_GUARD_FRACTION * omega_m_k  # flagged when any rate, or kappa, exceeds it
    flagged = (g_minus_k > limit) | (g_plus_k > limit) | (lambda_k > limit) | (1.0 > limit)
    return ModelParams(
        G_minus=g_minus_k,
        G_plus=g_plus_k,
        lambda_pa=lambda_k,
        phi=params.phi,
        gamma=params.gamma / kappa,
        n_c=n_c,
        n_m=n_m,
        rwa_flagged=flagged,
    )
