"""Grid sweeps over model parameters with per-point stability gating.

Each grid point derives its own dimensionless model; the derived points
are then handled in stacks: one drift per point, one stability gate over
the stack (`analyze_stack`, a single batched eigensolve of the 4x4
sectors), and one Lyapunov solve and one metric evaluation of its stable
points, through the kernels a single point uses, so the stack size never
changes a result.  Unstable points are marked (or skipped), never
silently zeroed.  Grids are evaluated in deterministic row-major order;
rerunning a spec reproduces the CSV byte for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import EmptySweepError
from .lyapunov import solve_lyapunov
from .matrices import build_diffusion, build_drift
from .metrics import METRIC_COLUMNS, metric_row
from .params import (
    DirectCouplings,
    PhysicalParams,
    PowerDrive,
    as_direct_drive,
    derive_model,
)
from .stability import analyze_stack

# Values this close to the maximum, relative, are tied with it in
# find_optimum.  A metric that does not depend on the swept axis still
# varies by rounding: on the Lambda/kappa = 0.4999 row of fig2a, where
# nothing depends on the phase, en_cc spreads by 3.6e-12 and en_mm by
# 4.3e-12 relative over the 101 phases.
OPTIMUM_TIE_RTOL = 1e-11

BATCH = 64  # points per stack; their 4 x 64 sector systems of 16x16 take 0.5 MB

AXIS_NAMES = (
    "lambda_over_kappa",
    "phi_over_pi",
    "p_plus_over_p_minus",
    "g_minus_over_kappa",
    "g_plus_over_g_minus",
    "temperature_mk",
    "gamma_over_kappa",
)

# Normalized overrides apply in this fixed order so that coupling ratios
# always act on already-updated pump gain and red-tone values.
_NORMALIZED_ORDER = (
    "temperature_mk",
    "gamma_over_kappa",
    "lambda_over_kappa",
    "phi_over_pi",
    "p_plus_over_p_minus",
    "g_minus_over_kappa",
    "g_plus_over_g_minus",
)

_SCALAR_FIELDS = tuple(f.name for f in fields(PhysicalParams) if f.name != "drive")
_POWER_FIELDS = tuple(f.name for f in fields(PowerDrive))
_COUPLING_FIELDS = tuple(f.name for f in fields(DirectCouplings))
_RAW_FIELDS = _SCALAR_FIELDS + _POWER_FIELDS + _COUPLING_FIELDS

OVERRIDE_KEYS = _RAW_FIELDS + AXIS_NAMES


def apply_overrides(params: PhysicalParams, overrides: dict[str, float]) -> PhysicalParams:
    """Apply raw-field and kappa-normalized overrides to a parameter set.

    Unknown keys are hard errors.  Raw fields apply first, then the
    normalized ones, each stage as one replace of the parameters (and one
    of the drive).  Setting a coupling on a power-specified drive first
    converts it to direct couplings using the current pump gain.
    """
    unknown = set(overrides) - set(OVERRIDE_KEYS)
    if unknown:
        raise ValueError(
            f"unknown parameter names: {sorted(unknown)}; "
            f"known names: {sorted(OVERRIDE_KEYS)}"
        )
    p = params

    scalars = {n: float(overrides[n]) for n in _SCALAR_FIELDS if n in overrides}
    powers = {n: float(overrides[n]) for n in _POWER_FIELDS if n in overrides}
    couplings = {n: float(overrides[n]) for n in _COUPLING_FIELDS if n in overrides}
    drive = p.drive
    if powers:
        if not isinstance(drive, PowerDrive):
            raise ValueError(f"{next(iter(powers))} requires a power-specified drive")
        drive = replace(drive, **powers)
    if couplings:
        if not isinstance(drive, DirectCouplings):
            drive = as_direct_drive(replace(p, drive=drive, **scalars)).drive
        drive = replace(drive, **couplings)
    if scalars or drive is not p.drive:
        p = replace(p, drive=drive, **scalars)

    ratio = {n: float(overrides[n]) for n in _NORMALIZED_ORDER if n in overrides}
    if not ratio:
        return p
    scalars = {}
    if "temperature_mk" in ratio:
        scalars["temperature"] = ratio["temperature_mk"] * 1e-3
    if "gamma_over_kappa" in ratio:
        scalars["gamma"] = ratio["gamma_over_kappa"] * p.kappa
    if "lambda_over_kappa" in ratio:
        scalars["lambda_pa"] = ratio["lambda_over_kappa"] * p.kappa
    if "phi_over_pi" in ratio:
        scalars["phi"] = ratio["phi_over_pi"] * math.pi
    drive = p.drive
    if "p_plus_over_p_minus" in ratio:
        if not isinstance(drive, PowerDrive):
            raise ValueError("p_plus_over_p_minus requires a power-specified drive")
        drive = replace(drive, P_plus=ratio["p_plus_over_p_minus"] * drive.P_minus)
    if "g_minus_over_kappa" in ratio or "g_plus_over_g_minus" in ratio:
        if not isinstance(drive, DirectCouplings):
            drive = as_direct_drive(replace(p, drive=drive, **scalars)).drive
        g_minus, g_plus = drive.G_minus, drive.G_plus
        if "g_minus_over_kappa" in ratio:
            g_minus = ratio["g_minus_over_kappa"] * p.kappa
        if "g_plus_over_g_minus" in ratio:
            g_plus = ratio["g_plus_over_g_minus"] * g_minus
        drive = DirectCouplings(G_minus=g_minus, G_plus=g_plus)
    return replace(p, drive=drive, **scalars)


@dataclass(frozen=True)
class SweepAxis:
    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name must be one of {AXIS_NAMES}, got {self.name!r}")
        if len(self.values) < 2:
            raise ValueError("axes need at least 2 points")
        values = tuple(float(v) for v in self.values)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"axis {self.name} has non-finite values: {list(values)}")
        object.__setattr__(self, "values", values)

    @staticmethod
    def linear(name: str, lo: float, hi: float, count: int) -> "SweepAxis":
        return SweepAxis(name, tuple(np.linspace(lo, hi, count)))

    @staticmethod
    def explicit(name: str, values) -> "SweepAxis":
        return SweepAxis(name, tuple(values))

    def to_json(self) -> dict:
        return {"name": self.name, "values": list(self.values)}

    @staticmethod
    def from_json(obj: dict) -> "SweepAxis":
        """An axis is exactly {name, values} or {name, min, max, count},
        with a whole-number count."""
        if set(obj) == {"name", "values"}:
            return SweepAxis.explicit(obj["name"], obj["values"])
        if set(obj) != {"name", "min", "max", "count"}:
            raise ValueError(
                "an axis takes exactly {name, values} or {name, min, max, count}, "
                f"got {sorted(obj)}"
            )
        count = obj["count"]
        if type(count) not in (int, float) or count % 1 != 0:  # bool, 2.7, inf, NaN
            raise ValueError(f"axis count must be a whole number, got {count!r}")
        return SweepAxis.linear(obj["name"], obj["min"], obj["max"], int(count))


@dataclass(frozen=True)
class SweepSpec:
    base: PhysicalParams
    axes: tuple[SweepAxis, ...]
    coupling_mode: str = "direct"  # powers | direct
    outputs: tuple[str, ...] = METRIC_COLUMNS
    unstable_policy: str = "mark"  # mark | skip
    name: str = "sweep"

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("sweeps take one or two axes")
        if self.coupling_mode not in ("powers", "direct"):
            raise ValueError("coupling_mode must be 'powers' or 'direct'")
        if self.unstable_policy not in ("mark", "skip"):
            raise ValueError("unstable_policy must be 'mark' or 'skip'")
        bad = set(self.outputs) - set(METRIC_COLUMNS)
        if bad:
            raise ValueError(f"unknown output metrics: {sorted(bad)}")
        if self.coupling_mode == "powers" and not isinstance(self.base.drive, PowerDrive):
            raise ValueError("powers mode needs a power-specified base drive")
        axis_names = [ax.name for ax in self.axes]
        if len(set(axis_names)) != len(axis_names):
            raise ValueError("axes must sweep distinct parameters")
        if "p_plus_over_p_minus" in axis_names and self.coupling_mode != "powers":
            raise ValueError("a power-ratio axis requires coupling_mode='powers'")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(ax.values) for ax in self.axes)

    def grid_size(self) -> int:
        return int(np.prod(self.shape))

    def assignments(self) -> list[dict[str, float]]:
        """All grid points, row-major in axis order."""
        combos = itertools.product(*(ax.values for ax in self.axes))
        names = [ax.name for ax in self.axes]
        return [dict(zip(names, combo)) for combo in combos]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "base": self.base.to_json(),
            "axes": [ax.to_json() for ax in self.axes],
            "coupling_mode": self.coupling_mode,
            "outputs": list(self.outputs),
            "unstable_policy": self.unstable_policy,
        }

    @staticmethod
    def from_json(obj: dict) -> "SweepSpec":
        unknown = set(obj) - {f.name for f in fields(SweepSpec)}
        if unknown:
            raise ValueError(f"unknown sweep spec fields: {sorted(unknown)}")
        values = dict(
            obj,
            base=PhysicalParams.from_json(obj["base"]),
            axes=tuple(SweepAxis.from_json(ax) for ax in obj["axes"]),
        )
        if "outputs" in values:
            values["outputs"] = tuple(values["outputs"])
        return SweepSpec(**values)


@dataclass(frozen=True)
class GridPoint:
    axes: dict[str, float]
    stable: bool
    metrics: dict[str, float] | None  # None iff unstable or errored
    error: str | None = None

    def to_json(self) -> dict:
        return {
            "axes": self.axes,
            "stable": bool(self.stable),
            "metrics": self.metrics,
            "error": self.error,
        }


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    grid: tuple[GridPoint, ...]
    optimum: dict[str, dict] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "grid": [p.to_json() for p in self.grid],
            "optimum": self.optimum,
        }

    def write_csv(self, path) -> None:
        axis_names = [ax.name for ax in self.spec.axes]
        columns = axis_names + list(self.spec.outputs) + ["stable", "physical"]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(columns) + "\n")
            for point in self.grid:
                cells = [f"{point.axes[n]:.12g}" for n in axis_names]
                metrics = point.metrics or {}
                for name in self.spec.outputs:
                    cells.append(f"{metrics.get(name, math.nan):.12g}")
                cells.append("1" if point.stable else "0")
                cells.append(f"{metrics.get('physical', math.nan):.12g}")
                fh.write(",".join(cells) + "\n")


def _failed(assignment: dict[str, float], exc: Exception) -> GridPoint:
    return GridPoint(
        dict(assignment), stable=False, metrics=None,
        error=f"{type(exc).__name__}: {exc}",
    )


def _evaluate(pending: list, points: list[GridPoint]) -> None:
    """Fill in the rows of the derived points waiting as (row, assignment,
    model): one drift per point, one stability gate over the stack, then
    one Lyapunov solve and one metric evaluation of its stable points.  If
    any of that raises, each point is evaluated alone, so one bad point is
    one error row."""
    try:
        models = [model for _, _, model in pending]
        w = np.stack([build_drift(model) for model in models])
        stable = [i for i, report in enumerate(analyze_stack(models, w)) if report.stable]
        if stable:
            d = np.stack([build_diffusion(models[i]) for i in stable])
            sigma = solve_lyapunov(w[stable], d).sigma
            columns = {k: v.tolist() for k, v in metric_row(sigma).items()}
    except Exception as exc:  # a failed stack is split; a failed point is recorded
        if len(pending) == 1:
            row, assignment, _ = pending[0]
            points[row] = _failed(assignment, exc)
        else:
            for waiting in pending:
                _evaluate([waiting], points)
        return
    for j, i in enumerate(stable):
        row, assignment, _ = pending[i]
        metrics = {k: v[j] for k, v in columns.items()}
        points[row] = GridPoint(dict(assignment), stable=True, metrics=metrics)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid point and locate the optimum of each output.

    Each point derives its own model; the derived points are gated and
    their stable ones solved in stacks of `BATCH`, each stack as soon as
    it is full.
    """
    base = spec.base
    if spec.coupling_mode == "direct":
        base = as_direct_drive(base)
        spec = replace(spec, base=base)

    points: list[GridPoint] = []
    pending = []  # (row, assignment, model) of derived points not yet evaluated
    for assignment in spec.assignments():
        try:
            model = derive_model(apply_overrides(base, assignment))
        except Exception as exc:  # per-point failures are recorded, never fatal
            points.append(_failed(assignment, exc))
            continue
        pending.append((len(points), assignment, model))
        points.append(GridPoint(dict(assignment), stable=False, metrics=None))
        if len(pending) == BATCH:
            _evaluate(pending, points)
            pending = []
    if pending:
        _evaluate(pending, points)

    if spec.unstable_policy == "skip":
        points = [p for p in points if p.stable]

    result = SweepResult(spec=spec, grid=tuple(points))
    optimum = {}
    for metric in spec.outputs:
        try:
            axes, value = find_optimum(result, metric)
            optimum[metric] = {"axes": axes, "value": value}
        except EmptySweepError:
            optimum[metric] = None
    return SweepResult(spec=spec, grid=tuple(points), optimum=optimum)


def find_optimum(result: SweepResult, metric: str) -> tuple[dict[str, float], float]:
    """Grid argmax of one metric over stable points.

    Values within OPTIMUM_TIE_RTOL of the maximum count as tied with it,
    and the first grid index among them wins.
    """
    if metric not in result.spec.outputs:
        raise ValueError(f"metric {metric!r} not among sweep outputs {result.spec.outputs}")
    values = [
        point.metrics.get(metric, math.nan)
        if point.stable and point.metrics is not None else math.nan
        for point in result.grid
    ]
    top = max((value for value in values if not math.isnan(value)), default=None)
    if top is None:
        raise EmptySweepError(f"no stable grid point carries metric {metric!r}")
    floor = top - OPTIMUM_TIE_RTOL * abs(top)
    index = next(i for i, value in enumerate(values) if value >= floor)
    return result.grid[index].axes, values[index]
