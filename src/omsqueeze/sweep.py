"""Grid sweeps over model parameters with per-point stability gating.

Each grid point derives the dimensionless model and runs the stability
analysis; the stable points are then solved in stacks, one Lyapunov solve
and one metric evaluation per stack, through the kernels a single point
uses, so the stack size never changes a result.  Unstable points are
marked (or skipped), never silently zeroed.  Grids are evaluated in
deterministic row-major order; rerunning a spec reproduces the CSV byte
for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

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
from .stability import analyze

BATCH = 64  # stable points per stack; 64 Kronecker systems of 64x64 take 2 MB

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

_RAW_FIELDS = (
    "omega_m", "omega_c", "kappa", "gamma", "g", "lambda_pa", "phi",
    "temperature", "P_minus", "P_plus", "G_minus", "G_plus",
)

OVERRIDE_KEYS = _RAW_FIELDS + AXIS_NAMES


def apply_overrides(params: PhysicalParams, overrides: dict[str, float]) -> PhysicalParams:
    """Apply raw-field and kappa-normalized overrides to a parameter set.

    Unknown keys are hard errors.  Setting a coupling ratio on a
    power-specified drive first converts it to direct couplings using the
    current pump gain.
    """
    unknown = set(overrides) - set(OVERRIDE_KEYS)
    if unknown:
        raise ValueError(
            f"unknown parameter names: {sorted(unknown)}; "
            f"known names: {sorted(OVERRIDE_KEYS)}"
        )
    p = params
    for name in _RAW_FIELDS:
        if name not in overrides:
            continue
        value = float(overrides[name])
        if name in ("P_minus", "P_plus"):
            if not isinstance(p.drive, PowerDrive):
                raise ValueError(f"{name} requires a power-specified drive")
            p = replace(p, drive=replace(p.drive, **{name: value}))
        elif name in ("G_minus", "G_plus"):
            drive = p.drive
            if not isinstance(drive, DirectCouplings):
                p = as_direct_drive(p)
            p = replace(p, drive=replace(p.drive, **{name: value}))
        else:
            p = replace(p, **{name: value})
    for name in _NORMALIZED_ORDER:
        if name not in overrides:
            continue
        value = float(overrides[name])
        if name == "temperature_mk":
            p = replace(p, temperature=value * 1e-3)
        elif name == "gamma_over_kappa":
            p = replace(p, gamma=value * p.kappa)
        elif name == "lambda_over_kappa":
            p = replace(p, lambda_pa=value * p.kappa)
        elif name == "phi_over_pi":
            p = replace(p, phi=value * math.pi)
        elif name == "p_plus_over_p_minus":
            if not isinstance(p.drive, PowerDrive):
                raise ValueError("p_plus_over_p_minus requires a power-specified drive")
            p = replace(p, drive=replace(p.drive, P_plus=value * p.drive.P_minus))
        elif name == "g_minus_over_kappa":
            if not isinstance(p.drive, DirectCouplings):
                p = as_direct_drive(p)
            p = replace(p, drive=replace(p.drive, G_minus=value * p.kappa))
        elif name == "g_plus_over_g_minus":
            if not isinstance(p.drive, DirectCouplings):
                p = as_direct_drive(p)
            p = replace(p, drive=replace(p.drive, G_plus=value * p.drive.G_minus))
    return p


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
        if "values" in obj:
            return SweepAxis.explicit(obj["name"], obj["values"])
        return SweepAxis.linear(obj["name"], obj["min"], obj["max"], int(obj["count"]))


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
        return SweepSpec(
            base=PhysicalParams.from_json(obj["base"]),
            axes=tuple(SweepAxis.from_json(ax) for ax in obj["axes"]),
            coupling_mode=obj.get("coupling_mode", "direct"),
            outputs=tuple(obj.get("outputs", METRIC_COLUMNS)),
            unstable_policy=obj.get("unstable_policy", "mark"),
            name=obj.get("name", "sweep"),
        )


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


def _solve(pending: list, points: list[GridPoint]) -> None:
    """Fill in the rows of the stable points waiting as (row, assignment,
    model), solved as one stack.  If that raises, each point is solved
    alone, so one bad point is one error row."""
    try:
        w = np.stack([build_drift(model) for _, _, model in pending])
        d = np.stack([build_diffusion(model) for _, _, model in pending])
        columns = {k: v.tolist() for k, v in metric_row(solve_lyapunov(w, d).sigma).items()}
    except Exception as exc:  # a failed stack is split; a failed point is recorded
        if len(pending) == 1:
            row, assignment, _ = pending[0]
            points[row] = _failed(assignment, exc)
        else:
            for waiting in pending:
                _solve([waiting], points)
        return
    for i, (row, assignment, _) in enumerate(pending):
        metrics = {k: v[i] for k, v in columns.items()}
        points[row] = GridPoint(dict(assignment), stable=True, metrics=metrics)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid point and locate the optimum of each output.

    Each point passes its own stability gate; the stable ones are solved
    in stacks of `BATCH`, each stack as soon as it is full.
    """
    base = spec.base
    if spec.coupling_mode == "direct":
        base = as_direct_drive(base)
        spec = replace(spec, base=base)

    points: list[GridPoint] = []
    pending = []  # (row, assignment, model) of stable points not yet solved
    for assignment in spec.assignments():
        try:
            model = derive_model(apply_overrides(base, assignment))
            stable = analyze(model).stable
        except Exception as exc:  # per-point failures are recorded, never fatal
            points.append(_failed(assignment, exc))
            continue
        if stable:
            pending.append((len(points), assignment, model))
        points.append(GridPoint(dict(assignment), stable=False, metrics=None))
        if len(pending) == BATCH:
            _solve(pending, points)
            pending = []
    if pending:
        _solve(pending, points)

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
    """Grid argmax of one metric over stable points; first index wins ties."""
    if metric not in result.spec.outputs:
        raise ValueError(f"metric {metric!r} not among sweep outputs {result.spec.outputs}")
    best: tuple[dict[str, float], float] | None = None
    for point in result.grid:
        if not point.stable or point.metrics is None:
            continue
        value = point.metrics.get(metric, math.nan)
        if math.isnan(value):
            continue
        if best is None or value > best[1]:
            best = (point.axes, value)
    if best is None:
        raise EmptySweepError(f"no stable grid point carries metric {metric!r}")
    return best
