"""Grid sweeps over model parameters with per-point stability gating.

The grid is evaluated in row-major stacks of `BATCH` points, each as
columns: the axis values of the stack go through `apply_overrides`,
`derive_model`, `build_drift` and `build_diffusion` as arrays, with the
bits of the scalar calls.  `lyapunov.solve_stable` then gates every row
cheapest first, by the Routh-Hurwitz minors and then, for the rows they
pass, by W_+'s spectrum, which is W's, in closed form
(`stability.sector_spectrum`), and solves the rows that pass both;
`metric_row` evaluates their steady states in the sector
form sigma_+ (+) sigma_- of the solve, never joined into 8x8 matrices.  The
whole stack runs under one floating-point error state, so a row's outcome
does not depend on the warning filter.  A stack whose evaluation raises
anywhere (a row that fails validation, a square that overflows, a failed
solve, a metric that is not finite) is split in halves and each is
evaluated again, down to single rows, which go through the scalar calls:
one bad point is one error row with its own "{Type}: {message}".  The
stacks run one after another on the calling thread, and each writes only
its own rows, so the stack size does not change a result.

A `SweepResult` holds one float array per metric, the stable mask and the
per-row error texts, and writes CSV and JSON from them; its `grid` of JSON
rows is built only when read.  Unstable points are marked (or skipped),
never silently zeroed, and a point that failed is kept with its error text
under either policy.  Rerunning a spec reproduces the CSV byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .errors import EmptySweepError
from .lyapunov import solve_stable
from .matrices import build_diffusion, build_drift
from .metrics import METRIC_COLUMNS, metric_row
from .params import (
    DirectCouplings,
    PhysicalParams,
    PowerDrive,
    as_direct_drive,
    derive_model,
    expect_json,
)
from .stability import rhsc_check

# Values this close to the maximum, relative, are tied with it in
# find_optimum.  A metric that does not depend on the swept axis still
# varies by rounding: on the Lambda/kappa = 0.4999 row of fig2a, where
# nothing depends on the phase, en_cc spreads by 3.6e-12 and en_mm by
# 4.3e-12 relative over the 101 phases.
OPTIMUM_TIE_RTOL = 1e-11

# Points per stack.  On figures-dense in one thread on 2 vCPUs, stacks of
# 256, 512 and 1024 ran at medians of 78.0k, 88.5k and 80.2k points/s over
# 8 alternated runs each (IQRs 13.6k, 28.7k and 19.9k: the host was noisy),
# with peak RSS 74.0, 74.1 and 74.7 MB.
BATCH = 512

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


def _number(value):
    return value.astype(float) if isinstance(value, np.ndarray) else float(value)


def apply_overrides(params: PhysicalParams, overrides: dict[str, float]) -> PhysicalParams:
    """Apply raw-field and kappa-normalized overrides to a parameter set.

    Unknown keys are hard errors.  Raw fields apply first, then the
    normalized ones, each stage as one replace of the parameters (and one
    of the drive).  Setting a coupling on a power-specified drive first
    converts it to direct couplings using the current pump gain.  Array
    values give parameters with array fields, one row per element.
    """
    unknown = set(overrides) - set(OVERRIDE_KEYS)
    if unknown:
        raise ValueError(
            f"unknown parameter names: {sorted(unknown)}; "
            f"known names: {sorted(OVERRIDE_KEYS)}"
        )
    p = params

    scalars = {n: _number(overrides[n]) for n in _SCALAR_FIELDS if n in overrides}
    powers = {n: _number(overrides[n]) for n in _POWER_FIELDS if n in overrides}
    couplings = {n: _number(overrides[n]) for n in _COUPLING_FIELDS if n in overrides}
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

    ratio = {n: _number(overrides[n]) for n in _NORMALIZED_ORDER if n in overrides}
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
        if set(expect_json(obj, dict, "an axis")) == {"name", "values"}:
            for value in expect_json(obj["values"], list, "axis values"):
                if type(value) not in (int, float):  # bool, str, list, null
                    raise ValueError(f"axis values must be numbers, got {value!r}")
            return SweepAxis.explicit(obj["name"], obj["values"])
        if set(obj) != {"name", "min", "max", "count"}:
            raise ValueError(
                "an axis takes exactly {name, values} or {name, min, max, count}, "
                f"got {sorted(obj)}"
            )
        for key in ("min", "max"):
            if type(obj[key]) not in (int, float):  # bool, str, list, null
                raise ValueError(f"axis {key} must be a number, got {obj[key]!r}")
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

    def columns(self) -> dict[str, np.ndarray]:
        """The axis values of all grid points, row-major in axis order."""
        grids = np.meshgrid(*(np.array(ax.values) for ax in self.axes), indexing="ij")
        return {ax.name: g.reshape(-1) for ax, g in zip(self.axes, grids)}

    def assignments(self) -> list[dict[str, float]]:
        """All grid points, row-major in axis order."""
        columns = self.columns()
        return [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]

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
        unknown = set(expect_json(obj, dict, "a sweep spec")) - {f.name for f in fields(SweepSpec)}
        if unknown:
            raise ValueError(f"unknown sweep spec fields: {sorted(unknown)}")
        missing = {"base", "axes"} - set(obj)
        if missing:
            raise ValueError(f"missing sweep spec fields: {sorted(missing)}")
        values = dict(
            obj,
            base=PhysicalParams.from_json(obj["base"]),
            axes=tuple(SweepAxis.from_json(ax) for ax in expect_json(obj["axes"], list, "axes")),
        )
        if "outputs" in values:
            outputs = expect_json(values["outputs"], list, "outputs")
            values["outputs"] = tuple(expect_json(name, str, "an output name") for name in outputs)
        return SweepSpec(**values)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep as columns, row-major over the grid: the axis values, one
    float array per metric column (NaN in every row that is not stable), the
    stable mask and the error text of each row (None where it has none)."""

    spec: SweepSpec
    axes: dict[str, np.ndarray]
    columns: dict[str, np.ndarray]
    stable: np.ndarray
    errors: tuple[str | None, ...]
    optimum: dict[str, dict] = field(default_factory=dict)

    @cached_property
    def grid(self) -> tuple[dict, ...]:
        """One JSON row {"axes", "stable", "metrics", "error"} per grid point,
        built on first read; "metrics" is None on a row that is not stable."""
        axes = zip(*(values.tolist() for values in self.axes.values()))
        metrics = zip(*(values.tolist() for values in self.columns.values()))
        return tuple(
            {"axes": dict(zip(self.axes, point)), "stable": stable,
             "metrics": dict(zip(self.columns, row)) if stable else None, "error": error}
            for point, row, stable, error in zip(axes, metrics, self.stable.tolist(), self.errors)
        )

    def to_json(self) -> dict:
        return {"spec": self.spec.to_json(), "grid": list(self.grid), "optimum": self.optimum}

    def write_csv(self, path) -> None:
        """Write the rows as CSV.  Each distinct axis value is formatted once,
        and its text serves every row it is on; an unstable row, NaN in every
        metric cell, ends in one constant tail, and a stable row's other cells
        take one %-format."""
        outputs = list(self.spec.outputs)
        heads = list(map("".join, zip(*map(_axis_cells, self.axes.values()))))
        unstable_tail = "nan," * len(outputs) + "0,nan\n"
        lines = [head + unstable_tail for head in heads]
        row_format = "%.12g," * len(outputs) + "1,%.12g\n"
        cells = zip(*(self.columns[n][self.stable].tolist() for n in [*outputs, "physical"]))
        for i, row in zip(np.flatnonzero(self.stable).tolist(), cells):
            lines[i] = heads[i] + row_format % row
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join([*self.axes, *outputs, "stable", "physical"]) + "\n")
            fh.write("".join(lines))  # writelines would cost a call per line


def _axis_cells(values: np.ndarray) -> list[str]:
    """The CSV cell "%.12g," of each value, each distinct value (by its bits,
    so -0.0 is not 0.0) formatted once."""
    bits, at = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64),
                         return_inverse=True)
    cells = ["%.12g," % value for value in bits.view(float).tolist()]
    return [cells[i] for i in at.tolist()]


def _evaluate(base: PhysicalParams, axes: dict[str, np.ndarray], rows: np.ndarray,
              out: tuple) -> None:
    """Fill in `rows` of the sweep's (columns, stable, errors) in `out`, as
    one stack, or halved when it raises (see the module docstring)."""
    columns, stable, errors = out
    try:
        with np.errstate(all="ignore"):  # arrays overflow to inf, as floats do
            at = rows[0] if len(rows) == 1 else rows
            model = derive_model(apply_overrides(base, {n: v[at] for n, v in axes.items()}))
            hurwitz = rhsc_check(model)[3]
            # a quantity that no swept axis reaches is one value for every row
            w = np.broadcast_to(build_drift(model), (rows.size, 8, 8))
            d = np.broadcast_to(build_diffusion(model), (rows.size, 8, 8))
            hurwitz = np.broadcast_to(hurwitz, rows.shape)
            gate, solution = solve_stable(w, d, hurwitz)
            metrics = metric_row(solution.sectors) if solution is not None else {}
    except Exception as exc:  # a failed stack is split; a failed point is recorded
        if len(rows) == 1:
            errors[rows[0]] = f"{type(exc).__name__}: {exc}"
        else:
            for half in np.array_split(rows, 2):
                _evaluate(base, axes, half, out)
        return
    stable[rows] = gate
    for name, values in metrics.items():
        columns[name][rows[gate]] = values


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid point and locate the optimum of each output."""
    base = spec.base
    if spec.coupling_mode == "direct":
        base = as_direct_drive(base)
        spec = replace(spec, base=base)

    axes = spec.columns()
    size = spec.grid_size()
    columns = {name: np.full(size, math.nan) for name in METRIC_COLUMNS + ("physical",)}
    stable = np.zeros(size, dtype=bool)
    errors: list[str | None] = [None] * size
    for start in range(0, size, BATCH):
        _evaluate(base, axes, np.arange(start, min(start + BATCH, size)),
                  (columns, stable, errors))

    if spec.unstable_policy == "skip":  # a failed point stays, with its error text
        keep = stable | np.array([error is not None for error in errors])
        axes = {name: values[keep] for name, values in axes.items()}
        columns = {name: values[keep] for name, values in columns.items()}
        errors = [error for error, kept in zip(errors, keep) if kept]
        stable = stable[keep]
    result = SweepResult(spec, axes, columns, stable, tuple(errors))
    for metric in spec.outputs:
        try:
            at, value = find_optimum(result, metric)
            result.optimum[metric] = {"axes": at, "value": value}
        except EmptySweepError:
            result.optimum[metric] = None
    return result


def find_optimum(result: SweepResult, metric: str) -> tuple[dict[str, float], float]:
    """Grid argmax of one metric over stable points.

    Values within OPTIMUM_TIE_RTOL of the maximum count as tied with it,
    and the first grid index among them wins.
    """
    if metric not in result.spec.outputs:
        raise ValueError(f"metric {metric!r} not among sweep outputs {result.spec.outputs}")
    values = np.where(result.stable, result.columns[metric], math.nan)
    if np.isnan(values).all():
        raise EmptySweepError(f"no stable grid point carries metric {metric!r}")
    top = np.nanmax(values)
    index = int(np.argmax(values >= top - OPTIMUM_TIE_RTOL * abs(top)))
    return {name: v[index].item() for name, v in result.axes.items()}, values[index].item()
