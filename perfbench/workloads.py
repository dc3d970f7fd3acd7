"""The three benchmark workloads and the output checks that gate each pass.

Every workload is a closed loop with one caller: it calls
`omsqueeze.cli.main` in-process, waits for it, and only then issues the
next call.  A pass is one full round of the workload's inputs; every pass
is checked, and a failed check fails the run.

- figures-dense: `figure fig2a` then `figure fig5b` (20 402 stable points);
  every point pays for stability, the Lyapunov solve and the metrics.
- threshold-gate: `sweep --config` on a seeded 101 x 101 direct-coupled
  grid cut by the thresholds; most points end at the stability gate.
- relax: `evolve` (DP5(4) relaxation, eps = 1e-8) on the fig9 point and a
  seeded set of stable points, one after another.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
import time
from pathlib import Path

import numpy as np

import inputs

FIGURES = ("fig2a", "fig5b")
# Acceptance pins on the s2_m_db grid optimum: (reference dB, tolerance).
OPTIMUM_PINS = {"fig2a": (2.95, 0.3), "fig5b": (18.40, 0.5)}
# (rows, stable rows): every point of both presets is stable.
EXPECTED_ROWS = {"fig2a": (10201, 10201), "fig5b": (10201, 10201)}

ORACLE_SAMPLE = 64
VARIANCE_COLUMNS = ("v_xc", "v_yc", "v_xd", "v_yd")
LOG_COLUMNS = ("s2_c_db", "s2_m_db", "en_cc", "en_mm")
VARIANCE_RTOL = 1e-8
LOG_ATOL = 1e-6
RELAX_RTOL = 1e-6


class CheckFailed(Exception):
    """An output of the program is wrong; the run fails."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def jobs_flag_exists(cli) -> bool:
    sink = io.StringIO()
    try:
        with contextlib.redirect_stderr(sink):
            cli.build_parser().parse_args(["figure", "fig2a", "--jobs", "1"])
    except SystemExit:
        return False
    return True


class Workload:
    """Shared pass loop; subclasses supply the operations and the checks."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        import omsqueeze.cli

        self.cli = omsqueeze.cli
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        self.has_jobs_flag = jobs_flag_exists(self.cli)

    def operations(self, serial: bool) -> list[tuple[list[str], int]]:
        """CLI argument lists, each with the number of points it computes."""
        raise NotImplementedError

    @property
    def points_per_pass(self) -> int:
        return sum(points for _, points in self.operations(serial=False))

    def outputs(self) -> list[Path]:
        return []

    def run_pass(self, serial: bool = False, cli_main=None) -> tuple[float, list[float], int]:
        """Run every operation once; return (wall s, per-op s, failed points).

        `serial` asks for one process (`--jobs 1` while that flag exists);
        otherwise the CLI picks its default worker count.
        """
        main = cli_main or self.cli.main
        for path in self.outputs():
            path.unlink(missing_ok=True)  # a failed call must not leave old output
        latencies, failed = [], 0
        start = time.perf_counter()
        for argv, points in self.operations(serial):
            t0 = time.perf_counter()
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
            latencies.append(time.perf_counter() - t0)
            if code != 0:
                failed += points
        return time.perf_counter() - start, latencies, failed

    def check_pass(self) -> None:
        """Check the last pass's outputs; raise CheckFailed if one is wrong."""
        raise NotImplementedError


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _oracle_row(base, assignment: dict[str, float]) -> dict[str, float]:
    """Metrics from scipy's Lyapunov solver instead of the package's."""
    from scipy.linalg import solve_continuous_lyapunov

    from omsqueeze.matrices import build_diffusion, build_drift
    from omsqueeze.metrics import metric_row
    from omsqueeze.params import derive_model
    from omsqueeze.sweep import apply_overrides

    model = derive_model(apply_overrides(base, assignment))
    sigma = solve_continuous_lyapunov(build_drift(model), -build_diffusion(model))
    return metric_row((sigma + sigma.T) / 2.0)


def check_sweep_csv(spec, path: Path, rng: random.Random) -> dict[str, int]:
    """Check one sweep CSV against the spec it came from.

    - the header, the row count and every axis value, in row-major order;
    - every stable flag equals the closed-form `rhsc_check` verdict, except
      within the marginal band, where both routes lose sign reliability;
    - a seeded sample of stable rows matches scipy's Lyapunov solve.

    Returns the row, stable-row and marginal-row counts.
    """
    from dataclasses import replace

    from omsqueeze.matrices import build_drift
    from omsqueeze.params import as_direct_drive, derive_model
    from omsqueeze.stability import MARGINAL_BAND, rhsc_check
    from omsqueeze.sweep import apply_overrides

    if spec.coupling_mode == "direct":
        spec = replace(spec, base=as_direct_drive(spec.base))
    if not path.exists():
        raise CheckFailed(f"{path.name} was not written")
    header, rows = _read_csv(path)
    axis_names = [ax.name for ax in spec.axes]
    expected_header = axis_names + list(spec.outputs) + ["stable", "physical"]
    _require(header == expected_header, f"{path.name}: header {header}")
    assignments = spec.assignments()
    _require(len(rows) == len(assignments),
             f"{path.name}: {len(rows)} rows, expected {len(assignments)}")
    col = {name: i for i, name in enumerate(header)}
    stable_rows, marginal = [], 0
    for index, (row, assignment) in enumerate(zip(rows, assignments)):
        for name in axis_names:
            _require(math.isclose(float(row[col[name]]), assignment[name],
                                  rel_tol=1e-11, abs_tol=1e-12),
                     f"{path.name} row {index}: axis {name} = {row[col[name]]}")
        flag = row[col["stable"]] == "1"
        model = derive_model(apply_overrides(spec.base, assignment))
        if flag != rhsc_check(model)[3]:
            abscissa = float(np.max(np.linalg.eigvals(build_drift(model)).real))
            _require(abs(abscissa) < MARGINAL_BAND,
                     f"{path.name} row {index}: stable flag {int(flag)} disagrees "
                     f"with the Routh-Hurwitz verdict at {assignment}")
            marginal += 1
        if flag:
            stable_rows.append(index)
    for index in rng.sample(stable_rows, min(ORACLE_SAMPLE, len(stable_rows))):
        row, expected = rows[index], _oracle_row(spec.base, assignments[index])
        for name in VARIANCE_COLUMNS:
            got = float(row[col[name]])
            _require(math.isclose(got, expected[name], rel_tol=VARIANCE_RTOL),
                     f"{path.name} row {index}: {name} = {got}, oracle {expected[name]}")
        for name in LOG_COLUMNS:
            got = float(row[col[name]])
            _require(abs(got - expected[name]) <= LOG_ATOL,
                     f"{path.name} row {index}: {name} = {got}, oracle {expected[name]}")
    return {"rows": len(rows), "stable": len(stable_rows), "marginal": marginal}


class FiguresDense(Workload):
    name = "figures-dense"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from omsqueeze.presets import figure_preset

        self.specs = {name: figure_preset(name) for name in FIGURES}
        self.paths = {name: workdir / f"{name}.csv" for name in FIGURES}
        self.digests: dict[str, str] = {}

    def operations(self, serial: bool) -> list[tuple[list[str], int]]:
        jobs = ["--jobs", "1"] if serial and self.has_jobs_flag else []
        return [(["figure", name, "--out", str(self.paths[name])] + jobs,
                 self.specs[name].grid_size()) for name in FIGURES]

    def outputs(self) -> list[Path]:
        return list(self.paths.values())

    def check_pass(self) -> None:
        for name in FIGURES:
            path = self.paths[name]
            if name in self.digests:
                _require(path.exists() and _digest(path) == self.digests[name],
                         f"{name}.csv differs from the first pass")
                continue
            rng = random.Random(f"oracle:{self.seed}:{name}")
            counts = check_sweep_csv(self.specs[name], path, rng)
            rows, stable = EXPECTED_ROWS[name]
            # Every point is stable in closed form, so each 0 flag is an error row.
            _require(counts["rows"] == rows and counts["stable"] == stable,
                     f"{name}: {counts}, expected {rows} rows, {stable} stable, "
                     f"{rows - stable} errors")
            self._check_optimum(name, path)
            self.digests[name] = _digest(path)

    def _check_optimum(self, name: str, path: Path) -> None:
        header, rows = _read_csv(path)
        col, stable = header.index("s2_m_db"), header.index("stable")
        best = max(float(r[col]) for r in rows if r[stable] == "1")
        ref, tol = OPTIMUM_PINS[name]
        _require(abs(best - ref) <= tol,
                 f"{name}: s2_m_db optimum {best:.4f} dB outside {ref} +/- {tol}")


class ThresholdGate(Workload):
    name = "threshold-gate"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from omsqueeze.sweep import SweepSpec

        spec = inputs.threshold_gate_spec(seed)
        self.spec_path = workdir / "spec.json"
        self.spec_path.write_bytes(inputs.spec_bytes(spec))
        self.spec = SweepSpec.from_json(spec)
        self.csv_path = workdir / "grid.csv"
        self.digest: str | None = None

    def operations(self, serial: bool) -> list[tuple[list[str], int]]:
        jobs = ["--jobs", "1"] if serial and self.has_jobs_flag else []
        argv = ["sweep", "--config", str(self.spec_path), "--out", str(self.csv_path)]
        return [(argv + jobs, self.spec.grid_size())]

    def outputs(self) -> list[Path]:
        return [self.csv_path]

    def check_pass(self) -> None:
        if self.digest is not None:
            _require(self.csv_path.exists() and _digest(self.csv_path) == self.digest,
                     "grid.csv differs from the first pass")
            return
        rng = random.Random(f"oracle:{self.seed}:threshold-gate")
        check_sweep_csv(self.spec, self.csv_path, rng)
        self.digest = _digest(self.csv_path)


class Relax(Workload):
    name = "relax"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.points = inputs.relax_points(seed)
        self.argvs = [inputs.evolve_argv(point) for point in self.points]
        self.sigmas: list[np.ndarray] = []
        self._capture_steady_state()

    def _capture_steady_state(self) -> None:
        """Keep each relaxed covariance for the check (one call per operation)."""
        relax = self.cli.evolve_to_steady

        def capture(*args, **kwargs):
            sigma, trajectory = relax(*args, **kwargs)
            self.sigmas.append(sigma)
            return sigma, trajectory

        self.cli.evolve_to_steady = capture

    def operations(self, serial: bool) -> list[tuple[list[str], int]]:
        return [(argv, 1) for argv in self.argvs]

    def check_pass(self) -> None:
        from omsqueeze.lyapunov import solve_lyapunov
        from omsqueeze.matrices import build_diffusion, build_drift
        from omsqueeze.params import derive_model
        from omsqueeze.presets import param_preset
        from omsqueeze.sweep import apply_overrides

        sigmas, self.sigmas = self.sigmas, []
        _require(len(sigmas) == len(self.points),
                 f"{len(sigmas)} relaxations returned, {len(self.points)} run")
        base = param_preset(inputs.RELAX_BASE_PRESET)
        for point, sigma in zip(self.points, sigmas):
            model = derive_model(apply_overrides(base, point))
            ref = solve_lyapunov(build_drift(model), build_diffusion(model)).sigma
            err = float(np.linalg.norm(sigma - ref) / np.linalg.norm(ref))
            _require(err <= RELAX_RTOL,
                     f"relaxed covariance off by {err:.3e} (relative) at {point}")


WORKLOADS = {cls.name: cls for cls in (FiguresDense, ThresholdGate, Relax)}
