"""The traced pass: which package functions get spans, and the layer metrics.

Spans are recorded from outside the package, around the public functions
that `omsqueeze.cli` and `omsqueeze.sweep` call: the names those modules
imported are replaced for the duration of the pass and restored after it.
Names a later version no longer imports are skipped, so the pass still runs
and the layer simply reports no calls.
"""

from __future__ import annotations

import contextlib
import importlib

from spans import calls_by_name, self_time_by_name

# (module, imported name, span name); the span name's prefix is the layer.
WRAPPED = (
    ("omsqueeze.cli", "run_sweep", "sweep.run_sweep"),
    ("omsqueeze.cli", "apply_overrides", "sweep.apply_overrides"),
    ("omsqueeze.sweep", "apply_overrides", "sweep.apply_overrides"),
    ("omsqueeze.cli", "derive_model", "params.derive_model"),
    ("omsqueeze.sweep", "derive_model", "params.derive_model"),
    ("omsqueeze.cli", "analyze", "stability.analyze"),
    ("omsqueeze.sweep", "analyze", "stability.analyze"),
    ("omsqueeze.cli", "build_drift", "matrices.build"),
    ("omsqueeze.sweep", "build_drift", "matrices.build"),
    ("omsqueeze.cli", "build_diffusion", "matrices.build"),
    ("omsqueeze.sweep", "build_diffusion", "matrices.build"),
    ("omsqueeze.cli", "initial_covariance", "matrices.build"),
    ("omsqueeze.cli", "solve_lyapunov", "lyapunov.solve_lyapunov"),
    ("omsqueeze.sweep", "solve_lyapunov", "lyapunov.solve_lyapunov"),
    ("omsqueeze.cli", "metric_row", "metrics.metric_row"),
    ("omsqueeze.sweep", "metric_row", "metrics.metric_row"),
    ("omsqueeze.cli", "evolve_to_steady", "dynamics.evolve_to_steady"),
)


def _stability_result(recorder, report) -> None:
    if not (report.rhsc_stable and report.eig_stable and not report.marginal):
        recorder.counts["stability.rejected"] += 1


def _lyapunov_result(recorder, solution) -> None:
    recorder.note_max("lyapunov.residual_max", float(solution.residual_norm))


def _metrics_error(recorder, exc) -> None:
    from omsqueeze.errors import PhysicalityError

    if isinstance(exc, PhysicalityError):
        recorder.counts["metrics.errors"] += 1


def _sweep_result(recorder, result) -> None:
    recorder.counts["sweep.points"] += len(result.grid)


def _relax_result(recorder, result) -> None:
    recorder.counts["dynamics.accepted_steps"] += len(result[1].times) - 1


HOOKS = {
    "stability.analyze": {"on_result": _stability_result},
    "lyapunov.solve_lyapunov": {"on_result": _lyapunov_result},
    "metrics.metric_row": {"on_error": _metrics_error},
    "sweep.run_sweep": {"on_result": _sweep_result},
    "dynamics.evolve_to_steady": {"on_result": _relax_result},
}


@contextlib.contextmanager
def install(recorder, workload):
    """Wrap the package functions for one pass; yields the wrapped cli.main.

    A point id starts at each grid point's `apply_overrides` in the sweeps
    and at each `evolve` call in the relax workload.
    """
    from omsqueeze.sweep import SweepResult

    per_call = workload.name == "relax"
    saved = []
    try:
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            new_point = span == "sweep.apply_overrides" and not per_call
            setattr(module, attr, recorder.wrap(span, original, new_point=new_point,
                                                **HOOKS.get(span, {})))
        if hasattr(SweepResult, "write_csv"):
            saved.append((SweepResult, "write_csv", SweepResult.write_csv))
            SweepResult.write_csv = recorder.wrap("sweep.write_csv", SweepResult.write_csv)
        yield recorder.wrap("cli.main", workload.cli.main, new_point=per_call)
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer_metrics(recorder, spans, traced_s: float, untraced_s: float) -> dict:
    """Layer metrics of one traced pass.

    `*_us` is the mean self time per call, so calls x us is the layer's
    share of the traced wall time; `*.self_s` is a total.
    """
    own = self_time_by_name(spans)
    calls = calls_by_name(spans)
    counts = recorder.counts

    def per_call_us(span: str) -> float:
        return own.get(span, 0.0) / calls[span] * 1e6 if calls[span] else 0.0

    points = counts["sweep.points"]
    steps = counts["dynamics.accepted_steps"]
    relax_s = own.get("dynamics.evolve_to_steady", 0.0)
    useful = calls["metrics.metric_row"] - counts["metrics.errors"]
    return {
        "cli.self_s": metric(own.get("cli.main", 0.0), "s"),
        "sweep.self_s": metric(own.get("sweep.run_sweep", 0.0), "s"),
        "sweep.write_csv_s": metric(own.get("sweep.write_csv", 0.0), "s"),
        "sweep.overrides_us": metric(per_call_us("sweep.apply_overrides"), "us"),
        "sweep.overrides_calls": metric(calls["sweep.apply_overrides"], "count"),
        "sweep.points": metric(points, "count"),
        "sweep.useful_share": metric(useful / points if points else 0.0, "ratio"),
        "params.derive_model_us": metric(per_call_us("params.derive_model"), "us"),
        "params.calls": metric(calls["params.derive_model"], "count"),
        "matrices.build_us": metric(per_call_us("matrices.build"), "us"),
        "matrices.calls": metric(calls["matrices.build"], "count"),
        "stability.analyze_us": metric(per_call_us("stability.analyze"), "us"),
        "stability.calls": metric(calls["stability.analyze"], "count"),
        "stability.rejected": metric(counts["stability.rejected"], "count"),
        "lyapunov.solve_us": metric(per_call_us("lyapunov.solve_lyapunov"), "us"),
        "lyapunov.calls": metric(calls["lyapunov.solve_lyapunov"], "count"),
        "lyapunov.residual_max": metric(
            recorder.maxima.get("lyapunov.residual_max", 0.0), "ratio"),
        "metrics.metric_row_us": metric(per_call_us("metrics.metric_row"), "us"),
        "metrics.calls": metric(calls["metrics.metric_row"], "count"),
        "metrics.errors": metric(counts["metrics.errors"], "count"),
        "dynamics.relax_s": metric(relax_s, "s"),
        "dynamics.accepted_steps": metric(steps, "count"),
        "dynamics.step_us": metric(relax_s / steps * 1e6 if steps else 0.0, "us"),
        "trace.traced_s": metric(traced_s, "s"),
        "trace.untraced_s": metric(untraced_s, "s"),
        "trace.overhead_s": metric(traced_s - untraced_s, "s"),
        "trace.accounted_share": metric(sum(own.values()) / traced_s, "ratio"),
    }
