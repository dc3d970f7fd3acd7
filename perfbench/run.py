"""omsqueeze benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload figures-dense --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from `src/`.
With `--trace 0` it repeats untraced passes for `--seconds` seconds and
reports the end-to-end metrics (medians over passes and set-up probes).
With `--trace 1` it runs one untraced pass with the CLI's default worker
count, one serial untraced pass and one serial traced pass, and reports the
per-layer metrics.  Every pass is checked; a failed check prints
`"correct": false` and exits 1.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A results
file with the environment record goes to `perfbench/out/`.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the CLI's worker pool already uses every core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import install, metric, per_layer_metrics
from spans import Recorder, tail_percentile
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def environment(load_at_start: tuple[float, float, float]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # the record must not stop the benchmark
        blas = {"error": repr(exc)}
    commit = None
    if (ROOT / ".git").exists():  # a checkout outside git has no commit to name
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg_at_start": load_at_start,
        "platform": platform.platform(),
    }


def make_workload(name: str, seed: int):
    return WORKLOADS[name](seed, OUT / name)


def setup_probe(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports and prepares inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return elapsed


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest waited-for child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, child


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def end_to_end(workload, seconds: float, record: dict) -> dict:
    """Untraced passes for `seconds`, then set-up probes; end-to-end metrics."""
    passes, latencies, failed = [], [], 0
    while sum(passes) < seconds or not passes:
        wall, lat, failed_points = workload.run_pass()
        workload.check_pass()
        passes.append(wall)
        latencies += lat
        failed += failed_points
    own_rss, worker_rss = peak_rss_mb()  # before the probes add children
    setups = [setup_probe(workload.name, workload.seed) for _ in range(SETUP_PROBES)]
    tail, tail_pct, samples = tail_percentile(latencies)
    record.update(
        attempted=workload.points_per_pass * len(passes),
        failed=failed,
        pass_wall_s=passes,
        operation_latency_s=latencies,
        latency_tail={"value_ms": tail * 1e3, "percentile": tail_pct, "samples": samples},
        peak_rss={"process_mb": own_rss, "largest_worker_mb": worker_rss},
        setup_probe_s=setups,
    )
    per_pass = [workload.points_per_pass / wall for wall in passes]
    return {
        "points_per_s": metric(statistics.median(per_pass), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(max(own_rss, worker_rss), "MB"),
    }


def traced(workload, record: dict) -> dict:
    """Default, serial and traced serial passes; the per-layer metrics.

    The default pass (the CLI's own worker count) gives the CPU time; the
    serial untraced pass is the baseline the tracing overhead is taken from.
    """
    cpu_before = cpu_seconds()
    default_s, _, failed_default = workload.run_pass()
    cpu = cpu_seconds() - cpu_before
    workload.check_pass()

    untraced_s, _, failed_serial = workload.run_pass(serial=True)
    workload.check_pass()

    recorder = Recorder()
    with install(recorder, workload) as main:
        traced_s, _, failed_traced = workload.run_pass(serial=True, cli_main=main)
    workload.check_pass()
    spans = recorder.finish()

    metrics = per_layer_metrics(recorder, spans, traced_s, untraced_s)
    metrics["sweep.cpu_s"] = metric(cpu, "s")
    recorder.write(OUT / f"spans-{workload.name}-seed{workload.seed}.json")
    record.update(
        attempted=3 * workload.points_per_pass,
        failed=failed_default + failed_serial + failed_traced,
        default_pass_s=default_s,
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "omsqueeze" / "__init__.py").is_file():
        print(f"error: no omsqueeze sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        make_workload(args.workload, args.seed)
        return 0

    workload = make_workload(args.workload, args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(load_at_start)}
    try:
        if args.trace:
            metrics = traced(workload, record)
        else:
            metrics = end_to_end(workload, args.seconds, record)
        correct, error = True, None
    except CheckFailed as exc:
        correct, error, metrics = False, str(exc), {}
        record.setdefault("attempted", workload.points_per_pass)
        record.setdefault("failed", 0)
        print(f"check failed: {exc}", file=sys.stderr)
    result = {"correct": correct, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    record.update(result=result, check_error=error)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
