"""Fingerprint of every figure preset, and the script that regenerates it.

    PYTHONPATH=src python tests/golden_figures.py

writes tests/golden/figures.json.  For each grid preset it holds the row,
stable and physical counts, per metric column the finite count, min, max,
sum and first argmax, and every printed `optimum[...]` line; for the fig9
trace, the sample count (early samples and grid steps), t_converged and the
plateau.
`tests/test_figures.py` compares a fresh run against the file.

A change that moves cells on purpose regenerates the file and lists the
entries that changed.  Regeneration rewrites only the entries that the
comparison flags, so rounding noise within RTOL leaves the file as it is.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from omsqueeze import FIGURE_NAMES, TracePreset, evolve_to_steady, figure_preset, run_sweep
from omsqueeze.matrices import build_diffusion, build_drift, initial_covariance
from omsqueeze.params import derive_model

GOLDEN = Path(__file__).resolve().parent / "golden" / "figures.json"
GRID_NAMES = tuple(n for n in FIGURE_NAMES if not isinstance(figure_preset(n), TracePreset))

# Relative tolerance of every float in the file, chosen by measurement:
# rounding-level changes to the solver move a min, max or sum by at most
# 3e-12 (2-ulp noise on every entry of sigma: 1.3e-12; the 10x10 sector
# kernel in place of the 16x16 one: 2.9e-12, on an s2_c_db maximum near
# 0 dB), while the E_N formula that cancelled near Lambda -> kappa/2 (cells
# off by up to 2.8e-9) moves en_cc and en_mm sums by 2.3e-11 and maxima by
# up to 2.6e-9, and moves optimum lines.  The stack size moves nothing.
RTOL = 1e-11


def banded_argmax(values: np.ndarray) -> int:
    """First index within RTOL of the maximum, so rounding noise between
    near-equal values does not move it; -1 if no value is finite."""
    finite = np.isfinite(values)
    if not finite.any():
        return -1
    top = values[finite].max()
    return int(np.argmax(finite & (values >= top - RTOL * abs(top))))


def optimum_lines(result) -> list[str]:
    from omsqueeze.cli import _print_optima

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _print_optima(result)
    return out.getvalue().splitlines()


def grid_fingerprint(result) -> dict:
    columns = result.columns
    entry = {
        "rows": len(result.stable),
        "stable": int(result.stable.sum()),
        "physical": int(np.sum(columns["physical"] == 1.0)),
        "columns": {},
        "optimum": optimum_lines(result),
    }
    for name in result.spec.outputs:
        values = columns[name]
        finite = values[np.isfinite(values)]
        entry["columns"][name] = {
            "finite": int(finite.size),
            "min": float(finite.min()) if finite.size else None,
            "max": float(finite.max()) if finite.size else None,
            "sum": float(math.fsum(finite.tolist())),
            "argmax": banded_argmax(values),
        }
    return entry


def trace_fingerprint(preset: TracePreset) -> dict:
    model = derive_model(preset.params)
    _, trajectory = evolve_to_steady(
        build_drift(model), build_diffusion(model), initial_covariance(model)
    )
    return {
        "steps": len(trajectory.times) - 1,
        "t_converged": float(trajectory.t_converged),
        "plateau": float(trajectory.traces[-1]),
    }


def fingerprint(results: dict) -> dict:
    """The fingerprint of the grid results `results` (name -> SweepResult,
    every grid preset) and of the fig9 trace."""
    return {
        "rtol": RTOL,
        "grids": {name: grid_fingerprint(results[name]) for name in GRID_NAMES},
        "fig9": trace_fingerprint(figure_preset("fig9")),
    }


def merge(expected, got, path="", rtol=RTOL) -> tuple[object, list[str]]:
    """`got`, with every entry that stays within rtol of `expected` (floats
    relative, everything else exactly) kept as `expected` stores it, and one
    line for each entry that leaves it, which takes `got`'s value."""
    if isinstance(expected, dict) and isinstance(got, dict):
        flagged = [f"{path}/{k}: missing or extra" for k in set(expected) ^ set(got)]
        merged = {}
        for key in got:
            if key not in expected:
                merged[key] = got[key]
                continue
            merged[key], lines = merge(expected[key], got[key], f"{path}/{key}", rtol)
            flagged += lines
        return merged, flagged
    if isinstance(expected, float) and isinstance(got, float):
        if math.isclose(expected, got, rel_tol=rtol, abs_tol=0.0):
            return expected, []
    elif expected == got:
        return expected, []
    return got, [f"{path}: {expected!r} -> {got!r}"]


def differences(expected, got, path="", rtol=RTOL) -> list[str]:
    """Every entry where `got` leaves `expected`: floats by more than rtol
    relative, everything else exactly."""
    return merge(expected, got, path, rtol)[1]


def main() -> None:
    """Rewrite the file: each entry that `differences` flags takes the fresh
    value and is printed; every other entry keeps its stored bytes."""
    results = {name: run_sweep(figure_preset(name)) for name in GRID_NAMES}
    stored = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    merged, flagged = merge(stored, fingerprint(results))
    GOLDEN.write_text(json.dumps(merged, indent=1) + "\n", encoding="utf-8")
    for line in flagged:
        print(line)
    print(f"wrote {GOLDEN}: {len(flagged)} entries rewritten")


if __name__ == "__main__":
    main()
