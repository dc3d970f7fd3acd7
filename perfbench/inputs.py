"""Seeded inputs for the benchmark workloads.

The program sees only what these functions return: the `threshold-gate`
sweep specification and the `relax` point list.  One seed always gives the
same bytes (see `spec_bytes` and `points_bytes`).
"""

from __future__ import annotations

import bisect
import json
import math
import random

# threshold-gate: a direct-coupled Lambda x G+/G- grid whose thresholds
# Lambda = kappa/2 and G+ = G- cut through the middle, so that about 40 %
# of the points are stable and the rest end at the stability gate.
GATE_LAMBDA_MAX = 0.8
GATE_RATIO_MAX = 1.5
GATE_COUNT = 101
GATE_G_MINUS = (0.15, 0.45)

# relax: the fig9 point plus seeded stable points drawn uniformly in
# (G-/kappa, G+/G-, Lambda/kappa, phi) and rejection-sampled with `analyze`.
# A point must be strictly stable with G-/rate in [1.5, 9) (rate = -spectral
# abscissa in kappa units): the step count grows with that ratio, and points
# right at the thresholds take minutes each.  Accepted points then fill equal
# quotas in bins of predicted step count, so every seed asks for about the
# same integration work.
RELAX_BASE_PRESET = "appendixC"
RELAX_RANGES = (
    ("g_minus_over_kappa", 0.05, 1.0),
    ("g_plus_over_g_minus", 0.0, 0.999),
    ("lambda_over_kappa", 0.0, 0.4999),
    ("phi_over_pi", -1.0, 1.0),
)
RATE_RATIO = (1.5, 9.0)  # accepted range of G-/rate
# An odd bin count puts the median relaxation in the middle of the middle bin.
STEP_BIN_EDGES = tuple(400.0 * 5.0 ** (i / 9) for i in range(10))  # 400 .. 2000
POINTS_PER_BIN = 7
MAX_DRAWS = 200_000


def predicted_steps(point: dict[str, float], rate: float) -> float:
    """Accepted DP5(4) steps to relax one point at eps = 1e-8, roughly.

    A log-linear fit to 150 uniform draws with G-/rate in [1, 9); it misses
    by 13 % (standard deviation of the log) there and by 14 % on 120 fresh
    draws.  It only sorts points into bins.
    """
    return math.exp(
        6.148
        + 0.899 * math.log(point["g_minus_over_kappa"])
        - 0.533 * math.log(rate)
        - 0.536 * point["g_plus_over_g_minus"]
        + 1.578 * point["lambda_over_kappa"]
    )


def threshold_gate_spec(seed: int) -> dict:
    """Sweep specification (the JSON `omsqueeze sweep --config` reads)."""
    from omsqueeze.presets import coupling_base

    rng = random.Random(f"threshold-gate:{seed}")
    g_minus = rng.uniform(*GATE_G_MINUS)
    phi_over_pi = rng.uniform(-1.0, 1.0)
    base = coupling_base(g_minus_k=g_minus, phi=phi_over_pi * math.pi)
    return {
        "name": f"threshold-gate-{seed}",
        "base": base.to_json(),
        "axes": [
            {"name": "lambda_over_kappa", "min": 0.0, "max": GATE_LAMBDA_MAX,
             "count": GATE_COUNT},
            {"name": "g_plus_over_g_minus", "min": 0.0, "max": GATE_RATIO_MAX,
             "count": GATE_COUNT},
        ],
        "coupling_mode": "direct",
        "unstable_policy": "mark",
    }


def spec_bytes(spec: dict) -> bytes:
    return (json.dumps(spec, indent=2, sort_keys=True) + "\n").encode("utf-8")


def relax_points(seed: int) -> list[dict[str, float]]:
    """Override sets on the appendixC preset; the first (empty) is fig9."""
    from omsqueeze.params import derive_model
    from omsqueeze.presets import param_preset
    from omsqueeze.stability import analyze
    from omsqueeze.sweep import apply_overrides

    base = param_preset(RELAX_BASE_PRESET)
    rng = random.Random(f"relax:{seed}")
    bins: list[list[dict[str, float]]] = [[] for _ in STEP_BIN_EDGES[1:]]
    for _ in range(MAX_DRAWS):
        point = {name: rng.uniform(lo, hi) for name, lo, hi in RELAX_RANGES}
        report = analyze(derive_model(apply_overrides(base, point)))
        if not (report.rhsc_stable and report.eig_stable) or report.marginal:
            continue
        rate = -report.spectral_abscissa
        if not RATE_RATIO[0] <= point["g_minus_over_kappa"] / rate < RATE_RATIO[1]:
            continue
        index = bisect.bisect_right(STEP_BIN_EDGES, predicted_steps(point, rate)) - 1
        if 0 <= index < len(bins) and len(bins[index]) < POINTS_PER_BIN:
            bins[index].append(point)
            if all(len(b) == POINTS_PER_BIN for b in bins):
                return [{}] + [p for b in bins for p in b]
    raise RuntimeError(f"relax bins not filled after {MAX_DRAWS} draws")


def points_bytes(points: list[dict[str, float]]) -> bytes:
    return (json.dumps(points, sort_keys=True) + "\n").encode("utf-8")


def evolve_argv(point: dict[str, float]) -> list[str]:
    """`omsqueeze evolve` arguments that relax one point (eps = 1e-8)."""
    argv = ["evolve", "--preset", RELAX_BASE_PRESET, "--eps", "1e-8"]
    for name, value in point.items():
        argv += ["--set", f"{name}={value!r}"]
    return argv
