"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 instability rejection,
4 numerical failure.  All errors print one machine-greppable line
prefixed ``error:``; numeric output uses 9 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .dynamics import evolve_to_steady, integrate
from .errors import (
    ConvergenceError,
    DivergenceError,
    EmptySweepError,
    PhysicalityError,
    StiffnessError,
    ThresholdError,
    UnstableSystemError,
)
from .lyapunov import solve_lyapunov
from .matrices import (
    build_diffusion,
    build_drift,
    covariance_from_json,
    covariance_to_json,
    initial_covariance,
)
from .metrics import METRIC_COLUMNS, metric_row
from .params import ModelParams, PhysicalParams, derive_model
from .presets import FIGURE_NAMES, PARAM_PRESETS, TracePreset, figure_preset, param_preset
from .stability import StabilityReport, analyze
from .sweep import SweepSpec, apply_overrides, find_optimum, run_sweep


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _parse_sets(pairs: list[str]) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"--set {key}: {raw!r} is not a number") from None
        if not math.isfinite(value):
            raise ValueError(f"--set {key}: {raw!r} is not a finite number")
        overrides[key] = value
    return overrides


def _load_params(args) -> PhysicalParams:
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            params = PhysicalParams.from_json(json.load(fh))
    else:
        params = param_preset(args.preset)
    overrides = _parse_sets(args.sets)
    if overrides:
        params = apply_overrides(params, overrides)
    return params


def _require_stable(report: StabilityReport) -> None:
    if report.stable:
        return
    reason = report.failure_reason() or "marginal spectrum"
    raise UnstableSystemError(f"unstable ({reason})")


def _write_result(out: Path | None, fmt: str, to_json, write_csv) -> None:
    """Write a result to --out in the --format asked for and report the path.

    `to_json()` builds the JSON payload; `write_csv(path)` writes the CSV.
    Nothing happens without --out.
    """
    if out is None:
        return
    if fmt == "json":
        out.write_text(json.dumps(to_json(), indent=2) + "\n", encoding="utf-8")
    else:
        write_csv(out)
    print(f"wrote {out}")


def _print_stability(model: ModelParams, report: StabilityReport) -> None:
    print(
        f"model (kappa units): G_- = {_fmt(model.G_minus)}  G_+ = {_fmt(model.G_plus)}  "
        f"Lambda = {_fmt(model.lambda_pa)}  phi = {_fmt(model.phi)}  "
        f"gamma = {_fmt(model.gamma)}  n_m = {_fmt(model.n_m)}  n_c = {_fmt(model.n_c)}"
    )
    if model.rwa_flagged:
        print("warning: rates approach the mechanical frequency; RWA model is strained")
    c = report.coefficients
    print(
        f"RHSC coefficients: s1 = {_fmt(c.s1)}  s2 = {_fmt(c.s2)}  "
        f"s3 = {_fmt(c.s3)}  s4 = {_fmt(c.s4)}"
    )
    print(
        f"Hurwitz minors: h1 = {_fmt(report.h1)} kappa^4  "
        f"h2 = {_fmt(report.h2)} kappa^5  h3 = {_fmt(report.h3)} kappa^6"
    )
    eigs = ", ".join(
        f"{_fmt(ev.real)}{ev.imag:+.9g}i" for ev in report.eigenvalues
    )
    print(f"drift eigenvalues (kappa units): {eigs}")
    print(f"spectral abscissa: {_fmt(report.spectral_abscissa)}")
    if report.marginal:
        verdict = "marginal"
    else:
        verdict = "stable" if report.stable else "unstable"
    detail = report.failure_reason()
    tag = f" ({detail})" if detail and verdict != "stable" else ""
    agreement = "consistent" if report.consistent else "INCONSISTENT"
    print(f"verdict: {verdict}{tag} [RHSC/eigenvalue routes {agreement}]")


def _stability_csv(report: StabilityReport) -> str:
    c = report.coefficients
    head = ["s1", "s2", "s3", "s4", "h1", "h2", "h3"]
    cells = [c.s1, c.s2, c.s3, c.s4, report.h1, report.h2, report.h3]
    for i, ev in enumerate(report.eigenvalues, 1):
        head += [f"eig{i}_re", f"eig{i}_im"]
        cells += [ev.real, ev.imag]
    head += ["rhsc_stable", "eig_stable", "consistent"]
    flags = [int(report.rhsc_stable), int(report.eig_stable), int(report.consistent)]
    return (
        ",".join(head) + "\n"
        + ",".join([f"{v:.12g}" for v in cells] + [str(f) for f in flags]) + "\n"
    )


def cmd_stability(args) -> int:
    model = derive_model(_load_params(args))
    report = analyze(model)
    _print_stability(model, report)
    _write_result(
        args.out, args.format, report.to_json,
        lambda path: path.write_text(_stability_csv(report), encoding="utf-8"),
    )
    return 0


def _metrics_lines(metrics: dict[str, float]) -> list[str]:
    return [
        "collective variances: "
        + "  ".join(f"{k} = {_fmt(metrics[k])}" for k in ("v_xc", "v_yc", "v_xd", "v_yd")),
        f"squeezing: S2_c = {_fmt(metrics['s2_c_db'])} dB  "
        f"S2_m = {_fmt(metrics['s2_m_db'])} dB",
        f"log negativity: E_N(cc) = {_fmt(metrics['en_cc'])}  "
        f"E_N(mm) = {_fmt(metrics['en_mm'])}",
        f"physical: {'yes' if metrics.get('physical') else 'NO'}",
    ]


def _metrics_csv(metrics: dict[str, float]) -> str:
    columns = list(METRIC_COLUMNS) + ["physical"]
    return (
        ",".join(columns) + "\n"
        + ",".join(f"{metrics[c]:.12g}" for c in columns) + "\n"
    )


def cmd_steady(args) -> int:
    params = _load_params(args)
    model = derive_model(params)
    report = analyze(model)
    _require_stable(report)
    solution = solve_lyapunov(build_drift(model), build_diffusion(model))
    metrics = metric_row(solution.sigma)
    print(f"Lyapunov residual: {_fmt(solution.residual_norm)}")
    for line in _metrics_lines(metrics):
        print(line)
    _write_result(
        args.out, args.format,
        lambda: {
            "params": params.to_json(),
            "stability": report.to_json(),
            "covariance": covariance_to_json(solution.sigma),
            "metrics": metrics,
        },
        lambda path: path.write_text(_metrics_csv(metrics), encoding="utf-8"),
    )
    return 0


def _relax(params: PhysicalParams, *, eps: float, t_end: float | None = None):
    """Gate on stability, then integrate sigma from the initial covariance.

    Returns (sigma, trajectory): sigma relaxed to the steady state, or,
    with `t_end`, the trajectory over that fixed horizon and sigma None.
    """
    model = derive_model(params)
    _require_stable(analyze(model))
    w, d = build_drift(model), build_diffusion(model)
    sigma0 = initial_covariance(model)
    if t_end is not None:
        return None, integrate(w, d, sigma0, t_end=t_end)
    return evolve_to_steady(w, d, sigma0, eps=eps)


def cmd_evolve(args) -> int:
    sigma, trajectory = _relax(_load_params(args), eps=args.eps, t_end=args.t_end)
    if sigma is None:
        print(f"integrated to t = {_fmt(args.t_end)} / kappa "
              f"({len(trajectory.times)} accepted steps)")
    else:
        print(f"converged at t = {_fmt(trajectory.t_converged)} / kappa "
              f"({len(trajectory.times)} accepted steps)")
    print(f"trace: initial = {_fmt(trajectory.traces[0])}  "
          f"final = {_fmt(trajectory.traces[-1])}")
    if sigma is not None:
        for line in _metrics_lines(metric_row(sigma)):
            print(line)
    if args.out is not None:
        trajectory.to_csv(args.out)
        print(f"wrote {args.out}")
    return 0


def _print_optimum(metric: str, axes: dict[str, float], value: float) -> None:
    at = "  ".join(f"{k} = {_fmt(v)}" for k, v in axes.items())
    print(f"optimum[{metric}] = {_fmt(value)} at {at}")


def _print_optima(result) -> None:
    for metric, opt in result.optimum.items():
        if opt is None:
            print(f"optimum[{metric}]: no stable grid point")
        else:
            _print_optimum(metric, opt["axes"], opt["value"])


def _report_sweep(result, heading: str, out: Path, fmt: str) -> int:
    """Print the summary line and the optima, then write --out.

    Points that raised are counted apart from unstable ones, and the first
    error text goes to stderr.
    """
    stable = int(result.stable.sum())
    errors = [error for error in result.errors if error is not None]
    print(f"{heading} ({stable} stable" + (f", {len(errors)} failed)" if errors else ")"))
    if errors:
        print(f"warning: first failed grid point: {errors[0]}", file=sys.stderr)
    _print_optima(result)
    _write_result(out, fmt, result.to_json, result.write_csv)
    return 0


def _load_spec(path: Path) -> SweepSpec:
    with open(path, encoding="utf-8") as fh:
        return SweepSpec.from_json(json.load(fh))


def cmd_sweep(args) -> int:
    if args.config is None:
        raise ValueError("sweep requires --config with a sweep specification")
    spec = _load_spec(args.config)
    result = run_sweep(spec)
    out = args.out if args.out is not None else Path(f"{spec.name}.csv")
    return _report_sweep(result, f"swept {len(result.stable)} points", out, args.format)


def cmd_figure(args) -> int:
    preset = figure_preset(args.name)
    out = args.out if args.out is not None else Path(f"{args.name}.csv")
    if isinstance(preset, TracePreset):
        if args.format != "csv":
            raise ValueError(f"{args.name} is a time trace; it is written as CSV only")
        _, trajectory = _relax(preset.params, eps=preset.eps)
        print(f"converged at t = {_fmt(trajectory.t_converged)} / kappa; "
              f"trace plateau = {_fmt(trajectory.traces[-1])}")
        trajectory.to_csv(out)
        print(f"wrote {out}")
        return 0
    result = run_sweep(preset)
    heading = f"{args.name}: {len(result.stable)} grid points"
    return _report_sweep(result, heading, out, args.format)


def cmd_optimum(args) -> int:
    if args.config is not None:
        spec = _load_spec(args.config)
    elif args.name is not None:
        preset = figure_preset(args.name)
        if isinstance(preset, TracePreset):
            raise ValueError(f"{args.name} is a time-trace preset; no grid optimum")
        spec = preset
    else:
        raise ValueError("optimum requires a figure preset name or --config")
    result = run_sweep(spec)
    _print_optimum(args.metric, *find_optimum(result, args.metric))
    return 0


def cmd_metrics(args) -> int:
    with open(args.cm, encoding="utf-8") as fh:
        payload = json.load(fh)
    if "covariance" in payload:
        payload = payload["covariance"]
    sigma = covariance_from_json(payload)
    metrics = metric_row(sigma)
    for line in _metrics_lines(metrics):
        print(line)
    _write_result(
        args.out, args.format, lambda: {"metrics": metrics},
        lambda path: path.write_text(_metrics_csv(metrics), encoding="utf-8"),
    )
    return 0


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", type=Path, default=None, help="output file path")
    sub.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output file format"
    )


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--preset", default="paper", choices=sorted(PARAM_PRESETS),
        help="named base parameter set",
    )
    sub.add_argument(
        "--config", type=Path, default=None,
        help="JSON file with physical-parameter fields",
    )
    sub.add_argument(
        "--set", dest="sets", action="append", default=[], metavar="KEY=VAL",
        help="override a parameter (raw field or kappa-normalized name)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omsqueeze",
        description="Steady-state two-mode squeezing in a pumped optomechanical cavity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stability", help="Routh-Hurwitz and eigenvalue stability report")
    _add_param_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("steady", help="steady-state covariance and squeezing metrics")
    _add_param_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("evolve", help="integrate the covariance to its steady state")
    _add_param_flags(p)
    p.add_argument("--out", type=Path, default=None, help="output file path")
    p.add_argument("--t-end", type=float, default=None,
                   help="fixed horizon in 1/kappa (default: detect convergence)")
    p.add_argument("--eps", type=float, default=1e-8,
                   help="steady-state threshold on ||sigma'|| / ||D||")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("sweep", help="run a sweep from a JSON specification")
    p.add_argument("--config", type=Path, default=None, help="sweep spec JSON file")
    _add_io_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure", help="regenerate a reference-figure dataset")
    p.add_argument("name", choices=FIGURE_NAMES, help="figure preset name")
    _add_io_flags(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("optimum", help="grid argmax of a metric over a sweep")
    p.add_argument("name", nargs="?", default=None, help="figure preset name")
    p.add_argument("--config", type=Path, default=None, help="sweep spec JSON file")
    p.add_argument("--metric", default="s2_m_db", choices=METRIC_COLUMNS,
                   help="metric to maximize")
    p.set_defaults(func=cmd_optimum)

    p = sub.add_parser("metrics", help="metrics from a stored covariance matrix")
    p.add_argument("--cm", type=Path, required=True,
                   help="JSON covariance (bare or steady-command output)")
    _add_io_flags(p)
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (UnstableSystemError, EmptySweepError) as exc:
        _fail(str(exc))
        return 3
    except (
        ThresholdError,
        OverflowError,
        StiffnessError,
        DivergenceError,
        ConvergenceError,
        PhysicalityError,
        np.linalg.LinAlgError,
    ) as exc:
        _fail(str(exc))
        return 4
    except (ValueError, OSError) as exc:
        _fail(str(exc))
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
