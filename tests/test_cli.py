import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from omsqueeze import appendix_c_params, covariance_to_json, paper_base
from omsqueeze import cli
from omsqueeze.cli import build_parser, main

GOLDEN_DIR = Path(__file__).parent / "golden"

COMMAND_FLAGS = {
    "stability": ["--preset", "--config", "--set", "--out", "--format"],
    "steady": ["--preset", "--config", "--set", "--out", "--format"],
    "evolve": ["--preset", "--config", "--set", "--out", "--t-end", "--eps"],
    "sweep": ["--config", "--out", "--format"],
    "figure": ["--out", "--format"],
    "optimum": ["--config", "--metric"],
    "metrics": ["--cm", "--out", "--format"],
}


def _spec(**change):
    """A valid sweep spec with the fields in `change` replaced."""
    spec = {
        "base": paper_base().to_json(),
        "axes": [{"name": "lambda_over_kappa", "min": 0.0, "max": 0.4, "count": 3}],
        "coupling_mode": "powers",
    }
    return {**spec, **change}


class TestStabilityCommand:
    def test_appendix_c_report(self, capsys):
        assert main(["stability", "--preset", "appendixC"]) == 0
        out = capsys.readouterr().out
        assert "h1 = 0.0009" in out
        assert "h2 = 0.0036" in out
        assert "h3 = 0.0027" in out
        assert "verdict: stable" in out

    def test_unstable_point_still_reports(self, capsys):
        rc = main(["stability", "--preset", "appendixC",
                   "--set", "g_plus_over_g_minus=1.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict: unstable (s2<0)" in out

    def test_json_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["stability", "--preset", "appendixC", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["rhsc_stable"] is True
        assert payload["h1"] == pytest.approx(9e-4, abs=5e-5)
        assert len(payload["eigenvalues"]) == 8


class TestSteadyCommand:
    def test_unstable_rejection_exit_code(self, capsys):
        rc = main(["steady", "--set", "g_plus_over_g_minus=1.2",
                   "--set", "lambda_over_kappa=0"])
        assert rc == 3
        assert "error: unstable (s3<0)" in capsys.readouterr().err

    def test_appendix_c_summary(self, capsys):
        assert main(["steady", "--preset", "appendixC"]) == 0
        out = capsys.readouterr().out
        assert "S2_m = 7.05" in out
        assert "physical: yes" in out

    def test_csv_output(self, tmp_path):
        out = tmp_path / "steady.csv"
        assert main(["steady", "--preset", "appendixC", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("v_xc,v_yc,v_xd,v_yd,s2_c_db,s2_m_db")
        assert len(lines) == 2

    def test_config_file_input(self, tmp_path, capsys):
        config = tmp_path / "params.json"
        config.write_text(json.dumps(paper_base().to_json()))
        assert main(["steady", "--config", str(config)]) == 0
        assert "squeezing" in capsys.readouterr().out


class TestMetricsRoundTrip:
    def test_steady_json_reingested_identically(self, tmp_path, capsys):
        steady_out = tmp_path / "steady.json"
        assert main(["steady", "--preset", "appendixC", "--format", "json",
                     "--out", str(steady_out)]) == 0
        payload = json.loads(steady_out.read_text())
        capsys.readouterr()

        metrics_out = tmp_path / "metrics.json"
        assert main(["metrics", "--cm", str(steady_out), "--format", "json",
                     "--out", str(metrics_out)]) == 0
        recomputed = json.loads(metrics_out.read_text())["metrics"]
        assert recomputed == payload["metrics"]

    @pytest.mark.parametrize("entries, bad", [((0,), math.inf), ((0,), math.nan),
                                              ((1, 8), math.inf)])
    def test_non_finite_covariance_rejected(self, tmp_path, capsys, entries, bad):
        payload = covariance_to_json(0.5 * np.eye(8))
        for i in entries:
            payload["sigma"][i] = bad
        cm = tmp_path / "bad.json"
        cm.write_text(json.dumps(payload))  # writes the bare token Infinity or NaN
        assert main(["metrics", "--cm", str(cm)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: covariance entries must be finite\n"

    def test_bare_covariance_payload(self, tmp_path, capsys):
        cm = tmp_path / "vacuum.json"
        cm.write_text(json.dumps(covariance_to_json(0.5 * np.eye(8))))
        assert main(["metrics", "--cm", str(cm)]) == 0
        out = capsys.readouterr().out
        assert "S2_c = 0 dB" in out or "S2_c = -0 dB" in out


class TestEvolveCommand:
    def test_appendix_c_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["evolve", "--preset", "appendixC", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "converged at t" in text
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t_over_kappa,trace"
        assert len(lines) > 10

    def test_fixed_horizon(self, capsys):
        assert main(["evolve", "--preset", "appendixC", "--t-end", "5"]) == 0
        assert "integrated to t = 5" in capsys.readouterr().out

    def test_unstable_rejected_before_integration(self, capsys):
        rc = main(["evolve", "--set", "g_plus_over_g_minus=1.2",
                   "--set", "lambda_over_kappa=0"])
        assert rc == 3

    @pytest.mark.parametrize("flag, value", [
        ("--t-end", "nan"), ("--t-end", "inf"), ("--eps", "nan"), ("--eps", "inf"),
    ])
    def test_non_finite_horizon_or_threshold_rejected_before_stepping(
        self, monkeypatch, capsys, flag, value
    ):
        def never_step(*args, **kwargs):
            raise AssertionError("the integrator ran")

        monkeypatch.setattr("omsqueeze.dynamics._exact_steps", never_step)
        assert main(["evolve", "--preset", "appendixC", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite" in err

    def test_format_is_not_an_option(self, tmp_path, capsys):
        """The trajectory is always CSV, so evolve takes no --format."""
        out = tmp_path / "x.json"
        rc = main(["evolve", "--preset", "appendixC", "--format", "json", "--out", str(out)])
        assert rc == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert not out.exists()


class TestFigureCommand:
    def test_fig2a_density_csv(self, tmp_path, capsys):
        out = tmp_path / "fig2a.csv"
        assert main(["figure", "fig2a", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 101 * 101
        assert lines[0].startswith("lambda_over_kappa,phi_over_pi,")
        assert "optimum[s2_m_db]" in capsys.readouterr().out

    def test_fig9_trace(self, tmp_path, capsys):
        out = tmp_path / "fig9.csv"
        assert main(["figure", "fig9", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "trace plateau" in text
        assert out.read_text().startswith("t_over_kappa,trace")

    def test_unknown_figure_is_usage_error(self, capsys):
        assert main(["figure", "fig1"]) == 2

    def test_fig9_json_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "fig9.json"
        assert main(["figure", "fig9", "--format", "json", "--out", str(out)]) == 2
        assert "written as CSV only" in capsys.readouterr().err
        assert not out.exists()


class TestOptimumCommand:
    def test_fig7a_pump_sweep(self, capsys):
        assert main(["optimum", "fig7a", "--metric", "en_mm"]) == 0
        out = capsys.readouterr().out
        assert "optimum[en_mm]" in out
        assert "lambda_over_kappa" in out

    def test_requires_a_target(self, capsys):
        assert main(["optimum"]) == 2

    @pytest.mark.parametrize("flag", [["--out", "x.json"], ["--format", "json"]])
    def test_output_flags_are_usage_errors(self, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["optimum", "fig7a", *flag]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_config(self, tmp_path, capsys):
        spec = {
            "name": "mini",
            "base": paper_base().to_json(),
            "axes": [{"name": "lambda_over_kappa", "min": 0.0, "max": 0.4, "count": 5}],
            "coupling_mode": "powers",
        }
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(spec))
        assert main(["optimum", "--config", str(config), "--metric", "s2_m_db"]) == 0
        assert "optimum[s2_m_db]" in capsys.readouterr().out


class TestSweepCommand:
    def test_config_driven_sweep(self, tmp_path, capsys):
        spec = {
            "name": "mini",
            "base": paper_base().to_json(),
            "axes": [
                {"name": "lambda_over_kappa", "min": 0.0, "max": 0.45, "count": 4},
                {"name": "phi_over_pi", "values": [0.0, 0.5]},
            ],
            "coupling_mode": "powers",
        }
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(spec))
        out = tmp_path / "mini.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert "swept 8 points" in capsys.readouterr().out
        assert len(out.read_text().strip().splitlines()) == 9

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["sweep"]) == 2

    def test_failed_points_counted_apart_from_unstable(self, tmp_path, capsys):
        spec = {
            "name": "mixed",
            "base": paper_base().to_json(),
            "axes": [{"name": "p_plus_over_p_minus", "values": [-0.5, 0.5, 1.5]}],
            "coupling_mode": "powers",
        }
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(spec))
        out = tmp_path / "mixed.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "swept 3 points (1 stable, 1 failed)" in captured.out
        assert captured.err.startswith("warning: first failed grid point: ValueError: ")

    def test_no_failed_count_without_failures(self, tmp_path, capsys):
        assert main(["figure", "fig7a", "--out", str(tmp_path / "fig7a.csv")]) == 0
        captured = capsys.readouterr()
        assert "fig7a: 201 grid points (201 stable)" in captured.out
        assert captured.err == ""

    def test_json_output(self, tmp_path, capsys):
        spec = {
            "name": "mini",
            "base": paper_base().to_json(),
            "axes": [{"name": "lambda_over_kappa", "values": [0.0, 0.3]}],
            "coupling_mode": "powers",
        }
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(spec))
        out = tmp_path / "mini.json"
        assert main(["sweep", "--config", str(config), "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["grid"]) == 2
        assert payload["optimum"]["s2_m_db"]["value"] is not None


class TestOnePathPerResult:
    def test_fig9_equals_evolve_on_appendix_c(self, tmp_path, capsys):
        fig9, evolved = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["figure", "fig9", "--out", str(fig9)]) == 0
        assert main(["evolve", "--preset", "appendixC", "--out", str(evolved)]) == 0
        assert fig9.read_bytes() == evolved.read_bytes()

    def test_steady_metrics_equal_sweep_rows(self, tmp_path, capsys):
        values = [0.3, 0.45]
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({
            "base": appendix_c_params().to_json(),
            "axes": [{"name": "lambda_over_kappa", "values": values}],
        }))
        swept = tmp_path / "sweep.json"
        assert main(["sweep", "--config", str(config), "--format", "json",
                     "--out", str(swept)]) == 0
        grid = json.loads(swept.read_text())["grid"]
        for value, point in zip(values, grid):
            steady = tmp_path / f"steady_{value}.json"
            assert main(["steady", "--preset", "appendixC",
                         "--set", f"lambda_over_kappa={value!r}",
                         "--format", "json", "--out", str(steady)]) == 0
            assert point["axes"] == {"lambda_over_kappa": value}
            assert json.loads(steady.read_text())["metrics"] == point["metrics"]


class TestUsageErrors:
    def test_unknown_override_key(self, capsys):
        rc = main(["steady", "--set", "detuning=1.0"])
        assert rc == 2
        assert "unknown parameter names" in capsys.readouterr().err

    def test_malformed_set_pair(self, capsys):
        assert main(["steady", "--set", "kappa"]) == 2

    def test_invalid_parameter_value(self, capsys):
        assert main(["steady", "--set", "temperature=-1"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["squeeze-harder"]) == 2

    @pytest.mark.parametrize(
        "override", ["temperature_mk=nan", "kappa=inf", "g_minus_over_kappa=nan"]
    )
    def test_non_finite_override(self, override, capsys):
        assert main(["steady", "--set", override]) == 2
        assert "not a finite number" in capsys.readouterr().err

    def test_non_finite_sweep_axis(self, tmp_path, capsys):
        spec = {
            "name": "nan_axis",
            "base": paper_base().to_json(),
            "axes": [{"name": "lambda_over_kappa", "values": [0.0, float("nan")]}],
            "coupling_mode": "powers",
        }
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(spec))  # writes the bare token NaN
        out = tmp_path / "nan_axis.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "optimum"])
    @pytest.mark.parametrize("change, message", [
        ({"bogus": 1}, "unknown sweep spec fields: ['bogus']"),
        ({"axes": [{"name": "lambda_over_kappa", "min": 0.0, "max": 0.4, "count": 2.7}]},
         "axis count must be a whole number, got 2.7"),
        ({"axes": [{"name": "lambda_over_kappa", "values": [0.0, 0.4], "min": 0.0,
                    "max": 0.4}]},
         "an axis takes exactly {name, values} or {name, min, max, count}"),
    ])
    def test_malformed_sweep_spec(self, tmp_path, capsys, command, change, message):
        spec = {
            "base": paper_base().to_json(),
            "axes": [{"name": "lambda_over_kappa", "min": 0.0, "max": 0.4, "count": 3}],
            "coupling_mode": "powers",
        }
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({**spec, **change}))
        assert main([command, "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("drop, message", [
        ("axes", "missing sweep spec fields: ['axes']"),
        ("base", "missing sweep spec fields: ['base']"),
    ])
    def test_sweep_spec_without_a_required_field(self, tmp_path, capsys, drop, message):
        spec = {
            "base": paper_base().to_json(),
            "axes": [{"name": "lambda_over_kappa", "min": 0.0, "max": 0.4, "count": 3}],
            "coupling_mode": "powers",
        }
        del spec[drop]
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(spec))
        assert main(["sweep", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sweep_axis_with_a_non_numeric_bound(self, tmp_path, capsys):
        spec = {
            "base": paper_base().to_json(),
            "axes": [{"name": "lambda_over_kappa", "min": "a", "max": 0.4, "count": 3}],
            "coupling_mode": "powers",
        }
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(spec))
        assert main(["sweep", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: axis min must be a number, got 'a'\n"

    @pytest.mark.parametrize("command, payload, message", [
        pytest.param(["stability", "--config"],
                     {k: v for k, v in appendix_c_params().to_json().items() if k != "kappa"},
                     "missing parameter fields: ['kappa']", id="stability-no-kappa"),
        pytest.param(["sweep", "--config"], _spec(axes=5),
                     "axes must be a JSON array, got number", id="sweep-axes"),
        pytest.param(["sweep", "--config"], _spec(axes=[5]),
                     "an axis must be a JSON object, got number", id="sweep-axis"),
        pytest.param(["sweep", "--config"], _spec(base=5),
                     "parameters must be a JSON object, got number", id="sweep-base"),
        pytest.param(["sweep", "--config"],
                     _spec(axes=[{"name": "lambda_over_kappa", "values": 5}]),
                     "axis values must be a JSON array, got number", id="sweep-values"),
        pytest.param(["sweep", "--config"],
                     _spec(axes=[{"name": "lambda_over_kappa", "values": ["0.1", "0.2"]}]),
                     "axis values must be numbers, got '0.1'", id="sweep-string-values"),
        pytest.param(["sweep", "--config"],
                     _spec(axes=[{"name": "lambda_over_kappa", "values": [True, False]}]),
                     "axis values must be numbers, got True", id="sweep-boolean-values"),
        pytest.param(["sweep", "--config"], _spec(outputs=5),
                     "outputs must be a JSON array, got number", id="sweep-outputs"),
        pytest.param(["sweep", "--config"], _spec(base={**paper_base().to_json(), "drive": 5}),
                     "drive must be a JSON object, got number", id="sweep-drive"),
        pytest.param(["steady", "--config"], [1.0, 2.0],
                     "parameters must be a JSON object, got array", id="steady-list"),
        pytest.param(["steady", "--config"], 5,
                     "parameters must be a JSON object, got number", id="steady-number"),
        pytest.param(["metrics", "--cm"], [0.5] * 64,
                     "a covariance must be a JSON object, got array", id="metrics-list"),
        pytest.param(["metrics", "--cm"], 5,
                     "a covariance must be a JSON object, got number", id="metrics-number"),
        pytest.param(["metrics", "--cm"], {"covariance": 5},
                     "a covariance must be a JSON object, got number", id="metrics-covariance"),
        pytest.param(["metrics", "--cm"], {**covariance_to_json(np.eye(8)), "sigma": {"a": 1}},
                     "covariance payload must hold exactly 64 numbers", id="metrics-sigma"),
        pytest.param(["metrics", "--cm"], {"basis": covariance_to_json(np.eye(8))["basis"]},
                     "covariance payload must hold exactly 64 numbers", id="metrics-no-sigma"),
    ])
    def test_malformed_input_file(self, tmp_path, capsys, command, payload, message):
        """A file of the wrong JSON structure is a usage error with one line."""
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert main(command + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", [["sweep", "--config", "spec.json"],
                                         ["figure", "fig3a"], ["optimum", "fig3a"]])
    def test_jobs_flag_is_gone(self, command, capsys):
        assert main(command + ["--jobs", "1"]) == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


class TestNumericalFailures:
    @pytest.mark.parametrize("command", ["stability", "steady", "evolve"])
    def test_overflowing_couplings_exit_4_with_one_line(self, capsys, command):
        """The square of the coupling overflows; a sweep keeps the same
        failure as an "OverflowError: ..." error row."""
        rc = main([command, "--preset", "appendixC", "--set", "g_minus_over_kappa=1e200"])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the square of G_minus = 1e+200 overflows a float\n"


class TestHelp:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_every_flag_listed(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        for flag in COMMAND_FLAGS[command]:
            assert flag in out, f"{command} --help misses {flag}"

    @pytest.mark.parametrize(
        "command", ["main"] + sorted(COMMAND_FLAGS)
    )
    def test_matches_golden_file(self, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        parser = build_parser()
        if command == "main":
            text = parser.format_help()
        else:
            subparsers = next(
                a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)
            )
            text = subparsers.choices[command].format_help()
        golden = (GOLDEN_DIR / f"help_{command}.txt").read_text()
        assert text.split() == golden.split()


def _run(argv, capsys):
    """(exit code, stdout, stderr) of one in-process `main` call."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInProcessCalls:
    """`main` parses with one parser per process; no call leaves state in it
    that a later call sees."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_overrides_do_not_carry_into_the_next_call(self, capsys):
        first = _run(["stability"], capsys)
        code, _, _ = _run(["evolve", "--preset", "appendixC", "--t-end", "1",
                           "--set", "lambda_over_kappa=0.3", "--set", "phi_over_pi=0.5"], capsys)
        assert code == 0
        assert _run(["stability", "--set", "lambda_over_kappa=0.3"], capsys)[0] == 0
        assert _run(["stability"], capsys) == first
        assert "Lambda = 0.3" not in first[1]

    @pytest.mark.parametrize("bad", [["evolve", "--bogus"], ["stability", "--preset", "nope"],
                                     ["steady", "--set"], []])
    def test_usage_error_does_not_carry_into_the_next_call(self, bad, capsys):
        first = _run(["stability", "--preset", "appendixC"], capsys)
        code, out, err = _run(bad, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: omsqueeze")
        assert _run(["stability", "--preset", "appendixC"], capsys) == first

    def test_help_wraps_to_the_width_at_each_call(self, monkeypatch, capsys):
        widths = {}
        for columns in (60, 120, 60):
            monkeypatch.setenv("COLUMNS", str(columns))
            code, text, _ = _run(["evolve", "--help"], capsys)
            assert code == 0
            with pytest.raises(SystemExit):
                build_parser().parse_args(["evolve", "--help"])
            assert text == capsys.readouterr().out  # as a fresh parser prints it
            widths[columns] = max(len(line) for line in text.splitlines())
        assert widths[60] <= 58 < 60 < widths[120] <= 118  # argparse keeps 2 columns

    def test_the_parser_is_built_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (["stability"], ["steady", "--preset", "appendixC"], ["evolve", "--bogus"],
                     ["metrics", "--help"], ["stability", "--set", "lambda_over_kappa=0.1"]):
            main(argv)
        capsys.readouterr()
        assert built.count("omsqueeze") == 1
        assert len(built) == 1 + len(COMMAND_FLAGS)  # the main parser and one per subcommand
        assert build_parser() is not build_parser()

    def test_nothing_is_built_at_import(self):
        probe = "import omsqueeze.cli as c; print(c._parser.cache_info().currsize)"
        src = str(Path(cli.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=60, check=True, env={**os.environ, "PYTHONPATH": src})
        assert done.stdout == "0\n"
