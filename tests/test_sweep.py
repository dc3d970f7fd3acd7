import json
import math

import numpy as np
import pytest

from omsqueeze import (
    DirectCouplings,
    EmptySweepError,
    PowerDrive,
    SweepAxis,
    SweepSpec,
    TracePreset,
    appendix_c_params,
    apply_overrides,
    coupling_base,
    figure_preset,
    find_optimum,
    paper_base,
    run_sweep,
)


def direct_spec(**kwargs):
    defaults = dict(
        base=coupling_base(g_minus_k=0.4, g_plus_k=0.0, lambda_k=0.2),
        axes=(
            SweepAxis.explicit("g_plus_over_g_minus", (0.1, 0.3)),
            SweepAxis.explicit("lambda_over_kappa", (0.0, 0.3)),
        ),
        coupling_mode="direct",
        name="unit",
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestApplyOverrides:
    def test_normalized_units(self):
        p = apply_overrides(
            appendix_c_params(),
            {"temperature_mk": 400.0, "gamma_over_kappa": 1e-5,
             "lambda_over_kappa": 0.25, "phi_over_pi": 0.5},
        )
        assert p.temperature == pytest.approx(0.4)
        assert p.gamma == pytest.approx(1e-5 * p.kappa)
        assert p.lambda_pa == pytest.approx(0.25 * p.kappa)
        assert p.phi == pytest.approx(math.pi / 2)

    def test_raw_fields(self):
        p = apply_overrides(paper_base(), {"temperature": 0.2, "P_plus": 1e-9})
        assert p.temperature == 0.2
        assert p.drive.P_plus == 1e-9

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ValueError, match="unknown parameter names"):
            apply_overrides(paper_base(), {"detuning": 1.0})

    def test_power_ratio_requires_power_drive(self):
        with pytest.raises(ValueError, match="power-specified"):
            apply_overrides(appendix_c_params(), {"p_plus_over_p_minus": 0.5})

    def test_coupling_ratio_converts_power_drive(self):
        p = apply_overrides(
            paper_base(), {"g_plus_over_g_minus": 0.5, "lambda_over_kappa": 0.0}
        )
        assert isinstance(p.drive, DirectCouplings)
        assert p.drive.G_plus == pytest.approx(0.5 * p.drive.G_minus)
        # pump gain override applies before the conversion
        assert p.drive.G_minus / p.kappa == pytest.approx(0.29222051823948446, rel=1e-12)

    def test_ratio_applies_to_updated_red_tone(self):
        p = apply_overrides(
            coupling_base(g_minus_k=0.2),
            {"g_minus_over_kappa": 0.8, "g_plus_over_g_minus": 0.25},
        )
        assert p.drive.G_minus == pytest.approx(0.8 * p.kappa)
        assert p.drive.G_plus == pytest.approx(0.2 * p.kappa)


class TestSweepSpecValidation:
    def test_axis_vocabulary_enforced(self):
        with pytest.raises(ValueError, match="axis name"):
            SweepAxis.linear("detuning", 0, 1, 5)

    def test_axis_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            SweepAxis.explicit("lambda_over_kappa", (0.1,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_axis_values_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            SweepAxis.explicit("lambda_over_kappa", (0.1, bad))

    def test_at_most_two_axes(self):
        ax = SweepAxis.linear("lambda_over_kappa", 0, 0.4, 3)
        ay = SweepAxis.linear("phi_over_pi", -1, 1, 3)
        az = SweepAxis.linear("temperature_mk", 10, 100, 3)
        with pytest.raises(ValueError):
            SweepSpec(base=coupling_base(), axes=(ax, ay, az))

    def test_power_axis_needs_power_mode(self):
        with pytest.raises(ValueError, match="power-ratio"):
            SweepSpec(
                base=coupling_base(),
                axes=(SweepAxis.linear("p_plus_over_p_minus", 0, 0.9, 3),),
                coupling_mode="direct",
            )

    def test_json_round_trip(self):
        spec = direct_spec()
        rebuilt = SweepSpec.from_json(spec.to_json())
        assert rebuilt == spec

    def test_json_linear_axis_form(self):
        obj = {"name": "lambda_over_kappa", "min": 0.0, "max": 0.4, "count": 5}
        ax = SweepAxis.from_json(obj)
        np.testing.assert_allclose(ax.values, np.linspace(0, 0.4, 5))


class TestRunSweep:
    def test_stable_grid_fully_evaluated(self):
        result = run_sweep(direct_spec())
        assert len(result.grid) == 4
        assert all(p.stable for p in result.grid)
        assert all(p.metrics["physical"] == 1.0 for p in result.grid)

    def test_grid_order_row_major(self):
        result = run_sweep(direct_spec())
        axes = [(p.axes["g_plus_over_g_minus"], p.axes["lambda_over_kappa"])
                for p in result.grid]
        assert axes == [(0.1, 0.0), (0.1, 0.3), (0.3, 0.0), (0.3, 0.3)]

    def test_unstable_points_marked_without_metrics(self):
        spec = direct_spec(
            axes=(SweepAxis.explicit("g_plus_over_g_minus", (0.9, 1.1)),),
        )
        result = run_sweep(spec)
        by_ratio = {p.axes["g_plus_over_g_minus"]: p for p in result.grid}
        assert by_ratio[0.9].stable and by_ratio[0.9].metrics is not None
        assert not by_ratio[1.1].stable
        assert by_ratio[1.1].metrics is None

    def test_skip_policy_drops_unstable_rows(self):
        spec = direct_spec(
            axes=(SweepAxis.explicit("g_plus_over_g_minus", (0.9, 1.1)),),
            unstable_policy="skip",
        )
        result = run_sweep(spec)
        assert len(result.grid) == 1
        assert result.grid[0].stable

    def test_per_point_errors_recorded_not_fatal(self):
        spec = SweepSpec(
            base=paper_base(),
            axes=(SweepAxis.explicit("p_plus_over_p_minus", (0.1, -0.5)),),
            coupling_mode="powers",
            name="err",
        )
        result = run_sweep(spec)
        assert result.grid[0].error is None
        assert result.grid[1].error is not None
        assert not result.grid[1].stable

    def test_deterministic_csv_bytes(self, tmp_path):
        spec = direct_spec(
            axes=(SweepAxis.linear("g_plus_over_g_minus", 0.0, 0.9, 7),),
        )
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run_sweep(spec).write_csv(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_worker_pool_matches_serial(self, tmp_path):
        spec = direct_spec(
            axes=(
                SweepAxis.linear("g_plus_over_g_minus", 0.0, 0.9, 10),
                SweepAxis.linear("lambda_over_kappa", 0.0, 0.45, 10),
            ),
        )
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        run_sweep(spec, jobs=1).write_csv(serial)
        run_sweep(spec, jobs=2).write_csv(pooled)
        assert serial.read_bytes() == pooled.read_bytes()

    @pytest.mark.parametrize(
        "jobs, points, expected",
        [(5000, 64, 4), (5000, 1000, 8), (3, 1000, 3)],
    )
    def test_worker_pool_is_bounded(self, monkeypatch, jobs, points, expected):
        """min(jobs, index ranges, cores) workers; no process is started here."""
        import omsqueeze.sweep as sweep_module

        started = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 8)
        spec = direct_spec(
            axes=(SweepAxis.linear("g_plus_over_g_minus", 0.0, 0.9, points),),
        )
        result = run_sweep(spec, jobs=jobs)
        assert started == [expected]
        assert len(result.grid) == points

    def test_csv_layout(self, tmp_path):
        spec = direct_spec(
            axes=(SweepAxis.explicit("g_plus_over_g_minus", (0.5, 1.1)),),
        )
        path = tmp_path / "grid.csv"
        run_sweep(spec).write_csv(path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "g_plus_over_g_minus"
        assert header[-2:] == ["stable", "physical"]
        assert set(header[1:-2]) == {
            "v_xc", "v_yc", "v_xd", "v_yd", "s2_c_db", "s2_m_db", "en_cc", "en_mm",
        }
        unstable_row = lines[2].split(",")
        assert unstable_row[header.index("s2_m_db")] == "nan"
        assert unstable_row[header.index("stable")] == "0"

    def test_phase_sign_symmetry_of_metrics(self):
        spec = direct_spec(
            base=coupling_base(g_minus_k=0.29, g_plus_k=0.09, lambda_k=0.4),
            axes=(SweepAxis.explicit("phi_over_pi", (-0.35, 0.35)),),
        )
        result = run_sweep(spec)
        left, right = result.grid[0].metrics, result.grid[1].metrics
        for key in ("v_xc", "v_yc", "v_xd", "v_yd", "en_cc", "en_mm"):
            assert left[key] == pytest.approx(right[key], abs=1e-9)


class TestFindOptimum:
    def test_constant_metric_tie_breaks_to_first_point(self):
        spec = direct_spec(
            base=coupling_base(g_minus_k=0.3, g_plus_k=0.1, lambda_k=0.0),
            axes=(SweepAxis.explicit("phi_over_pi", (-0.5, 0.0, 0.5)),),
        )
        result = run_sweep(spec)
        axes, value = find_optimum(result, "s2_m_db")
        assert axes["phi_over_pi"] == -0.5  # no pump: phase changes nothing
        assert value == pytest.approx(result.grid[0].metrics["s2_m_db"])

    def test_all_unstable_raises(self):
        spec = direct_spec(
            axes=(SweepAxis.explicit("g_plus_over_g_minus", (1.1, 1.3)),),
        )
        result = run_sweep(spec)
        with pytest.raises(EmptySweepError):
            find_optimum(result, "s2_m_db")
        assert result.optimum["s2_m_db"] is None

    def test_unknown_metric_rejected(self):
        result = run_sweep(direct_spec())
        with pytest.raises(ValueError, match="not among sweep outputs"):
            find_optimum(result, "purity")


class TestFigurePresets:
    def test_fig2a_layout(self):
        spec = figure_preset("fig2a")
        assert spec.coupling_mode == "powers"
        assert isinstance(spec.base.drive, PowerDrive)
        assert spec.base.drive.P_minus == pytest.approx(10e-9)
        assert spec.base.drive.P_plus == 0.0
        lam, phi = spec.axes
        assert (lam.name, phi.name) == ("lambda_over_kappa", "phi_over_pi")
        assert len(lam.values) == len(phi.values) == 101
        assert lam.values[0] == 0.0 and lam.values[-1] == pytest.approx(0.4999)
        assert phi.values[0] == -1.0 and phi.values[-1] == 1.0
        assert 0.0 in phi.values

    def test_fig2b_power_ratio(self):
        spec = figure_preset("fig2b")
        assert spec.base.drive.P_plus == pytest.approx(1e-9)

    def test_fig3_phase_family(self):
        spec = figure_preset("fig3b")
        assert spec.base.drive.P_minus == pytest.approx(3e-9)
        assert spec.base.lambda_pa == pytest.approx(0.49 * spec.base.kappa)
        ratios, phases = spec.axes
        assert ratios.name == "p_plus_over_p_minus" and len(ratios.values) == 201
        assert phases.values == pytest.approx((0.0, 1 / 36, 1 / 24, 1 / 18, 1 / 16))

    def test_fig5_grid(self):
        spec = figure_preset("fig5b")
        assert spec.base.lambda_pa == pytest.approx(0.49 * spec.base.kappa)
        g_axis, ratio_axis = spec.axes
        assert g_axis.name == "g_minus_over_kappa"
        assert g_axis.values[-1] == 1.0
        assert ratio_axis.values[-1] == pytest.approx(0.999)

    def test_fig6_panels(self):
        a = figure_preset("fig6a")
        d = figure_preset("fig6d")
        assert a.base.lambda_pa == 0.0
        assert a.base.gamma == pytest.approx(6.67e-6 * a.base.kappa)
        assert d.base.lambda_pa == pytest.approx(0.49 * d.base.kappa)
        assert d.base.gamma == pytest.approx(0.667e-6 * d.base.kappa)
        assert d.axes[1].values == (10.0, 400.0, 1000.0)

    def test_fig7_bases(self):
        a = figure_preset("fig7a")
        assert a.base.drive.G_minus == pytest.approx(0.1 * a.base.kappa)
        assert a.base.drive.G_plus == pytest.approx(0.01 * a.base.kappa)
        b = figure_preset("fig7b")
        assert b.base.drive.G_minus == pytest.approx(1.0 * b.base.kappa)

    def test_fig9_is_a_trace_preset(self):
        preset = figure_preset("fig9")
        assert isinstance(preset, TracePreset)
        assert preset.params == appendix_c_params()

    def test_unknown_name_lists_presets(self):
        with pytest.raises(ValueError, match="fig2a"):
            figure_preset("fig1")

    def test_result_json_serializable(self):
        result = run_sweep(direct_spec(
            axes=(SweepAxis.explicit("g_plus_over_g_minus", (0.5, 1.1)),),
        ))
        payload = json.loads(json.dumps(result.to_json()))
        assert payload["grid"][1]["metrics"] is None
        assert payload["spec"]["coupling_mode"] == "direct"


class TestPresetPhysics:
    """Qualitative signatures of the power-driven and thermal sweeps."""

    def test_fig3_optical_squeezing_capped_at_3db(self):
        result = run_sweep(figure_preset("fig3a"))
        assert all(p.stable and p.error is None for p in result.grid)
        assert max(p.metrics["s2_c_db"] for p in result.grid) < 3.0103

    def test_fig3_mechanical_squeezing_phase_sensitivity(self):
        result = run_sweep(figure_preset("fig3b"))

        def at(phi_over_pi, ratio):
            pts = [p for p in result.grid
                   if abs(p.axes["phi_over_pi"] - phi_over_pi) < 1e-12]
            pt = min(pts, key=lambda p: abs(p.axes["p_plus_over_p_minus"] - ratio))
            return pt.metrics["s2_m_db"]

        assert at(0.0, 0.1) > 3.0103
        assert at(1 / 24, 0.1) > 3.0103
        assert at(1 / 16, 0.1) < 3.0103

    def test_fig4_pump_gain_lifts_low_ratio_squeezing_past_3db(self):
        result = run_sweep(figure_preset("fig4b"))

        def at(lam, ratio):
            pts = [p for p in result.grid
                   if p.axes["lambda_over_kappa"] == lam and p.stable]
            pt = min(pts, key=lambda p: abs(p.axes["p_plus_over_p_minus"] - ratio))
            return pt.metrics["s2_m_db"]

        assert at(0.0, 0.1) < 3.0103
        assert at(0.49, 0.1) > 3.0103

    def test_fig6_temperature_degrades_squeezing(self):
        result = run_sweep(figure_preset("fig6b"))
        assert all(p.error is None for p in result.grid)
        best = {}
        for t in (10.0, 400.0, 1000.0):
            pts = [p for p in result.grid
                   if p.axes["temperature_mk"] == t and p.stable]
            best[t] = max(p.metrics["s2_m_db"] for p in pts)
        assert best[10.0] > best[400.0] > best[1000.0]
        assert best[10.0] > 18.0
