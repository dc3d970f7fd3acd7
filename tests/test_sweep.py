import json
import math
import os
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omsqueeze import (
    METRIC_COLUMNS,
    DirectCouplings,
    EmptySweepError,
    PowerDrive,
    SweepAxis,
    SweepResult,
    SweepSpec,
    TracePreset,
    appendix_c_params,
    apply_overrides,
    as_direct_drive,
    build_drift,
    coupling_base,
    derive_model,
    figure_preset,
    find_optimum,
    paper_base,
    run_sweep,
)
from omsqueeze.sweep import _NORMALIZED_ORDER, _RAW_FIELDS, OVERRIDE_KEYS

from golden_figures import GRID_NAMES


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


def mixed_grid_spec():
    """Stable, unstable and error rows: a negative power, a negative pump
    gain and a ratio that overflows the couplings to inf."""
    return SweepSpec(
        base=paper_base(),
        axes=(
            SweepAxis.explicit("p_plus_over_p_minus", (-0.5, 0.0, 0.4, 1.1, 1e308)),
            SweepAxis.explicit("lambda_over_kappa", (-0.1, 0.0, 0.3, 0.6)),
        ),
        coupling_mode="powers",
        name="mixed",
    )


def threshold_grid_spec():
    """Rows on both sides of the thresholds, which gamma moves to Lambda =
    (kappa + gamma)/2 = 0.5000033335 kappa and (at Lambda = 0.3 kappa) to
    G+/G- = 1.0000037044: stable rows, rows in the marginal band, which pass
    the Routh-Hurwitz gate but not the spectral one, unstable rows, and
    error rows (a negative pump gain)."""
    return direct_spec(
        base=coupling_base(g_minus_k=0.3, phi=0.6),
        axes=(
            SweepAxis.explicit("lambda_over_kappa",
                               (-0.1, 0.3, 0.5, 0.500003333, 0.5000033335, 0.50000334, 0.6)),
            SweepAxis.explicit("g_plus_over_g_minus",
                               (0.5, 0.999, 1.0, 1.0000037, 1.00000371, 1.0000047, 1.2)),
        ),
    )


def per_row_csv(result):
    """The CSV of a result with one %-format per cell: the reference for
    `SweepResult.write_csv`."""
    axis_names, outputs = list(result.axes), list(result.spec.outputs)
    lines = [",".join(axis_names + outputs + ["stable", "physical"])]
    for i, stable in enumerate(result.stable.tolist()):
        cells = [result.axes[n][i] for n in axis_names] + [result.columns[n][i] for n in outputs]
        lines.append(",".join("%.12g" % c for c in cells)
                     + ",%d,%.12g" % (stable, result.columns["physical"][i]))
    return "\n".join(lines) + "\n"


def sequential_overrides(params, overrides):
    """Reference: one validated `replace` per override, raw fields then the
    normalized ones, each in its fixed order."""
    unknown = set(overrides) - set(OVERRIDE_KEYS)
    if unknown:
        raise ValueError(f"unknown parameter names: {sorted(unknown)}")
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
            if not isinstance(p.drive, DirectCouplings):
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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _override_values(name):
    """Typical, boundary and invalid values on each override's own scale."""
    base = paper_base()
    if name in ("P_minus", "P_plus"):
        scale = base.drive.P_minus
    elif name in ("G_minus", "G_plus"):
        scale = 0.3 * base.kappa
    else:  # a raw field's own value; 1 for the normalized names
        scale = abs(getattr(base, name, 1.0)) or 1.0
    return st.one_of(
        st.floats(0.0, 2.0).map(lambda x: x * scale),
        st.sampled_from([-1.0, 0.0, math.nan, math.inf, 1e300]),
    )


override_dicts = st.sets(st.sampled_from(OVERRIDE_KEYS), max_size=6).flatmap(
    lambda names: st.fixed_dictionaries({n: _override_values(n) for n in sorted(names)})
)


class TestApplyOverrides:
    @settings(max_examples=150)
    @given(st.sampled_from(["paper", "appendixC", "coupling"]), override_dicts)
    def test_matches_one_replace_per_override(self, base_name, overrides):
        """Same parameters, or the same exception type, as the sequential
        reference on power and direct drives."""
        base = {"paper": paper_base, "appendixC": appendix_c_params,
                "coupling": coupling_base}[base_name]()
        expected = _outcome(sequential_overrides, base, overrides)
        got = _outcome(apply_overrides, base, overrides)
        if isinstance(expected, Exception):
            assert type(got) is type(expected), (got, expected)
        else:
            assert got == expected


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

    def test_overflowing_minors_are_error_rows(self):
        """A coupling whose square overflows a float is an error row with the
        text it raises when evaluated alone; its stack is unaffected."""
        spec = direct_spec(axes=(SweepAxis.explicit("g_minus_over_kappa", (0.2, 1e200, 0.4)),))
        result = run_sweep(spec)
        overflow = "OverflowError: the square of G_minus = 1e+200 overflows a float"
        assert result.errors == (None, overflow, None)
        assert result.stable.tolist() == [True, False, True]

    def test_extreme_couplings_are_stable_at_the_exact_abscissa(self):
        """Far up a G-/kappa scan the entries of W reach G-, and a dense
        eigensolve's error, eps ||W||, swamped real parts of order kappa: it
        made the rows at 1e29 and 1e66 (G+/G- = 1/2) of the CI overflow scan
        marginal (abscissa -4.2e-22) or unstable (+5.8e49), and those at 1e77
        and 1.1e77 (G+ = 0), whose minors are inf without an overflowing
        square, unstable.  These rows are stable, as both routes find, and no
        row is an error; W_+'s roots are complex there, so the abscissa is
        (Lambda - kappa/2 - gamma/2)/2 = -0.0500017, to a few eps.  Every
        row's flag is `analyze`'s."""
        from omsqueeze.stability import analyze

        spec = direct_spec(base=appendix_c_params(), axes=(
            SweepAxis.explicit("g_minus_over_kappa", (0.2, 1e29, 1e66, 1e77, 1.1e77, 0.4)),
            SweepAxis.explicit("g_plus_over_g_minus", (0.0, 0.5))))
        result = run_sweep(spec)
        assert result.errors == (None,) * 12
        extreme = [(1e29, 0.5), (1e66, 0.5), (1e77, 0.0), (1.1e77, 0.0)]
        for overrides, stable in zip(spec.assignments(), result.stable.tolist()):
            m = derive_model(apply_overrides(spec.base, overrides))
            report = analyze(m)
            assert stable == report.stable
            if tuple(overrides.values()) in extreme:
                assert report.stable and report.consistent
                exact = (m.lambda_pa - 0.5 - m.gamma / 2.0) / 2.0
                assert exact == pytest.approx(-0.0500017, abs=1e-7)
                assert abs(report.spectral_abscissa - exact) <= 4 * np.finfo(float).eps * -exact

    def test_spectrum_that_is_not_finite_is_an_error_row(self, monkeypatch):
        """A row whose W_+ spectrum overflows is an error row, under warnings
        that raise, never an unstable one.  Its minors would overflow first,
        so here every row's minors pass."""
        import warnings

        import omsqueeze.sweep as sweep_module

        monkeypatch.setattr(sweep_module, "rhsc_check", lambda model: (None, None, None, True))
        spec = direct_spec(axes=(SweepAxis.explicit("g_minus_over_kappa", (0.2, 1e200, 0.4)),
                                 SweepAxis.explicit("g_plus_over_g_minus", (0.0, 0.5))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sweep(spec)
        assert result.stable.tolist() == [True, True, False, False, True, True]
        assert result.errors[:2] == result.errors[4:] == (None, None)
        for error in result.errors[2:4]:
            assert error.startswith("LinAlgError: W_+ has a spectrum that is not finite")

    def test_row_outcome_does_not_depend_on_the_warning_filter(self):
        """A G-/kappa scan to 1e297 at G+/G- = 1/2 and 1: nothing warns, so
        the rows are the same whether warnings raise, as in this suite, or
        print.  A stable row whose metrics overflow is an error row that
        names the metric, not a row of metrics taken from an overflow."""
        import warnings

        g_minus = [0.3] + [10.0**k for k in range(-3, 298, 10)]
        spec = direct_spec(axes=(SweepAxis.explicit("g_minus_over_kappa", g_minus),
                                 SweepAxis.explicit("g_plus_over_g_minus", (0.5, 1.0))))
        strict = run_sweep(spec)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lenient = run_sweep(spec)
        assert caught == []
        assert lenient.errors == strict.errors
        assert np.array_equal(lenient.stable, strict.stable)
        for name, values in strict.columns.items():
            assert np.array_equal(lenient.columns[name], values, equal_nan=True), name
        assert strict.stable[:2].all()
        assert all(np.isfinite(values[strict.stable]).all() for values in strict.columns.values())
        assert "OverflowError: en_cc is not finite" in strict.errors

    def test_deterministic_csv_bytes(self, tmp_path):
        spec = direct_spec(
            axes=(SweepAxis.linear("g_plus_over_g_minus", 0.0, 0.9, 7),),
        )
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run_sweep(spec).write_csv(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @staticmethod
    def _mixed_spec():
        """Stable, unstable (ratio > 1) and one error row (negative power)."""
        ratios = (-0.5,) + tuple(np.linspace(0.0, 1.4, 15))
        return SweepSpec(
            base=paper_base(),
            axes=(SweepAxis.explicit("p_plus_over_p_minus", ratios),),
            coupling_mode="powers",
            name="mixed",
        )

    def test_csv_bytes_independent_of_batch_size(self, tmp_path, monkeypatch):
        import omsqueeze.sweep as sweep_module

        spec = self._mixed_spec()
        result = run_sweep(spec)
        errors = [p for p in result.grid if p.error is not None]
        assert len(errors) == 1
        assert any(p.stable for p in result.grid)
        assert any(not p.stable and p.error is None for p in result.grid)
        reference = tmp_path / "default.csv"
        result.write_csv(reference)
        for batch in (1, 7):
            monkeypatch.setattr(sweep_module, "BATCH", batch)
            path = tmp_path / f"batch{batch}.csv"
            run_sweep(spec).write_csv(path)
            assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("name", ["mixed-line", "mixed-grid", "fig7a"])
    def test_bytes_independent_of_worker_count(self, name, tmp_path, monkeypatch):
        """CSV and JSON are the same with one thread and with three (more
        than the cores a test host has, switching threads every microsecond),
        error rows found by halving a stack in a worker thread included."""
        import omsqueeze.sweep as sweep_module

        spec = {"mixed-line": self._mixed_spec, "mixed-grid": mixed_grid_spec,
                "fig7a": lambda: figure_preset("fig7a")}[name]()
        monkeypatch.setattr(sweep_module, "BATCH", 4)
        outputs = []
        interval = sys.getswitchinterval()
        for workers in (1, 3):
            monkeypatch.setattr(sweep_module, "_cpus", lambda: workers)
            sys.setswitchinterval(1e-6)
            try:
                result = run_sweep(spec)
            finally:
                sys.setswitchinterval(interval)
            path = tmp_path / f"{workers}.csv"
            result.write_csv(path)
            outputs.append((path.read_bytes(), json.dumps(result.to_json())))
        assert outputs[0] == outputs[1]
        assert name == "fig7a" or any(result.errors)

    def test_one_cpu_or_one_stack_starts_no_thread(self, monkeypatch):
        import omsqueeze.sweep as sweep_module

        def no_thread(*args, **kwargs):
            raise AssertionError("run_sweep started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        monkeypatch.setattr(sweep_module, "BATCH", 4)
        monkeypatch.setattr(sweep_module, "_cpus", lambda: 1)
        run_sweep(figure_preset("fig7a"))  # 51 stacks, one CPU
        monkeypatch.setattr(sweep_module, "BATCH", 256)
        monkeypatch.setattr(sweep_module, "_cpus", lambda: 4)
        run_sweep(figure_preset("fig7a"))  # one stack, four CPUs

    def test_workers_keep_the_callers_floating_point_error_state(self, monkeypatch):
        """A thread starts with numpy's default error state unless it runs in
        the caller's context; a stack must not depend on which thread ran it."""
        import omsqueeze.sweep as sweep_module

        original = sweep_module._evaluate
        seen = []

        def recording(base, axes, rows, out):
            seen.append((threading.current_thread() is threading.main_thread(),
                         np.geterr()["over"]))
            original(base, axes, rows, out)

        monkeypatch.setattr(sweep_module, "BATCH", 4)
        monkeypatch.setattr(sweep_module, "_cpus", lambda: 3)
        monkeypatch.setattr(sweep_module, "_evaluate", recording)
        with np.errstate(over="raise"):
            run_sweep(figure_preset("fig7a"))  # 51 stacks
        assert (False, "raise") in seen
        assert {state for _, state in seen} == {"raise"}

    def test_cpu_count_falls_back_where_affinity_is_missing(self, monkeypatch):
        import omsqueeze.sweep as sweep_module

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert sweep_module._cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert sweep_module._cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert sweep_module._cpus() == 1

    def test_exception_in_a_worker_reaches_the_caller(self, monkeypatch):
        """An exception that `_evaluate` does not turn into an error row, in
        a thread run_sweep started, is raised by run_sweep."""
        import omsqueeze.sweep as sweep_module

        original = sweep_module._evaluate
        interrupted = []

        def interrupted_in_a_worker(base, axes, rows, out):
            if threading.current_thread() is not threading.main_thread() and not interrupted:
                interrupted.append(rows[0])
                raise KeyboardInterrupt
            original(base, axes, rows, out)

        monkeypatch.setattr(sweep_module, "BATCH", 4)
        monkeypatch.setattr(sweep_module, "_cpus", lambda: 3)
        monkeypatch.setattr(sweep_module, "_evaluate", interrupted_in_a_worker)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(figure_preset("fig7a"))  # 51 stacks
        assert len(interrupted) == 1

    @staticmethod
    def _stack_spec(monkeypatch):
        """One stack of 256 stable and unstable (ratio > 1) rows, no error row."""
        import omsqueeze.sweep as sweep_module

        monkeypatch.setattr(sweep_module, "BATCH", 256)
        return SweepSpec(
            base=paper_base(),
            axes=(SweepAxis.linear("p_plus_over_p_minus", 0.0, 1.4, 256),),
            coupling_mode="powers",
            name="stack",
        )

    # A stack with one bad row is halved down to that row: two calls per
    # halving (the good half and the bad one) after the first.
    MAX_GATE_CALLS = 2 * math.log2(256) + 1

    def test_failure_inside_a_stack_is_one_error_row(self, tmp_path, monkeypatch):
        """A stacked call that raises is split in halves until the point
        that fails is alone."""
        import omsqueeze.sweep as sweep_module
        from omsqueeze.errors import PhysicalityError

        spec = self._stack_spec(monkeypatch)
        clean = run_sweep(spec)
        marked = 99
        assert clean.grid[marked].stable
        target = clean.grid[marked].metrics["v_xd"]
        original_metrics, original_gate = sweep_module.metric_row, sweep_module.solve_stable
        sizes = []

        def failing_on_marked(sigma):
            row = original_metrics(sigma)
            if np.any(np.asarray(row["v_xd"]) == target):
                raise PhysicalityError("marked covariance")
            return row

        def counting(w, d, rhsc_stable):
            sizes.append(len(w))
            return original_gate(w, d, rhsc_stable)

        monkeypatch.setattr(sweep_module, "metric_row", failing_on_marked)
        monkeypatch.setattr(sweep_module, "solve_stable", counting)
        result = run_sweep(spec)
        assert sizes[0] == 256 and len(sizes) <= self.MAX_GATE_CALLS
        assert result.grid[marked].error == "PhysicalityError: marked covariance"
        assert not result.grid[marked].stable and result.grid[marked].metrics is None

        clean_csv, failed_csv = tmp_path / "clean.csv", tmp_path / "failed.csv"
        clean.write_csv(clean_csv)
        result.write_csv(failed_csv)
        before = clean_csv.read_text().splitlines()
        after = failed_csv.read_text().splitlines()
        row = marked + 1  # after the header
        assert after[:row] + after[row + 1:] == before[:row] + before[row + 1:]
        assert after[row].endswith(",nan,0,nan")

    def test_gate_failure_inside_a_stack_is_one_error_row(self, tmp_path, monkeypatch):
        """A stability gate that raises for one drift of a stack is split in
        halves until that drift is alone."""
        import omsqueeze.sweep as sweep_module
        from omsqueeze.errors import ThresholdError

        spec = self._stack_spec(monkeypatch)
        clean = run_sweep(spec)
        marked = 3
        target = build_drift(derive_model(apply_overrides(spec.base, spec.assignments()[marked])))
        original = sweep_module.solve_stable
        sizes = []

        def failing_on_marked(w, d, rhsc_stable):
            sizes.append(len(w))
            if np.all(w == target, axis=(-2, -1)).any():
                raise ThresholdError("marked model")
            return original(w, d, rhsc_stable)

        monkeypatch.setattr(sweep_module, "solve_stable", failing_on_marked)
        result = run_sweep(spec)
        assert sizes[0] == 256 and len(sizes) <= self.MAX_GATE_CALLS
        assert result.grid[marked].error == "ThresholdError: marked model"
        assert not result.grid[marked].stable and result.grid[marked].metrics is None
        for i, (before, after) in enumerate(zip(clean.grid, result.grid)):
            if i != marked:
                assert after == before

    @pytest.mark.parametrize("policy", ["mark", "skip"])
    @pytest.mark.parametrize("outputs", [METRIC_COLUMNS, ("en_mm", "s2_m_db")])
    @pytest.mark.parametrize("name", ["mixed-grid", "threshold-grid", "signed-zero"])
    def test_csv_equals_one_format_per_cell(self, name, outputs, policy, tmp_path):
        """Stable, unstable and error rows, all outputs or some, marked or
        skipped, and one axis that holds both -0.0 and 0.0: the lines of
        unstable rows, written as a constant tail, and the axis cells, each
        distinct value formatted once, are the bytes of the per-cell format."""
        signed_zero = direct_spec(
            axes=(SweepAxis.explicit("lambda_over_kappa", (-0.0, 0.0, 0.3, 0.6, -0.0)),))
        spec = {"mixed-grid": mixed_grid_spec(), "threshold-grid": threshold_grid_spec(),
                "signed-zero": signed_zero}[name]
        result = run_sweep(replace(spec, outputs=outputs, unstable_policy=policy))
        assert result.stable.any() and (policy == "skip") == result.stable.all()
        path = tmp_path / "grid.csv"
        result.write_csv(path)
        assert path.read_bytes() == per_row_csv(result).encode()

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


class TestColumnarFrontEnd:
    """The array calls a sweep makes against the scalar calls, row by row."""

    @staticmethod
    def _same_bits(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def _check(self, spec, result, rows):
        """Rows of `rows` the scalar calls reject carry their error text; the
        rows they accept, evaluated as one array call, give the scalar calls'
        models, drifts and stable flags bit for bit."""
        from omsqueeze.params import ModelParams
        from omsqueeze.stability import analyze

        base = spec.base
        if spec.coupling_mode == "direct":
            base = as_direct_drive(base)
        assignments = spec.assignments()
        singles = {}
        for row in rows:
            try:
                singles[row] = derive_model(apply_overrides(base, assignments[row]))
            except Exception as exc:
                assert result.errors[row] == f"{type(exc).__name__}: {exc}"
                assert not result.stable[row]
        accepted = np.array(list(singles), dtype=int)
        columns = {name: values[accepted] for name, values in spec.columns().items()}
        model = derive_model(apply_overrides(base, columns))
        drift = np.broadcast_to(build_drift(model), (accepted.size, 8, 8))
        for i, row in enumerate(accepted):
            single = singles[row]
            for field in (f.name for f in fields(ModelParams)):
                got = np.broadcast_to(getattr(model, field), accepted.shape)[i]
                if field == "rwa_flagged":
                    assert bool(got) == getattr(single, field)
                else:
                    self._same_bits(got, getattr(single, field))
            self._same_bits(drift[i], build_drift(single))
            assert result.stable[row] == analyze(single).stable, assignments[row]
            assert result.errors[row] is None

    @pytest.mark.parametrize("name", GRID_NAMES)
    def test_every_preset_equals_the_scalar_calls(self, name, figure_results):
        spec = figure_preset(name)
        size = spec.grid_size()
        rows = np.unique(np.r_[np.arange(0, size, max(1, size // 200)), size - 1])
        self._check(spec, figure_results[name], rows)

    def test_mixed_spec_equals_the_scalar_calls(self):
        spec = mixed_grid_spec()
        result = run_sweep(spec)
        assert 0 < sum(e is not None for e in result.errors) < len(result.errors)
        assert result.stable.any() and not result.stable.all()
        self._check(spec, result, np.arange(spec.grid_size()))

    def test_threshold_grid_equals_the_scalar_calls(self, monkeypatch):
        """Across both thresholds, with error rows in the stacks, each row's
        flag is `analyze`'s.  The verdict itself is pinned only where W_+'s
        exact abscissa is clearly outside the marginal band: at Lambda = 0.3
        kappa it is -4.99e-9 at G+/G- = 1.0000037 (stable) and +4.01e-9 at
        1.00000371 (unstable).  At Lambda = 0.500003333 kappa it is
        -9.999999862e-10, inside the band, so rounding decides that verdict."""
        import omsqueeze.sweep as sweep_module
        from omsqueeze.stability import analyze

        spec = threshold_grid_spec()
        assignments = spec.assignments()
        pinned = {assignments.index({"lambda_over_kappa": 0.3, "g_plus_over_g_minus": g}): stable
                  for g, stable in ((1.0000037, True), (1.00000371, False))}
        base = as_direct_drive(spec.base)
        for row, stable in pinned.items():
            assert analyze(derive_model(apply_overrides(base, assignments[row]))).stable is stable
        for batch in (512, 5):
            monkeypatch.setattr(sweep_module, "BATCH", batch)
            result = run_sweep(spec)
            assert sum(e is not None for e in result.errors) == 7
            assert 0 < result.stable.sum() < 42
            for row, stable in pinned.items():
                assert result.stable[row] == stable and result.errors[row] is None
            self._check(spec, result, np.arange(spec.grid_size()))

    def test_eigensolves_only_the_rows_rhsc_passes(self, monkeypatch):
        """The stacks' spectra hold one row per valid row whose
        Routh-Hurwitz minors are positive."""
        import omsqueeze.lyapunov as lyapunov_module
        from omsqueeze.stability import rhsc_check, sector_spectrum

        rows = []

        def counting(a):
            rows.append(len(a))
            return sector_spectrum(a)

        spec = threshold_grid_spec()
        base = as_direct_drive(spec.base)
        passed = 0
        for overrides in spec.assignments():
            try:
                passed += bool(rhsc_check(derive_model(apply_overrides(base, overrides)))[3])
            except ValueError:
                pass
        monkeypatch.setattr(lyapunov_module, "sector_spectrum", counting)
        stable = run_sweep(spec).stable.sum()
        assert 0 < stable < passed < spec.grid_size() - 7  # marginal rows pass RHSC only
        assert sum(rows) == passed

    def test_one_eigensolve_per_stack(self, monkeypatch):
        """The stack's W_+ spectrum, in closed form, serves both the gate and
        the solve; no dense eigensolve runs."""
        import omsqueeze.lyapunov as lyapunov_module
        import omsqueeze.sweep as sweep_module
        from omsqueeze.stability import sector_spectrum

        shapes = []
        eigvals = np.linalg.eigvals

        def counting_spectrum(a):
            shapes.append(np.shape(a))
            return sector_spectrum(a)

        def counting_eigvals(a):
            shapes.append(("eigvals", np.shape(a)))
            return eigvals(a)

        monkeypatch.setattr(lyapunov_module, "sector_spectrum", counting_spectrum)
        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        monkeypatch.setattr(sweep_module, "BATCH", 64)
        run_sweep(figure_preset("fig7a"))  # 201 stable points
        # worker threads reach the spectrum in any order
        assert sorted(shapes) == [(9, 4, 4)] + [(64, 4, 4)] * 3


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

    def test_values_a_few_ulp_apart_tie_to_first_point(self):
        spec = direct_spec(axes=(SweepAxis.explicit("phi_over_pi", (-0.5, 0.0, 0.5)),))
        value = 0.6922790914
        values = (value, math.nextafter(math.nextafter(value, 1.0), 1.0), value - 1.0)
        result = SweepResult(
            spec=spec, axes={"phi_over_pi": np.array([-0.5, 0.0, 0.5])},
            columns={"en_cc": np.array(values)}, stable=np.ones(3, dtype=bool),
            errors=(None,) * 3,
        )
        axes, best = find_optimum(result, "en_cc")
        assert axes == {"phi_over_pi": -0.5} and best == value

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

    def test_fig3_optical_squeezing_capped_at_3db(self, figure_results):
        result = figure_results["fig3a"]
        assert all(p.stable and p.error is None for p in result.grid)
        assert max(p.metrics["s2_c_db"] for p in result.grid) < 3.0103

    def test_fig3_mechanical_squeezing_phase_sensitivity(self, figure_results):
        result = figure_results["fig3b"]

        def at(phi_over_pi, ratio):
            pts = [p for p in result.grid
                   if abs(p.axes["phi_over_pi"] - phi_over_pi) < 1e-12]
            pt = min(pts, key=lambda p: abs(p.axes["p_plus_over_p_minus"] - ratio))
            return pt.metrics["s2_m_db"]

        assert at(0.0, 0.1) > 3.0103
        assert at(1 / 24, 0.1) > 3.0103
        assert at(1 / 16, 0.1) < 3.0103

    def test_fig4_pump_gain_lifts_low_ratio_squeezing_past_3db(self, figure_results):
        result = figure_results["fig4b"]

        def at(lam, ratio):
            pts = [p for p in result.grid
                   if p.axes["lambda_over_kappa"] == lam and p.stable]
            pt = min(pts, key=lambda p: abs(p.axes["p_plus_over_p_minus"] - ratio))
            return pt.metrics["s2_m_db"]

        assert at(0.0, 0.1) < 3.0103
        assert at(0.49, 0.1) > 3.0103

    def test_fig6_temperature_degrades_squeezing(self, figure_results):
        result = figure_results["fig6b"]
        assert all(p.error is None for p in result.grid)
        best = {}
        for t in (10.0, 400.0, 1000.0):
            pts = [p for p in result.grid
                   if p.axes["temperature_mk"] == t and p.stable]
            best[t] = max(p.metrics["s2_m_db"] for p in pts)
        assert best[10.0] > best[400.0] > best[1000.0]
        assert best[10.0] > 18.0
