import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omsqueeze import (
    DirectCouplings,
    ModelParams,
    PhysicalParams,
    PowerDrive,
    ThresholdError,
    appendix_c_params,
    as_direct_drive,
    derive_model,
    drive_amplitude,
    paper_base,
    steady_cavity_amplitude,
    thermal_occupation,
    wrap_phase,
)

TWO_PI = 2 * math.pi
OMEGA_M = TWO_PI * 3.6e6
OMEGA_C = TWO_PI * 6.23e9
KAPPA = TWO_PI * 4.5e5


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(OMEGA_M, 0.0) == 0.0

    def test_mechanical_bath_10mk(self):
        # frozen from a 40-digit evaluation of the Bose-Einstein formula
        assert thermal_occupation(OMEGA_M, 0.010) == pytest.approx(
            57.38093736602090, rel=1e-12
        )

    def test_cavity_bath_10mk_is_effectively_empty(self):
        n_c = thermal_occupation(OMEGA_C, 0.010)
        assert n_c == pytest.approx(1.034917672599024e-13, rel=1e-9)
        assert n_c < 1e-12

    def test_deep_microwave_bath_underflows_to_zero(self):
        assert thermal_occupation(OMEGA_C, 1e-9) == 0.0

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            thermal_occupation(0.0, 0.01)
        with pytest.raises(ValueError):
            thermal_occupation(-1.0, 0.01)

    @given(st.floats(1e-4, 1.0), st.floats(1e-4, 1.0))
    def test_increasing_in_temperature(self, t_lo, dt):
        n_lo = thermal_occupation(OMEGA_M, t_lo)
        n_hi = thermal_occupation(OMEGA_M, t_lo + dt)
        assert n_hi > n_lo

    @given(st.floats(1e5, 1e11), st.floats(1.1, 100.0))
    def test_decreasing_in_frequency(self, omega, factor):
        assert thermal_occupation(omega * factor, 0.01) < thermal_occupation(omega, 0.01)


class TestDriveAmplitude:
    def test_zero_power(self):
        assert drive_amplitude(0.0, OMEGA_C, KAPPA) == 0.0

    def test_blue_tone_10nw(self):
        e = drive_amplitude(10e-9, TWO_PI * 6.2336e9, KAPPA)
        assert e == pytest.approx(82736798345.76795, rel=1e-12)

    def test_red_tone_3nw(self):
        e = drive_amplitude(3e-9, TWO_PI * 6.2264e9, KAPPA)
        assert e == pytest.approx(45343004639.074204, rel=1e-12)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            drive_amplitude(-1e-9, OMEGA_C, KAPPA)

    @given(st.floats(1e-12, 1e-3))
    def test_sqrt_power_scaling(self, power):
        e1 = drive_amplitude(power, OMEGA_C, KAPPA)
        e2 = drive_amplitude(2 * power, OMEGA_C, KAPPA)
        assert e2 == pytest.approx(math.sqrt(2.0) * e1, rel=1e-15)


class TestSteadyCavityAmplitude:
    def test_no_drive(self):
        assert steady_cavity_amplitude(0.0, KAPPA, OMEGA_M, OMEGA_M, 0.0) == 0

    def test_lorentzian_magnitude_pin(self):
        cs = steady_cavity_amplitude(8.27e10, KAPPA, OMEGA_M, OMEGA_M, 0.0)
        assert abs(cs) == pytest.approx(3649.0226694686733, rel=1e-12)
        # blue tone has the opposite detuning sign but the same magnitude
        cs_blue = steady_cavity_amplitude(8.27e10, KAPPA, -OMEGA_M, -OMEGA_M, 0.0)
        assert abs(cs_blue) == pytest.approx(abs(cs), rel=1e-14)

    @given(st.floats(1e3, 1e12), st.floats(1e3, 1e8), st.floats(-1e8, 1e8))
    def test_matches_lorentzian_without_pump(self, field, kappa, delta):
        cs = steady_cavity_amplitude(field, kappa, delta, delta, 0.0)
        expected = field / math.sqrt(kappa**2 / 4 + delta**2)
        assert abs(cs) == pytest.approx(expected, rel=1e-12)

    def test_parametric_threshold_raises(self):
        # kappa^2/4 + delta^2 == lambda^2 makes the denominator vanish
        with pytest.raises(ThresholdError):
            steady_cavity_amplitude(1.0, 2.0, 0.0, 0.0, 1.0)


class TestDeriveModel:
    def test_direct_couplings_pass_through(self):
        p = appendix_c_params()
        m = derive_model(p)
        assert m.G_minus == pytest.approx(0.2, rel=1e-14)
        assert m.G_plus == pytest.approx(0.1, rel=1e-14)
        assert m.lambda_pa == pytest.approx(0.4, rel=1e-14)
        assert m.kappa == 1.0
        assert m.omega_m == pytest.approx(8.0, rel=1e-14)

    def test_power_pipeline_reference_point(self):
        m = derive_model(paper_base(p_minus=10e-9, p_plus=0.0))
        assert m.G_minus == pytest.approx(0.29222051823948446, rel=1e-12)
        assert m.G_plus == 0.0

    def test_power_pipeline_with_pump_gain(self):
        m = derive_model(paper_base(p_minus=3e-9, lambda_pa=0.49 * KAPPA))
        assert m.G_minus == pytest.approx(0.16065613595960615, rel=1e-12)

    def test_bath_occupations(self):
        m = derive_model(paper_base())
        assert m.n_m == pytest.approx(57.38093736602090, rel=1e-12)
        assert m.n_c < 1e-12

    @given(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 0.49))
    def test_idempotent_on_direct_couplings(self, gm, gp, lam):
        p = PhysicalParams(
            omega_m=OMEGA_M, omega_c=OMEGA_C, kappa=KAPPA, gamma=TWO_PI * 3,
            g=TWO_PI * 36, lambda_pa=lam * KAPPA, phi=0.3, temperature=0.01,
            drive=DirectCouplings(G_minus=gm * KAPPA, G_plus=gp * KAPPA),
        )
        m1 = derive_model(p)
        m2 = derive_model(as_direct_drive(p))
        assert m1 == m2
        assert m1.G_minus == pytest.approx(gm, rel=1e-12, abs=1e-15)

    def test_rwa_guard_flags_fast_rates(self):
        # kappa = omega_m/8 and couplings up to kappa must pass silently
        assert not derive_model(paper_base()).rwa_flagged
        assert not derive_model(appendix_c_params()).rwa_flagged
        fast = PhysicalParams(
            omega_m=OMEGA_M, omega_c=OMEGA_C, kappa=KAPPA, gamma=TWO_PI * 3,
            g=TWO_PI * 36, lambda_pa=0.0, phi=0.0, temperature=0.01,
            drive=DirectCouplings(G_minus=3.0 * KAPPA, G_plus=0.0),
        )
        assert derive_model(fast).rwa_flagged


class TestValidation:
    def test_phase_wrapped_into_half_open_interval(self):
        from dataclasses import replace

        p = replace(paper_base(), phi=3 * math.pi)
        assert p.phi == pytest.approx(math.pi)
        assert wrap_phase(-math.pi) == pytest.approx(math.pi)
        assert wrap_phase(0.5) == 0.5
        assert -math.pi < wrap_phase(123.456) <= math.pi

    def test_rejects_nonpositive_rates(self):
        good = paper_base().to_json()
        for name in ("omega_m", "omega_c", "kappa", "gamma", "g"):
            bad = dict(good)
            bad[name] = 0.0
            with pytest.raises(ValueError):
                PhysicalParams.from_json(bad)

    def test_rejects_negative_power_and_coupling(self):
        with pytest.raises(ValueError):
            PowerDrive(P_minus=-1e-9, P_plus=0.0)
        with pytest.raises(ValueError):
            DirectCouplings(G_minus=-1.0, G_plus=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        ["omega_m", "omega_c", "kappa", "gamma", "g", "lambda_pa", "phi", "temperature"],
    )
    def test_rejects_non_finite_physical_fields(self, name, bad):
        obj = paper_base().to_json()
        obj[name] = bad
        with pytest.raises(ValueError, match="finite"):
            PhysicalParams.from_json(obj)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_drive(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PowerDrive(P_minus=1e-9, P_plus=bad)
        with pytest.raises(ValueError, match="finite"):
            DirectCouplings(G_minus=bad, G_plus=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "name",
        ["G_minus", "G_plus", "lambda_pa", "phi", "gamma", "n_c", "n_m", "omega_m", "kappa"],
    )
    def test_rejects_non_finite_model_fields(self, name, bad):
        fields = dict(G_minus=0.2, G_plus=0.1, lambda_pa=0.4, phi=0.0,
                      gamma=1e-5, n_c=0.0, n_m=50.0)
        fields[name] = bad
        with pytest.raises(ValueError, match="finite"):
            ModelParams(**fields)

    def test_json_round_trip(self):
        for p in (paper_base(), appendix_c_params()):
            assert PhysicalParams.from_json(p.to_json()) == p

    def test_json_accepts_drive_spec_alias(self):
        obj = paper_base().to_json()
        obj["drive_spec"] = obj.pop("drive")
        assert PhysicalParams.from_json(obj) == paper_base()

    def test_json_rejects_unknown_fields(self):
        obj = paper_base().to_json()
        obj["detuning"] = 1.0
        with pytest.raises(ValueError):
            PhysicalParams.from_json(obj)
