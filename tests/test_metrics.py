import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from omsqueeze import (
    COHERENT_BOUND,
    METRIC_COLUMNS,
    THREE_DB,
    PhysicalityError,
    build_diffusion,
    build_drift,
    collective_variances,
    log_negativity,
    metric_row,
    physicality_check,
    single_mode_variances,
    solve_lyapunov,
    squeezing_db,
    squeezing_result,
)

from conftest import PAPER_N_M, model, random_models

VACUUM = 0.5 * np.eye(8)


def two_mode_squeezed_block(r):
    """Ideal two-mode squeezed covariance (vacuum variance 1/2)."""
    ch, sh = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
    block = np.zeros((4, 4))
    block[:2, :2] = block[2:, 2:] = np.diag([ch, ch])
    block[:2, 2:] = block[2:, :2] = np.diag([sh, -sh])
    return block


def embed(block, idx):
    sigma = 0.5 * np.eye(8)
    sigma[np.ix_(idx, idx)] = block
    return sigma


def steady_sigma(m):
    return solve_lyapunov(build_drift(m), build_diffusion(m)).sigma


class TestCollectiveVariances:
    def test_vacuum_shot_noise_anchor(self):
        v = collective_variances(VACUUM)
        assert (v.v_xc, v.v_yc, v.v_xd, v.v_yd) == (1.0, 1.0, 1.0, 1.0)
        assert squeezing_db(v.v_xd) == 0.0

    def test_decoupled_thermal(self):
        sigma = steady_sigma(model())
        v = collective_variances(sigma)
        assert v.v_xd == pytest.approx(2 * (PAPER_N_M + 0.5), rel=1e-12)
        assert v.v_xd == pytest.approx(115.76187473204180, rel=1e-12)

    def test_balanced_tones_position_sum_exactly_thermal(self):
        sigma = steady_sigma(model(0.4, 0.4, 0.3, 0.0))
        v = collective_variances(sigma)
        assert v.v_xd == pytest.approx(2 * (PAPER_N_M + 0.5), abs=1e-9)

    def test_rejects_asymmetric_input(self):
        bad = VACUUM.copy()
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError):
            collective_variances(bad)


class TestSqueezingDb:
    def test_shot_noise_is_zero_db(self):
        assert squeezing_db(1.0) == 0.0

    def test_half_variance_is_the_3db_threshold(self):
        assert squeezing_db(0.5) == pytest.approx(3.0103, abs=1e-4)
        assert squeezing_db(0.5) == pytest.approx(THREE_DB, abs=1e-4)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            squeezing_db(0.0)
        with pytest.raises(ValueError):
            squeezing_db(-0.5)

    @given(st.floats(1e-6, 1e3), st.floats(1.0001, 10.0))
    def test_strictly_decreasing_in_variance(self, v, factor):
        assert squeezing_db(v * factor) < squeezing_db(v)

    def test_result_object_threshold(self):
        below = squeezing_result("x_d", 0.51)
        above = squeezing_result("x_d", 0.49)
        assert not below.beats_3db
        assert above.beats_3db
        assert above.quadrature == "x_d"


class TestSingleModeVariances:
    def test_vacuum(self):
        values = single_mode_variances(VACUUM)
        assert set(values) == {
            "x_c1", "y_c1", "x_c2", "y_c2", "x_d1", "y_d1", "x_d2", "y_d2",
        }
        assert all(v == 0.5 for v in values.values())

    def test_decoupled_thermal_mechanics(self):
        values = single_mode_variances(steady_sigma(model()))
        assert values["x_d1"] == pytest.approx(PAPER_N_M + 0.5, rel=1e-12)
        assert values["y_d2"] == pytest.approx(PAPER_N_M + 0.5, rel=1e-12)

    def test_reservoir_engineering_pattern(self):
        # two-tone only: position squeezed below vacuum, momentum heated
        values = single_mode_variances(steady_sigma(model(0.5, 0.25, 0.0, 0.0)))
        assert values["x_d1"] == pytest.approx(0.16756443, rel=1e-5)
        assert values["y_d1"] == pytest.approx(1.50087703, rel=1e-5)
        assert values["x_d1"] < 0.5 < values["y_d1"]
        assert values["x_c1"] >= 0.5 and values["y_c1"] >= 0.5


class TestLogNegativity:
    def test_vacuum_is_separable(self):
        for pair in ("cc", "mm"):
            result = log_negativity(VACUUM, pair)
            assert result.nu_tilde_minus == pytest.approx(0.5, rel=1e-12)
            assert result.e_n == 0.0

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("pair,idx", [("cc", (0, 1, 2, 3)), ("mm", (4, 5, 6, 7))])
    def test_ideal_two_mode_squeezing(self, r, pair, idx):
        sigma = embed(two_mode_squeezed_block(r), list(idx))
        result = log_negativity(sigma, pair)
        assert result.e_n == pytest.approx(2 * r, rel=1e-10)
        assert result.nu_tilde_minus == pytest.approx(math.exp(-2 * r) / 2, rel=1e-10)

    def test_pump_plateau_point(self):
        sigma = steady_sigma(model(1.0, 0.5, 0.49, 0.0))
        assert log_negativity(sigma, "cc").e_n == pytest.approx(0.6818153, rel=1e-5)
        assert log_negativity(sigma, "mm").e_n == pytest.approx(0.6801447, rel=1e-5)

    def test_plateau_flat_and_dying_at_balanced_drive(self):
        mid1 = log_negativity(steady_sigma(model(1.0, 0.4, 0.49, 0.0)), "mm").e_n
        mid2 = log_negativity(steady_sigma(model(1.0, 0.6, 0.49, 0.0)), "mm").e_n
        assert mid1 > 0 and mid2 > 0
        assert abs(mid1 - mid2) < 0.02
        near_one = steady_sigma(model(1.0, 0.9999, 0.49, 0.0))
        assert log_negativity(near_one, "mm").e_n == 0.0
        assert log_negativity(near_one, "cc").e_n == 0.0

    def test_rejects_unknown_pair(self):
        with pytest.raises(ValueError):
            log_negativity(VACUUM, "cm")

    def test_unphysical_block_flagged(self):
        sigma = 0.5 * np.eye(8)
        sigma[0, 2] = sigma[2, 0] = 10.0  # impossible correlations
        with pytest.raises(PhysicalityError):
            log_negativity(sigma, "cc")

    def test_invariant_under_joint_local_rotations(self):
        theta = 0.77
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, s], [-s, c]])
        symplectic = np.eye(8)
        for mode in (2, 3):  # rotate both mechanical modes equally
            symplectic[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2] = rot
        sigma = steady_sigma(model(0.8, 0.4, 0.45, 0.3))
        rotated = symplectic @ sigma @ symplectic.T
        a = log_negativity(sigma, "mm").e_n
        b = log_negativity(rotated, "mm").e_n
        assert b == pytest.approx(a, abs=1e-9)


class TestPhysicality:
    def test_vacuum_physical(self):
        assert physicality_check(VACUUM)

    def test_sub_vacuum_isotropic_state_unphysical(self):
        assert not physicality_check(0.1 * np.eye(8))

    def test_thermal_states_physical(self):
        assert physicality_check(np.diag([0.7] * 4 + [55.0] * 4))

    def test_steady_states_physical_with_uncertainty_products(self):
        for m, _ in random_models(25, seed=20250810, stable=True):
            sigma = solve_lyapunov(build_drift(m), build_diffusion(m)).sigma
            assert physicality_check(sigma)
            v = collective_variances(sigma)
            assert v.v_xc * v.v_yc >= 1.0 - 1e-9
            assert v.v_xd * v.v_yd >= 1.0 - 1e-9


class TestMetricRow:
    def test_columns_and_types(self, appendix_c_model):
        sigma = solve_lyapunov(
            build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        ).sigma
        row = metric_row(sigma)
        assert set(row) == set(METRIC_COLUMNS) | {"physical"}
        assert all(isinstance(v, float) for v in row.values())
        assert row["physical"] == 1.0
        assert row["s2_m_db"] == pytest.approx(-10 * math.log10(row["v_xd"]), rel=1e-12)
        assert row["s2_c_db"] == pytest.approx(-10 * math.log10(row["v_yc"]), rel=1e-12)

    def test_coherent_bound_constant(self):
        assert COHERENT_BOUND == pytest.approx(0.6931, abs=1e-4)
