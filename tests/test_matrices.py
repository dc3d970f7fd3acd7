import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from omsqueeze import (
    QUADRATURES,
    build_diffusion,
    build_drift,
    coupling_coefficients,
    covariance_from_json,
    covariance_to_json,
    initial_covariance,
    symplectic_form,
)
from omsqueeze.matrices import (
    MODE_1,
    MODE_2,
    join_sectors,
    require_symmetric,
    split_sectors,
)

from conftest import PAPER_GAMMA_K, PAPER_N_M, exchange_symmetric, model

# Positions allowed to be nonzero in the drift matrix, besides the diagonal.
OFF_DIAGONAL_PATTERN = {
    (0, 2), (0, 3), (0, 5),
    (1, 2), (1, 3), (1, 4),
    (2, 0), (2, 1), (2, 7),
    (3, 0), (3, 1), (3, 6),
    (4, 1), (5, 0), (6, 3), (7, 2),
}


class TestCouplingCoefficients:
    def test_appendix_c_values(self):
        a, b, c, s = coupling_coefficients(model(0.2, 0.1, 0.4, 0.0))
        assert (a, b, c, s) == pytest.approx((0.1, 0.3, 0.4, 0.0))

    def test_all_zero(self):
        assert coupling_coefficients(model()) == pytest.approx((0, 0, 0, 0))

    def test_quadrature_pump_at_right_angle(self):
        a, b, c, s = coupling_coefficients(model(lambda_pa=0.49, phi=math.pi / 2))
        assert abs(c) < 1e-15
        assert s == pytest.approx(0.49, rel=1e-14)


class TestBuildDrift:
    def test_decoupled_is_diagonal(self):
        w = build_drift(model())
        expected = np.diag([-0.5] * 4 + [-PAPER_GAMMA_K / 2] * 4)
        np.testing.assert_allclose(w, expected, atol=0)

    def test_appendix_c_entries(self):
        w = build_drift(model(0.2, 0.1, 0.4, 0.0))
        assert w[0, 2] == pytest.approx(0.4)
        assert w[0, 5] == pytest.approx(-0.1)
        assert w[1, 4] == pytest.approx(0.3)
        assert w[1, 3] == pytest.approx(-0.4)

    def test_appendix_c_full_matrix(self):
        g2 = -PAPER_GAMMA_K / 2
        expected = np.array([
            [-0.5, 0.0, 0.4, 0.0, 0.0, -0.1, 0.0, 0.0],
            [0.0, -0.5, 0.0, -0.4, 0.3, 0.0, 0.0, 0.0],
            [0.4, 0.0, -0.5, 0.0, 0.0, 0.0, 0.0, -0.1],
            [0.0, -0.4, 0.0, -0.5, 0.0, 0.0, 0.3, 0.0],
            [0.0, -0.1, 0.0, 0.0, g2, 0.0, 0.0, 0.0],
            [0.3, 0.0, 0.0, 0.0, 0.0, g2, 0.0, 0.0],
            [0.0, 0.0, 0.0, -0.1, 0.0, 0.0, g2, 0.0],
            [0.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.0, g2],
        ])
        np.testing.assert_allclose(build_drift(model(0.2, 0.1, 0.4, 0.0)), expected, atol=1e-15)

    def test_pump_at_right_angle_swaps_quadrature_blocks(self):
        w = build_drift(model(lambda_pa=0.4, phi=math.pi / 2))
        assert abs(w[0, 2]) < 1e-15
        assert w[0, 3] == pytest.approx(0.4, rel=1e-14)

    @given(
        st.floats(0.0, 1.0), st.floats(0.0, 1.0),
        st.floats(0.0, 0.6), st.floats(-math.pi, math.pi),
    )
    def test_sparsity_pattern(self, gm, gp, lam, phi):
        w = build_drift(model(gm, gp, lam, phi))
        for i in range(8):
            for j in range(8):
                if i != j and (i, j) not in OFF_DIAGONAL_PATTERN:
                    assert w[i, j] == 0.0

    @given(st.floats(-10 * math.pi, 10 * math.pi))
    def test_phase_periodicity(self, phi):
        w1 = build_drift(model(0.3, 0.1, 0.45, phi))
        w2 = build_drift(model(0.3, 0.1, 0.45, phi + 2 * math.pi))
        np.testing.assert_allclose(w1, w2, rtol=0, atol=1e-12)

    def test_phase_periodicity_exact_at_zero(self):
        w1 = build_drift(model(0.3, 0.1, 0.45, 0.0))
        w2 = build_drift(model(0.3, 0.1, 0.45, 2 * math.pi))
        assert np.array_equal(w1, w2)

    def test_independent_of_occupations(self):
        hot = model(0.3, 0.1, 0.2, 0.5, n_c=5.0, n_m=500.0)
        cold = model(0.3, 0.1, 0.2, 0.5, n_c=0.0, n_m=0.0)
        np.testing.assert_array_equal(build_drift(hot), build_drift(cold))


class TestStackedAssembly:
    def test_stack_equals_the_scalar_calls_bit_for_bit(self):
        """Row by row, zero signs included: G+ = G- puts -a = -0.0 in the
        drift, and Lambda = 0 at a negative phase makes s = -0.0."""
        rng = np.random.default_rng(20251019)
        g_minus = np.concatenate([[0.0, 0.3, 0.25], rng.uniform(0.0, 0.6, 5)])
        g_plus = np.concatenate([[0.0, 0.3, 0.25], rng.uniform(0.0, 0.6, 5)])
        lam = np.concatenate([[0.0, 0.0, 0.4], rng.uniform(0.0, 0.5, 5)])
        phi = np.concatenate([[-1.0, -2.5, math.pi / 2], rng.uniform(-math.pi, math.pi, 5)])
        n_c = np.concatenate([[0.0, 0.1, 1.0], rng.uniform(0.0, 2.0, 5)])
        stacked = model(g_minus, g_plus, lam, phi, n_c=n_c)
        w, d = build_drift(stacked), build_diffusion(stacked)
        assert w.shape == d.shape == (8, 8, 8)
        assert np.signbit(w[:3, 0, 5]).all() and np.signbit(w[:2, 0, 3]).all()
        for i in range(len(g_minus)):
            single = model(g_minus[i], g_plus[i], lam[i], phi[i], n_c=n_c[i])
            for row, scalar in ((w[i], build_drift(single)), (d[i], build_diffusion(single))):
                assert np.array_equal(row, scalar)
                assert np.array_equal(np.signbit(row), np.signbit(scalar))


class TestSplitSectors:
    @given(
        st.floats(0.0, 0.6), st.floats(0.0, 0.6), st.floats(0.0, 0.49),
        st.floats(-math.pi, math.pi),
    )
    def test_sum_and_difference_of_the_pair_blocks(self, gm, gp, lam, phi):
        w = build_drift(model(gm, gp, lam, phi))
        a, b = w[np.ix_(MODE_1, MODE_1)], w[np.ix_(MODE_1, MODE_2)]
        # the exchange symmetry holds exactly, so no rounding enters the split
        assert np.array_equal(w[np.ix_(MODE_2, MODE_2)], a)
        assert np.array_equal(w[np.ix_(MODE_2, MODE_1)], b)
        w_plus, w_minus = split_sectors(w)
        assert np.array_equal(w_plus, a + b)
        assert np.array_equal(w_minus, a - b)

    def test_difference_sector_is_the_sum_sector_at_phi_plus_pi(self):
        m = model(0.3, 0.2, 0.4, 0.7)
        shifted = model(0.3, 0.2, 0.4, 0.7 + math.pi)
        np.testing.assert_allclose(
            split_sectors(build_drift(m))[1], split_sectors(build_drift(shifted))[0],
            rtol=0, atol=1e-15,
        )

    def test_leading_batch_axes(self):
        stack = np.stack([build_drift(model(0.2, 0.1, 0.4, phi)) for phi in (0.0, 1.0, 2.0)])
        sectors = split_sectors(stack)
        assert sectors.shape == (3, 2, 4, 4)
        for i in range(3):
            assert np.array_equal(sectors[i], split_sectors(stack[i]))

    @pytest.mark.parametrize("entry", [(0, 2), (2, 0), (0, 0), (7, 2)])
    def test_asymmetric_drift_is_rejected(self, entry):
        w = build_drift(model(0.2, 0.1, 0.4, 0.3))
        w[entry] += 1e-12
        with pytest.raises(ValueError, match="does not split"):
            split_sectors(w)
        stack = np.stack([build_drift(model(0.2, 0.1, 0.4, 0.3)), w])
        with pytest.raises(ValueError, match="does not split"):
            split_sectors(stack)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="8x8"):
            split_sectors(np.zeros((4, 4)))
        with pytest.raises(ValueError, match="sectors"):
            join_sectors(np.zeros((4, 4)))

    def test_diffusion_splits_into_equal_sectors(self):
        d = build_diffusion(model(0.2, 0.1, 0.4, 0.3, n_c=0.3, n_m=20.0))
        d_plus, d_minus = split_sectors(d)
        assert np.array_equal(d_plus, d[np.ix_(MODE_1, MODE_1)])
        assert np.array_equal(d_minus, d_plus)

    def test_join_inverts_split_exactly(self):
        """Exact wherever A +- B and their halves round to nothing: here on
        small integers (one matrix or a stack) and on a diffusion (B = 0)."""
        pairs = np.random.default_rng(11).integers(-8, 9, (5, 2, 4, 4)).astype(float)
        integers = np.stack([exchange_symmetric(a, b) for a, b in pairs])
        for x in (integers, integers[0], build_diffusion(model(n_c=0.3, n_m=20.0))):
            sectors = split_sectors(x)
            assert np.array_equal(join_sectors(sectors), x)
            assert np.array_equal(split_sectors(join_sectors(sectors)), sectors)

    def test_join_inverts_split_of_a_drift_to_rounding(self):
        """A drift's pump entries share their pair-block slot with -kappa/2,
        so (S_+ - S_-)/2 gives them back within one rounding of kappa/2."""
        stack = np.stack([build_drift(model(0.2, 0.1, 0.4, phi)) for phi in (0.0, 1.0, 2.0)])
        joined = join_sectors(split_sectors(stack))
        np.testing.assert_allclose(joined, stack, rtol=0, atol=np.finfo(float).eps / 2)


class TestBuildDiffusion:
    def test_zero_temperature(self):
        d = build_diffusion(model(n_c=0.0, n_m=0.0))
        np.testing.assert_allclose(d, np.diag([0.5] * 4 + [PAPER_GAMMA_K / 2] * 4))

    def test_paper_bath_values(self):
        d = build_diffusion(model())
        expected = PAPER_GAMMA_K * (PAPER_N_M + 0.5)
        np.testing.assert_allclose(np.diag(d)[4:], expected)
        assert expected == pytest.approx(3.861e-4, rel=1e-3)

    def test_unit_occupations(self):
        d = build_diffusion(model(n_c=1.0, n_m=1.0, gamma=0.01))
        np.testing.assert_allclose(np.diag(d), [1.5] * 4 + [0.015] * 4)

    def test_independent_of_couplings(self):
        a = build_diffusion(model(0.5, 0.2, 0.4, 1.0))
        b = build_diffusion(model(0.0, 0.0, 0.0, 0.0))
        np.testing.assert_array_equal(a, b)

    @given(st.floats(0.0, 1e3), st.floats(0.0, 1e3), st.floats(0.0, 0.01))
    def test_diagonal_positive_semidefinite(self, n_c, n_m, gamma):
        d = build_diffusion(model(n_c=n_c, n_m=n_m, gamma=gamma))
        assert np.all(np.diag(d) >= 0)
        assert np.count_nonzero(d - np.diag(np.diag(d))) == 0


class TestInitialCovariance:
    def test_vacuum(self):
        np.testing.assert_allclose(
            initial_covariance(model(n_c=0.0, n_m=0.0)), 0.5 * np.eye(8)
        )

    def test_paper_bath_trace(self):
        sigma0 = initial_covariance(model())
        assert np.trace(sigma0) == pytest.approx(4 * 0.5 + 4 * (PAPER_N_M + 0.5))
        assert np.trace(sigma0) == pytest.approx(233.6, rel=1e-3)

    def test_integer_occupations(self):
        sigma0 = initial_covariance(model(n_c=2.0, n_m=3.0))
        np.testing.assert_allclose(np.diag(sigma0), [2.5] * 4 + [3.5] * 4)


class TestSymplecticForm:
    def test_block_structure(self):
        omega = symplectic_form()
        assert omega.shape == (8, 8)
        np.testing.assert_array_equal(omega, -omega.T)
        np.testing.assert_array_equal(omega @ omega, -np.eye(8))
        assert omega[0, 1] == 1.0 and omega[1, 0] == -1.0


class TestCovarianceSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        sym = rng.normal(size=(8, 8))
        sym = (sym + sym.T) / 2
        obj = covariance_to_json(sym)
        assert obj["basis"] == list(QUADRATURES)
        assert len(obj["sigma"]) == 64
        np.testing.assert_array_equal(covariance_from_json(obj), sym)

    def test_rejects_wrong_basis(self):
        obj = covariance_to_json(np.eye(8))
        obj["basis"] = obj["basis"][::-1]
        with pytest.raises(ValueError):
            covariance_from_json(obj)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            covariance_from_json({"basis": list(QUADRATURES), "sigma": [1.0] * 63})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        obj = covariance_to_json(np.eye(8))
        obj["sigma"][1] = obj["sigma"][8] = bad
        with pytest.raises(ValueError, match="finite"):
            covariance_from_json(obj)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="asymmetric"):
            require_symmetric(np.reshape(obj["sigma"], (8, 8)))
