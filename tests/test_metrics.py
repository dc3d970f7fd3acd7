import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from omsqueeze import (
    COHERENT_BOUND,
    METRIC_COLUMNS,
    PhysicalityError,
    apply_overrides,
    build_diffusion,
    build_drift,
    derive_model,
    figure_preset,
    metric_row,
    solve_lyapunov,
    squeezing_db,
    symplectic_form,
)
from omsqueeze.matrices import join_sectors

from conftest import (
    PAPER_N_M,
    THREE_DB,
    assert_negativity_follows_vidal_werner,
    assert_sector_kernel_agrees,
    collective_variances,
    full_kernel_row,
    log_negativity,
    min_physicality_eigenvalue,
    model,
    nu_tilde_minus,
    physicality_check,
    random_models,
    single_mode_variances,
    squeezing_result,
    vidal_werner_negativity,
)

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
        """+0.0, so text and CSV read 0, not -0; any other variance gives
        -10 log10(v) bit for bit."""
        assert squeezing_db(1.0) == 0.0
        assert math.copysign(1.0, squeezing_db(1.0)) == 1.0
        stacked = squeezing_db(np.array([1.0, 0.5, 2.0]))
        assert np.signbit(stacked).tolist() == [False, False, True]
        np.testing.assert_array_equal(stacked[1:], -10.0 * np.log10([0.5, 2.0]))

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
            e_n = log_negativity(VACUUM, pair)
            assert nu_tilde_minus(VACUUM, pair) == pytest.approx(0.5, rel=1e-12)
            assert e_n == 0.0

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("pair,idx", [("cc", (0, 1, 2, 3)), ("mm", (4, 5, 6, 7))])
    def test_ideal_two_mode_squeezing(self, r, pair, idx):
        sigma = embed(two_mode_squeezed_block(r), list(idx))
        e_n = log_negativity(sigma, pair)
        assert e_n == pytest.approx(2 * r, rel=1e-10)
        assert nu_tilde_minus(sigma, pair) == pytest.approx(math.exp(-2 * r) / 2, rel=1e-10)

    def test_pump_plateau_point(self):
        sigma = steady_sigma(model(1.0, 0.5, 0.49, 0.0))
        assert log_negativity(sigma, "cc") == pytest.approx(0.6818153, rel=1e-5)
        assert log_negativity(sigma, "mm") == pytest.approx(0.6801447, rel=1e-5)

    def test_plateau_flat_and_dying_at_balanced_drive(self):
        mid1 = log_negativity(steady_sigma(model(1.0, 0.4, 0.49, 0.0)), "mm")
        mid2 = log_negativity(steady_sigma(model(1.0, 0.6, 0.49, 0.0)), "mm")
        assert mid1 > 0 and mid2 > 0
        assert abs(mid1 - mid2) < 0.02
        near_one = steady_sigma(model(1.0, 0.9999, 0.49, 0.0))
        assert log_negativity(near_one, "mm") == 0.0
        assert log_negativity(near_one, "cc") == 0.0

    def test_unphysical_block_flagged(self):
        sigma = 0.5 * np.eye(8)
        sigma[0, 2] = sigma[2, 0] = 10.0  # impossible correlations
        with pytest.raises(PhysicalityError):
            log_negativity(sigma, "cc")

    def test_discriminant_band_scales_with_delta(self):
        """fig5a at G+/G- = 0.999: delta^2 ~ 8e8, and rounding alone leaves
        the discriminant at about -1e-7, past an absolute 1e-9 band."""
        spec = figure_preset("fig5a")
        for g_minus in (0.02, 0.03, 0.07, 0.09, 0.16):
            assignment = {"g_minus_over_kappa": g_minus, "g_plus_over_g_minus": 0.999}
            assert any(a == pytest.approx(assignment) for a in spec.assignments())
            m = derive_model(apply_overrides(spec.base, assignment))
            row = metric_row(steady_sigma(m))
            assert all(math.isfinite(v) for v in row.values())
            assert row["physical"] == 1.0

    def test_flat_at_the_pump_threshold(self):
        """fig2a at Lambda/kappa = 0.4999 (G+ = 0): E_N(cc) does not depend on
        the pump phase there, and nu~_-^2 = (delta - root)/2 would cancel to
        a spread of about 5e-9 across the 101 phases of the row."""
        spec = figure_preset("fig2a")
        row = [a for a in spec.assignments() if a["lambda_over_kappa"] == 0.4999]
        assert len(row) == 101
        models = [derive_model(apply_overrides(spec.base, a)) for a in row]
        sigma = solve_lyapunov(
            np.stack([build_drift(m) for m in models]),
            np.stack([build_diffusion(m) for m in models]),
        ).sigma
        e_n = log_negativity(sigma, "cc")
        assert e_n.min() > 0.5
        assert np.ptp(e_n) <= 1e-11 * e_n.max()

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_negative_discriminant_beyond_band_raises(self, scale):
        """delta = 0 and delta^2 - 4 det = -4 scale^4: far outside the band."""
        block = scale * np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, -1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, -2.0],
        ])
        with pytest.raises(PhysicalityError, match="discriminant negative"):
            log_negativity(embed(block, [0, 1, 2, 3]), "cc")

    def test_invariant_under_joint_local_rotations(self):
        theta = 0.77
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, s], [-s, c]])
        symplectic = np.eye(8)
        for mode in (2, 3):  # rotate both mechanical modes equally
            symplectic[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2] = rot
        sigma = steady_sigma(model(0.8, 0.4, 0.45, 0.3))
        rotated = symplectic @ sigma @ symplectic.T
        a = log_negativity(sigma, "mm")
        b = log_negativity(rotated, "mm")
        assert b == pytest.approx(a, abs=1e-9)


class TestVidalWerner:
    def test_determinant_formula_matches_symplectic_eigensolve(self):
        for m, _ in random_models(60, seed=20251019, stable=True):
            assert_negativity_follows_vidal_werner(steady_sigma(m))

    def test_ideal_two_mode_squeezing(self):
        sigma = embed(two_mode_squeezed_block(0.4), [0, 1, 2, 3])
        assert vidal_werner_negativity(sigma, "cc")[0] == pytest.approx(0.8, abs=1e-12)
        assert_negativity_follows_vidal_werner(sigma)


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


def near_the_edge(seed, scale, offset, tol=1e-9):
    """A random symmetric sigma, shifted so that the smallest eigenvalue of
    sigma + (i/2) Omega lies `offset` above -tol."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(8, 8))
    sigma = scale * (x + x.T) / 2.0
    return sigma + (offset - tol - min_physicality_eigenvalue(sigma)) * np.eye(8)


class TestPhysicalityOracle:
    """`physicality_check` (LDL^H pivots) against the eigensolve oracle."""

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.01, 100.0),
        st.one_of(st.floats(-1e-8, 1e-8), st.floats(-1.0, 1.0)),
    )
    def test_agrees_with_the_eigenvalue_oracle(self, seed, scale, offset):
        sigma = near_the_edge(seed, scale, offset)
        smallest = min_physicality_eigenvalue(sigma)
        if abs(smallest + 1e-9) > 1e-12:
            assert physicality_check(sigma) == (smallest >= -1e-9)

    def test_stack_gives_the_per_matrix_answers(self):
        offsets = np.linspace(-1e-8, 1e-8, 41)
        stack = np.stack([near_the_edge(i, 1.0 + i, x) for i, x in enumerate(offsets)])
        stacked = physicality_check(stack)
        single = [physicality_check(sigma) for sigma in stack]
        assert all(type(flag) is bool for flag in single)
        assert stacked.dtype == bool and list(stacked) == single
        smallest = min_physicality_eigenvalue(stack)
        clear = np.abs(smallest + 1e-9) > 1e-12
        assert np.array_equal(stacked[clear], (smallest >= -1e-9)[clear])
        assert stacked.any() and not stacked.all()

    def test_failing_pivots_do_not_warn(self):
        """A zero, a negative and an overflowing pivot in one stack; the
        suite turns any numpy warning into a failure."""
        zero = VACUUM.copy()
        zero[0, 0] = -1e-9  # its first pivot is exactly 0
        huge = VACUUM.copy()
        huge[0, 2] = huge[2, 0] = 1e300
        stack = np.stack([zero, -np.eye(8), huge, VACUUM])
        assert list(physicality_check(stack)) == [False, False, False, True]


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


class TestStackedInput:
    def test_single_matrix_gives_plain_scalars(self):
        assert type(collective_variances(VACUUM).v_xc) is float
        assert type(log_negativity(VACUUM, "cc")) is float
        assert type(physicality_check(VACUUM)) is bool
        assert type(squeezing_db(0.5)) is float

    def test_stack_gives_one_value_per_matrix(self):
        stack = np.stack([VACUUM, embed(two_mode_squeezed_block(0.4), [0, 1, 2, 3])])
        row = metric_row(stack)
        assert all(np.shape(v) == (2,) for v in row.values())
        assert row["en_cc"][0] == 0.0
        assert row["en_cc"][1] == pytest.approx(0.8, abs=1e-12)
        assert list(physicality_check(np.stack([VACUUM, 0.1 * np.eye(8)]))) == [True, False]

    def test_every_check_raises_on_one_bad_matrix(self):
        bad = 0.5 * np.eye(8)
        bad[0, 2] = bad[2, 0] = 10.0
        with pytest.raises(PhysicalityError):
            log_negativity(np.stack([VACUUM, bad]), "cc")
        with pytest.raises(ValueError, match="variance must be > 0"):
            squeezing_db(np.array([0.5, 0.0]))
        asymmetric = VACUUM.copy()
        asymmetric[0, 1] = 1.0
        with pytest.raises(ValueError, match="asymmetric"):
            collective_variances(np.stack([VACUUM, asymmetric]))

    def test_zero_symplectic_eigenvalue_raises_like_math_log(self):
        """nu = 0 would take log(0); the message is math.log's own."""
        with pytest.raises(ValueError, match="math domain error"):
            log_negativity(np.zeros((8, 8)), "cc")


def random_sector_pair(rng):
    """sigma_+ (+) sigma_- of a random physical state: each sector is
    M diag(nu_1, nu_1, nu_2, nu_2) M^T with M = expm(Omega H) symplectic for
    a random symmetric H, and symplectic eigenvalues nu >= 1/2."""
    sectors = []
    for _ in range(2):
        h = rng.normal(scale=0.6, size=(4, 4))
        m = expm(symplectic_form(2) @ (h + h.T))
        nu = np.repeat(0.5 + rng.exponential(0.2, size=2), 2)
        sectors.append(m @ np.diag(nu) @ m.T)
    sectors = np.stack(sectors)
    return (sectors + sectors.swapaxes(-1, -2)) / 2.0


class TestSectorKernel:
    """`metric_row` on the sectors sigma_+ (+) sigma_- against the 8x8
    kernels, the eigensolve physicality oracle and Vidal-Werner."""

    def test_random_physical_pairs_agree_with_the_8x8_kernels(self):
        rng = np.random.default_rng(20261019)
        for _ in range(200):
            sectors = random_sector_pair(rng)
            assert_sector_kernel_agrees(sectors)
            assert_negativity_follows_vidal_werner(join_sectors(sectors))

    def test_steady_sectors_agree_with_the_8x8_kernels(self):
        for m, _ in random_models(60, seed=20261020, stable=True):
            assert_sector_kernel_agrees(
                solve_lyapunov(build_drift(m), build_diffusion(m)).sectors)

    def test_stack_gives_the_per_pair_rows(self):
        rng = np.random.default_rng(7)
        stack = np.stack([random_sector_pair(rng) for _ in range(5)])
        rows = metric_row(stack)
        for i, sectors in enumerate(stack):
            assert {name: v[i].item() for name, v in rows.items()} == metric_row(sectors)

    @given(st.integers(0, 2**32 - 1), st.one_of(st.floats(-1e-8, 1e-8), st.floats(-1.0, 1.0)))
    def test_physicality_agrees_with_the_eigenvalue_oracle(self, seed, offset):
        """Each sector shifted so that the smallest eigenvalue of
        S_s + (i/2) Omega lies near -tol; an unphysical pair may instead
        fail another check of the row (a variance or a negativity), but
        never passes as physical."""
        rng = np.random.default_rng(seed)
        sectors = random_sector_pair(rng)
        shifts = offset + rng.uniform(0.0, 1e-8, size=2) - 1e-9
        smallest = np.linalg.eigvalsh(sectors + 0.5j * symplectic_form(2))[:, 0]
        sectors = sectors + (shifts - smallest)[:, None, None] * np.eye(4)
        smallest = min_physicality_eigenvalue(join_sectors(sectors))
        if abs(smallest + 1e-9) <= 1e-12:
            return
        try:
            physical = metric_row(sectors)["physical"]
        except ValueError:  # PhysicalityError among them
            assert smallest < -1e-9
        else:
            assert physical == float(smallest >= -1e-9)

    @pytest.mark.parametrize("p, m, message", [
        ([[10.5, 0.0], [0.0, 0.5]], [[-9.5, 0.0], [0.0, 0.5]],
         "squared symplectic eigenvalue negative"),
        ([[1.0, 1.0], [1.0, 0.1]], [[0.1, 1.0], [1.0, 1.0]], "discriminant negative"),
    ])
    def test_unphysical_pair_raises_as_the_8x8_kernel_does(self, p, m, message):
        """The same PhysicalityError, message and all, from both kernels;
        the first pair is VACUUM with sigma_02 = sigma_20 = 10."""
        sectors = np.stack([0.5 * np.eye(4)] * 2)
        sectors[:, :2, :2] = p, m
        with pytest.raises(PhysicalityError, match=message) as sector_error:
            metric_row(sectors)
        with pytest.raises(PhysicalityError, match=message) as full_error:
            full_kernel_row(join_sectors(sectors))
        assert str(sector_error.value) == str(full_error.value)
