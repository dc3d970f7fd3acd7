import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, solve_continuous_lyapunov

from omsqueeze import (
    UnstableSystemError,
    analyze,
    apply_overrides,
    build_diffusion,
    build_drift,
    derive_model,
    drift_eigenvalues,
    figure_preset,
    initial_covariance,
    metric_row,
    paper_base,
    solve_lyapunov,
)

import omsqueeze.lyapunov as lyapunov_module
from omsqueeze.lyapunov import solve_stable
from omsqueeze.matrices import (
    MODE_1,
    MODE_2,
    lyapunov_operator,
    split_drift,
    split_sectors,
    upper_triangle,
)
from omsqueeze.stability import MARGINAL_BAND, rhsc_check, sector_spectrum

from conftest import (
    ORACLE_FACTOR,
    PAPER_GAMMA_K,
    PAPER_N_C,
    PAPER_N_M,
    exchange_symmetric,
    kronecker_lyapunov,
    kronecker_sector_operator,
    lyapunov_residual,
    match_eigenvalue_sets,
    model,
    physicality_check,
    quartic_eigenvalues,
    random_models,
)

EPS = np.finfo(float).eps

# Interior of the stable box (G+/G- <= 0.99, Lambda/kappa <= 0.49) at a pump
# phase bounded away from 0.
interior_models = st.builds(
    lambda g_minus, ratio, lam, phi, sign, log_gamma, n_c, n_m: model(
        G_minus=g_minus, G_plus=ratio * g_minus, lambda_pa=lam, phi=sign * phi,
        gamma=10.0**log_gamma, n_c=n_c, n_m=n_m,
    ),
    g_minus=st.floats(0.01, 0.6),
    ratio=st.floats(0.0, 0.99),
    lam=st.floats(0.0, 0.49),
    phi=st.floats(0.05, np.pi),
    sign=st.sampled_from([-1.0, 1.0]),
    log_gamma=st.floats(-6.0, -2.0),
    n_c=st.floats(0.0, 1.0),
    n_m=st.floats(0.0, 100.0),
)


def exchange_rotation():
    """Orthogonal R with R x = (x_+, x_-), x_+- = (x_pair1 +- x_pair2)/sqrt(2),
    each sector ordered like MODE_1."""
    r = np.zeros((8, 8))
    for k, (i, j) in enumerate(zip(MODE_1, MODE_2)):
        r[k, i] = r[k, j] = r[4 + k, i] = 1.0 / np.sqrt(2.0)
        r[4 + k, j] = -1.0 / np.sqrt(2.0)
    return r


class TestDecoupledLimits:
    def test_decoupled_solution_is_the_bath_state(self):
        m = model()
        w, d = build_drift(m), build_diffusion(m)
        solution = solve_lyapunov(w, d)
        expected = np.diag([PAPER_N_C + 0.5] * 4 + [PAPER_N_M + 0.5] * 4)
        np.testing.assert_allclose(solution.sigma, expected, rtol=0, atol=1e-12)

    def test_balanced_tones_leave_position_rows_thermal(self):
        # G+ = G- makes A = 0: the x_d rows decouple exactly
        m = model(0.3, 0.3, 0.4, 0.0)
        solution = solve_lyapunov(build_drift(m), build_diffusion(m))
        assert solution.sigma[4, 4] == pytest.approx(PAPER_N_M + 0.5, abs=1e-9)
        assert solution.sigma[6, 6] == pytest.approx(PAPER_N_M + 0.5, abs=1e-9)
        assert abs(solution.sigma[4, 6]) < 1e-12


class TestResidual:
    def test_exact_solution_has_zero_residual(self):
        m = model()
        w, d = build_drift(m), build_diffusion(m)
        sigma = np.diag([PAPER_N_C + 0.5] * 4 + [PAPER_N_M + 0.5] * 4)
        assert lyapunov_residual(w, d, sigma) < 1e-15

    def test_zero_matrix_scores_one(self):
        m = model(0.2, 0.1, 0.4)
        assert lyapunov_residual(build_drift(m), build_diffusion(m), np.zeros((8, 8))) == 1.0

    def test_solver_self_check(self, appendix_c_model):
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        solution = solve_lyapunov(w, d)
        assert solution.residual_norm <= 1e-10

    def test_joined_sigma_meets_the_sector_residual(self):
        """The solve takes its residual per sector; the 8x8 residual of the
        joined sigma stays at rounding level too, on every parameter preset
        and every figure preset's base point."""
        from omsqueeze.presets import FIGURE_NAMES, PARAM_PRESETS, TracePreset

        presets = [figure_preset(name) for name in FIGURE_NAMES]
        bases = [preset() for preset in PARAM_PRESETS.values()] + [
            p.params if isinstance(p, TracePreset) else p.base for p in presets]
        solved = 0
        for params in bases:
            m = derive_model(params)
            if not analyze(m).stable:
                continue
            w, d = build_drift(m), build_diffusion(m)
            solution = solve_lyapunov(w, d)
            assert solution.residual_norm <= 1e-13
            assert lyapunov_residual(w, d, solution.sigma) <= 1e-13
            solved += 1
        assert solved >= len(PARAM_PRESETS)


class TestSolveLyapunov:
    def test_rejects_unstable_drift(self):
        m = model(0.1, 0.2, 0.0)
        with pytest.raises(UnstableSystemError, match="abscissa"):
            solve_lyapunov(build_drift(m), build_diffusion(m))

    def test_rejects_marginal_drift(self):
        w = np.zeros((8, 8))
        with pytest.raises(UnstableSystemError, match="marginal"):
            solve_lyapunov(w, np.eye(8))

    def test_symmetry_enforced(self, appendix_c_model):
        solution = solve_lyapunov(
            build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        )
        np.testing.assert_allclose(solution.sigma, solution.sigma.T, atol=1e-12)

    def test_exact_zeros_are_positive(self, appendix_c_model):
        """The sign of an exact zero follows the pivots of the solve; sigma
        carries none of them, so a stored covariance prints 0.0, not -0.0."""
        models = [appendix_c_model, derive_model(paper_base())]
        w = np.stack([build_drift(m) for m in models])
        d = np.stack([build_diffusion(m) for m in models])
        sigma = solve_lyapunov(w, d).sigma
        assert np.any(sigma == 0.0)
        assert not np.any(np.signbit(sigma[sigma == 0.0]))

    def test_condition_estimate_sane(self, appendix_c_model):
        solution = solve_lyapunov(
            build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        )
        assert solution.condition_estimate >= 1.0

    def test_agrees_with_bartels_stewart(self):
        for m, _ in random_models(20, seed=20250806, stable=True):
            w, d = build_drift(m), build_diffusion(m)
            ours = solve_lyapunov(w, d)
            reference = solve_continuous_lyapunov(w, -d)
            np.testing.assert_allclose(ours.sigma, reference, rtol=0, atol=1e-9)

    def test_linearity_in_diffusion(self):
        m = model(0.25, 0.1, 0.3, 0.7)
        w = build_drift(m)
        d1 = build_diffusion(m)
        d2 = exchange_symmetric(np.diag(np.linspace(0.1, 0.8, 4)), np.zeros((4, 4)))
        s1 = solve_lyapunov(w, d1).sigma
        s2 = solve_lyapunov(w, d2).sigma
        s12 = solve_lyapunov(w, d1 + d2).sigma
        np.testing.assert_allclose(s12, s1 + s2, rtol=0, atol=1e-9 * np.abs(s12).max())

    def test_scaling_in_diffusion(self):
        m = model(0.25, 0.1, 0.3, 0.7)
        w, d = build_drift(m), build_diffusion(m)
        s1 = solve_lyapunov(w, d).sigma
        s3 = solve_lyapunov(w, 3.0 * d).sigma
        np.testing.assert_allclose(s3, 3.0 * s1, rtol=0, atol=1e-10 * np.abs(s3).max())

    def test_solutions_physical_on_random_stable_draws(self):
        for m, _ in random_models(30, seed=20250807, stable=True):
            solution = solve_lyapunov(build_drift(m), build_diffusion(m))
            assert solution.residual_norm <= 1e-10
            assert physicality_check(solution.sigma)


class TestPrecheck:
    def test_one_eigensolve_per_call(self, appendix_c_model, monkeypatch):
        """One closed-form spectrum of W_+, whose spectrum is the drift's,
        and one linear solve of the two sector systems per call, for one
        drift and for a stack of them: no dense eigensolve runs."""
        calls = []
        eigvals, solve = np.linalg.eigvals, np.linalg.solve

        def counting_spectrum(w):
            calls.append(("spectrum", np.shape(w)))
            return sector_spectrum(w)

        def counting_eigvals(w):
            calls.append(("eigvals", np.shape(w)))
            return eigvals(w)

        def counting_solve(a, b):
            calls.append(("solve", np.shape(a)))
            return solve(a, b)

        monkeypatch.setattr(lyapunov_module, "sector_spectrum", counting_spectrum)
        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        solve_lyapunov(w, d)
        assert calls == [("spectrum", (4, 4)), ("solve", (2, 10, 10))]
        calls.clear()
        solve_lyapunov(np.stack([w] * 5), np.stack([d] * 5))
        assert calls == [("spectrum", (5, 4, 4)), ("solve", (5, 2, 10, 10))]

    def test_one_unstable_matrix_rejects_the_stack(self, appendix_c_model):
        stable = build_drift(appendix_c_model)
        d = build_diffusion(appendix_c_model)
        unstable = build_drift(model(G_minus=0.1, G_plus=0.3))
        with pytest.raises(UnstableSystemError, match="unstable"):
            solve_lyapunov(np.stack([stable, unstable]), np.stack([d, d]))

    def test_stack_shapes_must_match(self, appendix_c_model):
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        with pytest.raises(ValueError, match="congruent"):
            solve_lyapunov(np.stack([w, w]), d)

    @pytest.mark.parametrize("a", [2.0, 1.0, 0.5, 0.0, -0.5, -1.0, -2.0])
    def test_agrees_with_the_sweep_gate_across_the_band(self, a):
        """For the drift -a*I the sweep gate (solve_stable, its Routh-Hurwitz
        verdict granted) and the precheck agree; the band edge
        |abscissa| = MARGINAL_BAND is marginal."""
        w = -a * MARGINAL_BAND * np.eye(8)
        gate, _ = solve_stable(w[None], np.eye(8)[None], np.array([True]))
        try:
            solve_lyapunov(w, np.eye(8))
            accepted = True
        except UnstableSystemError:
            accepted = False
        assert accepted == gate[0] == (a > 1.0)


class TestSectorSolve:
    @settings(max_examples=100)
    @given(interior_models)
    def test_agrees_with_kronecker_oracle_and_scipy(self, m):
        """Within 1e-12 relative of the 64x64 Kronecker solve.  scipy's
        Bartels-Stewart carries its own error, about eps times the
        conditioning, which exceeds 1e-12 where the drift has a slow mode
        (gamma ~ 1e-6), so scipy is held to the larger of the two."""
        assume(analyze(m).stable)
        w, d = build_drift(m), build_diffusion(m)
        solution = solve_lyapunov(w, d)
        kron = kronecker_lyapunov(w, d)
        assert np.linalg.norm(solution.sigma - kron) <= 1e-12 * np.linalg.norm(kron)
        reference = solve_continuous_lyapunov(w, -d)
        bound = max(1e-12, ORACLE_FACTOR * EPS * solution.condition_estimate)
        assert np.linalg.norm(solution.sigma - reference) <= bound * np.linalg.norm(reference)
        assert solution.residual_norm <= 1e-10

    def test_off_sector_blocks_vanish(self):
        """In the sum/difference quadratures W and sigma are block diagonal,
        for any pump phase; sigma here is scipy's, not the sector solve's."""
        r = exchange_rotation()
        for phi in (0.0, 0.7, 2.5, -1.1):
            m = model(0.3, 0.2, 0.4, phi)
            w = build_drift(m)
            rotated = r @ w @ r.T
            w_plus, w_minus = split_sectors(w)
            scale = np.abs(w).max()
            np.testing.assert_allclose(rotated[:4, 4:], 0.0, atol=1e-15 * scale)
            np.testing.assert_allclose(rotated[4:, :4], 0.0, atol=1e-15 * scale)
            np.testing.assert_allclose(rotated[:4, :4], w_plus, rtol=0, atol=1e-15 * scale)
            np.testing.assert_allclose(rotated[4:, 4:], w_minus, rtol=0, atol=1e-15 * scale)
            sigma = r @ solve_continuous_lyapunov(w, -build_diffusion(m)) @ r.T
            scale = np.abs(sigma).max()
            np.testing.assert_allclose(sigma[:4, 4:], 0.0, atol=1e-14 * scale)
            np.testing.assert_allclose(sigma[4:, :4], 0.0, atol=1e-14 * scale)

    def test_general_diffusion_against_oracle(self):
        """A non-symmetric diffusion that splits with B != 0, so D_+ != D_-,
        is solved as the symmetrized Kronecker solution."""
        m = model(0.25, 0.1, 0.3, 0.7)
        w = build_drift(m)
        rng = np.random.default_rng(7)
        a = rng.uniform(-0.5, 0.5, (4, 4)) + 2.0 * np.eye(4)
        b = rng.uniform(-0.5, 0.5, (4, 4))
        d = exchange_symmetric(a, b)
        d_plus, d_minus = split_sectors(d)
        assert not np.allclose(d_plus, d_minus)
        solution = solve_lyapunov(w, d)
        kron = kronecker_lyapunov(w, d)
        assert np.linalg.norm(solution.sigma - kron) <= 1e-12 * np.linalg.norm(kron)

    def test_diffusion_that_does_not_split_is_rejected(self):
        m = model(0.25, 0.1, 0.3, 0.7)
        d = build_diffusion(m)
        d[0, 0] += 1e-3  # pair 1 no longer sees the same noise as pair 2
        with pytest.raises(ValueError, match="does not split"):
            solve_lyapunov(build_drift(m), d)

    def test_drift_that_does_not_split_is_rejected(self, appendix_c_model):
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        w[0, 2] += 1e-3  # pair 1 now sees pair 2 differently than the reverse
        with pytest.raises(ValueError, match="sectors"):
            solve_lyapunov(w, d)


class TestOrlando:
    """The sector operator I (x) W_s + W_s (x) I has the eigenvalues
    l_i + l_j of W_s, so its determinant is prod_i 2 l_i * prod_{i<j}
    (l_i + l_j)^2 = 16 s4 h3^2 by Orlando's formula (Gantmacher, The Theory
    of Matrices II, ch. XV): the sector solve is singular exactly where the
    RHSC minor h3 vanishes.  On symmetric sigma_s only the l_i + l_j with
    i <= j remain, so the 10x10 operator's determinant is 16 s4 h3."""

    def test_determinant_is_16_s4_h3_squared(self):
        for m, report in random_models(20, seed=20251101, stable=True):
            op = kronecker_sector_operator(split_sectors(build_drift(m)))
            expected = 16.0 * report.coefficients.s4 * report.h3**2
            np.testing.assert_allclose(np.linalg.det(op), [expected] * 2, rtol=1e-12)

    def test_symmetric_determinant_is_16_s4_h3(self):
        for m, report in random_models(20, seed=20251101, stable=True):
            op = lyapunov_operator(split_sectors(build_drift(m)))
            expected = 16.0 * report.coefficients.s4 * report.h3
            np.testing.assert_allclose(np.linalg.det(op), [expected] * 2, rtol=1e-12)

    def test_symmetric_operator_is_the_kronecker_one_on_symmetric_sigma(self):
        """vec(L sigma_s) from the 16x16 operator, read at i <= j, equals the
        10x10 operator applied to the upper-triangle entries of sigma_s."""
        rows, cols = upper_triangle(4)[0]
        rng = np.random.default_rng(11)
        for m, _ in random_models(5, seed=20251102, stable=True):
            sectors = split_sectors(build_drift(m))
            sigma = rng.normal(size=(2, 4, 4))
            sigma = sigma + sigma.swapaxes(-1, -2)
            full = (kronecker_sector_operator(sectors) @ sigma.reshape(2, 16, 1)).reshape(2, 4, 4)
            upper = lyapunov_operator(sectors) @ sigma[:, rows, cols, None]
            np.testing.assert_allclose(upper[..., 0], full[:, rows, cols], rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("gamma", [PAPER_GAMMA_K, 1e-3, 1e-2])
    @pytest.mark.parametrize("g_minus, g_plus", [(0.0, 0.0), (0.3, 0.1), (0.2, 0.25)])
    def test_singular_where_h3_vanishes(self, gamma, g_minus, g_plus):
        """h3 has (kappa + gamma)^2 - 4 Lambda^2 as a factor, so both sector
        operators are singular at Lambda = (kappa + gamma)/2, and well
        conditioned a little inside it."""

        def smallest_singular_ratio(build, lam):
            op = build(split_sectors(build_drift(
                model(g_minus, g_plus, lam, 0.7, gamma=gamma))))
            values = np.linalg.svd(op, compute_uv=False)
            return values[..., -1] / values[..., 0]

        edge = (1.0 + gamma) / 2.0
        for build in (kronecker_sector_operator, lyapunov_operator):
            assert np.all(smallest_singular_ratio(build, edge) <= 1e-14)
            assert np.all(smallest_singular_ratio(build, edge - 0.05) >= 1e-6)


class TestStacked:
    def test_stack_equals_per_point_calls_bit_for_bit(self):
        models = [m for m, _ in random_models(20, seed=20251018, stable=True)]
        w = np.stack([build_drift(m) for m in models])
        d = np.stack([build_diffusion(m) for m in models])
        stacked = solve_lyapunov(w, d)
        rows = metric_row(stacked.sigma)
        singles = [solve_lyapunov(w[i], d[i]) for i in range(len(models))]
        for i, single in enumerate(singles):
            assert np.array_equal(stacked.sigma[i], single.sigma)
            row = metric_row(single.sigma)
            assert all(type(v) is float for v in row.values())
            assert {k: float(v[i]) for k, v in rows.items()} == row
        assert stacked.residual_norm == max(s.residual_norm for s in singles)
        assert stacked.condition_estimate == max(s.condition_estimate for s in singles)
        assert type(stacked.residual_norm) is float
        assert type(stacked.condition_estimate) is float

    def test_gated_stack_equals_analyze_and_per_point_solves(self):
        """solve_stable passes exactly the drifts `analyze` calls stable and
        solves them as solve_lyapunov solves each alone, bit for bit, with
        the per-row residuals and conditions the single solves report."""
        from omsqueeze.stability import rhsc_check

        models = random_models(40, seed=20251022)
        assert len({analyze(m).stable for m in models}) == 2
        w = np.stack([build_drift(m) for m in models])
        d = np.stack([build_diffusion(m) for m in models])
        hurwitz = np.array([rhsc_check(m)[3] for m in models])
        stable, solution = solve_stable(w, d, hurwitz)
        assert stable.tolist() == [analyze(m).stable for m in models]
        singles = [solve_lyapunov(w[i], d[i]) for i in np.flatnonzero(stable)]
        for j, single in enumerate(singles):
            assert np.array_equal(solution.sigma[j], single.sigma)
            assert solution.residuals[j] == single.residual_norm
            assert solution.conditions[j] == single.condition_estimate
        assert solution.residual_norm == max(s.residual_norm for s in singles)
        assert solve_stable(w[~stable], d[~stable], hurwitz[~stable])[1] is None

    def test_stack_equals_per_point_call_at_the_pump_threshold(self):
        """fig2b at Lambda/kappa = 0.4999: E_N cancels there, so squaring a
        scalar by pow() and an array by multiplying would differ."""
        spec = figure_preset("fig2b")
        assignment = spec.assignments()[10170]
        assert assignment["lambda_over_kappa"] == 0.4999
        assert assignment["phi_over_pi"] == pytest.approx(0.4)
        m = derive_model(apply_overrides(spec.base, assignment))
        w, d = build_drift(m), build_diffusion(m)
        single = metric_row(solve_lyapunov(w, d).sigma)
        stacked = metric_row(solve_lyapunov(w[None], d[None]).sigma)
        assert {k: float(v[0]) for k, v in stacked.items()} == single


class TestStabilityGateIntegration:
    def test_analyze_verdict_matches_solver_acceptance(self):
        for m, report in random_models(15, seed=20250808, stable=False):
            if report.marginal:
                continue
            with pytest.raises(UnstableSystemError):
                solve_lyapunov(build_drift(m), build_diffusion(m))

    def test_initial_covariance_not_steady_when_coupled(self, appendix_c_model):
        w = build_drift(appendix_c_model)
        d = build_diffusion(appendix_c_model)
        sigma0 = initial_covariance(appendix_c_model)
        assert lyapunov_residual(w, d, sigma0) > 1.0


class TestOneSectorSpectrum:
    """The gate and the precheck take W_+'s spectrum alone, in closed form,
    which is the drift's with each eigenvalue taken once
    (`matrices.split_drift`): against a dense eigensolve of both sectors and
    the roots of the stability quartic."""

    @staticmethod
    def _check(m, tol):
        w = build_drift(m)
        plus = sector_spectrum(split_drift(w)[0])
        match_eigenvalue_sets(np.repeat(plus, 2), np.linalg.eigvals(split_sectors(w)).ravel(), tol)
        match_eigenvalue_sets(plus, quartic_eigenvalues(m), tol)
        assert np.array_equal(np.sort(np.repeat(plus, 2), kind="stable"), drift_eigenvalues(w))

    def test_random_models(self):
        for m in random_models(40, seed=20251019):
            self._check(m, tol=1e-8)

    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("phi", [0.0, 0.7, -2.3])
    def test_near_the_thresholds(self, gap, phi):
        """Lambda -> kappa/2 and G+ -> G-, from both sides."""
        for sign in (-1.0, 1.0):
            self._check(model(0.3, 0.1, 0.5 + sign * gap, phi), tol=1e-8)
            self._check(model(0.3, 0.3 * (1.0 + sign * gap), 0.2, phi), tol=1e-8)

    @pytest.mark.parametrize("phi", [0.0, 0.7, 2.5, -1.1])
    def test_difference_sector_is_similar_to_the_sum_sector(self, phi):
        """W_- = T W_+ T^-1 with T = diag(R, C^-1 R C): R the quarter-turn of
        the cavity quadratures, C the cavity-mechanics block of W_+."""
        w_plus, w_minus = split_drift(build_drift(model(0.3, 0.1, 0.4, phi)))
        quarter_turn = np.array([[0.0, -1.0], [1.0, 0.0]])
        c = w_plus[:2, 2:]
        t = block_diag(quarter_turn, np.linalg.inv(c) @ quarter_turn @ c)
        np.testing.assert_allclose(t @ w_plus @ np.linalg.inv(t), w_minus, rtol=0, atol=1e-15)

    def test_condition_estimate_equals_the_two_sector_one(self):
        for m, _ in random_models(20, seed=20251020, stable=True):
            eigenvalues = drift_eigenvalues(build_drift(m))
            sums = np.abs(eigenvalues[:, None] + eigenvalues[None, :])
            expected = sums.max() / sums.min()
            got = solve_lyapunov(build_drift(m), build_diffusion(m)).condition_estimate
            assert got == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("entries", [[(0, 0), (2, 2)], [(1, 3), (3, 1)], [(5, 0), (7, 2)]])
    def test_pair_symmetric_drift_of_another_form_is_rejected(self, appendix_c_model, entries):
        """A drift that splits but whose entries `build_drift`'s template does
        not rebuild: a random pair-symmetric one, and the model's drift with
        one template slot changed in both pairs."""
        d = build_diffusion(appendix_c_model)
        rng = np.random.default_rng(19)
        random = exchange_symmetric(rng.uniform(-1, 1, (4, 4)) - 3.0 * np.eye(4),
                                    rng.uniform(-0.1, 0.1, (4, 4)))
        changed = build_drift(appendix_c_model)
        for entry in entries:
            changed[entry] += 1e-3
        for w in (random, changed):
            split_sectors(w)  # it splits
            with pytest.raises(ValueError, match="model's form"):
                solve_lyapunov(w, d)
            # the stack is validated whole, whatever a row's gate
            stack = np.stack([build_drift(appendix_c_model), w])
            with pytest.raises(ValueError, match="model's form"):
                solve_stable(stack, np.stack([d, d]), np.array([True, False]))


class TestGateOrder:
    def test_eigvals_sees_only_the_rows_rhsc_passes(self, monkeypatch):
        models = random_models(40, seed=20251021)
        w = np.stack([build_drift(m) for m in models])
        d = np.stack([build_diffusion(m) for m in models])
        hurwitz = np.array([rhsc_check(m)[3] for m in models])
        assert 0 < hurwitz.sum() < len(models)
        seen = []

        def recording(a):
            seen.append(np.array(a))
            return sector_spectrum(a)

        monkeypatch.setattr(lyapunov_module, "sector_spectrum", recording)
        stable, _ = solve_stable(w, d, hurwitz)
        assert len(seen) == 1
        assert np.array_equal(seen[0], split_sectors(w)[hurwitz, 0])
        assert stable.tolist() == [analyze(m).stable for m in models]
        stable, solution = solve_stable(w, d, np.zeros(len(models), dtype=bool))
        assert not stable.any() and solution is None
