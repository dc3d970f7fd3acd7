import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from omsqueeze import (
    UnstableSystemError,
    apply_overrides,
    build_diffusion,
    build_drift,
    derive_model,
    figure_preset,
    initial_covariance,
    metric_row,
    physicality_check,
    residual,
    solve_lyapunov,
)

from conftest import PAPER_N_C, PAPER_N_M, model, random_models


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
        assert residual(w, d, sigma) < 1e-15

    def test_zero_matrix_scores_one(self):
        m = model(0.2, 0.1, 0.4)
        assert residual(build_drift(m), build_diffusion(m), np.zeros((8, 8))) == 1.0

    def test_solver_self_check(self, appendix_c_model):
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        solution = solve_lyapunov(w, d)
        assert solution.residual_norm <= 1e-10


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
        d2 = np.diag(np.linspace(0.1, 0.8, 8))
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
        """One eigensolve per call, for one drift and for a stack of them."""
        calls = []
        original = np.linalg.eigvals

        def counting(w):
            calls.append(np.shape(w))
            return original(w)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        solve_lyapunov(w, d)
        assert calls == [(8, 8)]
        calls.clear()
        solve_lyapunov(np.stack([w] * 5), np.stack([d] * 5))
        assert calls == [(5, 8, 8)]

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
        assert residual(w, d, sigma0) > 1.0
