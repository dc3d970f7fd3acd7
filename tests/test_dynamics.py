import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

from omsqueeze import (
    ConvergenceError,
    DivergenceError,
    StiffnessError,
    Trajectory,
    build_diffusion,
    build_drift,
    evolve_to_steady,
    initial_covariance,
    integrate,
    solve_lyapunov,
)
from omsqueeze import dynamics
from omsqueeze.dynamics import _svec_basis, _upper_form, _vec_operator

from conftest import (
    DP5_A,
    DP5_E,
    PAPER_N_C,
    PAPER_N_M,
    cm_derivative,
    dp5_stage_step,
    model,
    random_models,
)


def from_svec(y, n):
    """The symmetric n x n sigma whose svec is y."""
    s, _, gather = _svec_basis(n)
    return (y / s)[gather].reshape(n, n)


def oracle_drifts():
    """Drifts for the stepper's oracle tests: model drifts, the 1x1 scalar
    and a non-normal W (a chain of strong one-way couplings)."""
    non_normal = -np.eye(4) + np.diag([30.0, 30.0, 30.0], 1)
    non_normal[3, 3] = -2.0
    return [build_drift(m) for m in random_models(3, seed=20261019)] + [
        np.array([[-0.5]]),
        non_normal,
    ]


class TestCmDerivative:
    def test_steady_state_gives_zero(self, appendix_c_model):
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        sigma = solve_lyapunov(w, d).sigma
        deriv = cm_derivative(w, d, sigma)
        assert np.linalg.norm(deriv) < 1e-10 * np.linalg.norm(d)

    def test_zero_drift_gives_constant_growth(self):
        d = np.diag(np.arange(1.0, 9.0))
        np.testing.assert_array_equal(cm_derivative(np.zeros((8, 8)), d, np.eye(8) * 5), d)

    def test_thermal_state_stationary_for_decoupled_drift(self):
        m = model()
        w, d = build_drift(m), build_diffusion(m)
        sigma = np.diag([PAPER_N_C + 0.5] * 4 + [PAPER_N_M + 0.5] * 4)
        assert np.linalg.norm(cm_derivative(w, d, sigma)) < 1e-14

    def test_preserves_symmetry(self):
        m = model(0.3, 0.1, 0.4, 0.9)
        w, d = build_drift(m), build_diffusion(m)
        rng = np.random.default_rng(3)
        s = rng.normal(size=(8, 8))
        s = s + s.T
        deriv = cm_derivative(w, d, s)
        np.testing.assert_allclose(deriv, deriv.T, atol=1e-14)


class TestVecOperator:
    """The vec-form right-hand side, from which the stepper takes its
    operator, against the matrix form."""

    def test_matches_cm_derivative(self):
        rng = np.random.default_rng(11)
        for m in random_models(8, seed=20251018):
            w, d = build_drift(m), build_diffusion(m)
            s = rng.normal(size=(8, 8))
            for sigma in (s + s.T, s, initial_covariance(m)):
                flat = _vec_operator(w) @ sigma.ravel() + d.ravel()
                expected = cm_derivative(w, d, sigma).ravel()
                scale = np.linalg.norm(w) * np.linalg.norm(sigma) + np.linalg.norm(d)
                assert np.max(np.abs(flat - expected)) <= 1e-14 * scale


class TestStepPolynomial:
    """The stepper's collapsed DP5(4) step against the Dormand-Prince tableau."""

    def test_constants_are_the_collapsed_tableau(self):
        def combine(weights, polys):
            out = [F(0)] * 8
            for c, poly in zip(weights, polys):
                for m, a in enumerate(poly):
                    out[m] += c * a
            return out

        # Stage k_i as coefficients of (hL)^m f: k_0 = f, and stage i + 1 is
        # evaluated at z + h sum_j A_ij k_j, so k_(i+1) = f + hL sum_j A_ij k_j.
        stages = [[F(1)]]
        for row in DP5_A:
            stages.append([F(1)] + combine(row, stages)[:7])
        step = combine(DP5_A[-1], stages)
        err = combine(DP5_E, stages)
        # Taylor's e^(hL) to 4th order; 1/600 in place of 1/720.
        assert step[:5] == [F(1, math.factorial(m + 1)) for m in range(5)]
        assert step[5:] == [F(1, 600), F(0), F(0)]
        assert err[:4] == [0] * 4 and err[7] == 0
        assert [float(c) for c in step[:7]] == dynamics._STEP_POLY[0].tolist()
        assert [float(c) for c in err[:7]] == dynamics._STEP_POLY[1].tolist()

    @pytest.mark.parametrize("h_norm", [1e-3, 0.1, 1.0, 3.0])
    def test_one_step_matches_stage_wise_dp5(self, h_norm, monkeypatch):
        """The first accepted step of length h, unscaled from svec, equals the
        tableau's stages evaluated on vec sigma, for h ||L||_2 from 1e-3 to 3."""
        # Accept any step, and start from the cap of a tenth of the last
        # target, here h.
        monkeypatch.setattr(dynamics, "ABS_TOL", 1e100)
        rng = np.random.default_rng(7)
        h = 0.5
        for w in oracle_drifts():
            n = w.shape[0]
            w = w * (h_norm / (h * np.linalg.norm(_vec_operator(w), 2)))
            s, a = rng.normal(size=(2, n, n))
            sigma0, d = s + s.T, a @ a.T
            steps = dynamics._accepted_steps(w, d, sigma0, [h, 10 * h])
            next(steps)
            t, y, _ = next(steps)
            sigma = from_svec(y, n)
            expected, _ = dp5_stage_step(w, d, sigma0, h)
            assert t == h
            assert np.linalg.norm(sigma - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_svec_norm_and_round_trip(self):
        """||svec(sigma)||_2 = ||sigma||_F, and sigma comes back from its svec."""
        rng = np.random.default_rng(4)
        for n in (1, 2, 4, 8):
            s, upper, _ = _svec_basis(n)
            for _ in range(20):
                a = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3)
                sigma = a + a.T
                y = s * sigma[upper]
                assert np.dot(y, y) == pytest.approx(np.sum(sigma * sigma), rel=1e-14)
                np.testing.assert_allclose(from_svec(y, n), sigma, rtol=1e-15, atol=0)
                np.testing.assert_array_equal(from_svec(y, n), from_svec(y, n).T)

    def test_upper_operator_matches_vec_operator(self):
        """L_y svec(sigma) = svec(W sigma + sigma W^T), with the right-hand side
        taken from `_vec_operator` on vec sigma."""
        rng = np.random.default_rng(5)
        for w in oracle_drifts():
            n = w.shape[0]
            s, upper, _ = _svec_basis(n)
            a = rng.normal(size=(n, n))
            sigma = a + a.T
            full = (_vec_operator(w) @ sigma.ravel()).reshape(n, n)
            scale = np.linalg.norm(w) * np.linalg.norm(sigma)
            got = _upper_form(w) @ (s * sigma[upper])
            assert np.max(np.abs(got - s * full[upper])) <= 1e-14 * scale


class TestIntegrate:
    def test_scalar_exponential_relaxation(self):
        # 1x1 restriction: sigma' = -kappa sigma + kappa (n + 1/2)
        kappa, n, s0 = 1.0, 2.0, 7.0
        w = np.array([[-kappa / 2]])
        d = np.array([[kappa * (n + 0.5)]])
        _, trajectory = integrate(w, d, np.array([[s0]]), t_end=5.0)
        for t, trace in zip(trajectory.times, trajectory.traces):
            expected = (n + 0.5) + (s0 - n - 0.5) * math.exp(-kappa * t)
            assert trace == pytest.approx(expected, abs=1e-9)

    def test_stationary_initial_state_keeps_trace_constant(self):
        m = model()
        w, d = build_drift(m), build_diffusion(m)
        sigma0 = np.diag([PAPER_N_C + 0.5] * 4 + [PAPER_N_M + 0.5] * 4)
        _, trajectory = integrate(w, d, sigma0, t_end=50.0)
        np.testing.assert_allclose(
            trajectory.traces, trajectory.traces[0], rtol=1e-12
        )

    def test_times_strictly_increasing_and_aligned(self, appendix_c_model):
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        _, trajectory = integrate(w, d, initial_covariance(appendix_c_model), t_end=30.0)
        assert trajectory.times[0] == 0.0
        assert trajectory.times[-1] == 30.0
        assert np.all(np.diff(trajectory.times) > 0)
        assert len(trajectory.times) == len(trajectory.traces)

    def test_snapshots_on_requested_times(self, appendix_c_model):
        """The returned sigma is the state at t_end: symmetric, and the one
        whose trace the trajectory records last."""
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        sigma0 = initial_covariance(appendix_c_model)
        for t_end in (2.5, 10.0):
            sigma, trajectory = integrate(w, d, sigma0, t_end=t_end)
            assert trajectory.times[-1] == t_end
            assert np.trace(sigma) == trajectory.traces[-1]
            np.testing.assert_array_equal(sigma, sigma.T)

    def test_snapshot_accuracy_against_closed_form(self):
        kappa, n, s0 = 1.0, 0.0, 4.0
        w = np.array([[-kappa / 2]])
        d = np.array([[kappa * (n + 0.5)]])
        for t in (1.0, 2.0):
            sigma, _ = integrate(w, d, np.array([[s0]]), t_end=t)
            expected = (n + 0.5) + (s0 - n - 0.5) * math.exp(-kappa * t)
            assert sigma[0, 0] == pytest.approx(expected, abs=1e-9)

    def test_tightening_tolerance_never_hurts(self, appendix_c_model, monkeypatch):
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        sigma0 = initial_covariance(appendix_c_model)
        oracle = solve_lyapunov(w, d).sigma
        errors = []
        for rel_tol in (1e-5, 1e-7, 1e-9):
            monkeypatch.setattr(dynamics, "REL_TOL", rel_tol)
            final, _ = integrate(w, d, sigma0, t_end=400.0)
            errors.append(np.max(np.abs(final - oracle)))
        assert errors[1] <= errors[0] * 1.1 + 1e-13
        assert errors[2] <= errors[1] * 1.1 + 1e-13

    def test_divergence_raises_for_unstable_drift(self):
        m = model(0.1, 0.5, 0.0)  # blue tone dominant: abscissa > 0
        w, d = build_drift(m), build_diffusion(m)
        with pytest.raises(DivergenceError):
            integrate(w, d, initial_covariance(m), t_end=1e5)

    def test_stiffness_error_on_extreme_rates(self, monkeypatch):
        monkeypatch.setattr(dynamics, "REL_TOL", 1e-13)
        monkeypatch.setattr(dynamics, "ABS_TOL", 1e-16)
        w = np.diag([-1e16] * 8)
        d = np.eye(8)
        with pytest.raises(StiffnessError):
            integrate(w, d, np.eye(8) * 3.0, t_end=10.0)

    @pytest.mark.parametrize("rate, error", [
        (1e16, StiffnessError),
        (1e40, DivergenceError),
        (1e60, DivergenceError),
        (1e100, DivergenceError),
        (1e300, DivergenceError),
    ])
    def test_extreme_rate_verdicts(self, rate, error):
        """W = -rate I at the default tolerances: the step size underflows, or
        the first trial overflows.  The verdict holds under this suite's
        warning filter, which turns any RuntimeWarning into an error."""
        w = np.diag([-rate] * 8)
        with pytest.raises(error):
            integrate(w, np.eye(8), np.eye(8) * 3.0, t_end=10.0)

    def test_recorded_traces_are_np_trace_bit_for_bit(self, appendix_c_model):
        """Each recorded trace is `np.trace` of that step's sigma, to the bit:
        the diagonal is summed in the order `np.trace` sums it."""
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        sigma0 = initial_covariance(appendix_c_model)
        _, trajectory = integrate(w, d, sigma0, t_end=10.0)
        states = [y for _, y, _ in dynamics._accepted_steps(w, d, sigma0, [10.0])]
        assert len(states) == len(trajectory.traces) > 10
        for y, trace in zip(states, trajectory.traces):
            assert trace == np.trace(from_svec(y, 8))

    def test_trace_matches_exact_solution_at_every_step(self, appendix_c_model):
        # sigma(t) = e^{Wt} (sigma0 - sigma_inf) e^{W^T t} + sigma_inf
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        sigma0 = initial_covariance(appendix_c_model)
        sigma_inf = solve_continuous_lyapunov(w, -d)
        _, trajectory = integrate(w, d, sigma0, t_end=30.0)
        assert len(trajectory.times) > 10
        for t, trace in zip(trajectory.times, trajectory.traces):
            prop = expm(w * t)
            exact = np.trace(prop @ (sigma0 - sigma_inf) @ prop.T + sigma_inf)
            assert trace == pytest.approx(exact, rel=1e-7)

    def test_rejects_bad_arguments(self):
        w = np.zeros((8, 8))
        for bad in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                integrate(w, np.eye(8), np.eye(8), t_end=bad)
            with pytest.raises(ValueError, match="finite"):
                evolve_to_steady(w, np.eye(8), np.eye(8), eps=bad)


class TestEvolveToSteady:
    def test_decoupled_relaxes_to_bath_state(self):
        # moderate damping: the decoupled mechanical bath relaxes on 1/gamma
        m = model(gamma=0.01, n_m=40.0)
        w, d = build_drift(m), build_diffusion(m)
        sigma, trajectory = evolve_to_steady(w, d, 0.5 * np.eye(8))
        expected = np.diag([PAPER_N_C + 0.5] * 4 + [40.5] * 4)
        assert trajectory.converged
        np.testing.assert_allclose(sigma, expected, rtol=0, atol=1e-6)

    def test_matches_lyapunov_at_appendix_c(self, appendix_c_model):
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        sigma0 = initial_covariance(appendix_c_model)
        sigma, trajectory = evolve_to_steady(w, d, sigma0)
        oracle = solve_lyapunov(w, d).sigma
        assert trajectory.converged and trajectory.t_converged is not None
        np.testing.assert_allclose(sigma, oracle, rtol=0, atol=1e-6)

    def test_fig9_accepted_step_count(self, appendix_c_model):
        """A changed step controller or error norm shows here, not only as speed."""
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        _, trajectory = evolve_to_steady(w, d, initial_covariance(appendix_c_model))
        assert 877 * 0.98 <= len(trajectory.times) <= 877 * 1.02

    def test_trace_decay_respects_slowest_mode_envelope(self, appendix_c_model):
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        sigma0 = initial_covariance(appendix_c_model)
        _, trajectory = evolve_to_steady(w, d, sigma0)
        trace_ss = np.trace(solve_lyapunov(w, d).sigma)
        abscissa = -0.0346722  # slowest drift mode at this point
        times, traces = trajectory.times, trajectory.traces
        mid = np.searchsorted(times, 50.0)
        anchor = abs(traces[mid] - trace_ss) / math.exp(2 * abscissa * times[mid])
        for idx in range(mid, len(times), 25):
            bound = 50.0 * anchor * math.exp(2 * abscissa * times[idx])
            assert abs(traces[idx] - trace_ss) <= bound + 1e-9

    def test_divergence_for_unstable_parameters(self):
        m = model(0.1, 0.2, 0.0)
        w, d = build_drift(m), build_diffusion(m)
        with pytest.raises(DivergenceError):
            evolve_to_steady(w, d, initial_covariance(m))

    def test_convergence_error_when_window_unreachable(self, appendix_c_model, monkeypatch):
        # at a relaxation rate of 0.0347 kappa: a window of 101, and giving
        # up at t = 57.7, two target chunks of window / 4 in
        monkeypatch.setattr(dynamics, "MAX_RELAXATIONS", 2.0)
        monkeypatch.setattr(dynamics, "WINDOW_RELAXATIONS", 3.5)
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        sigma0 = initial_covariance(appendix_c_model)
        with pytest.raises(ConvergenceError, match="no steady state within t=57.7"):
            evolve_to_steady(w, d, sigma0)

    def test_agreement_between_verdicts_and_convergence(self):
        stable = [m for m, r in random_models(3, seed=20250809, stable=True)
                  if r.spectral_abscissa < -5e-3]
        for m in stable:
            w, d = build_drift(m), build_diffusion(m)
            sigma, trajectory = evolve_to_steady(w, d, initial_covariance(m))
            assert trajectory.converged
            oracle = solve_lyapunov(w, d).sigma
            np.testing.assert_allclose(sigma, oracle, rtol=0, atol=1e-6)


class TestTrajectoryExport:
    def test_csv_header_and_shape(self, tmp_path, appendix_c_model):
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        _, trajectory = integrate(w, d, initial_covariance(appendix_c_model), t_end=100.0)
        path = tmp_path / "trace.csv"
        trajectory.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t_over_kappa,trace"
        assert 2 <= len(lines) - 1 <= 400

    def test_log_resampling_monotone(self, monkeypatch):
        monkeypatch.setattr(dynamics, "LOG_SAMPLES", 50)
        times = np.linspace(0.0, 100.0, 5000)
        traces = np.exp(-times) + 1.0
        trajectory = Trajectory(times=times, traces=traces)
        t, tr = trajectory.resample_log()
        assert np.all(np.diff(t) > 0)
        assert len(t) == len(tr) <= 50
