import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from scipy.linalg import expm, solve_continuous_lyapunov

from omsqueeze import (
    ConvergenceError,
    DivergenceError,
    analyze,
    build_diffusion,
    build_drift,
    evolve_to_steady,
    initial_covariance,
    integrate,
    solve_lyapunov,
)
from omsqueeze import dynamics
from omsqueeze.dynamics import (
    GRID_STEPS,
    _expm_chain,
    _squarings,
    _svec_basis,
    _upper_form,
)
from omsqueeze.matrices import lyapunov_operator, split_sectors, upper_triangle

from conftest import (
    ORACLE_FACTOR,
    PAPER_N_C,
    PAPER_N_M,
    cm_derivative,
    dp5_stage_step,
    model,
    random_models,
    vec_operator,
)
from test_threshold_edges import edge_models


def from_svec(y, n):
    """The symmetric n x n sigma whose svec is y."""
    s, _, gather = _svec_basis(n)
    return (y / s)[gather]


def oracle_drifts():
    """Drifts for the stepper's oracle tests: model drifts, the 1x1 scalar
    and a non-normal W (a chain of strong one-way couplings)."""
    non_normal = -np.eye(4) + np.diag([30.0, 30.0, 30.0], 1)
    non_normal[3, 3] = -2.0
    return [build_drift(m) for m in random_models(3, seed=20261019)] + [
        np.array([[-0.5]]),
        non_normal,
    ]


def kron_upper_operator(w):
    """L_z by the kron/gather route, the oracle for `lyapunov_operator`: the
    upper rows of W (x) I + I (x) W, columns (i, j) + (j, i)."""
    n = w.shape[0]
    (rows, cols), gather, _ = upper_triangle(n)
    return vec_operator(w)[rows * n + cols] @ np.eye(rows.size)[gather.ravel()]


def kron_upper_form(w):
    """L_y = S L_z S^-1 by the kron route, the oracle for `_upper_form`."""
    s = _svec_basis(w.shape[0])[0]
    return s[:, None] * kron_upper_operator(w) / s


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
                flat = vec_operator(w) @ sigma.ravel() + d.ravel()
                expected = cm_derivative(w, d, sigma).ravel()
                scale = np.linalg.norm(w) * np.linalg.norm(sigma) + np.linalg.norm(d)
                assert np.max(np.abs(flat - expected)) <= 1e-14 * scale


class TestStepPolynomial:
    """One exact step against the stage-wise Dormand-Prince 5(4) tableau, an
    independent integrator, and the svec basis the steps run on."""

    @pytest.mark.parametrize("h_norm", [1e-3, 0.1, 1.0, 3.0])
    def test_one_step_matches_stage_wise_dp5(self, h_norm):
        """The first grid step of length h, unscaled from svec, equals the
        tableau's stages evaluated on vec sigma in substeps of h ||L||_2 <=
        0.01, for h ||L||_2 from 1e-3 to 3."""
        rng = np.random.default_rng(7)
        h = 0.5
        for w in oracle_drifts():
            n = w.shape[0]
            w = w * (h_norm / (h * np.linalg.norm(vec_operator(w), 2)))
            s, a = rng.normal(size=(2, n, n))
            sigma0, d = s + s.T, a @ a.T
            t, y = next((t, y) for t, y, norm in
                        dynamics._exact_steps(w, d, sigma0, h * GRID_STEPS)
                        if norm is not None and t > 0)
            substeps = math.ceil(h_norm / 0.01)
            expected = sigma0
            for _ in range(substeps):
                expected, _ = dp5_stage_step(w, d, expected, h / substeps)
            assert t == h
            error = np.linalg.norm(from_svec(y, n) - expected)
            assert error <= 1e-13 * np.linalg.norm(expected)

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
        taken from `vec_operator` on vec sigma."""
        rng = np.random.default_rng(5)
        for w in oracle_drifts():
            n = w.shape[0]
            s, upper, _ = _svec_basis(n)
            a = rng.normal(size=(n, n))
            sigma = a + a.T
            full = (vec_operator(w) @ sigma.ravel()).reshape(n, n)
            scale = np.linalg.norm(w) * np.linalg.norm(sigma)
            got = _upper_form(w) @ (s * sigma[upper])
            assert np.max(np.abs(got - s * full[upper])) <= 1e-14 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_upper_form_equals_the_kron_route_bit_for_bit(self, n):
        """`_upper_form` reads L_z off `lyapunov_operator`; every bit of L_y, the
        sign of every zero included, is the kron route's, on entries from 1e-5
        to 1e5 with +0.0 and -0.0 among them.  At n = 4 so is every bit of the
        unscaled L_z of a (k, 2, 4, 4) stack, as the sector solve builds it."""
        rng = np.random.default_rng(100 + n)
        ws = [build_drift(m) for m in random_models(5, seed=n)] if n in (4, 8) else []
        if n == 4:  # the sectors of model drifts
            ws = list(split_sectors(np.stack(ws)).reshape(10, 4, 4))
        for trial in range(300):
            w = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-5, 5, size=(n, n))
            w[rng.random((n, n)) < 0.2] = 0.0
            w[rng.random((n, n)) < 0.2] = -0.0
            ws.append(-np.abs(w) if trial % 3 == 0 else w)
        for w in ws:
            ref = kron_upper_form(w)
            np.testing.assert_array_equal(_upper_form(w).view(np.uint64), ref.view(np.uint64))
        if n == 4:
            stack = np.reshape(ws, (-1, 2, 4, 4))
            ref = np.reshape([kron_upper_operator(w) for w in ws], (-1, 2, 10, 10))
            got = lyapunov_operator(stack)
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_cached_arrays_are_read_only(self):
        (rows, cols), gather, pattern = upper_triangle(3)
        s = _svec_basis(3)[0]
        assert upper_triangle(3)[2] is pattern and _svec_basis(3)[0] is s
        for array in (s, rows, cols, gather, pattern):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


class TestExpm:
    """The Pade-13 scaling-and-squaring exponential against scipy's."""

    @staticmethod
    def augmented(w, d, h):
        """h [[L, d], [0, 0]] on svec, the block the steps exponentiate."""
        s, upper, _ = _svec_basis(w.shape[0])
        a = np.zeros((s.size + 1, s.size + 1))
        a[:-1, :-1], a[:-1, -1] = h * _upper_form(w), h * s * d[upper]
        return a

    @staticmethod
    def assert_chain_matches_scipy(a, extra=0):
        """Every entry e^(a / 2^k) of the chain, with `extra` squarings beyond
        the natural ones, within 8 eps 2^s relative of scipy's: the rounding of
        one Pade-13 evaluation, doubled by each of the s squarings."""
        squarings = _squarings(a) + extra
        chain = _expm_chain(a, squarings)
        assert len(chain) == squarings + 1
        for k, e in enumerate(reversed(chain)):
            ref = expm(a / 2**k)
            bound = 8 * np.finfo(float).eps * 2.0**squarings
            assert np.linalg.norm(e - ref) <= bound * np.linalg.norm(ref)
            np.testing.assert_array_equal(e[-1], np.eye(len(a))[-1])

    @pytest.mark.parametrize("h_norm", [1e-3, 0.1, 1.0, 5.0, 30.0])
    def test_oracle_drifts(self, h_norm):
        """Model drifts, the 1x1 scalar and the non-normal chain, at h ||L||_2
        up to 30 (past that scipy, not the chain, loses digits on the
        non-normal drift: 3.5e-10 against a 60-digit reference at 200)."""
        rng = np.random.default_rng(8)
        for w in oracle_drifts():
            a = rng.normal(size=w.shape)
            h = h_norm / np.linalg.norm(_upper_form(w), 2)
            self.assert_chain_matches_scipy(self.augmented(w, a @ a.T, h))

    def test_forced_squarings_for_early_samples(self, appendix_c_model):
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        self.assert_chain_matches_scipy(self.augmented(w, d, 7.2), extra=7)

    @settings(max_examples=30, deadline=None)
    @given(edge_models)
    def test_threshold_edges(self, m):
        """Drifts near Lambda -> kappa/2 and G+ -> G-, at the step
        `evolve_to_steady` takes: e^(hA) as scipy's, and the relaxed sigma as
        the Lyapunov solution, within the solver's oracle band."""
        assume(analyze(m).stable)
        w, d = build_drift(m), build_diffusion(m)
        rate = -np.max(np.linalg.eigvals(w).real)
        h = dynamics.WINDOW_RELAXATIONS / rate / GRID_STEPS
        self.assert_chain_matches_scipy(self.augmented(w, d, h))
        sigma, _ = evolve_to_steady(w, d, initial_covariance(m))
        solution = solve_lyapunov(w, d)
        error = np.linalg.norm(sigma - solution.sigma) / np.linalg.norm(solution.sigma)
        assert error <= ORACLE_FACTOR * np.finfo(float).eps * solution.condition_estimate


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

    def test_grid_step_does_not_move_the_result(self, appendix_c_model, monkeypatch):
        """Each step is exact, so 10, 40 or 160 steps to the same horizon give
        the same sigma, to within rounding of the Lyapunov solution."""
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        sigma0 = initial_covariance(appendix_c_model)
        oracle = solve_lyapunov(w, d).sigma
        for steps in (10, 40, 160):
            monkeypatch.setattr(dynamics, "GRID_STEPS", steps)
            final, trajectory = integrate(w, d, sigma0, t_end=1500.0)
            assert np.sum(trajectory.times > trajectory.times[-1] / steps) == steps - 1
            assert np.linalg.norm(final - oracle) <= 1e-13 * np.linalg.norm(oracle)

    def test_divergence_raises_for_unstable_drift(self):
        m = model(0.1, 0.5, 0.0)  # blue tone dominant: abscissa > 0
        w, d = build_drift(m), build_diffusion(m)
        with pytest.raises(DivergenceError):
            integrate(w, d, initial_covariance(m), t_end=1e5)

    @pytest.mark.parametrize("rate", [1e16, 1e40, 1e60, 1e100, 1e300])
    def test_extreme_rate_verdicts(self, rate):
        """W = -rate I relaxes to I / (2 rate) well before t_end; the exact
        steps neither underflow nor overflow.  This holds under this suite's
        warning filter, which turns any RuntimeWarning into an error."""
        sigma, _ = integrate(np.diag([-rate] * 8), np.eye(8), np.eye(8) * 3.0, t_end=10.0)
        np.testing.assert_allclose(sigma * (2 * rate), np.eye(8), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("t_end", [1e7, 1e300])
    def test_unstable_drift_diverges_at_any_horizon(self, t_end):
        """An unstable drift in steps of t_end / GRID_STEPS whose e^(hL)
        overflows, up to h = 2.5e298: DivergenceError under this suite's
        warning filter, which turns any RuntimeWarning into an error."""
        m = model(0.1, 0.5, 0.0)
        w, d = build_drift(m), build_diffusion(m)
        with pytest.raises(DivergenceError):
            integrate(w, d, initial_covariance(m), t_end=t_end)

    def test_overflowing_drift_diverges(self):
        """A drift whose operator L = W (x) I + I (x) W overflows ends in
        DivergenceError, not a RuntimeWarning or a LinAlgError."""
        for run in (lambda w: integrate(w, np.eye(8), np.eye(8), t_end=10.0),
                    lambda w: evolve_to_steady(w, np.eye(8), np.eye(8))):
            with pytest.raises(DivergenceError, match="overflows"):
                run(np.diag([-1e308] * 8))

    def test_recorded_traces_are_np_trace_bit_for_bit(self, appendix_c_model):
        """Each recorded trace is `np.trace` of that step's sigma, to the bit:
        the diagonal is summed in the order `np.trace` sums it."""
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        sigma0 = initial_covariance(appendix_c_model)
        _, trajectory = integrate(w, d, sigma0, t_end=10.0)
        states = []
        for t, y, _ in dynamics._exact_steps(w, d, sigma0, 10.0):
            states.append(y)
            if t == 10.0:
                break
        assert len(states) == len(trajectory.traces) > 10
        for y, trace in zip(states, trajectory.traces):
            assert trace == np.trace(from_svec(y, 8))

    def test_trace_matches_exact_solution_at_every_step(self, appendix_c_model):
        # sigma(t) = e^{Wt} (sigma0 - sigma_inf) e^{W^T t} + sigma_inf, early
        # samples included
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        sigma0 = initial_covariance(appendix_c_model)
        sigma_inf = solve_continuous_lyapunov(w, -d)
        _, trajectory = integrate(w, d, sigma0, t_end=30.0)
        assert len(trajectory.times) > 10
        for t, trace in zip(trajectory.times, trajectory.traces):
            prop = expm(w * t)
            exact = np.trace(prop @ (sigma0 - sigma_inf) @ prop.T + sigma_inf)
            assert trace == pytest.approx(exact, rel=1e-12)

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
        # 1.5e-15 measured; stepping with the early samples' extra squarings
        # instead of a normally scaled e^(hA) gives 5.2e-14
        assert np.linalg.norm(sigma - oracle) <= 1e-14 * np.linalg.norm(oracle)

    def test_fig9_accepted_step_count(self, appendix_c_model):
        """A changed grid, early-sample chain or streak rule shows here, not
        only as speed: t = 0, 9 early samples and 81 grid steps."""
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        _, trajectory = evolve_to_steady(w, d, initial_covariance(appendix_c_model))
        assert len(trajectory.times) == 91
        assert trajectory.t_converged == trajectory.times[-1]

    def test_derivative_norm_keeps_full_relative_precision(self, appendix_c_model):
        """||sigma'|| at each grid time against e^(Wt) sigma'(0) e^(W^T t), down
        to 4e-10 of the threshold: sigma' steps by Phi, not as the cancelling
        L y + d (off by a factor 400 there)."""
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        sigma0 = initial_covariance(appendix_c_model)
        deriv0 = cm_derivative(w, d, sigma0)
        for t, _, norm in dynamics._exact_steps(w, d, sigma0, 288.4):
            if norm is not None:
                prop = expm(w * t)
                exact = np.linalg.norm(prop @ deriv0 @ prop.T)
                assert norm == pytest.approx(exact, rel=1e-12, abs=0)
            if t > 600.0:
                break

    def test_fig9_convergence_time_ignores_rounding(self, appendix_c_model, monkeypatch):
        """t_converged is a grid time, and ||sigma'|| carries full relative
        precision: sigma0 one ulp up, or every entry of each e^(hA) one ulp up,
        leaves it bit-identical (each grid ||sigma'|| is >= 20 % off threshold)."""
        w, d = build_drift(appendix_c_model), build_diffusion(appendix_c_model)
        sigma0 = initial_covariance(appendix_c_model)
        t_converged = evolve_to_steady(w, d, sigma0)[1].t_converged
        assert evolve_to_steady(w, d, np.nextafter(sigma0, np.inf))[1].t_converged == t_converged

        exact = dynamics._expm_chain
        monkeypatch.setattr(dynamics, "_expm_chain", lambda a, s: [
            np.nextafter(e, np.inf) for e in exact(a, s)])
        assert evolve_to_steady(w, d, sigma0)[1].t_converged == t_converged

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

    @pytest.mark.parametrize("rate", [1e-3, 1.0, 1e2, 1e4, 1e8, 1e12, 1e16])
    def test_fast_and_slow_scalar_drifts_converge(self, rate):
        """W = -rate I, D = I relaxes from 3 I to I / (2 rate) on a time
        1/rate, however fast: the grid follows the abscissa, and no step
        error competes with the absolute threshold eps ||D||."""
        sigma, trajectory = evolve_to_steady(np.diag([-rate] * 8), np.eye(8), np.eye(8) * 3.0)
        assert trajectory.converged
        np.testing.assert_allclose(sigma * (2 * rate), np.eye(8), rtol=0, atol=1e-12)

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
        assert len(lines) - 1 == len(trajectory.times)
        assert lines[1].startswith("0,")
