import cmath
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from omsqueeze import (
    ModelParams,
    analyze,
    build_drift,
    drift_eigenvalues,
    rhsc_check,
    rhsc_coefficients,
)
from omsqueeze.matrices import split_drift
from omsqueeze.stability import sector_spectrum

from conftest import match_eigenvalue_sets, model, quartic_eigenvalues, random_models


def quadratic_roots(b, c):
    """Roots of x^2 + b x + c, the independent factorization oracle."""
    disc = cmath.sqrt(b * b - 4 * c)
    return (-b + disc) / 2, (-b - disc) / 2


class TestRhscCoefficients:
    def test_appendix_c_point(self):
        c = rhsc_coefficients(model(0.2, 0.1, 0.4))
        gam = 6.67e-6
        assert c.s1 == pytest.approx(1.0 + gam, rel=1e-14)
        assert c.s2 == pytest.approx(
            gam + 0.25 * (gam**2 + 1 - 0.64) + 2 * 0.03, rel=1e-14
        )
        assert c.s3 == pytest.approx((1 + gam) * (gam / 4 + 0.03) - gam * 0.16, rel=1e-14)
        assert (c.s1, c.s2, c.s3, c.s4) == pytest.approx(
            (1.0, 0.15, 0.03, 9e-4), rel=2e-3
        )

    def test_collapse_without_couplings_or_damping(self):
        c = rhsc_coefficients(model(gamma=0.0))
        assert c.as_tuple() == (1.0, 0.25, 0.0, 0.0)

    def test_single_tone_weak_damping_limit(self):
        c = rhsc_coefficients(model(G_minus=0.5, gamma=0.0))
        assert c.s2 == pytest.approx(0.25 + 0.5)
        assert c.s3 == pytest.approx(0.25)
        assert c.s4 == pytest.approx(0.0625)

    def test_phase_independent(self):
        a = rhsc_coefficients(model(0.3, 0.2, 0.4, phi=0.0))
        b = rhsc_coefficients(model(0.3, 0.2, 0.4, phi=2.1))
        assert a == b


class TestRhscCheck:
    def test_appendix_c_minors(self):
        h1, h2, h3, stable = rhsc_check(model(0.2, 0.1, 0.4))
        assert h1 == pytest.approx(9e-4, abs=5e-5)
        assert h2 == pytest.approx(36e-4, abs=5e-5)
        assert h3 == pytest.approx(27e-4, abs=5e-5)
        assert stable

    def test_blue_dominates_red_is_unstable(self):
        _, _, _, stable = rhsc_check(model(0.1, 0.2, 0.0))
        assert not stable
        assert rhsc_coefficients(model(0.1, 0.2, 0.0)).s3 < 0

    def test_pump_beyond_threshold_is_unstable(self):
        coeffs = rhsc_coefficients(model(lambda_pa=0.6))
        assert coeffs.s4 < 0
        assert not rhsc_check(model(lambda_pa=0.6))[3]


class TestQuarticEigenvalues:
    def test_decoupled_double_poles(self):
        roots = quartic_eigenvalues(model(gamma=0.01))
        expected = [-0.5, -0.5, -0.005, -0.005]
        # double roots are defective in the companion matrix: sqrt(eps) accuracy
        match_eigenvalue_sets(roots, expected, tol=1e-7)

    def test_appendix_c_factorization_oracle(self):
        # gamma -> 0: the quartic factors as (x^2+0.1x+0.03)(x^2+0.9x+0.03)
        expected = [*quadratic_roots(0.1, 0.03), *quadratic_roots(0.9, 0.03)]
        roots = quartic_eigenvalues(model(0.2, 0.1, 0.4))
        match_eigenvalue_sets(roots, expected, tol=5e-5)  # O(gamma) shift

    def test_threshold_pump_has_marginal_root(self):
        m = model(lambda_pa=0.5)
        coeffs = rhsc_coefficients(m)
        assert coeffs.s4 == 0.0  # exact collapse at the threshold
        roots = quartic_eigenvalues(m)
        assert min(abs(r) for r in roots) < 1e-10

    def test_conjugate_pairing(self):
        roots = quartic_eigenvalues(model(0.2, 0.1, 0.4))
        complex_roots = sorted(
            (r for r in roots if abs(r.imag) > 1e-10), key=lambda r: r.imag
        )
        assert len(complex_roots) == 2
        assert complex_roots[0] == complex_roots[1].conjugate()


class TestDriftEigenvalues:
    def test_diagonal_drift(self):
        w = np.diag([-0.5] * 4 + [-0.005] * 4)
        eigs = drift_eigenvalues(w)
        match_eigenvalue_sets(eigs, [-0.5] * 4 + [-0.005] * 4, tol=1e-14)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(drift_eigenvalues(np.zeros((8, 8))), np.zeros(8))

    def test_sorted_by_real_then_imaginary(self):
        eigs = drift_eigenvalues(build_drift(model(0.2, 0.1, 0.4)))
        keys = [(ev.real, ev.imag) for ev in eigs]
        assert keys == sorted(keys)

    def test_stack_equals_per_matrix_calls(self):
        stack = np.stack([build_drift(m) for m in random_models(10, seed=20251020)])
        eigs = drift_eigenvalues(stack)
        assert eigs.shape == (10, 8)
        for i in range(10):
            assert np.array_equal(eigs[i], drift_eigenvalues(stack[i]))

    def test_drift_that_does_not_split_is_rejected(self):
        w = build_drift(model(0.2, 0.1, 0.4))
        w[1, 2] += 1e-3
        with pytest.raises(ValueError, match="sectors"):
            drift_eigenvalues(w)

    def test_appendix_c_doubles_the_quartic(self):
        m = model(0.2, 0.1, 0.4)
        quartic = quartic_eigenvalues(m)
        eigs = drift_eigenvalues(build_drift(m))
        match_eigenvalue_sets(eigs, np.repeat(quartic, 2), tol=1e-8)


class TestSectorSpectrum:
    """The closed form against the dense eigensolve is tested in
    test_lyapunov's TestOneSectorSpectrum and in test_threshold_edges, and
    at extreme couplings in test_sweep; here is what else it promises."""

    @pytest.mark.parametrize("filter", ["error", "ignore"])
    def test_spectrum_that_is_not_finite_raises(self, filter):
        """A value that overflows, or an entry that is not finite, raises
        LinAlgError, as a dense eigensolve does, whatever the warning filter:
        never a NaN that the verdict would call unstable."""
        w_plus = split_drift(build_drift(model(1e200, 0.5e200, 0.3)))[0]
        inf_entry = w_plus.copy()
        inf_entry[0, 0] = math.inf
        for w in (w_plus, inf_entry, np.stack([split_drift(build_drift(model()))[0], w_plus])):
            with warnings.catch_warnings():
                warnings.simplefilter(filter)
                with pytest.raises(np.linalg.LinAlgError, match="not finite"):
                    sector_spectrum(w)

    def test_real_roots_have_a_positive_zero_imaginary_part(self):
        """As a dense eigensolve gives them, so a report lists im = 0.0."""
        values = sector_spectrum(split_drift(build_drift(model(gamma=0.01)))[0])
        assert np.all(values.imag == 0.0) and not np.signbit(values.imag).any()
        np.testing.assert_allclose(np.sort(values.real), [-0.5, -0.5, -0.005, -0.005], rtol=1e-14)


class TestSquareProperty:
    def test_drift_spectrum_doubles_quartic_on_random_draws(self):
        for m in random_models(100, seed=20250801):
            quartic = quartic_eigenvalues(m)
            eigs = drift_eigenvalues(build_drift(m))
            match_eigenvalue_sets(eigs, np.repeat(quartic, 2), tol=1e-8)

    def test_vieta_reproduces_coefficients(self):
        for m in random_models(100, seed=20250802):
            roots = quartic_eigenvalues(m)
            rebuilt = np.real(np.poly(roots))
            expected = (1.0,) + rhsc_coefficients(m).as_tuple()
            for got, want in zip(rebuilt, expected):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9 * (1 + abs(want)))

    def test_eigenvalues_invariant_under_phase(self):
        rng = np.random.default_rng(4)
        for m in random_models(25, seed=20250803):
            phi2 = rng.uniform(-math.pi, math.pi)
            m2 = model(m.G_minus, m.G_plus, m.lambda_pa, phi2, gamma=m.gamma,
                       n_c=m.n_c, n_m=m.n_m)
            assert quartic_eigenvalues(m) == pytest.approx(quartic_eigenvalues(m2))
            match_eigenvalue_sets(
                drift_eigenvalues(build_drift(m)),
                drift_eigenvalues(build_drift(m2)),
                tol=1e-10,
            )


class TestAnalyze:
    def test_appendix_c_report(self, appendix_c_model):
        report = analyze(appendix_c_model)
        assert report.rhsc_stable and report.eig_stable and report.consistent
        assert not report.marginal
        assert report.spectral_abscissa == pytest.approx(-0.0347, abs=5e-4)
        assert report.failure_reason() is None

    def test_blue_dominant_flagged_consistently(self):
        report = analyze(model(0.1, 0.2, 0.0))
        assert not report.rhsc_stable and not report.eig_stable
        assert report.consistent
        assert report.failure_reason() == "s3<0"
        assert report.spectral_abscissa > 0

    def test_decoupled_stable(self):
        report = analyze(model(gamma=0.01))
        assert report.rhsc_stable and report.eig_stable
        assert report.spectral_abscissa == pytest.approx(-0.005, rel=1e-12)

    def test_verdicts_agree_on_nonmarginal_draws(self):
        for m in random_models(100, seed=20250804):
            report = analyze(m)
            if abs(report.spectral_abscissa) > 1e-9:
                assert report.rhsc_stable == report.eig_stable
            assert report.consistent

    def test_sufficient_condition_red_dominant_below_threshold(self):
        # weak-damping sufficient condition: Lambda < kappa/2 and G+ < G-
        rng = np.random.default_rng(20250805)
        for _ in range(200):
            g_minus = rng.uniform(1e-3, 0.6)
            m = model(
                G_minus=g_minus,
                G_plus=g_minus * rng.uniform(0.0, 0.999),
                lambda_pa=rng.uniform(0.0, 0.4999),
                phi=rng.uniform(-math.pi, math.pi),
                gamma=10.0 ** rng.uniform(-6, -4),
            )
            assert rhsc_check(m)[3], m

    def test_stable_needs_both_routes_and_a_clear_margin(self, appendix_c_model):
        from dataclasses import replace

        report = analyze(appendix_c_model)
        assert report.stable
        assert not replace(report, marginal=True).stable
        assert not replace(report, eig_stable=False).stable
        assert not replace(report, rhsc_stable=False).stable
        assert not analyze(model(0.1, 0.2, 0.0)).stable

    def test_minors_match_rhsc_check(self):
        for m in random_models(50, seed=20250811):
            report = analyze(m)
            assert (report.h1, report.h2, report.h3, report.rhsc_stable) == rhsc_check(m)
            assert report.coefficients == rhsc_coefficients(m)

    def test_json_field_names(self, appendix_c_model):
        payload = analyze(appendix_c_model).to_json()
        for key in ("s1", "s2", "s3", "s4", "h1", "h2", "h3",
                    "eigenvalues", "rhsc_stable", "eig_stable", "consistent"):
            assert key in payload
        assert {"re", "im"} == set(payload["eigenvalues"][0])
        assert len(payload["eigenvalues"]) == 8


class TestAnalyzeStack:
    def test_equals_per_point_reports_bit_for_bit(self):
        """The routes a sweep runs on a stack of models, the minors of a model
        with array fields and one closed-form spectrum of the stacked W_+,
        give each row the numbers `analyze` reports for it alone."""
        models = random_models(40, seed=20251021)  # stable and unstable draws
        assert len({analyze(m).stable for m in models}) == 2
        stacked = ModelParams(**{
            f.name: np.array([getattr(m, f.name) for m in models]) for f in fields(ModelParams)
        })
        h1, h2, h3, rhsc_stable = rhsc_check(stacked)
        drifts = build_drift(stacked)
        spectra = drift_eigenvalues(drifts)
        plus = sector_spectrum(split_drift(drifts)[:, 0])  # the sweep gate's W_+
        for i, m in enumerate(models):
            single = analyze(m)
            assert (h1[i], h2[i], h3[i], rhsc_stable[i]) == (
                single.h1, single.h2, single.h3, single.rhsc_stable)
            assert np.array_equal(spectra[i], single.eigenvalues)
            assert plus[i].real.max() == single.spectral_abscissa
