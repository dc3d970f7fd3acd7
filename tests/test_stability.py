import cmath
import math

import numpy as np
import pytest

from omsqueeze import (
    analyze,
    build_drift,
    drift_eigenvalues,
    quartic_eigenvalues,
    rhsc_check,
    rhsc_coefficients,
)

from conftest import match_eigenvalue_sets, model, random_models


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

    def test_appendix_c_doubles_the_quartic(self):
        m = model(0.2, 0.1, 0.4)
        quartic = quartic_eigenvalues(m)
        eigs = drift_eigenvalues(build_drift(m))
        match_eigenvalue_sets(eigs, np.repeat(quartic, 2), tol=1e-8)


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
