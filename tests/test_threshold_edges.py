"""Property tests on the way to the open thresholds Lambda -> kappa/2 and
G+ -> G-, up to the caps the figure presets use (Lambda/kappa = 0.4999,
G+/G- = 0.999), at random pump phase."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_lyapunov

from omsqueeze import (
    analyze,
    build_diffusion,
    build_drift,
    metric_row,
    rhsc_check,
    solve_lyapunov,
)
from omsqueeze.lyapunov import solve_stable
from omsqueeze.matrices import split_drift, split_sectors
from omsqueeze.stability import sector_spectrum

from conftest import (
    ORACLE_FACTOR,
    assert_negativity_follows_vidal_werner,
    assert_sector_kernel_agrees,
    kronecker_lyapunov,
    match_eigenvalue_sets,
    model,
    physicality_check,
    quartic_eigenvalues,
)

LAMBDA_CAP = 0.4999
RATIO_CAP = 0.999

edge_models = st.builds(
    lambda lam_gap, ratio_gap, g_minus, phi, log_gamma, n_c, n_m: model(
        G_minus=g_minus,
        G_plus=min(1.0 - 10.0**ratio_gap, RATIO_CAP) * g_minus,
        lambda_pa=min(0.5 - 10.0**lam_gap, LAMBDA_CAP),
        phi=phi,
        gamma=10.0**log_gamma,
        n_c=n_c,
        n_m=n_m,
    ),
    lam_gap=st.floats(-4.0, -1.3),  # Lambda/kappa from 0.45 up to the cap
    ratio_gap=st.floats(-3.0, -1.0),  # G+/G- from 0.9 up to the cap
    g_minus=st.floats(0.01, 0.6),
    phi=st.floats(-np.pi, np.pi),
    log_gamma=st.floats(-6.0, -2.0),
    n_c=st.floats(0.0, 1.0),
    n_m=st.floats(0.0, 100.0),
)


def _outcome(fn, *args):
    """The result of fn, or the error text a sweep row would carry."""
    try:
        return fn(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=60)
@given(st.lists(edge_models, min_size=1, max_size=4))
def test_threshold_edge_solves(models):
    assume(all(analyze(m).stable for m in models))
    w = np.stack([build_drift(m) for m in models])
    d = np.stack([build_diffusion(m) for m in models])
    stacked = solve_lyapunov(w, d)
    rows = _outcome(metric_row, stacked.sigma)
    eps = np.finfo(float).eps
    singles = []
    for i in range(len(models)):
        single = solve_lyapunov(w[i], d[i])
        assert np.array_equal(stacked.sigma[i], single.sigma)

        for oracle in (kronecker_lyapunov(w[i], d[i]),
                       solve_continuous_lyapunov(w[i], -d[i])):
            error = np.linalg.norm(single.sigma - oracle) / np.linalg.norm(oracle)
            assert error <= ORACLE_FACTOR * eps * single.condition_estimate

        assert physicality_check(single.sigma)
        singles.append(_outcome(metric_row, single.sigma))

    if isinstance(rows, dict):
        for i, row in enumerate(singles):
            assert {k: float(v[i]) for k, v in rows.items()} == row
    else:  # the stack fails exactly where one of its points fails alone
        assert rows in singles


@settings(max_examples=60)
@given(edge_models)
def test_negativity_follows_vidal_werner(m):
    """E_N where delta - sqrt(disc) cancels, against the symplectic
    eigensolve of the partially transposed blocks, and the sector kernel
    against the 8x8 ones."""
    assume(analyze(m).stable)
    solution = solve_lyapunov(build_drift(m), build_diffusion(m))
    assert_negativity_follows_vidal_werner(solution.sigma)
    assert_sector_kernel_agrees(solution.sectors)


@settings(max_examples=60)
@given(edge_models)
def test_one_point_verdict_is_the_gate_verdict(m):
    """`analyze` takes its spectral abscissa from W_+, as the sweep gate
    does, so the one-point verdict is the gate's, bit for bit, also where
    W_-'s computed abscissa is the larger one."""
    w, d = build_drift(m), build_diffusion(m)
    report = analyze(m)
    gate, _ = solve_stable(w[None], d[None], np.array([rhsc_check(m)[3]]))
    assert report.stable == gate[0]
    assert report.spectral_abscissa == sector_spectrum(split_drift(w)[0]).real.max()


@settings(max_examples=60)
@given(edge_models)
def test_sector_spectrum_matches_the_dense_and_quartic_roots(m):
    """The closed-form W_+ spectrum against a dense eigensolve of both
    sectors and the roots of the stability quartic, on the way to the
    thresholds, where roots come close to double ones."""
    w = build_drift(m)
    plus = sector_spectrum(split_drift(w)[0])
    match_eigenvalue_sets(np.repeat(plus, 2), np.linalg.eigvals(split_sectors(w)).ravel(), 1e-8)
    match_eigenvalue_sets(plus, quartic_eigenvalues(m), 1e-8)
