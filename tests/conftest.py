import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from omsqueeze import ModelParams, analyze, appendix_c_params, derive_model

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

PAPER_GAMMA_K = 6.67e-6
PAPER_N_M = 57.38093736602090
PAPER_N_C = 1.034917672599024e-13


def model(
    G_minus=0.0,
    G_plus=0.0,
    lambda_pa=0.0,
    phi=0.0,
    gamma=PAPER_GAMMA_K,
    n_c=PAPER_N_C,
    n_m=PAPER_N_M,
) -> ModelParams:
    """Dimensionless model point with the reference bath occupations."""
    return ModelParams(
        G_minus=G_minus, G_plus=G_plus, lambda_pa=lambda_pa, phi=phi,
        gamma=gamma, n_c=n_c, n_m=n_m,
    )


def random_models(count, seed, *, stable=None, max_tries=20000):
    """Random model draws in the reference box; optionally filtered by verdict."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(max_tries):
        if len(out) >= count:
            break
        g_minus, g_plus, lam = rng.uniform(0.0, 0.6, 3)
        m = model(
            G_minus=g_minus,
            G_plus=g_plus,
            lambda_pa=lam,
            phi=rng.uniform(-np.pi, np.pi),
            gamma=10.0 ** rng.uniform(-6, -2),
            n_c=rng.uniform(0.0, 1.0),
            n_m=rng.uniform(0.0, 100.0),
        )
        if stable is None:
            out.append(m)
            continue
        report = analyze(m)
        if report.stable == stable:
            out.append((m, report))
    assert len(out) >= count, "random draw budget exhausted"
    return out


def match_eigenvalue_sets(a, b, tol):
    """Greedy assignment between two complex multisets; returns worst distance.

    Element-wise comparison after sorting is unstable when real parts nearly
    tie, so match each value to its nearest unused partner instead.
    """
    a = list(a)
    b = list(b)
    assert len(a) == len(b)
    worst = 0.0
    for x in a:
        j = min(range(len(b)), key=lambda i: abs(b[i] - x))
        worst = max(worst, abs(b[j] - x))
        b.pop(j)
    assert worst <= tol, f"eigenvalue multisets differ by {worst:.3e} > {tol:.0e}"
    return worst


@pytest.fixture(scope="session")
def appendix_c_model():
    return derive_model(appendix_c_params())
