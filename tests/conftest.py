import math
import time
from dataclasses import dataclass
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from omsqueeze import (
    ModelParams,
    analyze,
    appendix_c_params,
    derive_model,
    figure_preset,
    metric_row,
    rhsc_coefficients,
    run_sweep,
    symplectic_form,
)
from omsqueeze.matrices import MODE_1, MODE_2, QUADRATURES, join_sectors, require_symmetric
from omsqueeze.metrics import (
    PAIR_INDICES,
    _log_negativity,
    _plain,
    _positive_pivots,
    _symmetric,
    squeezing_db,
)

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
THREE_DB = 3.0103  # -10 log10(1/2), the conventional squeezing threshold
# Solver against an oracle (the Kronecker solve, Bartels-Stewart): relative
# Frobenius error within this many machine epsilons per unit of
# `condition_estimate`.
ORACLE_FACTOR = 1e3


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


def exchange_symmetric(a, b):
    """The 8x8 matrix with pair blocks [[A, B], [B, A]] over MODE_1, MODE_2."""
    x = np.zeros((8, 8))
    x[np.ix_(MODE_1, MODE_1)] = x[np.ix_(MODE_2, MODE_2)] = a
    x[np.ix_(MODE_1, MODE_2)] = x[np.ix_(MODE_2, MODE_1)] = b
    return x


def quartic_eigenvalues(m):
    """Roots of the stability quartic via its 4x4 companion matrix, sorted by
    (Re, Im): a third eigenvalue route, kept as an oracle for the sector
    spectrum.  Complex roots of the real quartic must come in conjugate
    pairs to 1e-10."""
    s1, s2, s3, s4 = rhsc_coefficients(m).as_tuple()
    companion = np.array(
        [
            [0.0, 0.0, 0.0, -s4],
            [1.0, 0.0, 0.0, -s3],
            [0.0, 1.0, 0.0, -s2],
            [0.0, 0.0, 1.0, -s1],
        ]
    )
    roots = np.linalg.eigvals(companion)
    _enforce_conjugate_pairing(roots, tol=1e-10)
    return np.sort(roots, kind="stable")


def _enforce_conjugate_pairing(roots, tol):
    unmatched = [r for r in roots if r.imag > tol]
    pool = [r for r in roots if r.imag < -tol]
    for r in unmatched:
        best = min(pool, key=lambda q: abs(q - r.conjugate()))
        if abs(best - r.conjugate()) > tol:
            raise np.linalg.LinAlgError(
                "complex roots of a real quartic failed conjugate pairing"
            )
        pool.remove(best)


def kronecker_lyapunov(w, d):
    """W sigma + sigma W^T = -D as one n^2 x n^2 system I (x) W + W (x) I
    (row-major vec), symmetrized: the direct 64x64 solve, kept as an oracle."""
    n = w.shape[-1]
    eye = np.eye(n)
    vec = np.linalg.solve(np.kron(eye, w) + np.kron(w, eye), -d.reshape(n * n))
    sigma = vec.reshape(n, n)
    return (sigma + sigma.T) / 2.0


def cm_derivative(w, d, sigma):
    """Right-hand side W sigma + sigma W^T + D of the covariance ODE in
    matrix form; `vec_operator` applies the same map to sigma.ravel()."""
    return w @ sigma + sigma @ w.T + d


def vec_operator(w):
    """L = W (x) I + I (x) W: L @ sigma.ravel() = (W sigma + sigma W^T).ravel().
    The Kronecker route, the oracle for `matrices.lyapunov_operator`."""
    eye = np.eye(w.shape[0])
    return np.kron(w, eye) + np.kron(eye, w)


# Dormand-Prince 5(4) tableau (autonomous right-hand side, so no stage
# times).  Row i of DP5_A weighs the stages k_0..k_i for stage i + 1; the
# last row is b5, so the last stage argument is the 5th-order solution and
# k_6 enters only the error row DP5_E = b5 - b4.
DP5_A = (
    (F(1, 5),),
    (F(3, 40), F(9, 40)),
    (F(44, 45), F(-56, 15), F(32, 9)),
    (F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)),
    (F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)),
    (F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)),
)
DP5_E = (F(71, 57600), F(0), F(-71, 16695), F(71, 1920), F(-17253, 339200),
         F(22, 525), F(-1, 40))


def dp5_stage_step(w, d, sigma, h):
    """One DP5(4) trial step of the covariance ODE from sigma, stage by
    stage on vec sigma with `vec_operator`: an integrator independent of
    the exact steps, for checking them.  Returns the 5th-order sigma and
    the error estimate, both n x n."""
    op, d_vec, y = vec_operator(w), d.ravel(), sigma.ravel()
    k = [op @ y + d_vec]
    for row in DP5_A:
        y_new = y + h * sum(float(a) * k_i for a, k_i in zip(row, k))
        k.append(op @ y_new + d_vec)
    err = h * sum(float(e) * k_i for e, k_i in zip(DP5_E, k))
    return y_new.reshape(sigma.shape), err.reshape(sigma.shape)


def lyapunov_residual(w, d, sigma):
    """||W sigma + sigma W^T + D||_F / ||D||_F of an 8x8 candidate steady
    state, in the 8x8 basis: an oracle for the solver's per-sector residual."""
    return np.linalg.norm(cm_derivative(w, d, sigma)) / np.linalg.norm(d)


def kronecker_sector_operator(sectors):
    """I (x) W_s + W_s (x) I for each sector of a (..., 2, 4, 4) stack: the
    Lyapunov operator on the row-major vec of a general sigma_s, as
    (..., 2, 16, 16), built term by term; an oracle for the 10x10 operator
    on symmetric sigma_s that the solver uses."""
    op = np.zeros((*sectors.shape[:-2], 4, 4, 4, 4))  # indexed [..., p, a, q, b]
    for k in range(4):
        op[..., k, :, k, :] += sectors
        op[..., :, k, :, k] += sectors
    return op.reshape(*sectors.shape[:-2], 16, 16)


def log_negativity(sigma, pair):
    """E_N of one pair ("cc" or "mm") of an 8x8 sigma by `metric_row`'s 8x8
    kernel, whatever the other pair."""
    return _log_negativity(_symmetric(sigma), pair)


def physicality_check(sigma):
    """`metric_row`'s 8x8 physicality kernel: True iff sigma + (i/2) Omega is
    positive semidefinite within `metrics.PHYSICALITY_TOL` (a bool array for
    a stack)."""
    return _plain(_positive_pivots(np.moveaxis(_symmetric(sigma), (-2, -1), (0, 1))))


def vidal_werner_negativity(sigma, pair):
    """E_N = sum over nu~ < 1/2 of -log(2 nu~) (Vidal-Werner, PRA 65, 032314)
    and the nu~: the symplectic eigenvalues of the partially transposed
    two-mode block, from a numerical eigensolve of i Omega sigma~ (whose
    eigenvalues are +-nu~)."""
    idx = list(PAIR_INDICES[pair])
    block = np.asarray(sigma)[np.ix_(idx, idx)]
    flip = np.diag([1.0, 1.0, 1.0, -1.0])  # transpose mode 2: p -> -p
    values = np.linalg.eigvals(1j * symplectic_form(2) @ (flip @ block @ flip)).real
    nu = np.sort(values)[2:]  # the two positive ones
    return float(sum(-math.log(2.0 * v) for v in nu if v < 0.5)), nu


def assert_negativity_follows_vidal_werner(sigma):
    """`log_negativity` (determinant formula) and `metric_row` (its closed
    form on the sectors, for a sigma that splits) against the eigensolve
    above, for both pairs.  The formula's nu~^2 cancels to an absolute error
    of about eps |block|^2, so E_N agrees within a few eps |block|^2 / nu~^2."""
    eps = np.finfo(float).eps
    row = metric_row(sigma)
    for pair, idx in PAIR_INDICES.items():
        expected, nu = vidal_werner_negativity(sigma, pair)
        block = np.asarray(sigma)[np.ix_(idx, idx)]
        bound = 10.0 * eps * (np.linalg.norm(block) / nu.min()) ** 2
        assert abs(log_negativity(sigma, pair) - expected) <= bound, pair
        assert abs(row[f"en_{pair}"] - expected) <= bound, pair


def full_kernel_row(sigma):
    """`metric_row` of one 8x8 sigma by the 8x8 kernels, which evaluate a
    stack that does not split: sigma stacked with a companion that does not."""
    lopsided = 0.5 * np.eye(8)
    lopsided[0, 0] = 0.6  # pair 1 differs from pair 2
    return {name: v[0].item() for name, v in metric_row(np.stack([sigma, lopsided])).items()}


def assert_sector_kernel_agrees(sectors):
    """`metric_row` of a physical sector pair (2, 4, 4) against the 8x8
    kernels on the joined sigma: bit for bit but for the log negativities,
    which agree within 1e-11 relative.  The joined sigma splits, so its own
    `metric_row` is the sectors' row exactly."""
    row = metric_row(sectors)
    sigma = join_sectors(sectors)
    assert metric_row(sigma) == row
    full = full_kernel_row(sigma)
    for name in ("en_cc", "en_mm"):
        assert row.pop(name) == pytest.approx(full.pop(name), rel=1e-11, abs=1e-14), name
    assert row == full
    assert row["physical"] == 1.0


@dataclass(frozen=True)
class SqueezingResult:
    quadrature: str  # x_c, y_c, x_d or y_d
    variance: float
    db: float
    beats_3db: bool


def squeezing_result(quadrature: str, variance: float) -> SqueezingResult:
    db = squeezing_db(variance)
    return SqueezingResult(
        quadrature=quadrature, variance=variance, db=db, beats_3db=db > THREE_DB
    )


def collective_variances(sigma):
    """The four collective variances of `metric_row`, as attributes."""
    row = metric_row(sigma)
    return SimpleNamespace(**{name: row[name] for name in ("v_xc", "v_yc", "v_xd", "v_yd")})


def single_mode_variances(sigma):
    """Diagonal variances labeled by quadrature; < 1/2 means squeezed."""
    sigma = np.asarray(sigma, dtype=float)
    require_symmetric(sigma)
    return {label: float(sigma[i, i]) for i, label in enumerate(QUADRATURES)}


def nu_tilde_minus(sigma, pair):
    """The smaller symplectic eigenvalue of the partially transposed
    two-mode block, by the determinant form of `log_negativity`: nu~_-^2 is
    the smaller root of x^2 - delta x + det, taken as det over the larger."""
    idx = list(PAIR_INDICES[pair])
    block = np.asarray(sigma)[np.ix_(idx, idx)]
    det = np.linalg.det
    delta = det(block[:2, :2]) + det(block[2:, 2:]) - 2.0 * det(block[:2, 2:])
    root = math.sqrt(max(delta * delta - 4.0 * det(block), 0.0))
    return math.sqrt(2.0 * det(block) / (delta + root))


def min_physicality_eigenvalue(sigma):
    """Smallest eigenvalue of sigma + (i/2) Omega (one per matrix of a
    stack), from a complex Hermitian eigensolve: the oracle for
    `physicality_check`, which is "this >= -tol" except at exact equality."""
    return np.linalg.eigvalsh(np.asarray(sigma) + 0.5j * symplectic_form())[..., 0]


@pytest.fixture(scope="session")
def appendix_c_model():
    return derive_model(appendix_c_params())


@pytest.fixture(scope="session")
def figure_results():
    """run_sweep of every grid figure preset, shared by the acceptance pins,
    the preset physics checks and the figure fingerprint."""
    from golden_figures import GRID_NAMES

    out = {}
    for name in GRID_NAMES:
        start = time.perf_counter()
        out[name] = run_sweep(figure_preset(name))
        assert time.perf_counter() - start < 120.0  # nominal: well under a minute
    return out
