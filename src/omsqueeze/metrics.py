"""Squeezing and entanglement figures of merit from a covariance matrix.

Two-mode shot noise is 1 for the collective quadratures and 1/2 for a
single mode; both references are hard-coded so they cannot drift.  The
headline quadratures are the phase sum y_c1 + y_c2 for the cavities and
the position sum x_d1 + x_d2 for the mechanics, but all four collective
variances are computed and exported.

`metric_row` takes sigma in the sector form sigma_+ (+) sigma_- of the
solve: closed-form 2x2 determinants and a 4-pivot elimination per sector
replace the LU determinants and 8-pivot elimination that an 8x8 sigma
that does not split still takes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PhysicalityError
from .matrices import MODE_1, MODE_2, pair_blocks, require_symmetric, symplectic_form

TWO_MODE_SHOT_NOISE = 1.0
COHERENT_BOUND = math.log(2.0)
# sigma + (i/2) Omega may have eigenvalues down to -PHYSICALITY_TOL and
# still count as physical.
PHYSICALITY_TOL = 1e-9

PAIR_INDICES = {"cc": (0, 1, 2, 3), "mm": (4, 5, 6, 7)}

METRIC_COLUMNS = (
    "v_xc", "v_yc", "v_xd", "v_yd", "s2_c_db", "s2_m_db", "en_cc", "en_mm",
)


def _plain(x):
    """A 0-d result as a plain Python scalar; a stacked result as is."""
    return x.item() if np.ndim(x) == 0 else x


def _symmetric(sigma: np.ndarray) -> np.ndarray:
    """sigma as a float array, once found finite and symmetric."""
    sigma = np.asarray(sigma, dtype=float)
    if not np.isfinite(sigma).all():
        raise ValueError("covariance entries must be finite")
    require_symmetric(sigma)
    return sigma


def squeezing_db(variance: float) -> float:
    """Collective-quadrature squeezing in dB below the two-mode shot noise;
    +0.0, not -0.0, at the shot noise."""
    variance = np.asarray(variance, dtype=float)
    if np.any(variance <= 0):
        raise ValueError("variance must be > 0")
    return _plain(0.0 - 10.0 * np.log10(variance / TWO_MODE_SHOT_NOISE))


def _log_negativity(sigma: np.ndarray, pair: str) -> float:
    idx = np.asarray(PAIR_INDICES[pair])
    block = sigma[..., idx[:, None], idx]
    det_a = np.linalg.det(block[..., :2, :2])
    det_b = np.linalg.det(block[..., 2:, 2:])
    det_c = np.linalg.det(block[..., :2, 2:])
    return _negativity(det_a + det_b - 2.0 * det_c, np.linalg.det(block))


def _sector_negativity(sectors: np.ndarray) -> float:
    """`_log_negativity` of the pair whose 2x2 blocks of S_+, S_- are
    sectors (2, 2, 2, ...) = [P, M]: of [[A, C], [C, A]], A, C = (P +- M)/2,
    the closed forms of det A + det A - 2 det C and of det P det M."""
    p, m = sectors
    delta = p[0, 0] * m[1, 1] + p[1, 1] * m[0, 0]
    delta -= 2.0 * p[0, 1] * m[0, 1]
    det = sectors[:, 0, 0] * sectors[:, 1, 1] - sectors[:, 0, 1] * sectors[:, 1, 0]
    return _negativity(delta, det[0] * det[1])


def _negativity(delta: np.ndarray, det: np.ndarray) -> float:
    """Logarithmic negativity (vacuum variance 1/2) of a two-mode block with
    delta = det A + det B - 2 det C over its 2x2 sub-blocks [[A, C], [C^T, B]]
    and determinant det.

    Uses the smaller symplectic eigenvalue of the partially transposed
    block: nu~_-^2 is the smaller root of x^2 - delta x + det, taken as det
    over the larger one so that it does not cancel near threshold.
    Determinant arithmetic loses ~1e-12 on near-pure states, so sqrt
    arguments are clipped at zero within a 1e-9 band and flagged beyond it;
    the discriminant delta^2 - 4 det cancels to within rounding of delta^2,
    so its band is 1e-9 max(1, delta^2).  A NaN stays NaN.
    """
    # delta * delta: numpy squares a scalar by pow() but an array by multiplying
    square = delta * delta
    disc = square - 4.0 * det
    if np.any(disc < -1e-9 * np.maximum(square, 1.0)):
        raise PhysicalityError(
            f"partial-transpose discriminant negative beyond tolerance ({np.min(disc):.3e})"
        )
    # delta + root > 0 for a positive-definite block; an unphysical one keeps
    # (delta - root)/2 so that the check below still flags it
    root = np.sqrt(np.maximum(disc, 0.0))
    plus = delta + root
    inner = np.divide(2.0 * det, plus, out=np.asarray((delta - root) / 2.0), where=plus > 0.0)
    if np.any(inner < -1e-9):
        raise PhysicalityError(
            f"squared symplectic eigenvalue negative beyond tolerance ({np.min(inner):.3e})"
        )
    nu = np.sqrt(np.maximum(inner, 0.0))
    if np.any(nu == 0.0):
        raise ValueError("math domain error")  # log(0), worded as math.log words it
    e_n = -np.log(2.0 * nu)
    return _plain(np.where(e_n <= 0.0, 0.0, e_n))


def _positive_pivots(sigma: np.ndarray) -> np.ndarray:
    """For each matrix sigma[:, :, ...] of a stack (n, n, ...), whether all n
    pivots of an LDL^H elimination of sigma + (i/2) Omega + PHYSICALITY_TOL I
    are > 0: "smallest eigenvalue >= -PHYSICALITY_TOL" except at exact
    equality, which counts as unphysical.  The stack is laid out last, so
    each step is one pass."""
    n = len(sigma)
    form = 0.5j * symplectic_form(n // 2) + PHYSICALITY_TOL * np.eye(n)
    h = np.add(sigma, form.reshape(n, n, *(1,) * (sigma.ndim - 2)), order="C")
    positive = np.ones(h.shape[2:], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: a pivot of -inf or NaN
        for _ in range(n):
            pivot = h[0, 0].real
            positive &= pivot > 0.0
            scale = np.where(positive, pivot, 1.0)  # never divide by a pivot <= 0
            h = h[1:, 1:] - h[1:, :1] * (h[:1, 1:] / scale)
    return positive


def metric_row(sigma: np.ndarray) -> dict[str, float]:
    """The canonical export row: all collective variances, headline dBs,
    both log negativities, and the physicality flag (1.0/0.0).  sigma is an
    8x8 matrix or its sectors (..., 2, 4, 4); a stack gives one array per
    column.  A failing check, or a value that is not finite, raises anywhere.

    A sigma that splits, in either form (a stack of 8x8 matrices only if
    all do), is evaluated from its pair blocks A, B (`matrices.pair_blocks`),
    so both forms give the same bits: each variance is A_ii + A_ii + 2 B_ii,
    the rest comes from S_+- = A +- B.  Other 8x8 sigmas take the 8x8 kernels.
    """
    sigma = _symmetric(sigma)
    try:  # matrix axes first, the stack last: elementwise steps run over the stack
        blocks = np.moveaxis(pair_blocks(sigma), (-3, -2, -1), (0, 1, 2))
    except ValueError:  # an 8x8 sigma that does not split
        s = np.moveaxis(sigma, (-2, -1), (0, 1))
        return _row(
            s[MODE_1, MODE_1] + s[MODE_2, MODE_2] + 2 * s[MODE_1, MODE_2],
            lambda pair: _log_negativity(sigma, pair),
            lambda: _positive_pivots(s),
        )
    diagonals = blocks[:, range(4), range(4)]  # (2, 4, ...): of A and of B
    sectors = np.stack([blocks[0] + blocks[1], blocks[0] - blocks[1]])
    pairs = {"cc": sectors[:, :2, :2], "mm": sectors[:, 2:, 2:]}
    return _row(
        (diagonals[0] + diagonals[0]) + 2 * diagonals[1],
        lambda pair: _sector_negativity(pairs[pair]),
        lambda: _positive_pivots(np.moveaxis(sectors, 0, -1)).all(axis=-1),
    )


def _row(variances: np.ndarray, negativity, physical) -> dict[str, float]:
    """The row of the variances (4, ...), then `negativity(pair)`, then `physical()`."""
    v = dict(zip(METRIC_COLUMNS, map(_plain, variances)))
    row = {
        **v,
        "s2_c_db": squeezing_db(v["v_yc"]),
        "s2_m_db": squeezing_db(v["v_xd"]),
        "en_cc": negativity("cc"),
        "en_mm": negativity("mm"),
        "physical": _plain(np.where(physical(), 1.0, 0.0)),
    }
    finite = np.isfinite(np.array(list(row.values()))).reshape(len(row), -1).all(axis=-1)
    if not finite.all():
        raise OverflowError(f"{list(row)[np.argmin(finite)]} is not finite")
    return row
