"""Squeezing and entanglement figures of merit from a covariance matrix.

Two-mode shot noise is 1 for the collective quadratures and 1/2 for a
single mode; both references are hard-coded so they cannot drift.  The
headline quadratures are the phase sum y_c1 + y_c2 for the cavities and
the position sum x_d1 + x_d2 for the mechanics, but all four collective
variances are computed and exported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicalityError
from .matrices import QUADRATURES, require_symmetric, symplectic_form

TWO_MODE_SHOT_NOISE = 1.0
COHERENT_BOUND = math.log(2.0)

PAIR_INDICES = {"cc": (0, 1, 2, 3), "mm": (4, 5, 6, 7)}

METRIC_COLUMNS = (
    "v_xc", "v_yc", "v_xd", "v_yd", "s2_c_db", "s2_m_db", "en_cc", "en_mm",
)


@dataclass(frozen=True)
class CollectiveVariances:
    v_xc: float
    v_yc: float
    v_xd: float
    v_yd: float


@dataclass(frozen=True)
class NegativityResult:
    pair: str  # cc (cavity modes) or mm (mechanical modes)
    nu_tilde_minus: float
    e_n: float


def _plain(x):
    """A 0-d result as a plain Python scalar; a stacked result as is."""
    return x.item() if np.ndim(x) == 0 else x


def _symmetric(sigma: np.ndarray) -> np.ndarray:
    """sigma as a float array, once `require_symmetric` has passed it."""
    sigma = np.asarray(sigma, dtype=float)
    require_symmetric(sigma)
    return sigma


def collective_variances(sigma: np.ndarray) -> CollectiveVariances:
    """Variances of the four collective (sum) quadratures."""
    return CollectiveVariances(**_collective_variances(_symmetric(sigma)))


def _collective_variances(sigma: np.ndarray) -> dict[str, float]:
    return {
        "v_xc": _plain(sigma[..., 0, 0] + sigma[..., 2, 2] + 2 * sigma[..., 0, 2]),
        "v_yc": _plain(sigma[..., 1, 1] + sigma[..., 3, 3] + 2 * sigma[..., 1, 3]),
        "v_xd": _plain(sigma[..., 4, 4] + sigma[..., 6, 6] + 2 * sigma[..., 4, 6]),
        "v_yd": _plain(sigma[..., 5, 5] + sigma[..., 7, 7] + 2 * sigma[..., 5, 7]),
    }


def squeezing_db(variance: float) -> float:
    """Collective-quadrature squeezing in dB below the two-mode shot noise."""
    variance = np.asarray(variance, dtype=float)
    if np.any(variance <= 0):
        raise ValueError("variance must be > 0")
    return _plain(-10.0 * np.log10(variance / TWO_MODE_SHOT_NOISE))


def single_mode_variances(sigma: np.ndarray) -> dict[str, float]:
    """Diagonal variances labeled by quadrature; < 1/2 means squeezed."""
    sigma = _symmetric(sigma)
    return {label: float(sigma[i, i]) for i, label in enumerate(QUADRATURES)}


def log_negativity(sigma: np.ndarray, pair: str) -> NegativityResult:
    """Logarithmic negativity of one two-mode block (vacuum variance 1/2).

    Uses the smaller symplectic eigenvalue of the partially transposed
    block, from the determinant form of the 2x2 sub-blocks: nu~_-^2 is the
    smaller root of x^2 - delta x + det, taken as det over the larger one
    so that it does not cancel near threshold.  Determinant
    arithmetic loses ~1e-12 on near-pure states, so sqrt arguments are
    clipped at zero within a 1e-9 band and flagged beyond it; the
    discriminant delta^2 - 4 det cancels to within rounding of delta^2,
    so its band is 1e-9 max(1, delta^2).
    """
    if pair not in PAIR_INDICES:
        raise ValueError(f"pair must be one of {sorted(PAIR_INDICES)}")
    return _log_negativity(_symmetric(sigma), pair)


def _log_negativity(sigma: np.ndarray, pair: str) -> NegativityResult:
    idx = np.asarray(PAIR_INDICES[pair])
    block = sigma[..., idx[:, None], idx]

    det_a = np.linalg.det(block[..., :2, :2])
    det_b = np.linalg.det(block[..., 2:, 2:])
    det_c = np.linalg.det(block[..., :2, 2:])
    det_all = np.linalg.det(block)
    delta = det_a + det_b - 2.0 * det_c

    # delta * delta: numpy squares a scalar by pow() but an array by multiplying
    square = delta * delta
    disc = square - 4.0 * det_all
    if np.any(disc < -1e-9 * np.maximum(square, 1.0)):
        raise PhysicalityError(
            f"partial-transpose discriminant negative beyond tolerance ({np.min(disc):.3e})"
        )
    # delta + root > 0 for a positive-definite block; an unphysical one keeps
    # (delta - root)/2 so that the check below still flags it
    root = np.sqrt(np.maximum(disc, 0.0))
    plus = delta + root
    inner = np.divide(2.0 * det_all, plus, out=np.asarray((delta - root) / 2.0), where=plus > 0.0)
    if np.any(inner < -1e-9):
        raise PhysicalityError(
            f"squared symplectic eigenvalue negative beyond tolerance ({np.min(inner):.3e})"
        )
    nu = np.sqrt(np.maximum(inner, 0.0))
    if np.any(nu == 0.0):
        raise ValueError("math domain error")  # log(0), worded as math.log words it
    e_n = -np.log(2.0 * nu)
    return NegativityResult(
        pair=pair, nu_tilde_minus=_plain(nu), e_n=_plain(np.where(e_n > 0.0, e_n, 0.0))
    )


def physicality_check(sigma: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff sigma + (i/2) Omega is positive semidefinite within tol:
    all eight pivots of an LDL^H elimination of sigma + (i/2) Omega + tol I,
    vectorized over a stack, are > 0.  That is "smallest eigenvalue >= -tol"
    except at exact equality, which counts as unphysical."""
    return _plain(_physical(_symmetric(sigma), tol))


def _physical(sigma: np.ndarray, tol: float) -> np.ndarray:
    h = sigma + (0.5j * symplectic_form() + tol * np.eye(8))
    physical = np.ones(h.shape[:-2], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: a pivot of -inf or NaN
        for _ in range(8):
            pivot = h[..., 0, 0].real
            physical &= pivot > 0.0
            scale = np.where(physical, pivot, 1.0)[..., None, None]  # never divide by a pivot <= 0
            h = h[..., 1:, 1:] - h[..., 1:, :1] * (h[..., :1, 1:] / scale)
    return physical


def metric_row(sigma: np.ndarray) -> dict[str, float]:
    """The canonical export row: all collective variances, headline dBs,
    both log negativities, and the physicality flag (1.0/0.0).  A stack
    (..., 8, 8) gives one array per column; a check failing anywhere raises."""
    sigma = _symmetric(sigma)
    v = _collective_variances(sigma)
    return {
        **v,
        "s2_c_db": squeezing_db(v["v_yc"]),
        "s2_m_db": squeezing_db(v["v_xd"]),
        "en_cc": _log_negativity(sigma, "cc").e_n,
        "en_mm": _log_negativity(sigma, "mm").e_n,
        "physical": _plain(np.where(_physical(sigma, 1e-9), 1.0, 0.0)),
    }
