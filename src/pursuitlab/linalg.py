"""Dense linear-algebra kernels used by the recovery and certification code.

Matrices are plain 2-d ``numpy`` arrays (row-major, real, finite), vectors
are 1-d arrays.  Everything here is a pure function of its inputs.

``least_squares_on_support`` calls the LAPACK gufuncs that
``np.linalg.qr(mode="reduced")`` and ``np.linalg.solve`` wrap: ``qr_r_raw``
(geqrf, in place) and ``qr_reduced`` (orgqr) on the column block, R cut as
``np.triu`` cuts it, then ``solve1`` (gesv).  The wrappers only check,
copy and convert arrays that here are already float64 and a fresh copy, so
the same gufuncs on the same arrays in the same order give the same bits
(a test pins them).  ``numpy.linalg._umath_linalg`` is private: on a numpy
without ``qr_r_raw`` the kernel calls the wrappers.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.linalg import _umath_linalg

from .supports import SupportSet

# Relative threshold below which a triangular factor diagonal is treated as
# a rank deficiency.  Double precision leaves ~4 orders of margin above eps.
RANK_TOLERANCE = 1e-12

# Allowed relative asymmetry when a matrix is claimed symmetric.
SYMMETRY_TOLERANCE = 1e-12

# None on a numpy whose QR gufuncs have other names (see the module docstring).
_QR_R_RAW = getattr(_umath_linalg, "qr_r_raw", None)


class SingularSupportError(ValueError):
    """Least-squares column block is rank deficient on the given support."""

    def __init__(self, support: SupportSet, iteration: int | None = None):
        self.support = support
        self.iteration = iteration
        where = f" at iteration {iteration}" if iteration is not None else ""
        super().__init__(
            f"columns {support.indices} are rank deficient{where}; "
            "the measurement matrix does not satisfy the full-rank precondition"
        )


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a finite 2-d float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(a) -> np.ndarray:
    """Validate and return ``a`` as a finite 1-d float array."""
    v = np.asarray(a, dtype=float)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def _raising(message: str) -> dict:
    """``np.errstate`` settings under which a failed gufunc raises ``LinAlgError(message)``."""

    def fail(err, flag):
        raise np.linalg.LinAlgError(message)

    return {"call": fail, "invalid": "call", "over": "ignore", "divide": "ignore", "under": "ignore"}


_QR_ERRORS = _raising("Incorrect argument found while performing QR factorization")
_SOLVE_ERRORS = _raising("Singular matrix")


@functools.lru_cache(maxsize=128)
def _below_diagonal(k: int) -> np.ndarray:
    """``np.triu``'s mask for a k x k block: True strictly below the diagonal."""
    mask = np.tri(k, k, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def least_squares_on_support(phi: np.ndarray, y: np.ndarray, t: SupportSet) -> np.ndarray:
    """Minimize ||y - phi z||_2 over vectors z supported on ``t``.

    Solved through a QR factorization of the column block (never the normal
    equations, whose conditioning squares the block's condition number).
    Entries outside ``t`` are exactly zero.

    Raises:
        SingularSupportError: the column block is rank deficient, i.e. the
            smallest diagonal of the triangular factor falls below
            ``RANK_TOLERANCE`` times the largest.
    """
    phi = as_matrix(phi)
    y = as_vector(y)
    if y.shape[0] != phi.shape[0]:
        raise ValueError(f"measurement length {y.shape[0]} != matrix rows {phi.shape[0]}")
    z = np.zeros(phi.shape[1])
    if len(t) == 0:
        return z
    if len(t) > phi.shape[0]:
        raise SingularSupportError(t)
    if t.indices[-1] >= phi.shape[1]:
        raise ValueError(
            f"column index {t.indices[-1]} out of range for matrix with {phi.shape[1]} columns"
        )
    idx = t.as_array()
    block = phi[:, idx]  # a copy, which the gufuncs factor in place
    if _QR_R_RAW is None:
        q, r = np.linalg.qr(block, mode="reduced")
    else:
        with np.errstate(**_QR_ERRORS):
            q = _umath_linalg.qr_reduced(block, _QR_R_RAW(block, signature="d->d"), signature="dd->d")
        r = np.where(_below_diagonal(len(t)), 0.0, block[: len(t)])
    diag = np.abs(r.diagonal())
    largest = diag.max()
    if largest == 0.0 or diag.min() < RANK_TOLERANCE * largest:
        raise SingularSupportError(t)
    if _QR_R_RAW is None:
        z[idx] = np.linalg.solve(r, q.T @ y)
    else:
        with np.errstate(**_SOLVE_ERRORS):
            z[idx] = _umath_linalg.solve1(r, q.T @ y, signature="dd->d")
    return z


def spectral_norm_symmetric(g: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix.

    Uses a dedicated symmetric eigensolver; accuracy is machine precision,
    well inside the 1e-10 relative target the certification code relies on.
    """
    g = as_matrix(g)
    if g.shape[0] != g.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {g.shape}")
    scale = np.abs(g).max()
    if scale > 0 and np.abs(g - g.T).max() > SYMMETRY_TOLERANCE * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    sym = 0.5 * (g + g.T)
    return float(np.abs(np.linalg.eigvalsh(sym)).max())
