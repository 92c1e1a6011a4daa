"""Dense linear-algebra kernels used by the recovery and certification code.

Matrices are plain 2-d ``numpy`` arrays (row-major, real, finite), vectors
are 1-d arrays.  Everything here is a pure function of its inputs.

``least_squares_on_support`` calls the LAPACK gufuncs that
``np.linalg.qr(mode="reduced")`` and ``np.linalg.solve`` wrap: ``qr_r_raw``
(geqrf, in place) and ``qr_reduced`` (orgqr) on the column block, R cut as
``np.triu`` cuts it, then ``solve1`` (gesv).  The wrappers only check,
copy and convert arrays that here are already float64 and a fresh copy, so
the same gufuncs on the same arrays in the same order give the same bits
(a test pins them).  ``numpy.linalg._umath_linalg`` is private, and
``qr_r_raw`` needs numpy >= 2.1, the floor ``pyproject.toml`` declares; the
three gufuncs are bound at import, so an older numpy fails there.

Every number a public function takes is checked once, where it enters:
counts, seeds and budgets by ``check_integer``, real parameters (noise
levels, thresholds, isometry constants) by ``check_real``.  Neither accepts
a bool or a string, and ``check_real`` accepts no NaN or infinity.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np
from numpy.linalg._umath_linalg import qr_r_raw, qr_reduced, solve1

from .supports import SupportSet

# Relative threshold below which a triangular factor diagonal is treated as
# a rank deficiency.  Double precision leaves ~4 orders of margin above eps.
RANK_TOLERANCE = 1e-12

# Allowed relative asymmetry when a matrix is claimed symmetric.
SYMMETRY_TOLERANCE = 1e-12


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
    """Validate and return ``a`` as a finite 2-d C-contiguous float array, a
    copy only if ``a`` is not one: BLAS rounds other layouts differently."""
    m = np.asarray(a, dtype=float, order="C")
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(a) -> np.ndarray:
    """Validate and return ``a`` as a finite 1-d contiguous float array."""
    v = np.asarray(a, dtype=float, order="C")
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def check_integer(value, name: str, low: int | None = None, high: int | None = None) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer, neither a bool nor
    a float, in [low, high] (open where None; ``high`` needs ``low``).  Only
    ``isinstance`` tests and comparisons: every top-k selection calls it.
    ``int`` is tested before the ``Integral`` ABC, which costs 10-20x more."""
    at_least = f" >= {low}" if high is None and low is not None else ""
    integer = isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool)
    if not integer or (at_least and value < low):
        raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name}={value} out of range [{low}, {high}]")


def check_real(value, name: str, low: float | None = None, high: float | None = None) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite real number, neither
    a bool nor a string, in [low, high] (open where None; ``high`` needs
    ``low``).  An open end, such as delta < 1, is passed as the nearest
    float inside it."""
    if not isinstance(value, (float, int, numbers.Real)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    # NaN fails every comparison, so the second test rejects it.
    in_range = (low is None or value >= low) and (high is None or value <= high)
    if not (in_range and -math.inf < value < math.inf):
        bounds = "" if low is None else f" and >= {low}" if high is None else f" and in [{low}, {high}]"
        raise ValueError(f"{name} must be finite{bounds}, got {value!r}")


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
    with np.errstate(**_QR_ERRORS):
        q = qr_reduced(block, qr_r_raw(block, signature="d->d"), signature="dd->d")
    r = np.where(_below_diagonal(len(t)), 0.0, block[: len(t)])
    diag = np.abs(r.diagonal())
    largest = diag.max()
    if largest == 0.0 or diag.min() < RANK_TOLERANCE * largest:
        raise SingularSupportError(t)
    with np.errstate(**_SOLVE_ERRORS):
        z[idx] = solve1(r, q.T @ y, signature="dd->d")
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
