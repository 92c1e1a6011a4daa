"""Dense linear-algebra kernels used by the recovery and certification code.

Matrices are plain 2-d ``numpy`` arrays (row-major, real, finite), vectors
are 1-d arrays.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np

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


def columns_submatrix(phi: np.ndarray, t: SupportSet) -> np.ndarray:
    """Submatrix of the columns of ``phi`` indexed by ``t``, in ascending order."""
    phi = as_matrix(phi)
    _check_columns(phi, t)
    return phi[:, t.as_array()]


def _check_columns(phi: np.ndarray, t: SupportSet) -> None:
    if len(t) and t.indices[-1] >= phi.shape[1]:
        raise ValueError(
            f"column index {t.indices[-1]} out of range for matrix with {phi.shape[1]} columns"
        )


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
    # phi is checked above; columns_submatrix would check it again.
    _check_columns(phi, t)
    idx = t.as_array()
    q, r = np.linalg.qr(phi[:, idx], mode="reduced")
    diag = np.abs(np.diag(r))
    if diag.max() == 0.0 or diag.min() < RANK_TOLERANCE * diag.max():
        raise SingularSupportError(t)
    z[idx] = np.linalg.solve(r, q.T @ y)
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
