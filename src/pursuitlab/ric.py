"""Restricted isometry constants, certified or sampled.

The order-s constant of a matrix is the largest spectral deviation of a
size-s column Gram block from the identity:

    delta_s = max over supports S, |S| = s, of  || phi_S^T phi_S - I ||_2.

``exact_ric`` certifies it over every support (restricting to |S| = s
suffices: any smaller block is a principal submatrix of a size-s block,
whose deviation dominates).  ``sampled_ric_lower_bound`` scans a random
subset of supports and therefore never exceeds the exact value.

The exhaustive scan screens supports before it solves them.  For the
symmetric deviation block A = G[S, S] - I with eigenvalues lambda_i,

    || A @ A ||_F^(1/2) = (sum_i lambda_i^4)^(1/4) >= max_i |lambda_i| = || A ||_2,

so b(S) = || A @ A ||_F^(1/2) bounds the deviation from above at the cost
of one small matrix product.  Squaring once more gives the tighter
|| A^4 ||_F^(1/4) = (sum_i lambda_i^8)^(1/8), used on the few supports the
first bound cannot exclude.  A
support whose bound, widened by a rounding slack, is below the best value
already solved cannot be the maximizer and is never handed to the
eigensolver; every other support is solved exactly as an unscreened scan
would solve it.  The screen therefore cannot change a reported value or
witness (the argument is in ``exact_ric``); it only skips work, and
``RicEstimate.blocks_evaluated`` counts the eigen-solves that remain.

Values above 1 are reported as-is: they simply mean the matrix has no
restricted isometry at that order (some block is singular or worse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ``spectral_norm_symmetric`` is not called here; it stays importable from this
# module because tracing tools wrap it at this import site.
from .linalg import as_matrix, as_vector, spectral_norm_symmetric  # noqa: F401
from .seeding import derive_seed
from .supports import SupportSet

DEFAULT_ENUMERATION_BUDGET = 10_000_000

# Supports per chunk of the exhaustive scan and per eigenvalue stack of the
# sampled bound: at most 4096, and at most 512 * 8 * 8 block entries (256 KB),
# so that a chunk's blocks stay in cache while they are bounded and solved.
_CHUNK = 4096
_CHUNK_ENTRIES = 512 * 64

# Supports of each chunk solved first, largest bound first, to raise the
# incumbent before the rest of the chunk is screened against it.
_SCREEN_TOP = 32

# The screen keeps a support when b * (1 + _SCREEN_SLACK) + _SCREEN_FLOOR is
# not below the incumbent.  The relative slack covers rounding in the bound
# and in the eigensolver (exact_ric widens it for orders beyond about 60);
# the absolute floor covers underflow in the bound's sums (see exact_ric).
_SCREEN_SLACK = 1e-9
_SCREEN_FLOOR = 1e-30

# Absolute-relative slack for the isometry sandwich test at the boundary.
SANDWICH_SLACK = 1e-12


class EnumerationBudgetError(ValueError):
    """Exhaustive certification would exceed the enumeration budget."""

    def __init__(self, needed: int, budget: int):
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"exact certification needs {needed} support evaluations, over the "
            f"budget of {budget}; use sampled_ric_lower_bound for a lower bound"
        )


@dataclass(frozen=True)
class RicEstimate:
    """A certified ('exact') or sampled ('lower-bound') constant of order s.

    ``witness`` is a support attaining ``value``; for exact mode the witness
    is the lexicographically smallest maximizer.  ``supports_examined`` is
    the number of supports the value covers: C(N, s) for exact mode, where
    every support is certified either by the screening bound or by an
    eigen-solve, and the trial count for sampled mode.
    ``blocks_evaluated`` is the number of eigen-solves actually run; it is
    kept in memory only and is not part of any output file.
    """

    s: int
    value: float
    mode: str
    witness: SupportSet
    supports_examined: int
    blocks_evaluated: int = 0

    @property
    def rip_holds(self) -> bool:
        """Whether the matrix has a restricted isometry at this order."""
        return self.value < 1.0


def _checked_gram(phi: np.ndarray) -> np.ndarray:
    """phi^T phi, rejected when it overflows.

    ``max``/``min`` propagate inf and NaN without an N x N temporary.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = phi.T @ phi
    if not (np.isfinite(gram.max()) and np.isfinite(gram.min())):
        raise ValueError(
            "the Gram matrix phi^T phi overflows (non-finite entries); rescale the matrix"
        )
    return gram


def _chunk_rows(s: int) -> int:
    """Supports per chunk or stack for blocks of order s."""
    return max(1, min(_CHUNK, _CHUNK_ENTRIES // (s * s)))


def _lexicographic_supports(n: int, s: int, rows: int):
    """Every size-s subset of range(n), in lexicographic order, as (k, s)
    ``intp`` arrays of at most ``rows`` supports.

    Support c has lexicographic rank r exactly when the reflected indices
    d_j = n - 1 - c_j (strictly decreasing) have combinatorial-number-system
    value sum_j C(d_j, s - j) = C(n, s) - 1 - r, so each chunk is decoded
    greedily from its ranks, one position at a time.
    """
    total = math.comb(n, s)
    # C(d, t) for d < n, capped at ``total`` (every remainder is below it),
    # so large orders cannot overflow int64 and each row stays sorted.
    tables = [
        np.array([min(math.comb(d, t), total) for d in range(n)], dtype=np.int64)
        for t in range(s, 0, -1)
    ]
    for start in range(0, total, rows):
        remainder = np.arange(total - 1 - start, max(total - 1 - start - rows, -1), -1)
        combos = np.empty((remainder.size, s), dtype=np.intp)
        for j, table in enumerate(tables):
            d = np.searchsorted(table, remainder, side="right") - 1
            remainder -= table[d]
            combos[:, j] = n - 1 - d
        yield combos


def exact_ric(
    phi: np.ndarray,
    s: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> RicEstimate:
    """Certify the order-s constant over every support, screening by a bound.

    Supports are visited in lexicographic chunks.  For each chunk the
    deviation blocks A = G[S, S] - I are gathered once and bounded by
    b = ||A @ A||_F^(1/2) >= ||A||_2; where b does not already screen a
    support out, it is replaced by the smaller of b and ||A^4||_F^(1/4).
    A support is screened out when b * (1 + 1e-9) + 1e-30 is below the
    incumbent, the best value solved so far.  The eigensolver runs first on
    the kept supports among the chunk's 32 largest bounds, which raises the
    incumbent, then on the kept supports among the rest.  Screened-out supports get -inf, never NaN.  The chunk's
    first-index argmax then replaces the running maximum on strict
    improvement only, so among exactly tied maximizers the reported witness
    is the lexicographically smallest.

    Value and witness equal those of an unscreened scan, bit for bit:

    * The incumbent is always a solved value, so it never exceeds the final
      maximum M, and a screened-out support has a widened bound below M.
      The computed bound of a support with solved value M is not below M:
      its exact bound dominates its exact norm, and the relative slack
      exceeds the rounding in the products and sums of squares (at most
      about s^3 eps relative) plus the eigensolver's backward error (about
      s eps ||A||_2).  Those sums scale as ||A||_2^4 and ||A||_2^8, so they
      stay in the normal range while ||A||_2 is above about 1e-38; the
      absolute floor keeps every support when M is below 1e-30.  An
      overflowing product gives an infinite or NaN bound: the screen keeps
      NaN, and ``fmin`` falls back from an infinite or NaN refinement to b.
    * So every maximizer is solved, by the same ``eigvalsh`` on the same
      block, and a batched ``eigvalsh`` solves each matrix on its own, so
      its value is bitwise the unscreened one.  Supports screened out hold
      -inf < M and cannot win an argmax.
    * First-index argmax within a chunk plus strict improvement across
      chunks then return the lexicographically smallest maximizer, exactly
      as the unscreened scan does.

    Every support is certified, by the bound or by an eigen-solve, so
    ``supports_examined`` is C(N, s); ``blocks_evaluated`` counts the
    eigen-solves.

    Raises:
        EnumerationBudgetError: C(N, s) exceeds ``budget``.
        ValueError: ``s`` is out of range, or phi^T phi overflows.
    """
    phi = as_matrix(phi)
    n = phi.shape[1]
    if not (1 <= s <= n):
        raise ValueError(f"order s={s} out of range for {n} columns")
    total = math.comb(n, s)
    if total > budget:
        raise EnumerationBudgetError(total, budget)

    flat_gram = _checked_gram(phi).ravel()
    eye = np.eye(s)
    best = -np.inf
    witness: tuple[int, ...] = tuple(range(s))
    evaluated = 0
    widen = 1.0 + _SCREEN_SLACK + 16 * s**3 * np.finfo(float).eps
    for combos in _lexicographic_supports(n, s, _chunk_rows(s)):
        blocks = np.take(flat_gram, combos[:, :, None] * n + combos[:, None, :])
        blocks -= eye
        with np.errstate(over="ignore", invalid="ignore"):
            squares = blocks @ blocks
            bounds = np.sqrt(np.sqrt(np.einsum("kij,kij->k", squares, squares)))
            near = ~(bounds * widen + _SCREEN_FLOOR < best)
            fourth = squares[near] @ squares[near]
            bounds[near] = np.fmin(bounds[near], np.einsum("kij,kij->k", fourth, fourth) ** 0.125)
        values = np.full(len(combos), -np.inf)
        incumbent = best
        order = np.argsort(-bounds)
        for idx in (order[:_SCREEN_TOP], order[_SCREEN_TOP:]):
            idx = idx[~(bounds[idx] * widen + _SCREEN_FLOOR < incumbent)]
            if idx.size:
                values[idx] = np.abs(np.linalg.eigvalsh(blocks[idx])).max(axis=1)
                incumbent = max(incumbent, values[idx].max())
                evaluated += idx.size
        i = int(np.argmax(values))
        if values[i] > best:
            best = float(values[i])
            witness = tuple(int(j) for j in combos[i])
    return RicEstimate(
        s=s,
        value=best,
        mode="exact",
        witness=SupportSet(witness, n),
        supports_examined=total,
        blocks_evaluated=evaluated,
    )


def sampled_ric_lower_bound(
    phi: np.ndarray,
    s: int,
    trials: int,
    seed: int,
) -> RicEstimate:
    """Lower-bound the order-s constant from ``trials`` random supports.

    Each trial draws its support from a sub-seed derived from
    (seed, trial index), so results do not depend on evaluation order.
    Blocks are symmetrised as 0.5 * (B + B^T) and solved in stacks; the
    maximum is updated on strict improvement only, so the witness is the
    first trial attaining the value.

    Raises:
        ValueError: ``s`` or ``trials`` is out of range, or phi^T phi
            overflows.
    """
    phi = as_matrix(phi)
    n = phi.shape[1]
    if not (1 <= s <= n):
        raise ValueError(f"order s={s} out of range for {n} columns")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    gram = _checked_gram(phi)
    eye = np.eye(s)
    best = -np.inf
    witness: tuple[int, ...] = tuple(range(s))
    rows = _chunk_rows(s)
    for start in range(0, trials, rows):
        supports = np.array(
            [_sampled_support(n, s, seed, trial) for trial in range(start, min(start + rows, trials))],
            dtype=np.intp,
        )
        blocks = gram[supports[:, :, None], supports[:, None, :]] - eye
        sym = 0.5 * (blocks + blocks.transpose(0, 2, 1))
        values = np.abs(np.linalg.eigvalsh(sym)).max(axis=1)
        i = int(np.argmax(values))
        if values[i] > best:
            best = float(values[i])
            witness = tuple(int(j) for j in supports[i])
    return RicEstimate(
        s=s,
        value=best,
        mode="lower-bound",
        witness=SupportSet(witness, n),
        supports_examined=trials,
        blocks_evaluated=trials,
    )


def _sampled_support(n: int, s: int, seed: int, trial: int) -> np.ndarray:
    """The sorted support of one sampled trial."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, trial)))
    return np.sort(rng.choice(n, size=s, replace=False))


def rip_sandwich_check(phi: np.ndarray, x: np.ndarray, delta: float) -> bool:
    """Test (1-delta)||x||^2 <= ||phi x||^2 <= (1+delta)||x||^2 for this x.

    A relative slack of 1e-12 keeps the test honest under floating point
    when x sits exactly on the boundary.
    """
    phi = as_matrix(phi)
    x = as_vector(x)
    if x.shape[0] != phi.shape[1]:
        raise ValueError(f"vector dim {x.shape[0]} != matrix columns {phi.shape[1]}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    n2 = float(x @ x)
    p2 = float(np.linalg.norm(phi @ x) ** 2)
    slack = SANDWICH_SLACK * n2
    return (1.0 - delta) * n2 <= p2 + slack and p2 <= (1.0 + delta) * n2 + slack
