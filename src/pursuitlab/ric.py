"""Restricted isometry constants, certified or sampled.

The order-s constant of a matrix is the largest spectral deviation of a
size-s column Gram block from the identity:

    delta_s = max over supports S, |S| = s, of  || phi_S^T phi_S - I ||_2.

``exact_ric`` certifies it over every support (restricting to |S| = s
suffices: any smaller block is a principal submatrix of a size-s block,
whose deviation dominates).  ``sampled_ric_lower_bound`` scans seeded
random supports (its docstring gives the draw).  Both cut their blocks
from one deviation matrix G - I, with no symmetrisation, and run them
through one scan, ``_scan``, so no support's sampled value can differ from
its certified one and the sampled bound never exceeds the exact value.
The scan screens each block A by || A @ A ||_F^(1/2) and || A^4 ||_F^(1/4)
and solves only the supports whose bound reaches the best value already
solved (the incumbent): started from greedy seed supports in
``exact_ric``, from one of its own trials in the sampled bound.

``exact_ric`` also walks a tree of supports instead of listing them.  A
node is a prefix P together with the columns R = {a, ..., N-1} after it;
its subtree holds every support P + Q with Q drawn from R.  By Cauchy
interlacing each such block's deviation is at most that of the node block
A = G_T - I on T = P + R, at most || A^16 ||_F^(1/16), and a subtree where
that bound, widened, is below the incumbent is skipped whole; the node
test decides it without a root, as || (cA)^16 ||_F^2 < 1.  The walk takes
the columns heaviest first (by row sums of |G - I|), so each trailing set
R holds light columns and subtrees are skipped early.

Every bound is widened by a rounding slack and ties go to the
lexicographically smallest support, so neither the tree nor the screen
can change a reported value or witness; they only skip work (see
``_scan`` and ``_nodes_skipped``).  ``RicEstimate.blocks_evaluated``
counts the eigen-solves.

Values above 1 are reported as-is: they simply mean the matrix has no
restricted isometry at that order (some block is singular or worse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ``spectral_norm_symmetric`` is not called here; it stays importable from this
# module because tracing tools wrap it at this import site.
from .linalg import as_matrix, as_vector, check_integer, check_real, spectral_norm_symmetric  # noqa: F401
from .draws import sorted_choices
from .seeding import derive_seeds
from .supports import SupportSet

DEFAULT_ENUMERATION_BUDGET = 10_000_000

# Supports per chunk of the exhaustive scan and per eigenvalue stack of the
# sampled bound: at most 4096, and at most 512 * 8 * 8 block entries (256 KB),
# so that a chunk's blocks stay in cache while they are bounded and solved.
# The same entry cap sizes the tree's node stacks, prefix batches and greedy
# steps.
_CHUNK = 4096
_CHUNK_ENTRIES = 512 * 64

# Bytes the sampled bound's support drawing may hold at once.
_DRAW_BYTES = 1 << 22

# The node test squares its scaled block this many times, and so compares
# ||A||_2 with the incumbent up to a factor of at most t^(1/32) for t
# columns, without a root (rounding: see _nodes_skipped).
_NODE_SQUARINGS = 4

# A node is tested only when screening its supports one by one would cost
# more than this many times testing its block (s^3 per support against
# t^3 per node, the cost of one matrix product).
_NODE_COST = 3.0

# Trees of fewer supports test no nodes.  Walking the heaviest columns first,
# C(12, 8) ran 1.1-1.2x faster without node tests, while C(16, 4) = 1820 ran
# even to 2x slower, C(14, 6) = 3003 even to 3x and C(20, 8) 9-18x slower
# (Gaussian, m = 14 and 400, five seeds each).
_TREE_MIN_SUPPORTS = 3000

# The screen keeps a support when b * (1 + _SCREEN_SLACK) + _SCREEN_FLOOR is
# not below the incumbent.  The relative slack covers rounding in the bound
# and in the eigensolver (_scan widens it for orders beyond about 60);
# the absolute floor covers underflow in the bound's sums (see _scan).
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
    every support is certified by a tree node's bound, by the screening
    bound or by an eigen-solve, and the trial count for sampled mode.
    ``blocks_evaluated`` counts the eigen-solves run on supports: in exact
    mode not the seeds' that start the incumbent, in sampled mode at most
    the trial count (1 to 34 of 1,000 trials at order 8 on 32 seeded
    14 x 20 and 400 x 20 Gaussian matrices each).  ``supports_screened`` counts the supports
    of exact mode that reached the per-support screen, that no skipped
    subtree covered.  Both stay in memory and are in no output file.
    """

    s: int
    value: float
    mode: str
    witness: SupportSet
    supports_examined: int
    blocks_evaluated: int = 0
    supports_screened: int = 0

    @property
    def rip_holds(self) -> bool:
        """Whether the matrix has a restricted isometry at this order."""
        return self.value < 1.0


def _deviation(phi: np.ndarray) -> np.ndarray:
    """G - I for G = phi^T phi, rejected when G overflows (``max``/``min``
    propagate inf and NaN without an N x N temporary).  Of a C-contiguous
    ``phi`` numpy forms G with BLAS ``syrk`` and mirrors one triangle, so G
    is exactly symmetric (a test pins it) and so is every block dev[S, S]."""
    with np.errstate(over="ignore", invalid="ignore"):
        dev = phi.T @ phi
    if not (np.isfinite(dev.max()) and np.isfinite(dev.min())):
        raise ValueError("the Gram matrix phi^T phi overflows (non-finite entries); rescale the matrix")
    dev[np.diag_indices(len(dev))] -= 1.0
    return dev


def _chunk_rows(s: int) -> int:
    """Supports per chunk or stack for blocks of order s."""
    return max(1, min(_CHUNK, _CHUNK_ENTRIES // (s * s)))


def exact_ric(
    phi: np.ndarray,
    s: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> RicEstimate:
    """Certify the order-s constant over every support, pruning by bounds.

    The incumbent starts at the largest deviation among the greedy seed
    supports (see ``_greedy_seeds``).  ``_surviving_leaves`` walks the tree
    of prefix nodes of G - I with its columns stably sorted by row sums of
    |G - I|, heaviest first (a sum that overflows to inf moves only the
    order), skips every subtree whose node passes ``_nodes_skipped``'s
    test, and yields the other supports in chunks of at most
    ``_chunk_rows(s)``.  Each is mapped back to the original columns in
    increasing order, so ``_scan`` cuts the very block dev[S, S] a walk in
    column order would; a kept seed is solved again there, to the same bits.

    Value and witness equal those of an unscreened scan, bit for bit,
    whatever the seeds.  ``_scan`` argues it for the screen.  A skipped
    subtree holds no maximizer: its widened node bound is below the
    incumbent, hence below the final maximum M, and at least the solved
    value of each of its supports.  A node block is a principal submatrix
    of a permuted G - I, so by interlacing the exact node norm dominates
    each support's exact norm; the slack 1e-9 + 16 t^3 eps exceeds the
    test's rounding on t columns (t^(5/2) eps relative) plus the
    eigensolver's backward error; overflow only keeps a node, underflow
    only skips one far below M, and no node is skipped while M <= 1e-30
    (see ``_nodes_skipped``).  So every maximizer is solved, whatever the
    walk order, and ``_scan``'s tie rule keeps the lexicographically
    smallest, as the unscreened scan does.

    Every support is certified, by a node test, by the screen or by an
    eigen-solve, so ``supports_examined`` is C(N, s) (``RicEstimate``
    describes the other counts).

    Raises:
        EnumerationBudgetError: C(N, s) exceeds ``budget``.
        ValueError: ``s`` is not an integer in [1, N], ``budget`` not an
            integer >= 1, or phi^T phi overflows.
    """
    phi = as_matrix(phi)
    n = phi.shape[1]
    check_integer(s, "s", 1, n)
    check_integer(budget, "budget", 1)
    total = math.comb(n, s)
    if total > budget:
        raise EnumerationBudgetError(total, budget)

    dev = _deviation(phi)
    seeded = float(_deviations(_blocks(dev, _greedy_seeds(dev, s))).max())
    with np.errstate(over="ignore"):
        order = np.argsort(-np.abs(dev).sum(axis=1), kind="stable")
    reordered = dev[np.ix_(order, order)]

    def leaves(incumbent):
        for chunk in _surviving_leaves(reordered, s, _chunk_rows(s), incumbent):
            yield np.sort(order[chunk], axis=1)

    best, witness, evaluated, screened = _scan(dev, s, seeded, leaves, smallest_tie=True)
    return RicEstimate(
        s=s,
        value=best,
        mode="exact",
        witness=SupportSet(witness, n),
        supports_examined=total,
        blocks_evaluated=evaluated,
        supports_screened=screened,
    )


def _scan(dev: np.ndarray, s: int, incumbent: float, stacks, smallest_tie: bool = False):
    """The largest deviation over stacks of supports, solving only those
    the screen keeps: (value, witness, eigen-solves, supports screened).

    ``stacks(current)`` yields (k, s) ``intp`` arrays of supports, and
    ``current()`` reads the incumbent, the best value solved so far.  An
    incumbent of -inf starts at the first stack's support with the largest
    ||A @ A||_F, solved once, its value kept in place.  ``_screen`` drops
    the supports whose bound b >= ||A||_2 on A = G[S, S] - I (the smaller
    of ||A @ A||_F^(1/2) and ||A^4||_F^(1/4)), widened to
    b * (1 + 1e-9 + 16 s^3 eps) + 1e-30, is below the incumbent; the rest
    are solved with one ``eigvalsh`` call and the incumbent rises to the
    stack's best.  Dropped supports hold -inf, never NaN, and the stack's
    first-index argmax replaces the running maximum only on strict
    improvement; with ``smallest_tie`` (``exact_ric``'s walk is not
    lexicographic) the lexicographically smallest support of the largest
    value wins, also over a running maximum of the same bits.  Value and
    witness are those of solving every support:

    * The incumbent is always the solved value of a support that counts
      (a trial of the sampled bound, a seed of ``exact_ric``), so it never
      exceeds the final maximum M.
    * A dropped support is no maximizer.  Its widened bound is below M,
      while the computed bound of a support with solved value M is not:
      its exact bound dominates its exact norm, and the relative slack
      exceeds the rounding in the products and sums of squares (about
      s^3 eps relative) plus the eigensolver's backward error (about
      s eps ||A||_2).  Those sums scale as ||A||_2^4 and ||A||_2^8, so
      they stay normal while ||A||_2 is above about 1e-38; the floor keeps
      every support when M is below 1e-30.  An overflowing product gives
      an infinite or NaN bound: the screen keeps NaN, and ``fmin`` falls
      back from an infinite or NaN refinement to b.
    * So every maximizer is solved by the same ``eigvalsh`` on the same
      block, which a batched call solves on its own, to the unscreened
      bits, in any stack order.  The first maximizer in scan order wins,
      or with ``smallest_tie`` the lexicographically smallest one.
    """
    best, witness, evaluated, screened = -np.inf, tuple(range(s)), 0, 0
    widen = 1.0 + _SCREEN_SLACK + 16 * s**3 * np.finfo(float).eps
    for supports in stacks(lambda: incumbent):
        screened += len(supports)
        blocks = _blocks(dev, supports)
        values = np.full(len(supports), -np.inf)
        if incumbent == -np.inf:
            with np.errstate(over="ignore", invalid="ignore"):
                squares = blocks @ blocks
                first = int(np.argmax(np.einsum("kij,kij->k", squares, squares)))
            values[first] = incumbent = float(_deviations(blocks[first : first + 1])[0])
            evaluated += 1
        kept = _screen(blocks, incumbent, widen)
        kept = kept[values[kept] == -np.inf]
        if kept.size:  # most stacks keep no support
            values[kept] = _deviations(blocks[kept])
        evaluated += kept.size
        i = int(np.argmax(values))
        if smallest_tie and -np.inf < values[i] >= best:
            tied = np.flatnonzero(values == values[i])
            i = int(tied[np.lexsort(supports[tied].T[::-1])[0]])
        incumbent = max(incumbent, float(values[i]))
        if values[i] > best or (smallest_tie and values[i] == best and tuple(supports[i].tolist()) < witness):
            best = float(values[i])
            witness = tuple(int(j) for j in supports[i])
    return best, witness, evaluated, screened


def _blocks(dev: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """The blocks dev[S, S], one per row S of ``supports``."""
    n = len(dev)
    return np.take(dev, supports[:, :, None] * n + supports[:, None, :])


def _screen(blocks: np.ndarray, incumbent: float, widen: float) -> np.ndarray:
    """Indices of the deviation blocks whose widened screening bound is not
    below the incumbent (see ``_scan``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        squares = blocks @ blocks
        bounds = np.sqrt(np.sqrt(np.einsum("kij,kij->k", squares, squares)))
        near = ~(bounds * widen + _SCREEN_FLOOR < incumbent)
        squares = squares[near]
        fourth = squares @ squares
        bounds[near] = np.fmin(bounds[near], np.einsum("kij,kij->k", fourth, fourth) ** 0.125)
    return np.flatnonzero(~(bounds * widen + _SCREEN_FLOOR < incumbent))


def _deviations(blocks: np.ndarray) -> np.ndarray:
    """The spectral norm of each block of a stack, from one ``eigvalsh``
    call, which solves each block on its own."""
    return np.abs(np.linalg.eigvalsh(blocks)).max(axis=1)


def _greedy_seeds(dev: np.ndarray, s: int) -> np.ndarray:
    """Supports that start the incumbent, one per row in increasing
    order, so that a seed's block and solved value are those the walk
    gives the same support.

    Order 1 has one seed, the column with the largest |diagonal| of the
    deviation.  From order 2 on, each column i is paired with the column j
    whose block A = [[a, c], [c, b]] (a, b, c = dev[i, i], dev[j, j],
    dev[i, j]) has the largest screening proxy
    ||A @ A||_F^2 = (a^2 + c^2)^2 + (b^2 + c^2)^2 + 2 c^2 (a + b)^2.
    Order 2 keeps the best of these pairs.  Above it every pair is extended
    s - 2 times by the column whose enlarged block A has the largest
    ||A @ A||_F, and the distinct supports are the seeds.
    """
    n = len(dev)
    diag = np.diagonal(dev)
    if s == 1:
        return np.array([[np.argmax(np.abs(diag))]], dtype=np.intp)
    group = max(1, _CHUNK_ENTRIES // (n * s * s))
    grown, tops = [], []
    for first in range(0, n, group):
        i = np.arange(first, min(first + group, n))
        a, c = diag[i, None], dev[i]
        with np.errstate(over="ignore", invalid="ignore"):
            proxy = (a * a + c * c) ** 2 + (diag * diag + c * c) ** 2 + 2 * (c * (a + diag)) ** 2
        proxy[np.arange(len(i)), i] = -np.inf
        supports = np.column_stack([i, np.argmax(proxy, axis=1)])
        tops.append(proxy.max(axis=1))
        for r in range(2, s):
            k = len(supports)
            cand = np.empty((k, n, r + 1), dtype=np.intp)
            cand[:, :, :r] = supports[:, None, :]
            cand[:, :, r] = np.arange(n)
            blocks = _blocks(dev, cand.reshape(k * n, r + 1))
            with np.errstate(over="ignore", invalid="ignore"):
                squares = blocks @ blocks
                proxy = np.einsum("kij,kij->k", squares, squares).reshape(k, n)
            np.put_along_axis(proxy, supports, -np.inf, axis=1)
            supports = np.hstack([supports, np.argmax(proxy, axis=1)[:, None]])
        grown.append(supports)
    seeds = np.concatenate(grown)
    if s == 2:
        seeds = seeds[[np.argmax(np.concatenate(tops))]]
    return np.array(sorted({tuple(row) for row in np.sort(seeds, axis=1).tolist()}), dtype=np.intp)


def _nodes_skipped(padded: np.ndarray, prefixes: np.ndarray, starts: np.ndarray, m: float) -> np.ndarray:
    """Whether each node block A = G_T - I on T = P + {a, ..., N-1} (P a
    row of ``prefixes``, a of ``starts``, t = |T|) passes the skip test
    b * widen + 1e-30 < m against the incumbent m, for b = ||A^16||_F^(1/16)
    and widen = 1 + 1e-9 + 16 t^3 eps.  It is decided without a root or a
    per-node scale: A, cut from ``padded`` (G - I with a zero row and
    column appended, so shorter blocks pad by indexing), is scaled by
    c = widen / (m - 1e-30), squared four times, and skipped where
    ||(cA)^16||_F^2 < 1; none is skipped when m <= 1e-30.  Each squaring
    adds rounding of about t^2 eps relative to ||cA||_2^(2^j), and errors
    at most double per squaring, so the sum is off by about 32 t^(5/2) eps
    relative (t^(5/2) eps on c * b), well inside the slack.  Overflow or
    NaN gives a sum not below 1, which keeps the node.  A node whose exact
    sum reaches 1 has ||cA||_2 >= t^(-1/32), so each power (cA)^(2^j) has
    a norm of at least t^(-1/2), far above underflow's absolute error
    (2^-1022 per operation): underflow only skips nodes far below m.
    """
    n = len(padded) - 1
    k, p = prefixes.shape
    if not m > _SCREEN_FLOOR:
        return np.zeros(k, dtype=bool)
    width = p + n - int(starts.min())
    rows = max(1, _CHUNK_ENTRIES // (width * width))
    if k > rows:
        return np.concatenate(
            [_nodes_skipped(padded, prefixes[i : i + rows], starts[i : i + rows], m) for i in range(0, k, rows)]
        )
    idx = np.empty((k, width), dtype=np.intp)
    idx[:, :p] = prefixes
    idx[:, p:] = np.minimum(starts[:, None] + np.arange(width - p), n)
    blocks = _blocks(padded, idx)
    spare = np.empty_like(blocks)
    scale = (1.0 + _SCREEN_SLACK + 16.0 * (p + n - starts) ** 3 * np.finfo(float).eps) / (m - _SCREEN_FLOOR)
    with np.errstate(over="ignore", invalid="ignore"):
        blocks *= scale[:, None, None]
        for _ in range(_NODE_SQUARINGS):
            np.matmul(blocks, blocks, out=spare)
            blocks, spare = spare, blocks
        flat = blocks.reshape(k, -1)
        return np.einsum("ki,ki->k", flat, flat) < 1.0


def _surviving_leaves(dev: np.ndarray, s: int, rows: int, incumbent):
    """The size-s supports outside skipped subtrees, in lexicographic
    order of the indices of ``dev`` (which ``exact_ric`` reorders), as
    (k, s) ``intp`` arrays of at most ``rows`` supports.

    ``dev`` is G - I and ``incumbent()`` the current incumbent, read each
    time a node is tested.  A node (P, a) stands for the supports P + Q
    with Q drawn from {a, ..., N-1}; its children are the nodes
    (P + {j}, j + 1) for j from a up to N - (s - |P|).  Since a node with a
    later start is a principal submatrix of one with an earlier start,
    children j >= a' all lie under the node (P, a'), so for each prefix a
    vectorised binary search finds a start a' whose node ``_nodes_skipped``
    skips, and only the children before a' are kept.  Starts whose
    subtree is too small to repay a node test (``_NODE_COST``) are not
    tested, nor any node of a tree of fewer than ``_TREE_MIN_SUPPORTS``
    supports.  Prefixes are expanded a batch at a time, depth first, and at
    depth s - 1 the kept children are the supports themselves.  The stack
    holds the children of at most one batch per depth, so memory does not
    grow with C(N, s).
    """
    n = len(dev)
    # The last start worth testing at each depth p.
    last_tested = []
    for p in range(s):
        worth = [
            a
            for a in range(n - s + p + 1)
            if 1 < math.comb(n - a, s - p)
            and math.comb(n - a, s - p) * s**3 >= _NODE_COST * (p + n - a) ** 3
        ]
        last_tested.append(max(worth, default=-1) if math.comb(n, s) >= _TREE_MIN_SUPPORTS else -1)
    padded = np.pad(dev, (0, 1)) if max(last_tested) >= 0 else None  # for _nodes_skipped
    batch = max(1, _CHUNK_ENTRIES // (n * s))
    pending: list[np.ndarray] = []
    pending_rows = 0
    stack = [(np.empty((1, 0), dtype=np.intp), np.zeros(1, dtype=np.intp))]
    while stack:
        prefixes, lo = stack.pop()
        k, p = prefixes.shape
        # Invariant: node (P, left) is kept, node (P, right) is skipped, or
        # right is past the last start tested.  The node (P, lo) was kept
        # one level up.
        left = lo.copy()
        right = np.full(k, last_tested[p] + 1)
        while (active := np.flatnonzero(right - left > 1)).size:
            mid = (left[active] + right[active]) // 2
            skipped = _nodes_skipped(padded, prefixes[active], mid, incumbent())
            right[active[skipped]] = mid[skipped]
            left[active[~skipped]] = mid[~skipped]
        end = np.where(right <= last_tested[p], right, n - s + p + 1)
        counts = end - lo
        size = int(counts.sum())
        children = np.empty((size, p + 1), dtype=np.intp)
        children[:, :p] = np.repeat(prefixes, counts, axis=0)
        children[:, p] = np.arange(size) - np.repeat(np.cumsum(counts) - counts - lo, counts)
        if p < s - 1:
            for first in range((size - 1) // batch * batch, -1, -batch):
                piece = children[first : first + batch]
                stack.append((piece, piece[:, -1] + 1))
            continue
        pending.append(children)
        pending_rows += size
        if pending_rows >= rows:
            leaves = np.concatenate(pending)
            whole = pending_rows // rows * rows
            for first in range(0, whole, rows):
                yield leaves[first : first + rows]
            pending = [leaves[whole:]]
            pending_rows -= whole
    if pending_rows:
        yield np.concatenate(pending)


def sampled_ric_lower_bound(
    phi: np.ndarray,
    s: int,
    trials: int,
    seed: int,
) -> RicEstimate:
    """Lower-bound the order-s constant from ``trials`` random supports.

    The support of trial t is
    ``np.sort(np.random.Generator(np.random.PCG64(derive_seed(seed, t)))
    .choice(N, s, replace=False))``: numpy's SeedSequence and PCG64 seeded
    from the SplitMix64 sub-seed of (seed, t), and its ``choice`` without
    replacement (Floyd's algorithm, or a tail Fisher-Yates shuffle when
    N > 10000 and s > N // 50).  ``draws.sorted_choices`` evaluates those
    steps for a batch of trials at once and returns the same supports bit
    for bit; no generator object is built.  Each trial has its own
    sub-seed, so results do not depend on evaluation order.  ``seed`` is
    folded to 64 bits as ``derive_seed`` folds it (-1 and 2**64 - 1 give
    the same supports).

    Blocks are cut from ``exact_ric``'s deviation matrix, not symmetrised,
    and screened and solved by ``_scan`` from an incumbent that is one of
    the trials, never a seed, so each value is bitwise its certified one
    and the witness is the first trial attaining the maximum;
    ``blocks_evaluated`` counts the solves, at most ``trials``.  That matrix
    holds 8 * N**2 bytes (33.5 MB at N = 2048), the ``ric`` command's memory
    peak, on purpose: a block formed per trial as phi[:, S]^T phi[:, S] is
    not bitwise the same (none of 20 supports at 512 x 2048 was).

    Raises:
        ValueError: ``s``, ``trials`` or ``seed`` is not an integer (a
            bool is not one), ``s`` or ``trials`` is out of range, or
            phi^T phi overflows.
    """
    phi = as_matrix(phi)
    n = phi.shape[1]
    check_integer(s, "s", 1, n)
    check_integer(trials, "trials", 1)
    check_integer(seed, "seed")

    rows = _chunk_rows(s)
    # Draw batches are sized by trial count, not by eigen stack, so that
    # large orders still draw many trials per pass; the drawing holds about
    # 8 * N bytes per trial.
    draws = max(1, min(_CHUNK, _DRAW_BYTES // (8 * n)))

    def stacks(_incumbent):
        for first in range(0, trials, draws):
            batch = sorted_choices(derive_seeds(seed, first, min(draws, trials - first)), n, s)
            yield from (batch[start : start + rows] for start in range(0, len(batch), rows))

    best, witness, evaluated, _ = _scan(_deviation(phi), s, -np.inf, stacks)
    return RicEstimate(
        s=s,
        value=best,
        mode="lower-bound",
        witness=SupportSet(witness, n),
        supports_examined=trials,
        blocks_evaluated=evaluated,
    )


def rip_sandwich_check(phi: np.ndarray, x: np.ndarray, delta: float) -> bool:
    """Test (1-delta)||x||^2 <= ||phi x||^2 <= (1+delta)||x||^2 for this x.

    A relative slack of 1e-12 keeps the test honest under floating point
    when x sits exactly on the boundary.
    """
    phi = as_matrix(phi)
    x = as_vector(x)
    if x.shape[0] != phi.shape[1]:
        raise ValueError(f"vector dim {x.shape[0]} != matrix columns {phi.shape[1]}")
    check_real(delta, "delta", 0)
    n2 = float(x @ x)
    p2 = float(np.linalg.norm(phi @ x) ** 2)
    slack = SANDWICH_SLACK * n2
    return (1.0 - delta) * n2 <= p2 + slack and p2 <= (1.0 + delta) * n2 + slack
