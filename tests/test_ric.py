import itertools
import math
import warnings

import numpy as np
import pytest
from conftest import base_frame, examples
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pursuitlab import (
    EnumerationBudgetError,
    RicEstimate,
    exact_ric,
    rip_sandwich_check,
    sampled_ric_lower_bound,
    spectral_norm_symmetric,
)
from pursuitlab import ric
from pursuitlab.draws import bounded, sorted_choices
from pursuitlab.fileio import ric_payload
from pursuitlab.ric import _nodes_skipped, _surviving_leaves
from pursuitlab.seeding import derive_seed, derive_seeds


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def gaussian(seed, m, n):
    return rng(seed).normal(0.0, 1.0 / np.sqrt(m), size=(m, n))


def two_by_two_scan(phi):
    """Closed-form oracle for order 2: scan all pairs with the explicit
    eigenvalue formula for 2x2 symmetric matrices."""
    gram = phi.T @ phi
    n = phi.shape[1]
    best = -np.inf
    for i in range(n):
        for j in range(i + 1, n):
            a, b, c = gram[i, i] - 1.0, gram[i, j], gram[j, j] - 1.0
            mean, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
            best = max(best, abs(mean + radius), abs(mean - radius))
    return best


def reference_exact_ric(phi, s):
    """The unscreened exhaustive scan: every support solved, in
    lexicographic chunks of 4096, first-index argmax, strict improvement."""
    gram = phi.T @ phi
    best = -np.inf
    witness = tuple(range(s))
    combo_iter = itertools.combinations(range(phi.shape[1]), s)
    while True:
        chunk = list(itertools.islice(combo_iter, 4096))
        if not chunk:
            break
        combos = np.asarray(chunk, dtype=np.intp)
        blocks = gram[combos[:, :, None], combos[:, None, :]] - np.eye(s)
        values = np.abs(np.linalg.eigvalsh(blocks)).max(axis=1)
        i = int(np.argmax(values))
        if values[i] > best:
            best = float(values[i])
            witness = chunk[i]
    return best, witness


def numpy_supports(n, s, seed, first, count):
    """The oracle: one numpy Generator per trial, as the sampled bound
    documents its supports."""
    return np.array([
        np.sort(np.random.Generator(np.random.PCG64(derive_seed(seed, t))).choice(n, s, replace=False))
        for t in range(first, first + count)
    ])


def reference_sampled(phi, s, trials, seed):
    """The per-trial sampled bound: one symmetric eigen-solve per trial."""
    gram = phi.T @ phi
    best = -np.inf
    witness = tuple(range(s))
    for row in numpy_supports(phi.shape[1], s, seed, 0, trials):
        support = tuple(int(i) for i in row)
        value = spectral_norm_symmetric(gram[np.ix_(support, support)] - np.eye(s))
        if value > best:
            best = value
            witness = support
    return best, witness


def assert_matches_reference(est, reference):
    value, witness = reference
    assert np.float64(est.value).tobytes() == np.float64(value).tobytes()
    assert est.witness.indices == witness


MATRIX_KINDS = [
    "gaussian", "ties", "duplicates", "rank-one", "flat-rank-one",
    "huge-columns", "tiny-columns", "tiny-deviation",
]


def screening_matrix(kind, m, n, seed):
    """Matrices that stress the screen: exact ties (duplicated and rescaled
    columns), rank-one deviations whose bound equals the norm up to rounding,
    bounds that overflow (columns scaled by 1e120), near-zero columns
    (scaled by 1e-120), and deviations of 1e-45 .. 1e-120 whose bound sums
    underflow.  Two kinds stress the tree: exact copies of columns, which
    tie distinct supports bit for bit, and rank-one deviations with some
    zero weights, whose node blocks have exactly the norm of a support
    below them.  Two kinds, outside MATRIX_KINDS (the sampled bound's
    per-trial oracle symmetrises blocks, which overflows), set two or three
    columns to 1.2e154 in row 0: entries of G - I of 1.44e308, whose row
    sums overflow to inf and whose blocks can solve to inf.  They stress the
    walk order (the first three columns) and an infinite incumbent (columns
    drawn from the seed)."""
    g = rng(seed)
    if kind in ("overflowing-rows", "overflowing-columns"):
        phi = np.eye(max(m, n))[:, :n]
        heavy = slice(3) if kind == "overflowing-rows" else g.choice(n, min(n, g.integers(2, 4)), replace=False)
        phi[0, heavy] = 1.2e154
        return phi
    if kind in ("rank-one", "flat-rank-one"):
        # G - I = a^2 w w^T.
        weights = [-1.0, 1.0, 2.0] if kind == "rank-one" else [-1.0, 0.0, 1.0, 2.0]
        return np.vstack([np.eye(n), g.uniform(0.05, 2.0) * g.choice(weights, size=n)])
    if kind == "tiny-deviation":
        phi = np.eye(max(m, n))[:, :n]
        return phi + g.choice([1e-45, 1e-85, 1e-120]) * g.normal(size=phi.shape)
    phi = g.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
    if kind == "ties":
        for j in range(1, n):
            if g.uniform() < 0.5:
                phi[:, j] = g.choice([-2.0, -1.0, 0.5, 1.0]) * phi[:, g.integers(j)]
    elif kind == "duplicates":
        for j in range(1, n):
            if g.uniform() < 0.5:
                phi[:, j] = phi[:, g.integers(j)]
    elif kind in ("huge-columns", "tiny-columns"):
        scale = 1e120 if kind == "huge-columns" else 1e-120
        scaled = g.uniform(size=n) < 0.5
        scaled[g.integers(n)] = True
        phi[:, scaled] *= scale
    return phi


@st.composite
def columns_and_order(draw, max_columns):
    n = draw(st.integers(1, max_columns))
    return n, draw(st.integers(1, n))


@st.composite
def node_stacks(draw, max_columns):
    """(N, s, nodes): one to four tree nodes (P, a) of one depth |P| < s,
    each above a support drawn at random."""
    n, s = draw(columns_and_order(max_columns))
    p = draw(st.integers(0, s - 1))
    nodes = []
    for _ in range(draw(st.integers(1, 4))):
        support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=s, max_size=s)))
        nodes.append((tuple(support[:p]), draw(st.integers(support[p - 1] + 1 if p else 0, support[p]))))
    return n, s, nodes


class TestScreenedEnumeration:
    """exact_ric screens supports by a norm bound; these compare it bit for
    bit with the unscreened scan."""

    @settings(max_examples=examples(120), deadline=None)
    @given(
        kind=st.sampled_from(MATRIX_KINDS),
        m=st.integers(1, 30),
        shape=columns_and_order(14),
        seed=st.integers(0, 2**16),
    )
    # Found by search: without the relative slack (first example), without
    # the absolute floor (second) or with a floor of 1e-60 (third), the
    # screen drops the first maximizer and another witness is reported.
    @example(kind="rank-one", m=13, shape=(11, 6), seed=50900)
    @example(kind="tiny-deviation", m=9, shape=(13, 4), seed=26817)
    @example(kind="tiny-deviation", m=11, shape=(13, 8), seed=33390)
    # Found by search: without the node test's slack (first) or with the
    # best seed taken as the running maximum (second), another value or
    # witness is reported.
    @example(kind="flat-rank-one", m=2, shape=(14, 7), seed=6)
    @example(kind="duplicates", m=10, shape=(12, 4), seed=294)
    # Found by search: the heaviest-first walk meets a tied maximizer before
    # the lexicographically smallest one, so without the tie rule another
    # witness is reported; also without its comparison across stacks
    # (third) or within a stack (first, second and fourth, a tree that
    # tests nodes).
    @example(kind="ties", m=29, shape=(13, 4), seed=33761)
    @example(kind="rank-one", m=2, shape=(10, 6), seed=54594)
    @example(kind="duplicates", m=23, shape=(13, 7), seed=38622)
    @example(kind="flat-rank-one", m=22, shape=(14, 7), seed=47176)
    # Row sums of |G - I| that overflow to inf, where blocks of two heavy
    # columns tie at inf.
    @example(kind="overflowing-rows", m=3, shape=(12, 5), seed=1)
    # Heavy columns 3, 6, 7 (first), 3, 4, 14 (second) and 2, 3, 11 (third),
    # whose blocks solve to inf: once the incumbent is inf, a node test that
    # scales by 1 / inf = 0 skips subtrees that hold the smallest maximizer.
    @example(kind="overflowing-columns", m=3, shape=(14, 6), seed=0)
    @example(kind="overflowing-columns", m=15, shape=(15, 5), seed=8)
    @example(kind="overflowing-columns", m=14, shape=(14, 7), seed=10)
    # Trees 5 to 8 levels deep, where 55% to 91% of the supports lie in
    # skipped subtrees.
    @example(kind="gaussian", m=30, shape=(16, 8), seed=1)
    @example(kind="gaussian", m=12, shape=(17, 6), seed=2)
    @example(kind="ties", m=20, shape=(18, 5), seed=3)
    @example(kind="rank-one", m=1, shape=(16, 6), seed=4)
    @example(kind="huge-columns", m=25, shape=(17, 5), seed=5)
    # Orders 1 and 2, which start from one seed each, over tied, repeated,
    # rank-one and badly scaled columns.
    @example(kind="gaussian", m=8, shape=(14, 1), seed=6)
    @example(kind="ties", m=20, shape=(14, 1), seed=7)
    @example(kind="duplicates", m=10, shape=(13, 1), seed=8)
    @example(kind="tiny-deviation", m=9, shape=(12, 1), seed=9)
    @example(kind="gaussian", m=8, shape=(14, 2), seed=10)
    @example(kind="ties", m=20, shape=(14, 2), seed=11)
    @example(kind="duplicates", m=10, shape=(13, 2), seed=12)
    @example(kind="flat-rank-one", m=2, shape=(12, 2), seed=13)
    @example(kind="huge-columns", m=25, shape=(14, 2), seed=14)
    @example(kind="tiny-columns", m=7, shape=(2, 2), seed=15)
    def test_matches_unscreened_scan(self, kind, m, shape, seed):
        n, s = shape
        phi = screening_matrix(kind, m, n, seed)
        est = exact_ric(phi, s)
        assert_matches_reference(est, reference_exact_ric(phi, s))
        assert est.supports_examined == math.comb(n, s)
        assert 1 <= est.blocks_evaluated <= est.supports_examined
        assert 1 <= est.supports_screened <= est.supports_examined

    @settings(max_examples=examples(150), deadline=None)
    @given(
        kind=st.sampled_from(MATRIX_KINDS),
        m=st.integers(1, 30),
        seed=st.integers(0, 2**16),
        stack=node_stacks(12),
    )
    # Node blocks that overflow when scaled by the inverse incumbent of
    # another node (1e120 columns), with 1e-120 columns, with deviations of
    # 1e-45 .. 1e-120, with an all-zero node block (incumbent 0), and with
    # a subtree whose supports solve to inf (incumbent inf).
    @example(kind="huge-columns", m=25, seed=6, stack=(12, 5, [((0, 1), 8), ((2, 3), 4), ((1, 4), 9)]))
    @example(kind="tiny-columns", m=7, seed=0, stack=(12, 4, [((0,), 1), ((3,), 5), ((2,), 8)]))
    @example(kind="tiny-deviation", m=9, seed=9, stack=(12, 6, [((0, 2), 3), ((1, 5), 6)]))
    @example(kind="flat-rank-one", m=2, seed=98, stack=(12, 3, [((), 8), ((), 0)]))
    @example(kind="overflowing-rows", m=3, seed=0, stack=(12, 5, [((0,), 1), ((3,), 4)]))
    def test_node_bound_covers_subtree(self, kind, m, seed, stack):
        # The proof obligation of a skipped subtree, and that the test is
        # not vacuous.  With the incumbent at the largest solved deviation
        # below one node, no node whose subtree reaches it is skipped; with
        # it at t^(1/32) (1 + 1e-6) ||A_T||_2 + 1e-30, above the node bound,
        # the node is skipped, unless that is inf, which tests no node.  Each
        # test runs on the whole stack, so the zero padding of the shorter
        # blocks is exercised too.
        n, s, nodes = stack
        phi = screening_matrix(kind, m, n, seed)
        dev = phi.T @ phi - np.eye(n)
        padded = np.pad(dev, (0, 1))
        prefixes = np.array([prefix for prefix, _ in nodes], dtype=np.intp).reshape(len(nodes), len(nodes[0][0]))
        starts = np.array([a for _, a in nodes], dtype=np.intp)
        solved = []
        for prefix, a in nodes:
            below = [(*prefix, *rest) for rest in itertools.combinations(range(a, n), s - len(prefix))]
            combos = np.array(below, dtype=np.intp)
            solved.append(np.abs(np.linalg.eigvalsh(dev[combos[:, :, None], combos[:, None, :]])).max())
        solved = np.array(solved)
        for i, (prefix, a) in enumerate(nodes):
            assert not _nodes_skipped(padded, prefixes, starts, solved[i])[solved >= solved[i]].any()
            node = np.array([*prefix, *range(a, n)])
            norm = np.abs(np.linalg.eigvalsh(dev[np.ix_(node, node)])).max()
            if 1e-25 <= norm < np.inf:
                ceiling = len(node) ** (1 / 32) * (1 + 1e-6) * norm + 1e-30
                assert _nodes_skipped(padded, prefixes, starts, ceiling)[i]

    @pytest.mark.parametrize("s", [1, 2])
    def test_low_orders_start_from_a_seed(self, s):
        # The seed of order 1 (largest |diagonal|) or 2 (largest screen
        # proxy over all pairs) lifts the incumbent before the first chunk,
        # so the screen drops nearly every support: a handful of solves
        # instead of the whole first chunk (120 and 4,096 without a seed).
        # One seed each: at 500 x 1000, seeding all 499,500 pairs ran 3.5x
        # slower, and seeding each column's greedy pair (969 seeds) no faster.
        phi = np.random.default_rng(3).normal(size=(60, 120)) / np.sqrt(60)
        est = exact_ric(phi, s)
        assert_matches_reference(est, reference_exact_ric(phi, s))
        assert est.blocks_evaluated <= 5
        assert len(ric._greedy_seeds(ric._deviation(phi), s)) == 1

    @pytest.mark.parametrize("m,seed", [(14, 5), (400, 1)])
    def test_late_maximizer(self, m, seed):
        # Lexicographic ranks 120334 and 118570 of 125970: a walk in column
        # order meets the witness in one of its last chunks, after the
        # incumbent has risen; the heaviest-first walk at ranks 1500 and 7014.
        phi = gaussian(seed, m, 20)
        est = exact_ric(phi, 8)
        assert_matches_reference(est, reference_exact_ric(phi, 8))

    @pytest.mark.parametrize("s", range(1, 9))
    def test_all_ties_hadamard_frame(self, s):
        # Every size-s block of the base frame has the same spectrum, so no
        # bound falls below the incumbent and every support is solved.
        phi = base_frame()
        est = exact_ric(phi, s)
        assert_matches_reference(est, reference_exact_ric(phi, s))
        assert est.blocks_evaluated == math.comb(16, s)

    @pytest.mark.parametrize("seed", range(12))
    def test_screen_prunes_most_supports(self, seed):
        # With the tree, the screen solves up to 40 of the 125,970 supports
        # (seed 5); at one squaring instead of two, up to 526 (seed 7; 447
        # and 427 at seeds 5 and 10).
        est = exact_ric(gaussian(seed, 400, 20), 8)
        assert est.blocks_evaluated < 0.02 * math.comb(20, 8)

    def test_supports_screened_stays_in_memory(self):
        est = exact_ric(gaussian(1, 6, 8), 3)
        assert "supports_screened" not in ric_payload(est)
        positional = RicEstimate(3, est.value, "exact", est.witness, 56, 7)
        assert positional.supports_screened == 0

    @pytest.mark.parametrize("m", [14, 400])
    @pytest.mark.parametrize("seed", range(12))
    def test_tree_prunes_most_supports(self, m, seed):
        # The branch-and-bound is worth keeping only if, with the greedy
        # incumbent, most supports lie in skipped subtrees.  Walking the
        # heaviest columns first, over seeds 0-29 the smallest share is
        # 96.7% at m=14 and 95.1% at m=400 (seed 12).
        est = exact_ric(gaussian(seed, m, 20), 8)
        assert est.supports_screened <= 0.06 * math.comb(20, 8)

    @pytest.mark.parametrize("n,s", [(12, 8), (16, 4)])
    def test_small_trees_skip_subtrees(self, n, s):
        # No tree is too small for node tests: only _NODE_COST decides which
        # starts are tested.  These small trees skip subtrees (65 of 495 and
        # 479 of 1,820 supports reach the screen), with the unscreened result.
        phi = gaussian(5, 14, n)
        est = exact_ric(phi, s)
        assert_matches_reference(est, reference_exact_ric(phi, s))
        assert est.supports_screened < math.comb(n, s)

    @settings(max_examples=60, deadline=None)
    @given(shape=columns_and_order(12), rows=st.integers(1, 40))
    def test_lexicographic_chunks(self, shape, rows):
        # With an incumbent of -inf no subtree is skipped, so the walk
        # yields every support.
        n, s = shape
        chunks = list(_surviving_leaves(np.zeros((n, n)), s, rows, lambda: -np.inf))
        assert all(1 <= len(chunk) <= rows for chunk in chunks)
        got = [tuple(int(i) for i in row) for chunk in chunks for row in chunk]
        assert got == list(itertools.combinations(range(n), s))

    @settings(max_examples=examples(60), deadline=None)
    @given(
        kind=st.sampled_from(MATRIX_KINDS),
        m=st.integers(1, 30),
        shape=columns_and_order(12),
        seed=st.integers(0, 2**16),
    )
    # A tree of C(14, 7) = 3432 supports, whose walk runs the node test, and
    # row sums of |G - I| that overflow to inf.
    @example(kind="gaussian", m=12, shape=(14, 7), seed=0)
    @example(kind="overflowing-rows", m=3, shape=(12, 5), seed=1)
    def test_mapped_leaves_cover_every_support_once(self, kind, m, shape, seed):
        # With an incumbent of -inf no subtree is skipped, so the supports
        # exact_ric hands to its scan, walked heaviest columns first and
        # mapped back, are every support once, each in increasing order.
        n, s = shape
        chunks = []

        def scan(dev, s, incumbent, stacks, **_):
            chunks.extend(stacks(lambda: -np.inf))
            return 0.0, tuple(range(s)), 0, 0

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ric, "_scan", scan)
            exact_ric(screening_matrix(kind, m, n, seed), s)
        assert all(1 <= len(chunk) <= ric._chunk_rows(s) for chunk in chunks)
        got = sorted(tuple(int(i) for i in row) for chunk in chunks for row in chunk)
        assert got == list(itertools.combinations(range(n), s))
        assert all((np.diff(chunk, axis=1) > 0).all() for chunk in chunks)

    def test_blocks_evaluated_stays_in_memory(self):
        est = exact_ric(gaussian(1, 6, 8), 3)
        assert "blocks_evaluated" not in ric_payload(est)
        positional = RicEstimate(3, est.value, "exact", est.witness, 56)
        assert positional.blocks_evaluated == 0


@pytest.mark.parametrize("ric_call", [
    lambda phi: exact_ric(phi, 3),
    lambda phi: sampled_ric_lower_bound(phi, 3, trials=10, seed=0),
], ids=["exact", "sampled"])
def test_gram_overflow_is_rejected(ric_call):
    phi = gaussian(0, 6, 8) * 1e200
    with pytest.raises(ValueError, match="Gram matrix .* overflows"):
        ric_call(phi)


class TestExactRic:
    def test_orthonormal_columns_are_exact_isometry(self):
        phi = np.eye(8)[:, :5]
        for s in range(1, 6):
            assert exact_ric(phi, s).value == 0.0

    def test_qr_orthonormal_columns(self):
        q, _ = np.linalg.qr(rng(1).normal(size=(9, 9)))
        phi = q[:, :6]
        for s in (1, 3, 6):
            assert exact_ric(phi, s).value <= 1e-13

    def test_duplicated_column(self):
        phi = np.zeros((4, 2))
        phi[0, 0] = phi[0, 1] = 1.0
        est = exact_ric(phi, 2)
        assert est.value == pytest.approx(1.0, abs=1e-14)
        assert est.witness.indices == (0, 1)
        assert not est.rip_holds

    def test_matches_closed_form_pair_scan(self):
        phi = gaussian(7, 12, 16)
        est = exact_ric(phi, 2)
        assert est.supports_examined == math.comb(16, 2)
        assert est.value == pytest.approx(two_by_two_scan(phi), abs=1e-10)

    def test_witness_attains_value(self):
        phi = gaussian(8, 12, 16)
        est = exact_ric(phi, 3)
        block = phi[:, est.witness.as_array()]
        gram = block.T @ block - np.eye(3)
        assert np.abs(np.linalg.eigvalsh(gram)).max() == pytest.approx(est.value, abs=1e-12)

    def test_monotone_in_order(self):
        phi = gaussian(9, 12, 16)
        values = [exact_ric(phi, s).value for s in range(1, 7)]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-12

    def test_budget_error(self):
        phi = gaussian(10, 10, 30)
        with pytest.raises(EnumerationBudgetError) as err:
            exact_ric(phi, 5, budget=100)
        assert "sampled_ric_lower_bound" in str(err.value)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            exact_ric(np.eye(3), 4)
        # The same check of s as the sampled bound's, not math.comb's TypeError.
        with pytest.raises(ValueError, match="s must be an integer, got 2.0"):
            exact_ric(np.eye(3), 2.0)
        with pytest.raises(ValueError, match="s must be an integer, got True"):
            exact_ric(np.eye(3), True)


class TestSampledLowerBound:
    @settings(max_examples=examples(120), deadline=None)
    @given(
        kind=st.sampled_from(MATRIX_KINDS),
        m=st.integers(1, 30),
        shape=columns_and_order(14),
        trials=st.integers(1, 300),
        seed=st.integers(0, 2**16),
    )
    # Found by search: without the relative slack (first example), without
    # the absolute floor (second) or with a floor of 1e-60 (third), the
    # screen drops the first maximizer and another witness is reported.
    @example(kind="rank-one", m=24, shape=(6, 4), trials=232, seed=60116)
    @example(kind="tiny-deviation", m=29, shape=(4, 2), trials=215, seed=15229)
    @example(kind="tiny-deviation", m=19, shape=(12, 5), trials=237, seed=63801)
    # One support drawn 300 times, over two stacks: every trial ties.
    @example(kind="rank-one", m=1, shape=(14, 14), trials=300, seed=1)
    def test_matches_unscreened_per_trial_loop(self, kind, m, shape, trials, seed):
        # The sampled bound screens its trials as exact_ric screens its
        # supports; value and witness must stay those of solving every trial.
        n, s = shape
        phi = screening_matrix(kind, m, n, seed)
        est = sampled_ric_lower_bound(phi, s, trials, seed)
        assert_matches_reference(est, reference_sampled(phi, s, trials, seed))
        assert est.supports_examined == trials
        assert 1 <= est.blocks_evaluated <= trials

    def test_never_exceeds_exact(self):
        phi = gaussian(11, 12, 16)
        exact = exact_ric(phi, 2).value
        for seed in range(10):
            low = sampled_ric_lower_bound(phi, 2, trials=50, seed=seed)
            assert low.value <= exact + 1e-12
            assert low.mode == "lower-bound"

    def test_exhaustive_sampling_reaches_exact(self):
        # Blocks of both routines are cut from one deviation matrix and
        # solved alike, so once the trials draw every support the sampled
        # value is the certified one, bit for bit.
        for kind, m, n, s, trials, seed in (
            ("gaussian", 6, 6, 2, 500, 3),
            ("gaussian", 9, 10, 3, 2000, 8),
            ("twice", 12, 8, 3, 1000, 4),  # every column twice: tied supports
        ):
            phi = np.hstack([gaussian(seed, m, n // 2)] * 2) if kind == "twice" else gaussian(seed, m, n)
            drawn = {tuple(row) for row in sorted_choices(derive_seeds(seed, 0, trials), n, s).tolist()}
            assert len(drawn) == math.comb(n, s)
            exact = exact_ric(phi, s)
            low = sampled_ric_lower_bound(phi, s, trials, seed)
            assert np.float64(low.value).tobytes() == np.float64(exact.value).tobytes()

    def test_huge_gram_entry_is_no_overflow(self):
        # A Gram entry of 1e308 is finite, and so is its block's value, with
        # no warning: a sum B + B^T of such a block would overflow to inf.
        phi = gaussian(5, 4, 6)
        phi[:, 0] = [1e154, 0.0, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low = sampled_ric_lower_bound(phi, 3, trials=40, seed=1)
            exact = exact_ric(phi, 3)
        assert math.isfinite(low.value) and low.value == exact.value
        assert 0 in low.witness.indices

    def test_single_trial_reproducible(self):
        phi = gaussian(13, 8, 12)
        low = sampled_ric_lower_bound(phi, 3, trials=1, seed=5)
        # Recompute the single sampled support from the documented derivation.
        g = np.random.Generator(np.random.PCG64(derive_seed(5, 0)))
        support = np.sort(g.choice(12, size=3, replace=False))
        block = phi[:, support]
        expected = np.abs(np.linalg.eigvalsh(block.T @ block - np.eye(3))).max()
        assert low.value == pytest.approx(expected, abs=1e-14)
        assert low.witness.indices == tuple(int(i) for i in support)

    @pytest.mark.parametrize("kind,n,s,trials,seed", [
        ("gaussian", 16, 2, 500, 3),    # 120 distinct supports: repeated trials
        ("gaussian", 20, 8, 1000, 2013),
        ("gaussian", 200, 60, 150, 9),  # 9 trials per eigenvalue stack
        ("twice", 16, 3, 300, 4),       # every column twice: distinct tied supports
        ("equal", 100, 60, 150, 5),     # every block equal, over 17 stacks
    ])
    def test_batched_matches_per_trial_loop(self, kind, n, s, trials, seed):
        if kind == "equal":
            phi = np.vstack([np.eye(n), 0.3 * np.ones(n)])
        elif kind == "twice":
            phi = np.hstack([gaussian(seed, 12, n // 2)] * 2)
        else:
            phi = gaussian(seed, n // 2, n)
        est = sampled_ric_lower_bound(phi, s, trials, seed)
        assert_matches_reference(est, reference_sampled(phi, s, trials, seed))
        assert est.supports_examined == trials
        # The screen drops trials, but none when every block is equal.
        assert 1 <= est.blocks_evaluated <= trials
        if kind == "equal":
            assert est.blocks_evaluated == trials

    def test_deterministic_under_seed(self):
        phi = gaussian(14, 10, 14)
        a = sampled_ric_lower_bound(phi, 2, trials=25, seed=9)
        b = sampled_ric_lower_bound(phi, 2, trials=25, seed=9)
        assert a == b

    @pytest.mark.parametrize("per_batch", [1, 3, 7])
    def test_draw_batches_match_per_trial_loop(self, monkeypatch, per_batch):
        # Draw batches of a few trials: the witness and value must not
        # depend on where the batches split the trials.
        phi = gaussian(2, 10, 20)
        monkeypatch.setattr(ric, "_DRAW_BYTES", 8 * 20 * per_batch)
        est = sampled_ric_lower_bound(phi, 4, 50, 17)
        assert_matches_reference(est, reference_sampled(phi, 4, 50, 17))

    @pytest.mark.parametrize("name,value", [
        ("seed", 1.5), ("seed", "1"), ("seed", True), ("trials", 2.5), ("trials", True), ("s", 3.0),
        ("s", None), ("s", True),
    ])
    def test_non_integer_arguments_are_rejected(self, name, value):
        args = {"s": 3, "trials": 10, "seed": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sampled_ric_lower_bound(gaussian(13, 8, 12), **args)

    def test_seed_folds_to_64_bits(self):
        phi = gaussian(13, 8, 12)
        for seed, folded in ((-1, 2**64 - 1), (2**64 + 1, 1), (np.int64(-5), 2**64 - 5)):
            est = sampled_ric_lower_bound(phi, 3, 40, seed)
            assert est == sampled_ric_lower_bound(phi, 3, 40, folded)
            assert_matches_reference(est, reference_sampled(phi, 3, 40, seed))


@st.composite
def population_and_size(draw):
    """(n, s) for both branches of numpy's choice: Floyd's algorithm when
    n <= 10000 or s <= n // 50, the tail shuffle otherwise.  Above 10000, s
    stays near the n // 50 boundary so that an example stays fast."""
    n = draw(st.one_of(st.integers(1, 40), st.integers(41, 10_000), st.integers(10_001, 12_000)))
    if n <= 40:
        return n, draw(st.integers(1, n))
    if n <= 10_000:
        return n, draw(st.integers(1, min(n, 300)))
    return n, draw(st.integers(n // 50 - 5, n // 50 + 30))


SEEDS = st.one_of(
    st.sampled_from([0, -1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64 + 1]),
    st.integers(0, 2**32 - 1),  # a single 32-bit entropy word
    st.integers(2**63, 2**64 - 1),
    st.integers(-(2**70), 2**70),
)


class TestSampledDraw:
    """The vectorised draw against one numpy Generator per trial."""

    @settings(max_examples=examples(40), deadline=None)
    @given(
        shape=population_and_size(),
        seed=SEEDS,
        first=st.one_of(st.integers(0, 10**6), st.just(2**64 - 3)),
        count=st.integers(1, 12),
    )
    @example(shape=(10_001, 200), seed=0, first=0, count=5)  # last Floyd size
    @example(shape=(10_001, 201), seed=0, first=0, count=5)  # first tail shuffle
    @example(shape=(1, 1), seed=-1, first=0, count=3)
    @example(shape=(9, 9), seed=2**32 - 1, first=4, count=3)
    @example(shape=(500, 1), seed=2**63, first=0, count=4)
    # Found by search: trial 1675 (Floyd) and trial 3541 (tail shuffle)
    # redraw a word in Lemire's loop, at bounds 9858 and 9911, while the
    # trials beside them do not.
    @example(shape=(10_000, 200), seed=0, first=1674, count=3)
    @example(shape=(10_001, 201), seed=0, first=3540, count=3)
    def test_matches_numpy_generator(self, shape, seed, first, count):
        n, s = shape
        got = sorted_choices(derive_seeds(seed, first, count), n, s)
        assert got.dtype == np.intp and got.shape == (count, s)
        np.testing.assert_array_equal(got, numpy_supports(n, s, seed, first, count))

    def test_derive_seeds_matches_derive_seed(self):
        for seed in (0, -1, 7, 2**64 + 3):
            got = derive_seeds(seed, 2**64 - 2, 4)
            assert got.dtype == np.uint64
            assert [int(x) for x in got] == [derive_seed(seed, 2**64 - 2 + t) for t in range(4)]

    @pytest.mark.parametrize("r", [0, 1, 2, 6, 2**31, 2**32 - 2])
    def test_lemire_rejection_loop(self, r):
        # Crafted words: zeros, which every bound but powers of two rejects,
        # and random words, of which r = 2**31 rejects about half, so lanes
        # redraw different numbers of times.  Each lane must return what
        # numpy's buffered_bounded_lemire_uint32 returns on its words and
        # use as many of them.
        g = rng(r)
        streams = [[0] * k + g.integers(0, 2**32, size=8).tolist() for k in (0, 1, 0, 3, 0, 2)]
        used = [0] * len(streams)

        def next_uint32(lanes=None):
            lanes = range(len(streams)) if lanes is None else lanes
            words = []
            for lane in lanes:
                words.append(streams[lane][used[lane]])
                used[lane] += 1
            return np.array(words, dtype=np.uint64)

        got = bounded(next_uint32, r, len(streams))
        for lane, stream in enumerate(streams):
            words = iter(stream)
            value, taken = 0, 0
            if r:
                span = r + 1
                m, taken = next(words) * span, 1
                if m % 2**32 < span:
                    while m % 2**32 < (2**32 - 1 - r) % span:
                        m, taken = next(words) * span, taken + 1
                value = m >> 32
            assert (int(got[lane]), used[lane]) == (value, taken)

    def test_population_out_of_range(self):
        with pytest.raises(ValueError):
            sorted_choices(derive_seeds(0, 0, 2), 2**32, 3)


class TestSandwich:
    def test_zero_vector(self):
        assert rip_sandwich_check(gaussian(1, 5, 8), np.zeros(8), 0.0)

    def test_vector_of_wrong_length(self):
        with pytest.raises(ValueError, match="vector dim 7 != matrix columns 8"):
            rip_sandwich_check(gaussian(1, 5, 8), np.zeros(7), 0.0)

    def test_orthonormal_isometry(self):
        q, _ = np.linalg.qr(rng(2).normal(size=(6, 6)))
        phi = q[:, :4]
        for seed in range(20):
            x = np.zeros(4)
            x[:2] = rng(seed).normal(size=2)
            assert rip_sandwich_check(phi, x, 1e-10)

    def test_certified_constant_validates_randomly(self):
        phi = gaussian(3, 12, 16)
        delta = exact_ric(phi, 2).value
        g = rng(4)
        for _ in range(10_000):
            x = np.zeros(16)
            sup = g.choice(16, size=2, replace=False)
            x[sup] = g.normal(size=2)
            assert rip_sandwich_check(phi, x, delta)

    def test_below_certified_constant_fails_on_witness(self):
        phi = gaussian(5, 12, 16)
        est = exact_ric(phi, 2)
        block = phi[:, est.witness.as_array()]
        eigvals, eigvecs = np.linalg.eigh(block.T @ block - np.eye(2))
        k = int(np.argmax(np.abs(eigvals)))
        x = np.zeros(16)
        x[est.witness.as_array()] = eigvecs[:, k]
        assert not rip_sandwich_check(phi, x, est.value * 0.9)


class TestRipLemmas:
    """Randomized audits of the inner-product and restriction consequences
    of a certified constant."""

    def setup_method(self):
        self.phi = gaussian(6, 12, 16)
        self.deviation = np.eye(16) - self.phi.T @ self.phi

    def test_bilinear_bound(self):
        # |<u, (I - phi^T phi) v>| <= delta_t ||u|| ||v|| when the supports
        # of u and v jointly span at most t coordinates.
        t = 4
        delta = exact_ric(self.phi, t).value
        g = rng(7)
        for _ in range(10_000):
            union = g.choice(16, size=t, replace=False)
            u = np.zeros(16)
            v = np.zeros(16)
            u[union[g.uniform(size=t) < 0.7]] = 1.0
            v[union[g.uniform(size=t) < 0.7]] = 1.0
            u *= g.normal(size=16)
            v *= g.normal(size=16)
            lhs = abs(u @ (self.deviation @ v))
            rhs = delta * np.linalg.norm(u) * np.linalg.norm(v)
            assert lhs <= rhs + 1e-12

    def test_restricted_bound(self):
        # ||((I - phi^T phi) v)_U|| <= delta_t ||v|| when |U u supp(v)| <= t.
        t = 4
        delta = exact_ric(self.phi, t).value
        g = rng(8)
        for _ in range(10_000):
            union = g.choice(16, size=t, replace=False)
            v = np.zeros(16)
            v[union[:2]] = g.normal(size=2)
            u_set = union[2:]
            lhs = np.linalg.norm((self.deviation @ v)[u_set])
            assert lhs <= delta * np.linalg.norm(v) + 1e-12

    def test_correlated_noise_bound(self):
        # ||(phi^T e)_U|| <= sqrt(1 + delta_u) ||e|| for |U| <= u.
        u_order = 3
        delta = exact_ric(self.phi, u_order).value
        g = rng(9)
        for _ in range(10_000):
            e = g.normal(size=12)
            u_set = g.choice(16, size=u_order, replace=False)
            lhs = np.linalg.norm((self.phi.T @ e)[u_set])
            assert lhs <= np.sqrt(1.0 + delta) * np.linalg.norm(e) + 1e-12
