import numpy as np
import pytest

from pursuitlab import SupportSet, best_s_term, make_instance, restrict, top_k_magnitude


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestRestrict:
    def test_basic(self):
        out = restrict(np.array([1.0, -2.0, 3.0]), SupportSet.from_iterable([1], 3))
        assert np.array_equal(out, [0.0, -2.0, 0.0])

    def test_full_universe_is_identity(self):
        x = rng(1).normal(size=7)
        assert np.array_equal(restrict(x, SupportSet.full(7)), x)

    def test_partition_identity(self):
        for seed in range(20):
            x = rng(seed).normal(size=12)
            t = SupportSet.from_iterable(
                np.flatnonzero(rng(seed + 100).uniform(size=12) < 0.4).tolist(), 12
            )
            rest = SupportSet.from_iterable(set(range(12)) - set(t.indices), 12)
            assert np.array_equal(restrict(x, t) + restrict(x, rest), x)

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            restrict(np.ones(3), SupportSet.from_iterable([0], 4))


class TestTopK:
    def test_basic(self):
        assert top_k_magnitude(np.array([3.0, -5.0, 2.0]), 2).indices == (0, 1)

    def test_tie_prefers_smaller_index(self):
        assert top_k_magnitude(np.array([1.0, 1.0, 1.0]), 2).indices == (0, 1)
        assert top_k_magnitude(np.array([-2.0, 1.0, 2.0]), 1).indices == (0,)

    def test_full_sort_oracle(self):
        # Sorting all indices by (magnitude desc, index asc) and taking the
        # first k must agree with the selection.
        x = rng(2).normal(size=50)
        expected = sorted(sorted(range(50), key=lambda i: (-abs(x[i]), i))[:7])
        assert list(top_k_magnitude(x, 7).indices) == expected

    def test_scaling_invariance(self):
        x = rng(3).normal(size=30)
        base = top_k_magnitude(x, 9).indices
        for c in (0.5, 2.0, 1e6):
            assert top_k_magnitude(c * x, 9).indices == base

    def test_k_bounds(self):
        assert len(top_k_magnitude(np.ones(3), 0)) == 0
        with pytest.raises(ValueError):
            top_k_magnitude(np.ones(3), 4)
        # A count is an integer: not an integral float, not a bool.
        for bad in (2.0, True, None):
            with pytest.raises(ValueError, match="k must be an integer"):
                top_k_magnitude(np.ones(3), bad)
        assert top_k_magnitude(np.ones(3), np.int64(2)).indices == (0, 1)


class TestBestSTerm:
    def test_basic(self):
        support, x_s = best_s_term(np.array([0.1, 9.0, -0.2, 4.0]), 2)
        assert support.indices == (1, 3)
        assert np.array_equal(x_s, [0.0, 9.0, 0.0, 4.0])

    def test_already_sparse(self):
        x = np.array([0.0, 2.0, 0.0, -1.0, 0.0])
        _, x_s = best_s_term(x, 2)
        assert np.array_equal(x_s, x)

    def test_random_competitor_oracle(self):
        # No random 3-sparse competitor comes closer in l2 than the selection.
        x = rng(4).normal(size=12)
        _, x_s = best_s_term(x, 3)
        err = np.linalg.norm(x - x_s)
        g = rng(5)
        for _ in range(1000):
            z = np.zeros(12)
            sup = g.choice(12, size=3, replace=False)
            z[sup] = g.normal(size=3)
            assert err <= np.linalg.norm(x - z) + 1e-12


class TestMakeInstance:
    def test_noiseless_exact_sparse_has_zero_perturbation(self):
        inst = make_instance("exact-sparse", 10, 20, 3, 0.0, 5)
        assert inst.e_prime_norm == 0.0
        assert np.array_equal(inst.y, inst.phi @ inst.x)

    def test_same_seed_bit_identical(self):
        a = make_instance("almost-sparse", 12, 24, 3, 0.01, 42)
        b = make_instance("almost-sparse", 12, 24, 3, 0.01, 42)
        for field in ("x", "phi", "e", "y"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.s_support == b.s_support
        assert a.e_prime_norm == b.e_prime_norm

    def test_recomputation_oracle(self):
        inst = make_instance("exact-sparse", 20, 40, 3, 0.01, 1)
        x_s = restrict(inst.x, inst.s_support)
        recomputed = np.linalg.norm(inst.phi @ (inst.x - x_s) + inst.e)
        assert abs(recomputed - inst.e_prime_norm) <= 1e-12

    def test_almost_sparse_tail(self):
        inst = make_instance("almost-sparse", 16, 32, 4, 0.0, 9)
        tail = inst.x - restrict(inst.x, inst.s_support)
        assert 0 < np.abs(tail).max() <= 0.01
        assert inst.e_prime_norm > 0

    def test_support_is_planted(self):
        inst = make_instance("exact-sparse", 10, 25, 4, 0.0, 3)
        assert len(inst.s_support) == 4
        nonzero = np.flatnonzero(inst.x)
        assert list(inst.s_support.indices) == nonzero.tolist()
        assert np.abs(inst.x[nonzero]).min() >= 0.1

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            make_instance("exact-sparse", 10, 8, 2, 0.0, 0)  # m > N
        with pytest.raises(ValueError):
            make_instance("exact-sparse", 4, 8, 5, 0.0, 0)  # s > m
        for sigma in (-0.1, float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
                make_instance("exact-sparse", 4, 8, 2, sigma, 0)
        with pytest.raises(ValueError):
            make_instance("dense", 4, 8, 2, 0.0, 0)
        for name, args in (("m", (24.0, 24, 2)), ("N", (4, 8.0, 2)), ("s", (4, 8, True))):
            with pytest.raises(ValueError, match=f"{name} must be an integer, got"):
                make_instance("exact-sparse", *args, 0.0, 0)
