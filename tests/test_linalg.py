import numpy as np
import pytest

from pursuitlab import (
    SingularSupportError,
    SupportSet,
    least_squares_on_support,
    spectral_norm_symmetric,
)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestLeastSquares:
    def test_identity_block(self):
        phi = np.eye(4)
        y = np.array([1.0, -2.0, 3.0, 0.5])
        z = least_squares_on_support(phi, y, SupportSet.from_iterable([0, 1], 4))
        assert np.array_equal(z, [1.0, -2.0, 0.0, 0.0])

    def test_consistent_system_recovers_exactly(self):
        phi = rng(3).normal(size=(6, 8))
        x = np.zeros(8)
        x[[0, 3, 5]] = [1.0, -0.5, 2.0]
        t = SupportSet.from_iterable([0, 3, 5], 8)
        z = least_squares_on_support(phi, phi @ x, t)
        assert np.linalg.norm(z - x) <= 1e-10 * np.linalg.norm(x)

    def test_gradient_orthogonality(self):
        # At the minimum the residual is uncorrelated with the solved columns.
        phi = rng(4).normal(size=(6, 8))
        y = rng(5).normal(size=6)
        t = SupportSet.from_iterable([0, 3, 5], 8)
        z = least_squares_on_support(phi, y, t)
        grad = phi.T @ (y - phi @ z)
        scale = np.linalg.norm(phi, 2) * np.linalg.norm(y)
        assert np.abs(grad[t.as_array()]).max() <= 1e-10 * scale

    def test_zero_outside_support(self):
        phi = rng(6).normal(size=(5, 9))
        y = rng(7).normal(size=5)
        t = SupportSet.from_iterable([2, 4], 9)
        z = least_squares_on_support(phi, y, t)
        outside = np.delete(z, [2, 4])
        assert np.all(outside == 0.0)

    def test_idempotent(self):
        phi = rng(8).normal(size=(7, 10))
        y = rng(9).normal(size=7)
        t = SupportSet.from_iterable([1, 4, 8], 10)
        z = least_squares_on_support(phi, y, t)
        z2 = least_squares_on_support(phi, phi @ z, t)
        assert np.linalg.norm(z2 - z) <= 1e-10 * max(1.0, np.linalg.norm(z))

    def test_empty_support(self):
        phi = rng(10).normal(size=(3, 4))
        z = least_squares_on_support(phi, np.ones(3), SupportSet.empty(4))
        assert np.array_equal(z, np.zeros(4))

    def test_rank_deficient_raises(self):
        phi = rng(11).normal(size=(5, 6))
        phi[:, 3] = phi[:, 1]  # duplicated column
        t = SupportSet.from_iterable([1, 3], 6)
        with pytest.raises(SingularSupportError) as err:
            least_squares_on_support(phi, np.ones(5), t)
        assert err.value.support == t

    def test_more_columns_than_rows_raises(self):
        phi = rng(12).normal(size=(3, 8))
        with pytest.raises(SingularSupportError):
            least_squares_on_support(phi, np.ones(3), SupportSet.from_iterable(range(4), 8))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            least_squares_on_support(np.eye(3), np.ones(4), SupportSet.from_iterable([0], 3))

    def test_out_of_range(self):
        phi = np.zeros((2, 3)) + 1.0
        with pytest.raises(ValueError, match="column index 3 out of range"):
            least_squares_on_support(phi, np.ones(2), SupportSet.from_iterable([0, 3], 4))


class TestSpectralNorm:
    def test_zero_matrix(self):
        assert spectral_norm_symmetric(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert spectral_norm_symmetric(np.diag([0.3, -0.7])) == pytest.approx(0.7, abs=1e-15)

    def test_monte_carlo_rayleigh_oracle(self):
        # Dense sampling of Rayleigh quotients lower-bounds the norm and, for
        # this frozen seed pair, comes within 1e-3 of it from below.
        g = rng(24).normal(size=(5, 5))
        g = 0.5 * (g + g.T)
        value = spectral_norm_symmetric(g)
        probes = rng(102).normal(size=(100_000, 5))
        quot = np.abs(np.einsum("ij,jk,ik->i", probes, g, probes)) / np.einsum(
            "ij,ij->i", probes, probes
        )
        best = quot.max()
        assert best <= value + 1e-12
        assert value - best <= 1e-3

    def test_rayleigh_lower_bound_every_probe(self):
        g = rng(15).normal(size=(6, 6))
        g = 0.5 * (g + g.T)
        value = spectral_norm_symmetric(g)
        for _ in range(100):
            a = rng(16).normal(size=6)
            assert abs(a @ g @ a) / (a @ a) <= value + 1e-12

    def test_rejects_asymmetric_and_nonsquare(self):
        with pytest.raises(ValueError):
            spectral_norm_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(ValueError):
            spectral_norm_symmetric(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        g = np.zeros((2, 2))
        g[0, 0] = np.nan
        with pytest.raises(ValueError):
            spectral_norm_symmetric(g)
