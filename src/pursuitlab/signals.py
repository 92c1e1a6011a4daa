"""Sparse test signals and the noisy linear measurement model.

The model throughout is ``y = phi @ x + e`` with ``phi`` an m-by-N matrix,
``x`` an N-vector that is (nearly) s-sparse, and ``e`` measurement noise.
The effective perturbation seen by a recovery algorithm is
``phi @ tail + e`` where ``tail`` is everything of ``x`` outside its best
s-term support.

Random generation uses numpy's PCG64 generator, so instances are bit-for-bit
reproducible from (kind, m, N, s, noise_sigma, seed) on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_vector
from .supports import SupportSet

# Generated nonzeros have magnitude in [NONZERO_MIN, 1]; keeping them away
# from zero makes "support recovered" unambiguous at machine precision.
NONZERO_MIN = 0.1

# Almost-sparse signals add a dense tail, uniform in [-TAIL_MAX, TAIL_MAX].
TAIL_MAX = 0.01

KINDS = ("exact-sparse", "almost-sparse")


@dataclass(frozen=True)
class SparseInstance:
    """One generated recovery problem, with its ground truth.

    ``e_prime_norm`` is the l2 norm of the total perturbation
    ``phi @ (x - x_s) + e`` where ``x_s`` keeps the ``s_support`` entries.
    Arrays are treated as immutable; do not write into them.
    """

    x: np.ndarray
    s: int
    phi: np.ndarray
    e: np.ndarray
    y: np.ndarray
    s_support: SupportSet
    e_prime_norm: float


def restrict(x: np.ndarray, t: SupportSet) -> np.ndarray:
    """Copy of ``x`` with every entry outside ``t`` set to zero."""
    x = as_vector(x)
    if t.universe != x.shape[0]:
        raise ValueError(f"support universe {t.universe} != vector dim {x.shape[0]}")
    out = np.zeros_like(x)
    idx = t.as_array()
    out[idx] = x[idx]
    return out


def top_k_magnitude(x: np.ndarray, k: int) -> SupportSet:
    """Indices of the ``k`` largest-magnitude entries of ``x``.

    Ties are broken toward the smaller index, so the selection is
    deterministic and identical across platforms.
    """
    x = as_vector(x)
    if k < 0 or k > x.shape[0]:
        raise ValueError(f"k={k} out of range for vector of dim {x.shape[0]}")
    # Stable sort on -|x| keeps ascending index order within tied magnitudes.
    order = np.argsort(-np.abs(x), kind="stable")
    return SupportSet.from_sorted(np.sort(order[:k]), x.shape[0])


def best_s_term(x: np.ndarray, s: int) -> tuple[SupportSet, np.ndarray]:
    """Best s-term approximation of ``x``: its support and the thinned vector."""
    support = top_k_magnitude(x, s)
    return support, restrict(x, support)


def make_instance(
    kind: str,
    m: int,
    n: int,
    s: int,
    noise_sigma: float,
    seed: int,
) -> SparseInstance:
    """Generate a reproducible recovery problem.

    The measurement matrix has i.i.d. Gaussian entries of variance 1/m, so
    columns have unit expected norm.  Signal nonzeros sit on a uniformly
    random size-s support with magnitudes uniform in [0.1, 1] and random
    signs; ``almost-sparse`` additionally perturbs every coordinate by a
    uniform tail of magnitude at most 0.01.  Noise is i.i.d. Gaussian with
    standard deviation ``noise_sigma``.

    Draw order (matrix, support, magnitudes, signs, tail, noise) is fixed;
    the same seed always yields a bit-identical instance.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if not (1 <= s <= m <= n):
        raise ValueError(f"need 1 <= s <= m <= N, got s={s}, m={m}, N={n}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")

    rng = np.random.Generator(np.random.PCG64(seed))
    phi = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
    planted = np.sort(rng.choice(n, size=s, replace=False))
    magnitudes = rng.uniform(NONZERO_MIN, 1.0, size=s)
    signs = rng.choice(np.array([-1.0, 1.0]), size=s)

    x = np.zeros(n)
    x[planted] = signs * magnitudes
    if kind == "almost-sparse":
        x = x + rng.uniform(-TAIL_MAX, TAIL_MAX, size=n)

    e = rng.normal(0.0, noise_sigma, size=m) if noise_sigma > 0 else np.zeros(m)
    y = phi @ x + e

    s_support, x_s = best_s_term(x, s)
    e_prime = phi @ (x - x_s) + e
    return SparseInstance(
        x=x,
        s=s,
        phi=phi,
        e=e,
        y=y,
        s_support=s_support,
        e_prime_norm=float(np.linalg.norm(e_prime)),
    )
