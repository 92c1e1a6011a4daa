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

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_vector, check_integer, check_real
from .supports import SupportSet

# Generated nonzeros have magnitude in [NONZERO_MIN, 1]; keeping them away
# from zero makes "support recovered" unambiguous at machine precision.
NONZERO_MIN = 0.1

# Almost-sparse signals add a dense tail, uniform in [-TAIL_MAX, TAIL_MAX].
TAIL_MAX = 0.01

KINDS = ("exact-sparse", "almost-sparse")

# The values a sign is drawn from; read only.
_SIGNS = np.array([-1.0, 1.0])
_SIGNS.flags.writeable = False


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
    check_integer(k, "k", 0, x.shape[0])
    # Stable sort on -|x| keeps ascending index order within tied magnitudes;
    # the methods skip the np.argsort/np.sort wrappers and sort the prefix in place.
    top = (-np.abs(x)).argsort(kind="stable")[:k]
    top.sort()
    return SupportSet.from_sorted(top, x.shape[0])


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
    the same seed always yields a bit-identical instance.  The signs are
    drawn as ``_SIGNS[rng.integers(0, 2, size=s)]``, which is the draw
    ``rng.choice(_SIGNS, size=s)`` makes with replacement: the same values
    and the same generator state afterwards, without ``choice``'s argument
    handling (a test pins this).

    An ``exact-sparse`` x has exactly s nonzeros, each of magnitude at least
    ``NONZERO_MIN``, so its best s-term support is the planted one and
    ``x - x_s`` is exactly zero.  Then ``phi @ (x - x_s) + e`` equals ``e``
    up to the sign of zero entries, which a norm cannot see, so that kind
    takes ``s_support`` from the planted indices and ``e_prime_norm`` from
    ``e`` alone, with the bits of the full computation.  Norms are
    ``sqrt(v.dot(v))``, the computation ``np.linalg.norm`` makes for a 1-d
    float vector, overflow warning included.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    for name, value in (("m", m), ("N", n), ("s", s)):
        check_integer(value, name)
    if not (1 <= s <= m <= n):
        raise ValueError(f"need 1 <= s <= m <= N, got s={s}, m={m}, N={n}")
    check_real(noise_sigma, "noise_sigma", 0)
    check_integer(seed, "seed", 0)

    rng = np.random.Generator(np.random.PCG64(seed))
    phi = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
    planted = np.sort(rng.choice(n, size=s, replace=False))
    magnitudes = rng.uniform(NONZERO_MIN, 1.0, size=s)
    signs = _SIGNS[rng.integers(0, 2, size=s)]

    x = np.zeros(n)
    x[planted] = signs * magnitudes
    if kind == "almost-sparse":
        x = x + rng.uniform(-TAIL_MAX, TAIL_MAX, size=n)

    e = rng.normal(0.0, noise_sigma, size=m) if noise_sigma > 0 else np.zeros(m)
    y = phi @ x + e

    if kind == "exact-sparse":
        s_support, e_prime = SupportSet.from_sorted(planted, n), e
    else:
        s_support, x_s = best_s_term(x, s)
        e_prime = phi @ (x - x_s) + e
    return SparseInstance(
        x=x,
        s=s,
        phi=phi,
        e=e,
        y=y,
        s_support=s_support,
        e_prime_norm=math.sqrt(e_prime.dot(e_prime)),
    )
