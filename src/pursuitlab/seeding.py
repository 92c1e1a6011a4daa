"""Deterministic 64-bit seed derivation.

Sub-seeds are produced by chaining the SplitMix64 finalizer over the parts,
so (master, i, j) maps to the same value on every platform and independent
draws can run in any order or in parallel.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_integer

_MASK = (1 << 64) - 1

# SplitMix64's increment and its two finalizer multipliers.
_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def _splitmix64(x):
    """SplitMix64 of a Python int in [0, 2**64), or of every entry of a
    uint64 array, whose arithmetic wraps mod 2**64 as the masks do."""
    z = (x + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Mix integer parts into one 64-bit seed (documented SplitMix64 chain),
    each folded to 64 bits (-1 mixes as 2**64 - 1); a bool is no integer."""
    h = 0
    for i, p in enumerate(parts):
        check_integer(p, f"parts[{i}]")
        h = _splitmix64(h ^ _splitmix64(int(p) & _MASK))
    return h


def derive_seeds(master: int, first: int, count: int) -> np.ndarray:
    """``derive_seed(master, i)`` for i in [first, first + count), as uint64;
    both parts are folded to 64 bits as ``derive_seed`` folds them."""
    head = np.uint64(derive_seed(master))
    index = np.arange(count, dtype=np.uint64) + np.uint64(first & _MASK)
    return _splitmix64(head ^ _splitmix64(index))
