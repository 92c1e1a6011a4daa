"""Index sets over a fixed coordinate universe.

A support is an immutable, ascending tuple of column/coordinate indices
together with the ambient dimension it indexes into.  Supports are hashable
and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class SupportSet:
    """Sorted, duplicate-free set of indices into ``range(universe)``."""

    indices: tuple[int, ...]
    universe: int

    def __post_init__(self) -> None:
        if self.universe <= 0:
            raise ValueError(f"universe must be positive, got {self.universe}")
        prev = -1
        for i in self.indices:
            if i <= prev:
                raise ValueError(f"indices must be strictly increasing, got {self.indices}")
            prev = i
        if prev >= self.universe:
            raise ValueError(f"index {prev} out of range for universe {self.universe}")

    @classmethod
    def from_iterable(cls, indices: Iterable[int], universe: int) -> "SupportSet":
        """Build a support from any iterable of indices (sorted, checked)."""
        ids = sorted(int(i) for i in indices)
        for a, b in zip(ids, ids[1:]):
            if a == b:
                raise ValueError(f"duplicate index {a}")
        return cls(tuple(ids), universe)

    @classmethod
    def from_sorted(cls, indices: np.ndarray, universe: int) -> "SupportSet":
        """Build a support from an ascending, duplicate-free integer array."""
        return cls(tuple(indices.tolist()), universe)

    @classmethod
    def empty(cls, universe: int) -> "SupportSet":
        return cls((), universe)

    @classmethod
    def full(cls, universe: int) -> "SupportSet":
        return cls(tuple(range(universe)), universe)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def _check_same_universe(self, other: "SupportSet") -> None:
        if self.universe != other.universe:
            raise ValueError(f"universe mismatch: {self.universe} != {other.universe}")

    def union(self, other: "SupportSet") -> "SupportSet":
        self._check_same_universe(other)
        return SupportSet.from_iterable(set(self.indices) | set(other.indices), self.universe)

    def intersection(self, other: "SupportSet") -> "SupportSet":
        self._check_same_universe(other)
        return SupportSet.from_iterable(set(self.indices) & set(other.indices), self.universe)

    def difference(self, other: "SupportSet") -> "SupportSet":
        self._check_same_universe(other)
        return SupportSet.from_iterable(set(self.indices) - set(other.indices), self.universe)

    def complement(self) -> "SupportSet":
        inside = set(self.indices)
        return SupportSet(tuple(i for i in range(self.universe) if i not in inside), self.universe)

    def as_array(self) -> np.ndarray:
        """Indices as an integer numpy array (for fancy indexing)."""
        return np.asarray(self.indices, dtype=np.intp)
