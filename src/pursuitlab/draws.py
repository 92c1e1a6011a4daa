"""Sorted samples without replacement, one per seed, drawn as numpy draws them.

``sorted_choices(seeds, n, s)`` returns, for each 64-bit seed, the row
``np.sort(np.random.Generator(np.random.PCG64(seed)).choice(n, s,
replace=False))`` bit for bit, but runs numpy's steps on arrays with one
lane per seed instead of building one generator per seed:

1. ``SeedSequence(seed)`` hashes the seed's 32-bit words, low word first,
   into a pool of four words and mixes the pool; ``generate_state(4,
   uint64)`` hashes the pool out to four 64-bit words.  A seed below 2**32
   has one word, which pools exactly as a high word of 0 would.
2. PCG64 (O'Neill 2014) seeds its 128-bit state from the first two words
   and its stream from the last two; each 64-bit output steps the state by
   the 128-bit LCG and applies the XSL-RR output permutation.  The state is
   kept as two uint64 halves and multiplied through 32-bit limbs.
3. ``next_uint32`` splits each 64-bit output into two words, low half
   first, and keeps the high half for the next call.
4. A bounded integer in [0, r] is Lemire's (2019) multiply-shift of one
   32-bit word by r + 1, drawn again while the low half of the product is
   below 2**32 mod (r + 1).
5. ``choice`` runs Floyd's algorithm when n <= 10000 or s <= n // 50 and
   otherwise shuffles the last s positions of range(n) (a tail
   Fisher-Yates shuffle).  Floyd's sample is shuffled after it is drawn,
   which leaves the sorted sample as it is, so that shuffle is not run.

Every lane draws its bounded integers with the same bound, in the same
order; only the rare redraws of step 4 make lanes draw different numbers
of words.  Populations of 2**32 or more take other numpy paths and are
rejected.
"""

from __future__ import annotations

import numpy as np

_M32 = np.uint64(0xFFFFFFFF)
_U32 = 0xFFFFFFFF

# SeedSequence's hash constants and pool size (numpy's bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_POOL = 4

# PCG64's 128-bit multiplier: its 64-bit halves and the 32-bit limbs of the
# low half.
_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_MULT_LO = np.uint64(0x4385DF649FCCF645)
_MULT_LO_0 = np.uint64(0x9FCCF645)
_MULT_LO_1 = np.uint64(0x4385DF64)

# Generator.choice(replace=False) runs Floyd's algorithm up to this
# population and, above it, while s <= n // _FLOYD_RATIO.
_FLOYD_POPULATION = 10_000
_FLOYD_RATIO = 50


def _hash_keys(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier columns of SeedSequence's first ``count``
    hashes, as (count, 1) uint32 arrays.

    The hash constant starts at ``init`` and is multiplied by ``mult``
    before each use as a multiplier, so it is the same for every seed.
    """
    keys = [init]
    for _ in range(count):
        keys.append((keys[-1] * mult) & _U32)
    keys = np.array(keys, dtype=np.uint32)[:, None]
    return keys[:-1], keys[1:]


# mix_entropy hashes each pool word once, then, for each source word, the
# source once per other word; generate_state(4, uint64) hashes out eight
# words.
_POOL_XOR, _POOL_MUL = _hash_keys(_INIT_A, _MULT_A, _POOL * _POOL)
_STATE_XOR, _STATE_MUL = _hash_keys(_INIT_B, _MULT_B, 2 * _POOL)


def _hash(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> np.uint32(16))


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` per seed, as a
    (4, len(seeds)) array.

    Pool rows are hashed together where numpy's hashes do not depend on
    each other: the three updates from one source word read only that
    word, and the eight output words read only the final pool.
    """
    pool = np.zeros((_POOL, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & _M32
    pool[1] = seeds >> np.uint64(32)
    pool = _hash(pool, _POOL_XOR[:_POOL], _POOL_MUL[:_POOL])
    for src in range(_POOL):
        keys = slice(_POOL + (_POOL - 1) * src, _POOL + (_POOL - 1) * (src + 1))
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], _POOL_XOR[keys], _POOL_MUL[keys]))
    words = _hash(pool[np.arange(2 * _POOL) % _POOL], _STATE_XOR, _STATE_MUL).astype(np.uint64)
    return words[0::2] | (words[1::2] << np.uint64(32))


def _step(hi, lo, inc_hi, inc_lo):
    """One 128-bit LCG step, state * multiplier + increment mod 2**128."""
    lo_0 = lo & _M32
    lo_1 = lo >> np.uint64(32)
    p_00 = lo_0 * _MULT_LO_0
    p_01 = lo_0 * _MULT_LO_1
    p_10 = lo_1 * _MULT_LO_0
    mid = (p_00 >> np.uint64(32)) + (p_01 & _M32) + (p_10 & _M32)
    carry = (
        lo_1 * _MULT_LO_1 + (p_01 >> np.uint64(32)) + (p_10 >> np.uint64(32)) + (mid >> np.uint64(32))
    )
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = carry + hi * _MULT_LO + lo * _MULT_HI + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


class _Lanes:
    """One PCG64 generator per seed, seeded as ``PCG64(seed)`` seeds it."""

    def __init__(self, seeds: np.ndarray):
        state_hi, state_lo, init_hi, init_lo = _seed_words(seeds)
        one = np.uint64(1)
        self.inc_hi = (init_hi << one) | (init_lo >> np.uint64(63))
        self.inc_lo = (init_lo << one) | one
        # From state 0, one step gives the increment; add the initial state
        # and step again.
        lo = self.inc_lo + state_lo
        hi = self.inc_hi + state_hi + (lo < state_lo)
        self.hi, self.lo = _step(hi, lo, self.inc_hi, self.inc_lo)
        self.spare = np.zeros(len(seeds), dtype=np.uint64)
        self.has_spare = np.zeros(len(seeds), dtype=bool)

    def _next64(self, lanes: np.ndarray) -> np.ndarray:
        hi, lo = _step(self.hi[lanes], self.lo[lanes], self.inc_hi[lanes], self.inc_lo[lanes])
        self.hi[lanes] = hi
        self.lo[lanes] = lo
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))

    def next_uint32(self, lanes: np.ndarray | None = None) -> np.ndarray:
        """The next 32-bit word of each lane in ``lanes`` (all when None), as
        uint64."""
        if lanes is None:
            lanes = np.arange(len(self.hi))
        has = self.has_spare[lanes]
        words = self.spare[lanes]
        fresh = lanes[~has]
        if fresh.size:
            x = self._next64(fresh)
            words[~has] = x & _M32
            self.spare[fresh] = x >> np.uint64(32)
        self.has_spare[lanes] = ~has
        return words


def bounded(next_uint32, r: int, count: int) -> np.ndarray:
    """numpy's ``random_bounded_uint64(0, r)`` on ``count`` lanes.

    ``next_uint32(lanes)`` returns the next word of each lane in ``lanes``
    (all when None).  Lemire's method: m = word * (r + 1), redrawn on the
    lanes whose low half of m is below 2**32 mod (r + 1), then m >> 32.
    r = 0 draws nothing; 0 <= r < 2**32 - 1.
    """
    if r == 0:
        return np.zeros(count, dtype=np.uint64)
    span = np.uint64(r + 1)
    threshold = np.uint64((1 << 32) % (r + 1))
    m = next_uint32() * span
    redo = np.flatnonzero((m & _M32) < threshold)
    while redo.size:
        m[redo] = next_uint32(redo) * span
        redo = redo[(m[redo] & _M32) < threshold]
    return m >> np.uint64(32)


def sorted_choices(seeds: np.ndarray, n: int, s: int) -> np.ndarray:
    """``np.sort(Generator(PCG64(seed)).choice(n, s, replace=False))`` for
    each uint64 seed, as a (len(seeds), s) intp array; 1 <= s <= n < 2**32.

    Holds a (len(seeds), n) array of 8-byte entries (tail shuffle) or of
    bytes (Floyd) while it draws.
    """
    if not (1 <= s <= n < _U32 + 1):
        raise ValueError(f"cannot draw {s} of {n} items")
    count = len(seeds)
    lanes = _Lanes(seeds)
    rows = np.arange(count) * n
    if n <= _FLOYD_POPULATION or s <= n // _FLOYD_RATIO:
        # Floyd: for j = n - s, ..., n - 1 take t uniform in [0, j], or j
        # itself when t was taken already.
        taken = np.zeros(count * n, dtype=bool)
        sample = np.empty((count, s), dtype=np.intp)
        for i, j in enumerate(range(n - s, n)):
            t = bounded(lanes.next_uint32, j, count).astype(np.intp)
            t[taken[rows + t]] = j
            taken[rows + t] = True
            sample[:, i] = t
    else:
        # For i = n - 1 down to max(n - s, 1), swap position i with a
        # position uniform in [0, i]; the sample is the last s positions.
        perm = np.tile(np.arange(n, dtype=np.intp), count)
        for i in range(n - 1, max(n - s, 1) - 1, -1):
            j = rows + bounded(lanes.next_uint32, i, count).astype(np.intp)
            swap = perm[j]
            perm[j] = perm[rows + i]
            perm[rows + i] = swap
        sample = perm.reshape(count, n)[:, n - s :]
    return np.sort(sample, axis=1)
