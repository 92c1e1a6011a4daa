"""Timing that corrects for the machine's changing speed.

On a shared two-core machine the same work can take twice as long from one
few-second stretch to the next, and process CPU time moves with wall time,
so repeating passes cannot remove the swing.  ``SpeedMeter`` therefore runs
short batches of a fixed reference kernel right before and right after
every timed segment and reports beside the raw seconds normalised seconds:

    normalised = raw * NOMINAL_S / (mean kernel batch time around the segment)

i.e. the time the segment would have taken had the machine run one kernel
batch in NOMINAL_S.  The machine flips between a fast and a slow state
every fraction of a second, so batch times are bimodal; their mean, less
the fastest and the slowest batch, tracks the share of time spent slow
where a median would jump between the two states.

The kernel runs only while the program is idle, so load the program itself
puts on the machine (worker threads or processes, spinning BLAS threads,
cache pressure) does not slow the kernel and is not divided out.  Segments
are therefore kept short: a single call or command each where it cannot be
split further.  The kernel mixes the kinds of work pursuitlab does: Python
object work (sets, sorting, float text), small numpy calls and batched
LAPACK.  It never calls pursuitlab, so no change to the package moves it.
"""

from __future__ import annotations

import statistics
import time
from typing import NamedTuple

import numpy as np

# Roughly one batch's time on a two-core Xeon VM; the constant only
# scales normalised seconds so that they read like seconds.
NOMINAL_S = 0.004

BATCH_ITERATIONS = 8
BOUNDARY_BATCHES = 3
# After a segment the kernel runs for this share of the segment's time (at
# least BOUNDARY_BATCHES batches), so that a long segment, whose speed the
# few batches before it tell less about, gets more samples.
AFTER_SHARE = 0.1


class Timing(NamedTuple):
    result: object
    seconds: float
    normalised_s: float
    cpu_s: float


class SpeedMeter:
    def __init__(self) -> None:
        rng = np.random.Generator(np.random.PCG64(0))
        self.block = rng.normal(size=(24, 8))
        self.vector = rng.normal(size=64)
        gram = rng.normal(size=(48, 8, 8))
        self.stack = gram + gram.transpose(0, 2, 1)

    def batch(self) -> float:
        """Seconds for one short batch of the reference kernel."""
        t0 = time.perf_counter()
        for i in range(BATCH_ITERATIONS):
            np.linalg.qr(self.block)
            np.argsort(-np.abs(self.vector), kind="stable")
            np.linalg.eigvalsh(self.stack)
            picked = sorted(set(range(i % 7, 40)) | {i % 50})
            text = ",".join(repr(k * 0.1) for k in picked)
            sum(float(tok) for tok in text.split(","))
        return time.perf_counter() - t0

    def time(self, fn) -> Timing:
        """Run ``fn`` and time it, with kernel batches around it."""
        samples = [self.batch() for _ in range(BOUNDARY_BATCHES)]
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        cpu = time.process_time() - c0
        spent = 0.0
        while len(samples) < 2 * BOUNDARY_BATCHES or spent < AFTER_SHARE * seconds:
            samples.append(self.batch())
            spent += samples[-1]
        samples.sort()
        speed = statistics.fmean(samples[1:-1])
        return Timing(result, seconds, seconds * NOMINAL_S / speed, cpu)
