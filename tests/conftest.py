"""Shared fixtures: certified-frame ensemble and sparse-signal helpers.

The certified ensemble starts from a 16-column frame in R^15 obtained by
deleting one row of a scaled 16x16 Hadamard matrix.  Because the deleted
row is flat, every size-6 column block deviates from the identity by
exactly 1/3 and every size-8 block by 7/15, so the base frame is certified
well under the contraction thresholds of both algorithms.  Seeded Gaussian
perturbations of growing size (0.003 * seed) sweep the constants up through
the thresholds, giving a reproducible mix of certified and excluded
matrices.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess

import numpy as np
import pytest
from hypothesis import settings

from pursuitlab import SparseInstance, best_s_term, cli, derive_seed

FRAME_COLS = 16
FRAME_ROWS = 15
FRAME_COUNT = 20
FRAME_STEP = 0.003

# HYPOTHESIS_PROFILE=ci (set in CI) runs the draw and oracle properties,
# the float text writer's check against repr and the reader's check of
# decimal text against float() among them, with CI_EXAMPLES times their
# local example counts; the default profile is hypothesis' own.
HYPOTHESIS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")
CI_EXAMPLES = 5
settings.register_profile("ci", deadline=None, print_blob=True)
settings.load_profile(HYPOTHESIS_PROFILE)


def examples(local: int) -> int:
    """A property's max_examples: ``local``, or CI_EXAMPLES times it under ci."""
    return local * CI_EXAMPLES if HYPOTHESIS_PROFILE == "ci" else local


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``pursuitlab *args`` run in process through ``cli.main``: its exit
    code and its captured stdout and stderr, in the fields a subprocess run
    returns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())


def hadamard(n: int) -> np.ndarray:
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def base_frame() -> np.ndarray:
    n = FRAME_COLS
    full = hadamard(n) / np.sqrt(n)
    return np.sqrt(n / (n - 1.0)) * full[: n - 1, :]


def perturbed_frame(seed: int) -> np.ndarray:
    """Column-normalized base frame plus a seeded Gaussian of size 0.003*seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    m = base_frame() + FRAME_STEP * seed * rng.normal(size=(FRAME_ROWS, FRAME_COLS))
    return m / np.linalg.norm(m, axis=0, keepdims=True)


def sparse_signal(n: int, s: int, seed: int) -> np.ndarray:
    """Seeded s-sparse signal with magnitudes in [0.1, 1] and random signs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = np.zeros(n)
    support = rng.choice(n, size=s, replace=False)
    x[support] = rng.uniform(0.1, 1.0, size=s) * rng.choice(np.array([-1.0, 1.0]), size=s)
    return x


def instance_for(phi: np.ndarray, x: np.ndarray, s: int, e: np.ndarray | None = None) -> SparseInstance:
    """Wrap an explicit (phi, x, e) triple as a ground-truth instance."""
    m = phi.shape[0]
    e = np.zeros(m) if e is None else e
    y = phi @ x + e
    support, x_s = best_s_term(x, s)
    return SparseInstance(
        x=x,
        s=s,
        phi=phi,
        e=e,
        y=y,
        s_support=support,
        e_prime_norm=float(np.linalg.norm(phi @ (x - x_s) + e)),
    )


@pytest.fixture(scope="session")
def certified_base():
    return base_frame()


def signal_seed(matrix_seed: int, signal_index: int) -> int:
    return derive_seed(777, matrix_seed, signal_index)
