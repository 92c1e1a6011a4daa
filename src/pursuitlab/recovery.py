"""Subspace Pursuit and CoSaMP with full per-iteration instrumentation.

Both algorithms start from a zero estimate and an empty support and repeat:

1. identification - pick the largest-magnitude entries of the correlation
   ``phi^T (y - phi x)`` (s of them for SP, 2s for CoSaMP) and merge their
   indices into the previous support,
2. debiasing - least squares restricted to the merged support,
3. pruning - keep the s largest-magnitude entries of the debiased vector;
   SP then re-solves least squares on the pruned support while CoSaMP
   keeps the truncation as-is,

until the residual criterion fires or ``n_max`` iterations have run.
Top-k selections break magnitude ties toward the smaller index, so runs
are deterministic.

Each iteration is a pure function of the state (support, estimate bytes)
left by the previous one.  Once that state repeats bitwise the rest of the
run is periodic and the residual criterion can no longer fire, so the loop
stops computing.  ``RecoveryResult.iterations`` is a plain list with one
record per iteration; a cycling run fills it up to ``n_max`` with the
computed records of the cycle, in order, so an entry past the first repeat
is the very record it repeats.  Results and records are identical to
running every iteration, and ``RecoveryResult.stop_reason`` says which of
``residual``, ``cycle`` or ``cap`` ended the run.

``subspace_pursuit``/``cosamp`` validate their inputs before the first
iteration.  Each iteration builds the merged support as a sorted union of
index arrays, builds one record (three ``SupportSet``s, the debiased vector
and a copy of the estimate), and computes ``y - phi x`` once, for both the
residual norm and the next correlation.  The kernels are called through the
names this module imports, where ``perfbench/tracing.py`` times them, so
they check their arguments again on every call.  ``least_squares_on_support``
skips the ``np.linalg.qr``/``np.linalg.solve`` wrappers and calls the LAPACK
gufuncs they wrap, with their bits (see ``linalg``).

A least-squares solve on the same support as the solve just before it is
not repeated: the run keeps the last support it solved and that solution,
and returns a copy of it.  The result is bitwise the one a second solve
would give, because a solve is a pure function of (phi, y, support) and
phi and y are fixed for the run; the support was solved once without a
``SingularSupportError``, so it cannot raise one now.  This skips SP's
second solve whenever pruning keeps the whole merged support (always in the
first iteration, where the merged support is the s new candidates), the
first solve at an SP fixed point whose candidates all lie in the support,
and a CoSaMP merged support that repeats.

``audit_run`` re-measures, on the records of any run, every per-iteration
inequality that is provable from a certified isometry constant; with a
certified constant below the algorithm's threshold a reported violation
means a bug, not bad luck.  It checks the run's algorithm and the
constant's mode and order, and computes x_s, the slack, the bounds and the
correlation ceiling (an SVD of phi), once per run, then walks the records
carrying the previous signal error.  Ground truth passed to a run only
adds the error norms ``signal_error`` and ``tail_energy`` to its records;
the audit takes the signal from the instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import cycle, islice

import numpy as np

from .bounds import COSAMP, SP, bounds_for
from .linalg import SingularSupportError, as_matrix, as_vector, check_integer, check_real, least_squares_on_support
from .ric import RicEstimate
from .signals import SparseInstance, best_s_term, restrict, top_k_magnitude
from .supports import SupportSet

# Relative slack when comparing measured lhs <= rhs on proved inequalities;
# keeps exact-arithmetic theorems from "failing" by one ulp of solver noise.
AUDIT_SLACK = 1e-10


@dataclass(frozen=True)
class StoppingRule:
    """Residual-based stopping with an iteration cap.

    If the perturbation norm ||e'|| is known, pass it as
    ``e_prime_norm_hint`` and the run stops once the residual drops to
    ``epsilon`` times it.  A hint of 0 means unknown; the absolute
    fallback threshold ``epsilon_abs`` is used instead.  The three
    thresholds must be finite and >= 0, and ``n_max`` an integer >= 1.
    """

    epsilon: float = 1.0
    n_max: int = 100
    e_prime_norm_hint: float = 0.0
    epsilon_abs: float = 1e-10

    def __post_init__(self) -> None:
        check_integer(self.n_max, "n_max", 1)
        for name in ("epsilon", "e_prime_norm_hint", "epsilon_abs"):
            check_real(getattr(self, name), name, 0)

    @property
    def residual_threshold(self) -> float:
        if self.e_prime_norm_hint > 0:
            return self.epsilon * self.e_prime_norm_hint
        return self.epsilon_abs


@dataclass(frozen=True)
class IterationRecord:
    """State captured at the end of one iteration.

    ``intermediate`` is the least-squares solution on the merged support and
    ``estimate`` the pruned estimate.  ``signal_error`` and ``tail_energy``
    are the distances ||x_s - x^n|| and ||x_s outside the pruned support||
    and are present only when the run was given ground truth.
    """

    delta_support: SupportSet
    merged_support: SupportSet
    pruned_support: SupportSet
    residual_norm: float
    intermediate: np.ndarray
    estimate: np.ndarray
    signal_error: float | None = None
    tail_energy: float | None = None


@dataclass(frozen=True)
class RecoveryResult:
    """Final state of a run and its per-iteration records.

    ``iterations`` holds one record per iteration; record k (from 1) is
    ``iterations[k - 1]``.  ``stop_reason`` is ``residual`` when the
    residual criterion fired, ``cycle`` when the state repeated bitwise
    (``iterations`` still has ``n_max`` entries, and those past the first
    repeat are the computed records they repeat) and ``cap`` when ``n_max``
    was reached first.  It is not part of any output file.
    """

    estimate: np.ndarray
    support: SupportSet
    iterations: list[IterationRecord] = field(default_factory=list)
    algorithm: str = SP
    stop_reason: str = "cap"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "residual"

    @property
    def residual_history(self) -> list[float]:
        return [rec.residual_norm for rec in self.iterations]


@dataclass(frozen=True)
class InequalityCheck:
    """One measured inequality: ``holds`` iff lhs <= rhs (+ float slack)."""

    name: str
    lhs: float
    rhs: float
    holds: bool


def merged_size(algorithm: str, s: int) -> int:
    """Largest merged support the algorithm solves least squares on.

    Full-rank least squares on it needs at least this many measurements.
    """
    return 2 * s if algorithm == SP else 3 * s


def certified_order(algorithm: str, s: int) -> int:
    """Isometry order the algorithm's analysis needs: 3s for SP, 4s for CoSaMP."""
    return merged_size(algorithm, s) + s


def _run(
    algorithm: str,
    phi: np.ndarray,
    y: np.ndarray,
    s: int,
    stop: StoppingRule,
    truth: np.ndarray | None,
) -> RecoveryResult:
    phi = as_matrix(phi)
    y = as_vector(y)
    m, n = phi.shape
    if y.shape[0] != m:
        raise ValueError(f"measurement length {y.shape[0]} != matrix rows {m}")
    check_integer(s, "s", 1, n)
    pick = s if algorithm == SP else 2 * s
    merged_cap = merged_size(algorithm, s)
    if merged_cap > m:
        raise ValueError(
            f"{algorithm} needs {merged_cap} <= m for full-rank least squares, "
            f"got s={s}, m={m}"
        )

    x_s = None
    if truth is not None:
        truth = as_vector(truth)
        if truth.shape[0] != n:
            raise ValueError(f"truth dim {truth.shape[0]} != matrix columns {n}")
        _, x_s = best_s_term(truth, s)

    estimate = np.zeros(n)
    residual = y - phi @ estimate
    support = np.empty(0, dtype=np.intp)
    records: list[IterationRecord] = []
    # State after each iteration -> that iteration.
    first_seen: dict[tuple[tuple[int, ...], bytes], int] = {}
    stop_reason = "cap"
    threshold = stop.residual_threshold
    # The last support solved and its solution.  A solve depends only on
    # (phi, y, support), so the same support again has the same solution.
    solved_indices: tuple[int, ...] | None = None
    solved: np.ndarray | None = None

    def solve(t: SupportSet) -> np.ndarray:
        nonlocal solved_indices, solved
        if t.indices == solved_indices:
            # A fresh array, as a solve returns: no record shares it.
            return solved.copy()
        try:
            solved = least_squares_on_support(phi, y, t)
        except SingularSupportError as err:
            raise SingularSupportError(err.support, iteration=it) from err
        solved_indices = t.indices
        return solved

    for it in range(1, stop.n_max + 1):
        delta = top_k_magnitude(phi.T @ residual, pick)
        # Sorted union through a mask: np.union1d would import numpy.ma.
        in_merged = np.zeros(n, dtype=bool)
        in_merged[support] = True
        in_merged[delta.as_array()] = True
        merged = SupportSet.from_sorted(np.flatnonzero(in_merged), n)
        intermediate = solve(merged)
        pruned = top_k_magnitude(intermediate, s)
        support = pruned.as_array()
        if algorithm == SP:
            estimate = solve(pruned)
        else:
            estimate = restrict(intermediate, pruned)
        residual = y - phi @ estimate
        residual_norm = float(np.linalg.norm(residual))

        signal_error = tail_energy = None
        if x_s is not None:
            signal_error = float(np.linalg.norm(x_s - estimate))
            tail = x_s.copy()
            tail[support] = 0.0
            tail_energy = float(np.linalg.norm(tail))
        records.append(
            IterationRecord(
                delta_support=delta,
                merged_support=merged,
                pruned_support=pruned,
                residual_norm=residual_norm,
                intermediate=intermediate,
                estimate=estimate.copy(),
                signal_error=signal_error,
                tail_energy=tail_energy,
            )
        )
        if residual_norm <= threshold:
            stop_reason = "residual"
            break
        # The next iteration is a pure function of this state.  If it equals
        # the state after iteration `first`, iterations it + 1, it + 2, ...
        # repeat iterations first + 1, ..., it in turn, so append those.
        first = first_seen.setdefault((pruned.indices, estimate.tobytes()), it)
        if first != it:
            stop_reason = "cycle"
            records += islice(cycle(records[first:]), stop.n_max - it)
            pruned = records[-1].pruned_support
            estimate = records[-1].estimate.copy()
            break

    return RecoveryResult(
        estimate=estimate,
        support=pruned,
        iterations=records,
        algorithm=algorithm,
        stop_reason=stop_reason,
    )


def subspace_pursuit(
    phi: np.ndarray,
    y: np.ndarray,
    s: int,
    stop: StoppingRule | None = None,
    truth: np.ndarray | None = None,
) -> RecoveryResult:
    """Recover an s-sparse estimate of y = phi x by subspace pursuit.

    Adds s candidates per iteration and solves two restricted least-squares
    problems (after merging and after pruning).  A rank-deficient block
    raises ``SingularSupportError`` carrying the iteration and support; it
    is never silently regularized.
    """
    return _run(SP, phi, y, s, stop or StoppingRule(), truth)


def cosamp(
    phi: np.ndarray,
    y: np.ndarray,
    s: int,
    stop: StoppingRule | None = None,
    truth: np.ndarray | None = None,
) -> RecoveryResult:
    """Recover an s-sparse estimate by compressive sampling matching pursuit.

    Adds 2s candidates per iteration, solves one restricted least-squares
    problem, and prunes by plain truncation to the s largest entries.
    """
    return _run(COSAMP, phi, y, s, stop or StoppingRule(), truth)


def audit_run(
    result: RecoveryResult,
    instance: SparseInstance,
    delta: RicEstimate,
) -> list[tuple[int, InequalityCheck]]:
    """Measure every provable inequality at every iteration of a run.

    Returns (iteration, check) pairs, iterations numbered from 1, so
    iteration n's checks are the pairs whose first entry is n.  ``delta``
    must be an exactly certified constant of order >= 3s (SP) or 4s
    (CoSaMP).  The signal comes from ``instance``, so the run need not have
    been given ground truth; the first iteration starts from the zero
    estimate.

    Checks per iteration:

    * ``identification``   - energy of x_s missed by the merged support,
    * ``debiasing``        - error of the restricted least-squares solution
                             on the merged support,
    * ``metric-relation``  - signal error against tail energy (needs the
                             certified constant < 1),
    * ``pruning``          - x_s energy dropped by pruning,
    * ``contraction``      - one-step decrease of the signal error (needs
                             a contracting rate, i.e. delta below the
                             algorithm's threshold),
    * ``orthogonality-merged`` / ``orthogonality-pruned`` - residual
      correlation left on the solved support (the pruned check applies to
      SP only, whose last step is a least-squares solve).

    Comparisons allow a relative slack of 1e-10 so machine-precision ties
    do not read as violations of exact-arithmetic theorems.
    """
    algorithm = result.algorithm
    if algorithm not in (SP, COSAMP):
        raise ValueError(f"algorithm must be {SP!r} or {COSAMP!r}, got {algorithm!r}")
    order = certified_order(algorithm, instance.s)
    if delta.mode != "exact":
        raise ValueError("audit requires an exactly certified constant")
    if delta.s < order:
        raise ValueError(
            f"certified order {delta.s} too small: {algorithm} with s={instance.s} "
            f"needs order >= {order}"
        )

    phi, y = as_matrix(instance.phi), as_vector(instance.y)
    x_s = restrict(instance.x, instance.s_support)
    e_norm = instance.e_prime_norm
    d = delta.value
    # ||x_s - x^0|| with x^0 = 0; after iteration n it is iteration n's end error.
    prev_error = float(np.linalg.norm(x_s))
    slack = AUDIT_SLACK * max(1.0, prev_error)
    report = bounds_for(algorithm, d) if d < 1.0 else None
    # Residual-correlation checks: exact zeros in exact arithmetic, so the
    # ceiling is pure float noise scaled by the problem.
    ortho_scale = AUDIT_SLACK * float(np.linalg.norm(phi, 2)) * float(np.linalg.norm(y))
    checks: list[tuple[int, InequalityCheck]] = []

    def add(name: str, lhs: float, rhs: float) -> None:
        checks.append((it, InequalityCheck(name, float(lhs), float(rhs), bool(lhs <= rhs + slack))))

    for it, record in enumerate(result.iterations, start=1):
        merged = record.merged_support.as_array()
        dropped = merged[~np.isin(merged, record.pruned_support.as_array())]
        missed = x_s.copy()
        missed[merged] = 0.0
        missed_norm = float(np.linalg.norm(missed))
        mid_error = float(np.linalg.norm(x_s - record.intermediate))
        end_error = float(np.linalg.norm(x_s - record.estimate))

        add(
            "identification",
            missed_norm,
            np.sqrt(2.0) * d * prev_error + np.sqrt(2.0 * (1.0 + d)) * e_norm,
        )
        add(
            "debiasing",
            float(np.linalg.norm((x_s - record.intermediate)[merged])),
            d * mid_error + np.sqrt(1.0 + d) * e_norm,
        )
        if d < 1.0:
            add(
                "metric-relation",
                mid_error,
                np.sqrt(1.0 / (1.0 - d * d)) * missed_norm + np.sqrt(1.0 + d) / (1.0 - d) * e_norm,
            )
        add(
            "pruning",
            float(np.linalg.norm(x_s[dropped])),
            np.sqrt(2.0) * d * mid_error + np.sqrt(2.0 * (1.0 + d)) * e_norm,
        )
        if report is not None and report.valid:
            add(
                "contraction",
                end_error,
                report.rho * prev_error + (1.0 - report.rho) * report.tau * e_norm,
            )
        mid_corr = phi.T @ (y - phi @ record.intermediate)
        add("orthogonality-merged", float(np.abs(mid_corr[merged]).max()), ortho_scale)
        if algorithm == SP:
            end_corr = phi.T @ (y - phi @ record.estimate)
            add(
                "orthogonality-pruned",
                float(np.abs(end_corr[record.pruned_support.as_array()]).max()),
                ortho_scale,
            )
        prev_error = end_error
    return checks
