from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pursuitlab.recovery
from pursuitlab import (
    SP,
    SP_TAIL,
    IterationRecord,
    SingularSupportError,
    StoppingRule,
    SupportSet,
    audit_run,
    best_s_term,
    bounds_for,
    cosamp,
    exact_ric,
    least_squares_on_support,
    make_instance,
    restrict,
    sampled_ric_lower_bound,
    subspace_pursuit,
    top_k_magnitude,
)
from pursuitlab.fileio import recovery_payload
from conftest import base_frame, instance_for, perturbed_frame, sparse_signal

ALGORITHMS = [("SP", subspace_pursuit), ("CoSaMP", cosamp)]


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("name,run", ALGORITHMS)
def test_zero_measurements(name, run):
    phi = rng(1).normal(size=(12, 20))
    result = run(phi, np.zeros(12), 3)
    assert result.converged
    assert len(result.iterations) == 1
    assert np.array_equal(result.estimate, np.zeros(20))


class TestCertifiedExactRecovery:
    """With a certified constant under the contraction threshold, noiseless
    sparse recovery is exact for every signal."""

    def test_sp_on_certified_frame(self, certified_base):
        delta = exact_ric(certified_base, 6)
        assert delta.value < 0.4859
        for k in range(10):
            x = sparse_signal(16, 2, seed=100 + k)
            result = subspace_pursuit(certified_base, certified_base @ x, 2)
            assert result.converged
            assert np.linalg.norm(result.estimate - x) <= 1e-8
            assert result.support.indices == tuple(np.flatnonzero(x))

    def test_cosamp_on_certified_frame(self, certified_base):
        delta = exact_ric(certified_base, 8)
        assert delta.value < 0.5
        for k in range(10):
            x = sparse_signal(16, 2, seed=200 + k)
            result = cosamp(certified_base, certified_base @ x, 2)
            assert result.converged
            assert np.linalg.norm(result.estimate - x) <= 1e-8
            assert result.support.indices == tuple(np.flatnonzero(x))


@pytest.mark.parametrize("name,run", ALGORITHMS)
def test_empirical_success_baseline(name, run):
    # Frozen regression baseline, measured once over seeds 0..99 at
    # m=32, N=64, s=4, noiseless: SP reached residual <= 1e-8 on 99 seeds
    # and CoSaMP on 100; assert the documented floor of 95.
    hits = 0
    for seed in range(100):
        inst = make_instance("exact-sparse", 32, 64, 4, 0.0, seed)
        result = run(inst.phi, inst.y, 4)
        hits += float(np.linalg.norm(inst.y - inst.phi @ result.estimate)) <= 1e-8
    assert hits >= 95


@pytest.mark.parametrize("name,run", ALGORITHMS)
def test_trace_invariants(name, run):
    inst = make_instance("exact-sparse", 24, 48, 4, 0.0, 11)
    result = run(inst.phi, inst.y, 4, truth=inst.x)
    merged_cap = 8 if name == "SP" else 12
    scale = np.linalg.norm(inst.phi, 2) * np.linalg.norm(inst.y)
    assert result.iterations
    for rec in result.iterations:
        assert len(rec.pruned_support) <= 4
        assert len(rec.merged_support) <= merged_cap
        assert set(rec.pruned_support) <= set(rec.merged_support)
        assert set(np.flatnonzero(rec.estimate)) <= set(rec.pruned_support)
        # Residual left on the solved support is numerically zero.
        corr = inst.phi.T @ (inst.y - inst.phi @ rec.intermediate)
        assert np.abs(corr[rec.merged_support.as_array()]).max() <= 1e-10 * scale
        if name == "SP":
            corr = inst.phi.T @ (inst.y - inst.phi @ rec.estimate)
            assert np.abs(corr[rec.pruned_support.as_array()]).max() <= 1e-10 * scale
    last = result.iterations[-1]
    assert np.array_equal(result.estimate, last.estimate)
    assert result.residual_history == [r.residual_norm for r in result.iterations]


def test_trace_levels():
    # Every record carries both vectors; ground truth adds the error norms
    # and changes nothing else.
    inst = make_instance("exact-sparse", 16, 32, 3, 0.0, 2)
    plain = subspace_pursuit(inst.phi, inst.y, 3)
    with_truth = subspace_pursuit(inst.phi, inst.y, 3, truth=inst.x)
    for result in (plain, with_truth):
        for rec in result.iterations:
            assert isinstance(rec.intermediate, np.ndarray) and isinstance(rec.estimate, np.ndarray)
    assert all(r.signal_error is None and r.tail_energy is None for r in plain.iterations)
    assert all(r.signal_error is not None and r.tail_energy is not None
               for r in with_truth.iterations)
    for got, want in zip(with_truth.iterations, plain.iterations, strict=True):
        _same_record(replace(got, signal_error=None, tail_energy=None), want)


def reference_run(name, phi, y, s, stop, truth):
    """The recovery loop without early exit, built from the public, validating
    kernels: every one of n_max iterations runs."""
    n = phi.shape[1]
    x_s = best_s_term(truth, s)[1] if truth is not None else None
    estimate, support, records = np.zeros(n), SupportSet.empty(n), []
    for it in range(1, stop.n_max + 1):
        delta_support = top_k_magnitude(phi.T @ (y - phi @ estimate), s if name == "SP" else 2 * s)
        merged = SupportSet.from_iterable(set(support.indices) | set(delta_support.indices), n)
        intermediate = least_squares_on_support(phi, y, merged)
        support = top_k_magnitude(intermediate, s)
        if name == "SP":
            estimate = least_squares_on_support(phi, y, support)
        else:
            estimate = restrict(intermediate, support)
        residual = float(np.linalg.norm(y - phi @ estimate))
        truth_known = x_s is not None
        outside = SupportSet.from_iterable(set(range(n)) - set(support.indices), n)
        records.append(IterationRecord(
            delta_support, merged, support, residual, intermediate, estimate.copy(),
            float(np.linalg.norm(x_s - estimate)) if truth_known else None,
            float(np.linalg.norm(restrict(x_s, outside))) if truth_known else None,
        ))
        if residual <= stop.residual_threshold:
            return estimate, support, records, True
    return estimate, support, records, False


def _bitwise_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is not None and b is not None and a.tobytes() == b.tobytes()
    return a == b


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(["SP", "CoSaMP"]),
    # Failing runs that cycle below m=17, converging runs above.
    m=st.one_of(st.integers(12, 16), st.integers(17, 48)),
    sigma=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 2**16),
    n_max=st.integers(1, 40),
    with_truth=st.booleans(),
)
# Cycles of period 2, 3 and 5 whose replay ends mid-cycle.
@example(name="SP", m=12, sigma=0.0, seed=98, n_max=7, with_truth=True)
@example(name="CoSaMP", m=14, sigma=0.0, seed=68, n_max=11, with_truth=False)
@example(name="CoSaMP", m=14, sigma=0.0, seed=172, n_max=40, with_truth=True)
# The converging regime of the benchmark's sweeps.
@example(name="SP", m=40, sigma=0.0, seed=40, n_max=40, with_truth=False)
@example(name="CoSaMP", m=40, sigma=1e-3, seed=41, n_max=40, with_truth=True)
@example(name="SP", m=48, sigma=1e-3, seed=48, n_max=40, with_truth=True)
@example(name="CoSaMP", m=48, sigma=0.0, seed=49, n_max=40, with_truth=False)
def test_cycle_replay_matches_full_run(name, m, sigma, seed, n_max, with_truth):
    inst = make_instance("exact-sparse", m, 64, 4, sigma, seed)
    stop = StoppingRule(n_max=n_max, e_prime_norm_hint=inst.e_prime_norm)
    truth = inst.x if with_truth else None
    run = subspace_pursuit if name == "SP" else cosamp
    result = run(inst.phi, inst.y, 4, stop=stop, truth=truth)
    estimate, support, records, converged = reference_run(
        name, inst.phi, inst.y, 4, stop, truth
    )
    assert result.estimate.tobytes() == estimate.tobytes()
    assert result.support == support
    assert result.converged == converged
    assert len(result.iterations) == len(records)
    for k, (got, want) in enumerate(zip(result.iterations, records), start=1):
        for f in fields(IterationRecord):
            assert _bitwise_equal(getattr(got, f.name), getattr(want, f.name)), (k, f.name)


def _same_record(got, want):
    for f in fields(IterationRecord):
        assert _bitwise_equal(getattr(got, f.name), getattr(want, f.name)), f.name


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["SP", "CoSaMP"]),
    m=st.integers(12, 16),
    sigma=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 2**16),
    n_max=st.integers(1, 100),
    with_truth=st.booleans(),
)
# Cycles of period 2 (SP) and 5 (CoSaMP) replayed to the default cap.
@example(name="SP", m=12, sigma=0.0, seed=98, n_max=100, with_truth=True)
@example(name="CoSaMP", m=14, sigma=0.0, seed=172, n_max=100, with_truth=False)
def test_cycling_iterations_read_like_the_full_list(name, m, sigma, seed, n_max, with_truth):
    # The records and residuals of a cycling run match those of a run that
    # computes every iteration, field by field and bitwise.
    inst = make_instance("exact-sparse", m, 64, 4, sigma, seed)
    stop = StoppingRule(n_max=n_max, e_prime_norm_hint=inst.e_prime_norm)
    truth = inst.x if with_truth else None
    run = subspace_pursuit if name == "SP" else cosamp
    result = run(inst.phi, inst.y, 4, stop=stop, truth=truth)
    records = reference_run(name, inst.phi, inst.y, 4, stop, truth)[2]
    for rec, want in zip(result.iterations, records, strict=True):
        _same_record(rec, want)
    assert result.residual_history == [rec.residual_norm for rec in records]


@pytest.mark.parametrize("name,run,m,seed", [
    ("SP", subspace_pursuit, 12, 98),
    ("CoSaMP", cosamp, 14, 172),
])
def test_cycle_builds_records_only_when_read(name, run, m, seed, monkeypatch):
    # A cycling run builds one record per computed iteration and reading its
    # list builds none; each entry past the first repeat is the computed
    # record it repeats, not a copy.
    built, selections = [], []
    build = IterationRecord.__init__
    select = pursuitlab.recovery.top_k_magnitude

    def counted_build(self, *args, **kwargs):
        built.append(None)
        build(self, *args, **kwargs)

    def counted_select(*args):
        selections.append(None)
        return select(*args)

    monkeypatch.setattr(IterationRecord, "__init__", counted_build)
    monkeypatch.setattr(pursuitlab.recovery, "top_k_magnitude", counted_select)
    inst = make_instance("exact-sparse", m, 64, 4, 0.0, seed)
    result = run(inst.phi, inst.y, 4, stop=StoppingRule(n_max=100))
    computed = len(selections) // 2  # identification and pruning
    records = result.iterations
    assert result.stop_reason == "cycle" and len(records) == 100
    assert len(built) == computed < 100
    # The state after the last computed iteration first appeared after
    # iteration j + 1, so iteration k + 1 > computed repeats iteration
    # j + 2 + (k - j - 1) % period.
    states = [(rec.pruned_support.indices, rec.estimate.tobytes()) for rec in records[:computed]]
    j = states.index(states[-1])
    period = computed - 1 - j
    for k in range(computed, 100):
        assert records[k] is records[j + 1 + (k - j - 1) % period]
    assert len(built) == computed


@pytest.mark.parametrize("name,run,m,seed", [
    ("SP", subspace_pursuit, 12, 98),
    ("CoSaMP", cosamp, 14, 172),
])
def test_residual_history_builds_no_records(name, run, m, seed, monkeypatch):
    # The residuals of a cycling run, and its `recover` payload at every
    # trace level, are read from the records the run built.
    built = []
    build = IterationRecord.__init__

    def counted_build(self, *args, **kwargs):
        built.append(None)
        build(self, *args, **kwargs)

    monkeypatch.setattr(IterationRecord, "__init__", counted_build)
    inst = make_instance("exact-sparse", m, 64, 4, 0.0, seed)
    result = run(inst.phi, inst.y, 4, stop=StoppingRule(n_max=100))
    computed = len(built)
    assert result.stop_reason == "cycle" and computed < 100
    history = result.residual_history
    assert len(history) == 100
    assert recovery_payload(result, trace="none")["residual_history"] == history
    payload = recovery_payload(result, trace="norms")
    recovery_payload(result, trace="full")
    assert len(built) == computed
    assert history == [row["residual_norm"] for row in payload["iterations"]]
    assert history == [rec.residual_norm for rec in result.iterations]


@pytest.mark.parametrize("name,run,m,solves_per_iteration", [
    ("SP", subspace_pursuit, 12, 2),
    ("CoSaMP", cosamp, 14, 1),
])
def test_cycle_stops_the_work(name, run, m, solves_per_iteration, monkeypatch):
    # Measured once: every failing run repeats by iteration 6 (SP) or 25
    # (CoSaMP) with periods 1, 2, 3 and 5.
    solves = []

    def counted(*args):
        solves.append(None)
        return least_squares_on_support(*args)

    monkeypatch.setattr(pursuitlab.recovery, "least_squares_on_support", counted)
    stop = StoppingRule()
    failing = None
    for seed in range(200):
        inst = make_instance("exact-sparse", m, 64, 4, 0.0, seed)
        solves.clear()
        result = run(inst.phi, inst.y, 4, stop=stop)
        if result.converged:
            assert result.stop_reason == "residual"
            continue
        failing = inst
        assert result.stop_reason == "cycle"
        assert len(result.iterations) == stop.n_max
        assert 0 < len(solves) / solves_per_iteration < stop.n_max / 3
    assert failing is not None
    capped = run(failing.phi, failing.y, 4, stop=StoppingRule(n_max=1))
    assert capped.stop_reason == "cap" and not capped.converged


def test_stopping_rule_honored():
    inst = make_instance("exact-sparse", 16, 32, 3, 0.01, 4)
    result = subspace_pursuit(inst.phi, inst.y, 3, stop=StoppingRule(n_max=5))
    assert not result.converged
    assert len(result.iterations) == 5
    relaxed = subspace_pursuit(
        inst.phi, inst.y, 3,
        stop=StoppingRule(epsilon=1.0, e_prime_norm_hint=inst.e_prime_norm, n_max=50),
    )
    assert relaxed.converged
    assert relaxed.iterations[-1].residual_norm <= inst.e_prime_norm


def test_preconditions():
    phi = rng(3).normal(size=(6, 12))
    y = np.zeros(6)
    with pytest.raises(ValueError):
        subspace_pursuit(phi, y, 4)  # 2s > m
    with pytest.raises(ValueError):
        cosamp(phi, y, 3)  # 3s > m
    with pytest.raises(ValueError):
        subspace_pursuit(phi, np.zeros(5), 2)
    with pytest.raises(ValueError, match="truth dim 11 != matrix columns 12"):
        subspace_pursuit(phi, y, 2, truth=np.zeros(11))
    with pytest.raises(ValueError):
        StoppingRule(n_max=0)
    # NaN once ran every iteration and inf "converged" after one.
    for bad in (np.nan, np.inf, -np.inf):
        for name in ("epsilon", "e_prime_norm_hint", "epsilon_abs"):
            with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
                StoppingRule(**{name: bad})
    for bad in (2.5, 3.0, "7", True):
        with pytest.raises(ValueError, match="n_max must be an integer >= 1"):
            StoppingRule(n_max=bad)
    assert StoppingRule(n_max=np.int64(3)).n_max == 3
    # s is checked at the entry point, not by a TypeError inside top-k, and
    # True is not read as s = 1.
    phi = rng(3).normal(size=(12, 24))
    for run in (subspace_pursuit, cosamp):
        for bad in (2.0, True):
            with pytest.raises(ValueError, match=f"s must be an integer, got {bad}"):
                run(phi, np.zeros(12), bad)
        with pytest.raises(ValueError, match="s=0 out of range"):
            run(phi, np.zeros(12), 0)


@pytest.mark.parametrize("name,run", ALGORITHMS)
def test_singular_support_carries_iteration(name, run):
    # Two identical dominant columns force a rank-deficient merged block in
    # the first iteration.
    phi = 0.01 * rng(5).normal(size=(6, 8))
    phi[:, 2] = 1.0
    phi[:, 5] = phi[:, 2]
    y = phi[:, 2].copy()
    with pytest.raises(SingularSupportError) as err:
        run(phi, y, 2)
    assert err.value.iteration == 1
    assert 2 in err.value.support and 5 in err.value.support
    # The first merged support is the first identification step alone.
    assert err.value.support == top_k_magnitude(phi.T @ y, 2 if name == "SP" else 4)


@pytest.mark.parametrize("name,run", ALGORITHMS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_rejected(name, run, bad):
    inst = make_instance("exact-sparse", 16, 32, 3, 0.0, 2)
    phi = inst.phi.copy()
    phi[3, 5] = bad
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        run(phi, inst.y, 3)
    y = inst.y.copy()
    y[2] = bad
    with pytest.raises(ValueError, match="vector entries must be finite"):
        run(inst.phi, y, 3)
    truth = inst.x.copy()
    truth[7] = bad
    with pytest.raises(ValueError, match="vector entries must be finite"):
        run(inst.phi, inst.y, 3, truth=truth)


def _count_kernel_calls(monkeypatch):
    calls = Counter()
    for kernel in ("least_squares_on_support", "top_k_magnitude"):
        def counted(*args, _kernel=kernel, _original=getattr(pursuitlab.recovery, kernel)):
            calls[_kernel] += 1
            return _original(*args)

        monkeypatch.setattr(pursuitlab.recovery, kernel, counted)
    return calls


def _distinct_solves(name, records):
    """Solves a run needs when it reuses the last solution for an equal
    support: one per maximal run of equal consecutive supports, in solve
    order (SP: merged 1, pruned 1, merged 2, ...; CoSaMP: merged only)."""
    supports = [t for rec in records
                for t in ((rec.merged_support, rec.pruned_support) if name == "SP"
                          else (rec.merged_support,))]
    return sum(1 for i, t in enumerate(supports) if i == 0 or t != supports[i - 1])


@pytest.mark.parametrize("name,run,m,seed,solves_per_iteration", [
    ("SP", subspace_pursuit, 12, 3, 2),
    ("CoSaMP", cosamp, 14, 1, 1),
])
def test_kernels_called_through_recovery_names(name, run, m, seed, solves_per_iteration,
                                               monkeypatch):
    # perfbench/tracing.py times the solves and the selections by wrapping
    # these names; a loop that bypassed them would leave its metrics empty.
    # Seeds picked so that no state repeats within five iterations: all of
    # them are computed, and the run stops at the cap.
    inst = make_instance("exact-sparse", m, 64, 4, 0.0, seed)
    calls = _count_kernel_calls(monkeypatch)
    result = run(inst.phi, inst.y, 4, stop=StoppingRule(n_max=5))
    assert result.stop_reason == "cap" and len(result.iterations) == 5
    # SP's first pruning keeps the whole merged support: its solve is reused.
    solves = _distinct_solves(name, result.iterations)
    assert solves == 5 * solves_per_iteration - (name == "SP")
    assert calls == {"least_squares_on_support": solves, "top_k_magnitude": 10}


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(["SP", "CoSaMP"]),
    m=st.integers(12, 48),
    sigma=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 2**16),
    n_max=st.integers(1, 40),
    exact=st.booleans(),
)
# SP's first pruning keeps the merged support (every SP run); a run capped
# there returns the reused solution, which must not be the record's array.
@example(name="SP", m=40, sigma=1e-3, seed=3, n_max=1, exact=False)
# An SP fixed point: run past convergence, the new candidates all lie in the support.
@example(name="SP", m=40, sigma=0.0, seed=35, n_max=20, exact=True)
# A CoSaMP merged support that repeats: a cycle of period 1.
@example(name="CoSaMP", m=12, sigma=0.0, seed=1, n_max=40, exact=False)
def test_repeated_support_is_solved_once(name, m, sigma, seed, n_max, exact):
    inst = make_instance("exact-sparse", m, 64, 4, sigma, seed)
    if exact:
        # Stops only at the cap or a cycle.
        stop = StoppingRule(epsilon=0.0, epsilon_abs=0.0, n_max=n_max)
    else:
        stop = StoppingRule(n_max=n_max, e_prime_norm_hint=inst.e_prime_norm)
    run = subspace_pursuit if name == "SP" else cosamp
    with pytest.MonkeyPatch.context() as patch:
        calls = _count_kernel_calls(patch)
        result = run(inst.phi, inst.y, 4, stop=stop)
    computed = result.iterations[:calls["top_k_magnitude"] // 2]
    assert calls["least_squares_on_support"] == _distinct_solves(name, computed)
    for rec in result.iterations:
        for array in (rec.intermediate, rec.estimate):
            assert not np.shares_memory(array, result.estimate)


def test_residuals_logged_not_asserted_monotone():
    # Residual histories are recorded; nothing guarantees monotonicity, so
    # only finiteness and length are contracted here.
    inst = make_instance("almost-sparse", 20, 40, 3, 0.01, 8)
    result = cosamp(inst.phi, inst.y, 3, stop=StoppingRule(n_max=12))
    assert len(result.residual_history) == len(result.iterations)
    assert all(np.isfinite(r) for r in result.residual_history)


class TestEnvelopes:
    def test_noiseless_signal_envelope_dominates(self, certified_base):
        delta = exact_ric(certified_base, 6)
        report = bounds_for(SP, delta.value)
        for k in range(5):
            x = sparse_signal(16, 2, seed=300 + k)
            x_norm = np.linalg.norm(x)
            result = subspace_pursuit(
                certified_base, certified_base @ x, 2,
                stop=StoppingRule(epsilon_abs=0.0, n_max=6), truth=x,
            )
            for n, rec in enumerate(result.iterations, start=1):
                assert rec.signal_error <= report.rho**n * x_norm + 1e-9

    def test_tail_energy_recursion(self, certified_base):
        delta = exact_ric(certified_base, 6)
        report = bounds_for(SP_TAIL, delta.value)
        noise = 1e-3 * rng(31).normal(size=15)
        for k in range(5):
            x = sparse_signal(16, 2, seed=400 + k)
            inst = instance_for(certified_base, x, 2, e=noise)
            result = subspace_pursuit(
                inst.phi, inst.y, 2,
                stop=StoppingRule(epsilon=0.0, e_prime_norm_hint=1.0, n_max=6),
                truth=x,
            )
            x_s_norm = np.linalg.norm(restrict(x, inst.s_support))
            for n, rec in enumerate(result.iterations, start=1):
                bound = report.rho**n * x_s_norm + report.tau * inst.e_prime_norm
                assert rec.tail_energy <= bound + 1e-9


def test_arithmetic_inequality_property():
    # (a x + b y)^2 + (c x + d y)^2 <= (sqrt(a^2 + c^2) x + (b + d) y)^2
    # over non-negative tuples.
    g = rng(17)
    a, b, c, d, x, y = g.uniform(0.0, 10.0, size=(6, 100_000))
    lhs = (a * x + b * y) ** 2 + (c * x + d * y) ** 2
    rhs = (np.sqrt(a**2 + c**2) * x + (b + d) * y) ** 2
    assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-12)


class TestAudit:
    def _audited_run(self, certified_base, seed=500, noise=None):
        x = sparse_signal(16, 2, seed=seed)
        inst = instance_for(certified_base, x, 2, e=noise)
        result = subspace_pursuit(
            inst.phi, inst.y, 2,
            stop=StoppingRule(epsilon_abs=0.0, n_max=4), truth=x,
        )
        delta = exact_ric(certified_base, 6)
        return result, inst, delta

    def test_converged_state_gives_zero_lhs(self, certified_base):
        # Once the estimate sits on the true signal with no perturbation,
        # every audited left-hand side collapses to numerical zero.
        result, inst, delta = self._audited_run(certified_base)
        last = len(result.iterations)
        assert result.iterations[-2].signal_error <= 1e-12
        checks = [c for n, c in audit_run(result, inst, delta) if n == last]
        assert checks
        for check in checks:
            assert check.holds
            assert check.lhs <= 1e-9

    def test_zero_violations_on_certified_runs(self, certified_base):
        for seed in range(520, 530):
            result, inst, delta = self._audited_run(certified_base, seed=seed)
            checks = audit_run(result, inst, delta)
            names = {c.name for _, c in checks}
            assert {
                "identification", "debiasing", "metric-relation", "pruning",
                "contraction", "orthogonality-merged", "orthogonality-pruned",
            } <= names
            assert all(c.holds for _, c in checks)

    def test_zero_violations_with_noise(self, certified_base):
        noise = 1e-2 * rng(37).normal(size=15)
        result, inst, delta = self._audited_run(certified_base, seed=531, noise=noise)
        checks = audit_run(result, inst, delta)
        assert all(c.holds for _, c in checks)

    def test_cosamp_audit(self, certified_base):
        x = sparse_signal(16, 2, seed=540)
        inst = instance_for(certified_base, x, 2)
        result = cosamp(
            inst.phi, inst.y, 2, stop=StoppingRule(epsilon_abs=0.0, n_max=4), truth=x
        )
        delta = exact_ric(certified_base, 8)
        checks = audit_run(result, inst, delta)
        assert all(c.holds for _, c in checks)
        assert all(c.name != "orthogonality-pruned" for _, c in checks)

    def test_checks_have_their_annotated_types(self, certified_base):
        # lhs and rhs are Python floats and holds a Python bool on every
        # check, those computed with numpy scalars included.
        sp_run, inst, _ = self._audited_run(certified_base)
        cosamp_run = cosamp(inst.phi, inst.y, 2, stop=StoppingRule(epsilon_abs=0.0, n_max=4))
        for result, order in ((sp_run, 6), (cosamp_run, 8)):
            checks = audit_run(result, inst, exact_ric(certified_base, order))
            assert {"identification", "debiasing", "metric-relation", "pruning"} <= {c.name for _, c in checks}
            for _, check in checks:
                assert type(check.lhs) is float and type(check.rhs) is float
                assert type(check.holds) is bool

    def test_uncontractive_delta_still_tables_provable_rows(self):
        # A wide Gaussian matrix certifies far above 1; rows whose hypotheses
        # need a constant below 1 are omitted, the rest still hold.
        inst = make_instance("exact-sparse", 16, 24, 2, 0.0, 77)
        delta = exact_ric(inst.phi, 6)
        assert delta.value > 1.0
        result = subspace_pursuit(
            inst.phi, inst.y, 2, stop=StoppingRule(n_max=3), truth=inst.x
        )
        checks = audit_run(result, inst, delta)
        names = {c.name for _, c in checks}
        assert "metric-relation" not in names and "contraction" not in names
        assert {"identification", "debiasing", "pruning"} <= names
        assert all(c.holds for _, c in checks)

    def test_audit_preconditions(self, certified_base):
        result, inst, delta = self._audited_run(certified_base)
        low = sampled_ric_lower_bound(certified_base, 6, trials=5, seed=1)
        with pytest.raises(ValueError, match="exactly certified"):
            audit_run(result, inst, low)
        small = exact_ric(certified_base, 4)
        with pytest.raises(ValueError, match="certified order 4 too small: SP with s=2 needs order >= 6"):
            audit_run(result, inst, small)
        # The order needed is the run's algorithm's: 6 certifies SP, not CoSaMP.
        with pytest.raises(ValueError, match="CoSaMP with s=2 needs order >= 8"):
            audit_run(replace(result, algorithm="CoSaMP"), inst, delta)
        with pytest.raises(ValueError, match="algorithm must be 'SP' or 'CoSaMP', got 'OMP'"):
            audit_run(replace(result, algorithm="OMP"), inst, delta)
        # A run made without ground truth audits to bitwise the same checks.
        plain = subspace_pursuit(inst.phi, inst.y, 2, stop=StoppingRule(epsilon_abs=0.0, n_max=4))
        assert all(r.signal_error is None for r in plain.iterations)

        def bits(checks):
            return [(n, c.name, float.hex(c.lhs), float.hex(c.rhs), c.holds) for n, c in checks]

        assert bits(audit_run(plain, inst, delta)) == bits(audit_run(result, inst, delta))

    def test_gaussian_fixture_audit_table(self):
        # Wider seeded case: the full measured table is produced and every
        # emitted row holds against the exactly certified constant.
        inst = make_instance("exact-sparse", 16, 24, 2, 0.0, 88)
        delta = exact_ric(inst.phi, 6)
        result = subspace_pursuit(
            inst.phi, inst.y, 2, stop=StoppingRule(n_max=4), truth=inst.x
        )
        rows = audit_run(result, inst, delta)
        assert len(rows) >= 4 * len(result.iterations)
        for n, check in rows:
            assert 1 <= n <= len(result.iterations)
            assert np.isfinite(check.lhs) and np.isfinite(check.rhs)
            assert check.holds


def test_perturbed_frames_certify_as_expected():
    # The fixture ensemble straddles both thresholds (measured once and
    # pinned): seed 0 certifies for both algorithms, late seeds for neither.
    d6_first = exact_ric(perturbed_frame(0), 6).value
    d8_first = exact_ric(perturbed_frame(0), 8).value
    assert d6_first == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert d8_first == pytest.approx(7.0 / 15.0, abs=1e-12)
    assert exact_ric(perturbed_frame(19), 6).value > 0.4859


def test_base_frame_matches_construction(certified_base):
    assert np.array_equal(certified_base, base_frame())
    gram = certified_base.T @ certified_base
    assert np.allclose(np.diag(gram), 1.0, atol=1e-12)
