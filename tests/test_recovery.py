from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pursuitlab.recovery
from pursuitlab import (
    IterationRecord,
    SingularSupportError,
    StoppingRule,
    SupportSet,
    audit_iteration,
    audit_run,
    best_s_term,
    cosamp,
    exact_ric,
    least_squares_on_support,
    make_instance,
    restrict,
    sampled_ric_lower_bound,
    sp_bounds,
    sp_tail_metric_bounds,
    subspace_pursuit,
    top_k_magnitude,
)
from pursuitlab.recovery import TRACE_LEVELS
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
    inst = make_instance("exact-sparse", 16, 32, 3, 0.0, 2)
    norms = subspace_pursuit(inst.phi, inst.y, 3)
    assert all(r.estimate is None and r.intermediate is None for r in norms.iterations)
    assert all(r.signal_error is None for r in norms.iterations)
    full = subspace_pursuit(inst.phi, inst.y, 3, trace="full")
    assert all(r.estimate is not None for r in full.iterations)
    with_truth = subspace_pursuit(inst.phi, inst.y, 3, truth=inst.x)
    assert all(r.signal_error is not None for r in with_truth.iterations)


def reference_run(name, phi, y, s, stop, truth, trace):
    """The recovery loop without early exit, built from the public, validating
    kernels: every one of n_max iterations runs."""
    n = phi.shape[1]
    x_s = best_s_term(truth, s)[1] if truth is not None else None
    keep_vectors = x_s is not None or trace == "full"
    estimate, support, records = np.zeros(n), SupportSet.empty(n), []
    for it in range(1, stop.n_max + 1):
        delta_support = top_k_magnitude(phi.T @ (y - phi @ estimate), s if name == "SP" else 2 * s)
        merged = support.union(delta_support)
        intermediate = least_squares_on_support(phi, y, merged)
        support = top_k_magnitude(intermediate, s)
        if name == "SP":
            estimate = least_squares_on_support(phi, y, support)
        else:
            estimate = restrict(intermediate, support)
        residual = float(np.linalg.norm(y - phi @ estimate))
        truth_known = x_s is not None
        records.append(IterationRecord(
            it, delta_support, merged, support, residual,
            intermediate if keep_vectors else None,
            estimate.copy() if keep_vectors else None,
            float(np.linalg.norm(x_s - estimate)) if truth_known else None,
            float(np.linalg.norm(restrict(x_s, support.complement()))) if truth_known else None,
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
    trace=st.sampled_from(TRACE_LEVELS),
)
# Cycles of period 2, 3 and 5 whose replay ends mid-cycle.
@example(name="SP", m=12, sigma=0.0, seed=98, n_max=7, with_truth=True, trace="norms")
@example(name="CoSaMP", m=14, sigma=0.0, seed=68, n_max=11, with_truth=False, trace="full")
@example(name="CoSaMP", m=14, sigma=0.0, seed=172, n_max=40, with_truth=True, trace="norms")
# The converging regime of the benchmark's sweeps.
@example(name="SP", m=40, sigma=0.0, seed=40, n_max=40, with_truth=False, trace="full")
@example(name="CoSaMP", m=40, sigma=1e-3, seed=41, n_max=40, with_truth=True, trace="norms")
@example(name="SP", m=48, sigma=1e-3, seed=48, n_max=40, with_truth=True, trace="none")
@example(name="CoSaMP", m=48, sigma=0.0, seed=49, n_max=40, with_truth=False, trace="full")
def test_cycle_replay_matches_full_run(name, m, sigma, seed, n_max, with_truth, trace):
    inst = make_instance("exact-sparse", m, 64, 4, sigma, seed)
    stop = StoppingRule(n_max=n_max, e_prime_norm_hint=inst.e_prime_norm)
    truth = inst.x if with_truth else None
    run = subspace_pursuit if name == "SP" else cosamp
    result = run(inst.phi, inst.y, 4, stop=stop, truth=truth, trace=trace)
    estimate, support, records, converged = reference_run(
        name, inst.phi, inst.y, 4, stop, truth, trace
    )
    assert result.estimate.tobytes() == estimate.tobytes()
    assert result.support == support
    assert result.converged == converged
    assert len(result.iterations) == len(records)
    for got, want in zip(result.iterations, records):
        for f in fields(IterationRecord):
            assert _bitwise_equal(getattr(got, f.name), getattr(want, f.name)), (got.n, f.name)


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
    with pytest.raises(ValueError):
        subspace_pursuit(phi, y, 2, trace="verbose")
    with pytest.raises(ValueError):
        StoppingRule(n_max=0)


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
    calls = Counter()
    for kernel in ("least_squares_on_support", "top_k_magnitude"):
        def counted(*args, _kernel=kernel, _original=getattr(pursuitlab.recovery, kernel)):
            calls[_kernel] += 1
            return _original(*args)

        monkeypatch.setattr(pursuitlab.recovery, kernel, counted)
    result = run(inst.phi, inst.y, 4, stop=StoppingRule(n_max=5))
    assert result.stop_reason == "cap" and len(result.iterations) == 5
    assert calls == {"least_squares_on_support": 5 * solves_per_iteration, "top_k_magnitude": 10}


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
        report = sp_bounds(delta.value)
        for k in range(5):
            x = sparse_signal(16, 2, seed=300 + k)
            x_norm = np.linalg.norm(x)
            result = subspace_pursuit(
                certified_base, certified_base @ x, 2,
                stop=StoppingRule(epsilon_abs=0.0, n_max=6), truth=x,
            )
            for rec in result.iterations:
                assert rec.signal_error <= report.rho**rec.n * x_norm + 1e-9

    def test_tail_energy_recursion(self, certified_base):
        delta = exact_ric(certified_base, 6)
        report = sp_tail_metric_bounds(delta.value)
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
            for rec in result.iterations:
                bound = report.rho**rec.n * x_s_norm + report.tau * inst.e_prime_norm
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
        last = result.iterations[-1]
        prev = result.iterations[-2]
        assert prev.signal_error <= 1e-12
        checks = audit_iteration(last, prev, inst, delta, "SP")
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
        rec, prev = result.iterations[-1], result.iterations[-2]
        low = sampled_ric_lower_bound(certified_base, 6, trials=5, seed=1)
        with pytest.raises(ValueError):
            audit_iteration(rec, prev, inst, low, "SP")
        small = exact_ric(certified_base, 4)
        with pytest.raises(ValueError):
            audit_iteration(rec, prev, inst, small, "SP")
        norms_only = subspace_pursuit(inst.phi, inst.y, 2, stop=StoppingRule(n_max=2))
        with pytest.raises(ValueError):
            audit_iteration(norms_only.iterations[-1], None, inst, delta, "SP")

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
