"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  The heavy fixtures (criteria 4-6) certify twenty
seeded 16-column frames by exhaustive enumeration and drive both
algorithms over seeded signal batches; matrices whose certified constant
sits above the contraction threshold are excluded and reported, not
failed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from pursuitlab import (
    COSAMP,
    SP,
    StoppingRule,
    audit_run,
    bounds_for,
    cosamp,
    delta_for_rho,
    derive_seed,
    error_envelope,
    exact_ric,
    sampled_ric_lower_bound,
    subspace_pursuit,
    top_k_magnitude,
)
from pursuitlab.bounds import SP_DM, SP_LBJ, SP_TAIL
from conftest import (
    FRAME_COUNT,
    instance_for,
    perturbed_frame,
    run_cli,
    signal_seed,
    sparse_signal,
)

SP_THRESHOLD = 0.4859
COSAMP_THRESHOLD = 0.5
SIGNALS_PER_MATRIX = 50
NOISE_SIGMAS = (1e-3, 1e-2)


def _criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" | {detail}" if detail else ""
    print(f"[criterion {number}] {status}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


# ---------------------------------------------------------------- criteria 1-3


def test_criterion_1_unit_rate_thresholds():
    start = time.perf_counter()
    sp_root = delta_for_rho(SP, 1.0)
    cos_root = delta_for_rho(COSAMP, 1.0)
    elapsed = time.perf_counter() - start
    ok = (
        abs(sp_root - 0.485868) <= 1e-4
        and abs(cos_root - 0.5) <= 1e-8
        and elapsed < 1.0
    )
    _criterion(
        1, "unit-rate thresholds reproduced", ok,
        f"sp={sp_root:.6f}, cosamp={cos_root:.10f}, {elapsed:.3f}s",
    )


def test_criterion_2_half_rate_constants():
    start = time.perf_counter()
    values = {
        "sp": delta_for_rho(SP, 0.5),
        "cosamp": delta_for_rho(COSAMP, 0.5),
        "sp-lbj": delta_for_rho(SP_LBJ, 0.5),
        "sp-dm": delta_for_rho(SP_DM, 0.5),
    }
    elapsed = time.perf_counter() - start
    expected = {"sp": 0.3063, "cosamp": 0.3083, "sp-lbj": 0.2324, "sp-dm": 0.1397}
    ok = all(abs(values[k] - expected[k]) <= 1e-4 for k in expected) and elapsed < 1.0
    detail = ", ".join(f"{k}={values[k]:.6f}" for k in values) + f", {elapsed:.3f}s"
    _criterion(2, "half-rate constants reproduced", ok, detail)


def test_criterion_3_error_coefficients():
    start = time.perf_counter()
    measured = {
        "sp": bounds_for(SP, 0.3063).tau,
        "sp-lbj": bounds_for(SP_LBJ, 0.2324).tau,
        "sp-tail": bounds_for(SP_TAIL, 0.3063).tau,
        "sp-dm": bounds_for(SP_DM, 0.1397).tau,
    }
    elapsed = time.perf_counter() - start
    expected = {"sp": 13.1303, "sp-lbj": 21.1886, "sp-tail": 11.3213, "sp-dm": 12.3219}
    deviations = {k: abs(measured[k] - expected[k]) for k in expected}
    ok = all(dev <= 5e-3 for dev in deviations.values()) and elapsed < 1.0
    detail = ", ".join(f"{k}={measured[k]:.4f} (want {expected[k]})" for k in expected)
    _criterion(3, "error coefficients at half rate", ok, detail)


# ------------------------------------------------------------- criteria 4-6


@dataclass
class EnsembleRun:
    matrix_seed: int
    algorithm: str
    delta_value: float
    recoveries_ok: int = 0
    supports_ok: int = 0
    violations: int = 0
    runs: list = field(default_factory=list)  # (x, instance, result) triples


@dataclass
class Ensemble:
    certified: list[EnsembleRun]
    excluded: dict[str, list[int]]
    elapsed: float


@pytest.fixture(scope="module")
def ensemble() -> Ensemble:
    start = time.perf_counter()
    certified: list[EnsembleRun] = []
    excluded: dict[str, list[int]] = {SP: [], COSAMP: []}
    for mseed in range(FRAME_COUNT):
        phi = perturbed_frame(mseed)
        for algorithm, order, threshold, run in (
            (SP, 6, SP_THRESHOLD, subspace_pursuit),
            (COSAMP, 8, COSAMP_THRESHOLD, cosamp),
        ):
            delta = exact_ric(phi, order)
            if delta.value >= threshold:
                excluded[algorithm].append(mseed)
                continue
            entry = EnsembleRun(mseed, algorithm, delta.value)
            for k in range(SIGNALS_PER_MATRIX):
                x = sparse_signal(16, 2, seed=signal_seed(mseed, k))
                inst = instance_for(phi, x, 2)
                result = run(phi, inst.y, 2, truth=x)
                entry.recoveries_ok += float(np.linalg.norm(result.estimate - x)) <= 1e-8
                entry.supports_ok += result.support.indices == tuple(np.flatnonzero(x))
                checks = audit_run(result, inst, delta)
                entry.violations += sum(1 for _, c in checks if not c.holds)
                entry.runs.append((x, inst, result))
            certified.append(entry)
    return Ensemble(certified, excluded, time.perf_counter() - start)


def test_criterion_4_certified_exact_recovery(ensemble):
    sp_entries = [e for e in ensemble.certified if e.algorithm == SP]
    cos_entries = [e for e in ensemble.certified if e.algorithm == COSAMP]
    total = SIGNALS_PER_MATRIX
    ok = (
        len(sp_entries) >= 1
        and len(cos_entries) >= 1
        and all(e.recoveries_ok == total and e.supports_ok == total for e in ensemble.certified)
        and ensemble.elapsed < 300.0
    )
    detail = (
        f"sp certified {len(sp_entries)}/{FRAME_COUNT} (excluded {len(ensemble.excluded[SP])}), "
        f"cosamp certified {len(cos_entries)}/{FRAME_COUNT} "
        f"(excluded {len(ensemble.excluded[COSAMP])}), "
        f"{total} signals each, {ensemble.elapsed:.1f}s"
    )
    _criterion(4, "certified matrices recover exactly", ok, detail)


def test_criterion_5_audit_zero(ensemble):
    violations = sum(e.violations for e in ensemble.certified)
    checked = sum(len(e.runs) for e in ensemble.certified)
    _criterion(
        5, "zero inequality violations on certified runs",
        violations == 0 and checked > 0,
        f"{checked} audited runs, {violations} violations",
    )


def test_criterion_6_noisy_envelope(ensemble):
    start = time.perf_counter()
    checked = 0
    breaches = 0
    for entry in ensemble.certified:
        phi = perturbed_frame(entry.matrix_seed)
        report = bounds_for(entry.algorithm, entry.delta_value)
        run = subspace_pursuit if entry.algorithm == SP else cosamp
        for k in range(SIGNALS_PER_MATRIX):
            x = sparse_signal(16, 2, seed=signal_seed(entry.matrix_seed, k))
            x_norm = float(np.linalg.norm(x))
            for sigma_index, sigma in enumerate(NOISE_SIGMAS):
                noise_rng = np.random.Generator(
                    np.random.PCG64(derive_seed(888, entry.matrix_seed, k, sigma_index))
                )
                e = noise_rng.normal(0.0, sigma, size=phi.shape[0])
                inst = instance_for(phi, x, 2, e=e)
                result = run(
                    phi, inst.y, 2,
                    stop=StoppingRule(epsilon=0.0, e_prime_norm_hint=1.0, n_max=8),
                    truth=x,
                )
                for n, rec in enumerate(result.iterations, start=1):
                    checked += 1
                    envelope = error_envelope(report, n, x_norm, inst.e_prime_norm)
                    breaches += rec.signal_error > envelope + 1e-12
    elapsed = time.perf_counter() - start
    ok = breaches == 0 and checked > 0 and elapsed < 300.0
    _criterion(
        6, "noisy runs stay inside the error envelope", ok,
        f"{checked} iteration checks, {breaches} breaches, {elapsed:.1f}s",
    )


# ------------------------------------------------------------- criteria 7-8


def test_criterion_7_ric_oracles():
    start = time.perf_counter()

    def gaussian(seed):
        g = np.random.Generator(np.random.PCG64(seed))
        return g.normal(0.0, 1.0 / np.sqrt(12.0), size=(12, 16))

    def pair_scan(phi):
        gram = phi.T @ phi
        best = -np.inf
        for i in range(16):
            for j in range(i + 1, 16):
                a, b, c = gram[i, i] - 1.0, gram[i, j], gram[j, j] - 1.0
                mean, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
                best = max(best, abs(mean + radius), abs(mean - radius))
        return best

    scan_ok = all(
        abs(exact_ric(gaussian(seed), 2).value - pair_scan(gaussian(seed))) <= 1e-10
        for seed in range(20)
    )

    phi = gaussian(0)
    exact_value = exact_ric(phi, 2).value
    sampled_ok = sum(
        sampled_ric_lower_bound(phi, 2, trials=10, seed=seed).value <= exact_value + 1e-12
        for seed in range(100)
    )

    monotone_ok = True
    for seed in range(10):
        phi = gaussian(100 + seed)
        values = [exact_ric(phi, s).value for s in range(1, 7)]
        monotone_ok &= all(lo <= hi + 1e-12 for lo, hi in zip(values, values[1:]))

    elapsed = time.perf_counter() - start
    ok = scan_ok and sampled_ok == 100 and monotone_ok and elapsed < 120.0
    _criterion(
        7, "certification agrees with independent oracles", ok,
        f"pair-scan 20/20, sampled<=exact {sampled_ok}/100, monotone on 10 matrices, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_property_suites():
    start = time.perf_counter()
    g = np.random.Generator(np.random.PCG64(123))

    # Arithmetic inequality over non-negative 6-tuples.
    a, b, c, d, x, y = g.uniform(0.0, 10.0, size=(6, 100_000))
    lhs = (a * x + b * y) ** 2 + (c * x + d * y) ** 2
    rhs = (np.sqrt(a**2 + c**2) * x + (b + d) * y) ** 2
    lemma3_violations = int(np.sum(lhs > rhs * (1 + 1e-12) + 1e-12))

    phi = np.random.Generator(np.random.PCG64(6)).normal(
        0.0, 1.0 / np.sqrt(12.0), size=(12, 16)
    )
    deviation = np.eye(16) - phi.T @ phi
    t = 4
    delta_t = exact_ric(phi, t).value
    delta_3 = exact_ric(phi, 3).value

    bilinear = restricted = noise = 0
    for _ in range(10_000):
        union = g.choice(16, size=t, replace=False)
        u = np.zeros(16)
        v = np.zeros(16)
        u[union[g.uniform(size=t) < 0.7]] = 1.0
        v[union[g.uniform(size=t) < 0.7]] = 1.0
        u *= g.normal(size=16)
        v *= g.normal(size=16)
        if abs(u @ (deviation @ v)) > delta_t * np.linalg.norm(u) * np.linalg.norm(v) + 1e-12:
            bilinear += 1
        w = np.zeros(16)
        w[union[:2]] = g.normal(size=2)
        if np.linalg.norm((deviation @ w)[union[2:]]) > delta_t * np.linalg.norm(w) + 1e-12:
            restricted += 1
        e = g.normal(size=12)
        u_set = g.choice(16, size=3, replace=False)
        if np.linalg.norm((phi.T @ e)[u_set]) > np.sqrt(1.0 + delta_3) * np.linalg.norm(e) + 1e-12:
            noise += 1

    # Selection oracles: top-k against a full sort, over random draws.
    selection = 0
    for _ in range(200):
        vec = g.normal(size=40)
        k = int(g.integers(0, 41))
        expected = sorted(sorted(range(40), key=lambda i: (-abs(vec[i]), i))[:k])
        if list(top_k_magnitude(vec, k).indices) != expected:
            selection += 1

    elapsed = time.perf_counter() - start
    violations = lemma3_violations + bilinear + restricted + noise + selection
    ok = violations == 0 and elapsed < 60.0
    _criterion(
        8, "property suites run clean", ok,
        f"lemma3={lemma3_violations}, bilinear={bilinear}, restricted={restricted}, "
        f"noise={noise}, selection={selection}, {elapsed:.1f}s",
    )


# ----------------------------------------------------------------- criterion 9


def test_criterion_9_determinism_and_cross_interface(tmp_path):
    cfg = {
        "experiment": "phase-transition",
        "algorithms": ["SP", "CoSaMP"],
        "grid": [
            {"m": 12, "N": 24, "s": 2, "noise_sigma": 0.0},
            {"m": 16, "N": 24, "s": 2, "noise_sigma": 0.001},
        ],
        "trials_per_cell": 5,
        "master_seed": 31,
        "output_path": str(tmp_path / "cells.csv"),
        "per_trial": True,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    runs = []
    for _ in range(2):
        out = run_cli("experiment", "--config", str(cfg_path))
        assert out.returncode == 0, out.stderr
        runs.append(
            (
                (tmp_path / "cells.csv").read_bytes(),
                (tmp_path / "cells.trials.csv").read_bytes(),
            )
        )
    deterministic = runs[0] == runs[1]

    out = run_cli(
        "gen", "--m", "16", "--N", "32", "-s", "3", "--seed", "17",
        "--out", str(tmp_path / "fix"),
    )
    assert out.returncode == 0, out.stderr
    out = run_cli(
        "recover", "--matrix", str(tmp_path / "fix_phi.csv"),
        "--measurements", str(tmp_path / "fix_y.csv"), "-s", "3",
        "--output", str(tmp_path / "cli.json"),
    )
    assert out.returncode == 0, out.stderr

    from pursuitlab.fileio import dump_json, read_matrix, read_vector, recovery_payload

    phi = read_matrix(tmp_path / "fix_phi.csv")
    y = read_vector(tmp_path / "fix_y.csv")
    library = subspace_pursuit(phi, y, 3)
    cross_equal = (tmp_path / "cli.json").read_text() == dump_json(
        recovery_payload(library, trace="norms")
    )
    ok = deterministic and cross_equal
    _criterion(
        9, "byte-identical reruns and CLI/library agreement", ok,
        f"experiment files identical: {deterministic}, recovery JSON identical: {cross_equal}",
    )
