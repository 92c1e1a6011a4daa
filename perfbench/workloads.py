"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed in ``setup``.  Pass
``index`` runs the callables ``segments`` returns, each one timed on its
own and nothing else timed; ``check`` turns the pass's outputs into gate
operations and ``verify_once`` adds the checks too costly to repeat every
pass.  ``pass_sets`` is how many distinct pass inputs a workload cycles
through, and ``segment_names`` names segments whose times are reported
one by one.

Library functions are always reached through module attributes
(``pl.exact_ric``, ``pl_cli.main``) so that the tracer's wrappers, installed
at those import sites, see the calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pursuitlab as pl
import pursuitlab.cli as pl_cli
import pursuitlab.fileio as pl_fileio
from gate import Op, PassOutput, canonical


# ---------------------------------------------------------------- sweeps

SWEEP_N = 64
SWEEP_S = 4


@dataclass
class Sweep:
    """A phase-transition sweep with SP and CoSaMP through run_experiment.

    A pass runs ``chunks`` experiments of ``trials`` trials per cell, each
    with its own master seed, so each timed segment stays well under a
    second.  Consecutive passes cycle through ``pass_sets`` distinct sets of
    master seeds: how long a capped sweep takes depends on how many of its
    runs hit the cap, so a run should cover many instances, not repeat a few.
    """

    name: str
    ms: tuple[int, ...]
    sigmas: tuple[float, ...]
    trials: int
    chunks: int
    pass_sets: int = 1
    segment_names: tuple[str, ...] = ()

    def setup(self, seed: int, work: Path):
        grid = tuple(
            pl.GridCell(m, SWEEP_N, SWEEP_S, sigma) for m in self.ms for sigma in self.sigmas
        )
        sets = [
            [
                pl.ExperimentConfig(
                    experiment="phase-transition",
                    algorithms=("SP", "CoSaMP"),
                    grid=grid,
                    trials_per_cell=self.trials,
                    master_seed=pl.derive_seed(seed, pass_set, chunk),
                    output_path=str(work / f"{self.name}-{chunk}.csv"),
                    per_trial=True,
                )
                for chunk in range(self.chunks)
            ]
            for pass_set in range(self.pass_sets)
        ]
        warm = dataclasses.replace(
            sets[0][0], trials_per_cell=1, output_path=str(work / f"{self.name}-warmup.csv")
        )
        run_sweep(warm)
        return sets

    def op_count(self, sets) -> int:
        return sum(len(c.grid) * len(c.algorithms) * (c.trials_per_cell + 1) for c in sets[0])

    def segments(self, sets, index: int):
        return [functools.partial(run_sweep, config) for config in sets[index % self.pass_sets]]

    def check(self, sets, index: int, raws) -> PassOutput:
        ops = []
        configs = sets[index % self.pass_sets]
        for chunk, (config, (cell_rows, detail_rows)) in enumerate(zip(configs, raws)):
            prefix = f"{index % self.pass_sets}/{chunk}"
            successes: dict[tuple, list[bool]] = {}
            for row in detail_rows:
                cell = (row["cell_index"], row["algorithm"])
                successes.setdefault(cell, []).append(row["success"])
                ok = row["success"] == (row["final_error"] <= config.success_threshold)
                ops.append(
                    Op(
                        f"{prefix}/{cell[0]}/{cell[1]}/{row['trial_index']}",
                        (row["converged"], row["success"], row["final_error"]),
                        ok,
                    )
                )
            for row in cell_rows:
                cell = (row["cell_index"], row["algorithm"])
                trials = successes.get(cell, [])
                ok = len(trials) == config.trials_per_cell and row["success_rate"] == float(
                    np.mean(trials)
                )
                ops.append(Op(f"{prefix}/{cell[0]}/{cell[1]}", (row["success_rate"],), ok))
        runs = sum(len(detail) for _, detail in raws)
        return PassOutput(ops, runs=runs)

    def verify_once(self, sets) -> list[Op]:
        return []


def run_sweep(config):
    cell_rows, detail_rows = pl.run_experiment(config)
    pl.write_results(config, cell_rows, detail_rows)
    return cell_rows, detail_rows


# ---------------------------------------------------------------- certify

CERTIFY_N = 20
CERTIFY_ORDER = 8
CERTIFY_S = 2
CERTIFY_MS = (14, 400)
CERTIFY_SAMPLED_TRIALS = 1000
# m=400 certifies delta_8 near 0.37, under both contraction thresholds, so
# every audit inequality is checked and none may fail.
AUDITED_M = 400


@dataclass
class Case:
    m: int
    instance: pl.SparseInstance
    sampled_seed: int


def gaussian_case(seed: int, m: int) -> Case:
    """A seeded N(0, 1/m) matrix with an exactly s-sparse, noiseless signal.

    Built here rather than by make_instance, which requires m <= N.
    """
    rng = np.random.Generator(np.random.PCG64(pl.derive_seed(seed, m)))
    phi = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, CERTIFY_N))
    support = np.sort(rng.choice(CERTIFY_N, size=CERTIFY_S, replace=False))
    x = np.zeros(CERTIFY_N)
    x[support] = rng.uniform(0.1, 1.0, size=CERTIFY_S) * rng.choice(
        np.array([-1.0, 1.0]), size=CERTIFY_S
    )
    instance = pl.SparseInstance(
        x=x,
        s=CERTIFY_S,
        phi=phi,
        e=np.zeros(m),
        y=phi @ x,
        s_support=pl.SupportSet(tuple(int(i) for i in support), CERTIFY_N),
        e_prime_norm=0.0,
    )
    return Case(m, instance, pl.derive_seed(seed, m, 1))


def certify_case(case: Case, certified: dict):
    """Sampled lower bound and exact certification; the exact result is also
    left in ``certified`` for the audit segment that follows."""
    inst = case.instance
    sampled = pl.sampled_ric_lower_bound(
        inst.phi, CERTIFY_ORDER, CERTIFY_SAMPLED_TRIALS, case.sampled_seed
    )
    certified["exact"] = pl.exact_ric(inst.phi, CERTIFY_ORDER)
    return sampled, certified["exact"]


def audit_case(case: Case, certified: dict):
    """Traced SP and CoSaMP runs audited against the certified constant."""
    inst = case.instance
    runs = []
    for run in (pl.subspace_pursuit, pl.cosamp):
        result = run(inst.phi, inst.y, inst.s, truth=inst.x)
        runs.append((result, pl.audit_run(result, inst, certified["exact"])))
    return runs


@dataclass
class Certify:
    name: str
    pass_sets: int = 1
    segment_names: tuple[str, ...] = ()

    def setup(self, seed: int, work: Path):
        cases = [gaussian_case(seed, m) for m in CERTIFY_MS]
        for case in cases:
            inst = case.instance
            # Same code paths as a pass, on a 12-column block (495 supports).
            delta = pl.exact_ric(inst.phi[:, :12], CERTIFY_ORDER)
            pl.sampled_ric_lower_bound(inst.phi, CERTIFY_ORDER, 10, case.sampled_seed)
            for run in (pl.subspace_pursuit, pl.cosamp):
                pl.audit_run(run(inst.phi, inst.y, inst.s, truth=inst.x), inst, delta)
        return cases

    def op_count(self, cases) -> int:
        return 6 * len(cases)

    def segments(self, cases, index: int):
        segments = []
        for case in cases:
            certified: dict = {}
            segments += [
                functools.partial(certify_case, case, certified),
                functools.partial(audit_case, case, certified),
            ]
        return segments

    def check(self, cases, index: int, raws) -> PassOutput:
        ops = []
        for case, (sampled, exact), run_audits in zip(cases, raws[0::2], raws[1::2]):
            tag = f"m{case.m}"
            w = exact.witness.as_array()
            gram = case.instance.phi[:, w].T @ case.instance.phi[:, w]
            direct = float(np.abs(np.linalg.eigvalsh(gram - np.eye(len(w)))).max())
            ops.append(
                Op(
                    f"{tag}/exact",
                    (exact.value, exact.witness.indices),
                    abs(direct - exact.value) <= 1e-12 * max(1.0, exact.value),
                )
            )
            ops.append(
                Op(
                    f"{tag}/sampled",
                    (sampled.value, sampled.witness.indices),
                    sampled.value <= exact.value,
                )
            )
            for result, checks in run_audits:
                fields = (result.converged, result.support.indices, result.estimate)
                ops.append(Op(f"{tag}/{result.algorithm}", fields))
                violations = sum(1 for _, chk in checks if not chk.holds)
                # Only the audited aspect ratio promises zero violations; how
                # many checks run elsewhere depends on the iteration count.
                ok = violations == 0 if case.m == AUDITED_M else True
                ops.append(Op(f"{tag}/{result.algorithm}/audit", (), ok))
        # C(N, s) per certification however many supports an enumeration
        # examines, so that pruning shows as a higher rate.
        return PassOutput(ops, supports=len(cases) * math.comb(CERTIFY_N, CERTIFY_ORDER))

    def verify_once(self, cases) -> list[Op]:
        return []


# ---------------------------------------------------------------- cli-large

CLI_M = 512
CLI_N = 2048
CLI_S = 60
CLI_RIC_TRIALS = 100
CLI_COMMANDS = ("gen", "recover", "ric")


@dataclass
class CliState:
    gen_seed: int
    ric_seed: int
    prefix: Path
    recover_out: Path
    ric_out: Path
    work: Path
    expected: dict[str, str] = field(default_factory=dict)

    @property
    def phi_path(self) -> Path:
        return self.prefix.with_name(self.prefix.name + "_phi.csv")

    @property
    def y_path(self) -> Path:
        return self.prefix.with_name(self.prefix.name + "_y.csv")


def cli_argv(state: CliState, m: int, n: int, s: int, trials: int) -> dict[str, list[str]]:
    return {
        "gen": [
            "gen", "--m", str(m), "--N", str(n), "-s", str(s),
            "--seed", str(state.gen_seed), "--out", str(state.prefix),
        ],
        "recover": [
            "recover", "--matrix", str(state.phi_path), "--measurements", str(state.y_path),
            "-s", str(s), "--output", str(state.recover_out),
        ],
        "ric": [
            "ric", "--matrix", str(state.phi_path), "-s", str(s), "--mode", "sampled",
            "--trials", str(trials), "--seed", str(state.ric_seed),
            "--output", str(state.ric_out),
        ],
    }


def run_command(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):  # gen prints the paths it wrote
        return pl_cli.main(argv)


def library_outputs(state: CliState) -> dict[str, str]:
    """What recover and ric must print, from direct library calls (made once)."""
    if not state.expected:
        inst = pl.make_instance("exact-sparse", CLI_M, CLI_N, CLI_S, 0.0, state.gen_seed)
        sp = pl.subspace_pursuit(inst.phi, inst.y, CLI_S)
        ric = pl.sampled_ric_lower_bound(inst.phi, CLI_S, CLI_RIC_TRIALS, state.ric_seed)
        state.expected["recover"] = canonical(
            (sp.converged, list(sp.support.indices), sp.estimate.tolist())
        )
        state.expected["ric"] = canonical((ric.value, list(ric.witness.indices)))
    return state.expected


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class CliLarge:
    name: str
    pass_sets: int = 1
    segment_names: tuple[str, ...] = CLI_COMMANDS

    def setup(self, seed: int, work: Path):
        state = CliState(
            gen_seed=pl.derive_seed(seed, 1),
            ric_seed=pl.derive_seed(seed, 2),
            prefix=work / "cli",
            recover_out=work / "cli_recover.json",
            ric_out=work / "cli_ric.json",
            work=work,
        )
        warm = dataclasses.replace(
            state,
            prefix=work / "warmup",
            recover_out=work / "warmup_recover.json",
            ric_out=work / "warmup_ric.json",
        )
        argvs = cli_argv(warm, 16, 32, 2, 10)
        codes = {name: run_command(argvs[name]) for name in CLI_COMMANDS}
        # recover exits 2 when a run hits the iteration cap, which a tiny
        # seeded instance may do; 1 means an error.
        if codes["gen"] or codes["ric"] or codes["recover"] not in (0, 2):
            raise RuntimeError(f"cli warm-up failed: exit codes {codes}")
        return state

    def op_count(self, state) -> int:
        return len(CLI_COMMANDS)

    def segments(self, state, index: int):
        argvs = cli_argv(state, CLI_M, CLI_N, CLI_S, CLI_RIC_TRIALS)
        return [functools.partial(run_command, argvs[name]) for name in CLI_COMMANDS]

    def check(self, state, index: int, raws) -> PassOutput:
        codes = dict(zip(CLI_COMMANDS, raws))
        expected = library_outputs(state)
        recovered = json.loads(state.recover_out.read_text())
        recover_fields = (recovered["converged"], recovered["support"], recovered["estimate"])
        ric = json.loads(state.ric_out.read_text())
        ric_fields = (ric["value"], ric["witness"])
        ops = [
            Op("gen", (file_digest(state.phi_path),), codes["gen"] == 0),
            Op(
                "recover",
                recover_fields,
                codes["recover"] == 0 and canonical(recover_fields) == expected["recover"],
            ),
            Op("ric", ric_fields, codes["ric"] == 0 and canonical(ric_fields) == expected["ric"]),
        ]
        return PassOutput(ops)

    def verify_once(self, state) -> list[Op]:
        """Re-writing the parsed matrix must reproduce the file byte for byte."""
        parsed = pl_fileio.read_matrix(state.phi_path)
        copy = state.work / "cli_roundtrip_phi.csv"
        pl_fileio.write_matrix(copy, parsed)
        same = copy.read_bytes() == state.phi_path.read_bytes()
        copy.unlink()
        return [Op("roundtrip", (), same)]


WORKLOADS = {
    "sweep-capped": Sweep(
        "sweep-capped", ms=(12, 14), sigmas=(0.0, 1e-3), trials=2, chunks=5, pass_sets=12
    ),
    "sweep-converging": Sweep("sweep-converging", ms=(40, 48), sigmas=(0.0,), trials=50, chunks=5),
    "certify": Certify("certify"),
    "cli-large": CliLarge("cli-large"),
}
