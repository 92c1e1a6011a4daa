"""Batch experiments: seeded grids of recovery runs with persisted results.

A config names an experiment kind, the algorithms, a grid of problem sizes
(m, N, s, noise_sigma), trials per cell, and a master seed.  Each trial's
instance seed is derived as ``derive_seed(master_seed, cell_index,
trial_index)``, so any subset of the grid can run in any order and still
reproduce byte-identical output files.

Kinds:

* ``phase-transition`` - success rate per cell under a relative-error
  success threshold.
* ``convergence``      - same runs, plus per-iteration residual/error rows.
* ``audit``            - certify the exact isometry constant of every
  trial matrix (skipping cells whose enumeration exceeds the budget) and
  count inequality violations over instrumented runs.
* ``bounds-table``     - tabulate rho/tau over a delta grid per family
  (no randomness; uses ``deltas`` and ``families`` instead of the grid).

Aggregated rows go to ``output_path``; per-trial (or per-iteration, for
``convergence``) rows go alongside it when ``per_trial`` is set.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import COSAMP, SP, bounds_for, canonical_family
from .fileio import SCHEMA_VERSION
from .recovery import StoppingRule, audit_run, cosamp, merged_size, subspace_pursuit
from .ric import DEFAULT_ENUMERATION_BUDGET, exact_ric
from .seeding import derive_seed
from .signals import KINDS, make_instance

EXPERIMENT_KINDS = ("phase-transition", "convergence", "audit", "bounds-table")

CELL_COLUMNS = [
    "schema_version", "experiment", "cell_index", "algorithm",
    "m", "N", "s", "noise_sigma", "kind", "trials",
    "success_rate", "median_iterations", "mean_final_error",
    "audit_violations", "certified_delta", "delta_order", "below_threshold",
    "skipped", "skip_reason",
]

TRIAL_COLUMNS = [
    "schema_version", "experiment", "cell_index", "algorithm", "trial_index",
    "seed", "converged", "iterations", "final_error", "success",
    "audit_violations", "certified_delta",
]

ITERATION_COLUMNS = [
    "schema_version", "experiment", "cell_index", "algorithm", "trial_index",
    "iteration", "residual_norm", "signal_error", "tail_energy",
]

BOUNDS_COLUMNS = [
    "schema_version", "experiment", "row_index", "family", "delta",
    "rho", "tau", "valid", "threshold_rho1", "threshold_rho_half",
]


@dataclass(frozen=True)
class GridCell:
    m: int
    n: int
    s: int
    noise_sigma: float


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    algorithms: tuple[str, ...]
    grid: tuple[GridCell, ...]
    trials_per_cell: int
    master_seed: int
    output_path: str
    success_threshold: float = 1e-4
    kind: str = "exact-sparse"
    per_trial: bool = False
    ric_budget: int = DEFAULT_ENUMERATION_BUDGET
    deltas: tuple[float, ...] = ()
    families: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENT_KINDS:
            raise ValueError(f"experiment must be one of {EXPERIMENT_KINDS}")
        if self.experiment == "bounds-table":
            if not self.deltas or not self.families:
                raise ValueError("bounds-table needs non-empty 'deltas' and 'families'")
            for fam in self.families:
                canonical_family(fam)
            return
        if not self.grid:
            raise ValueError("grid must be non-empty")
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be >= 1")
        if not self.algorithms:
            raise ValueError("algorithms must be non-empty")
        for alg in self.algorithms:
            if alg not in (SP, COSAMP):
                raise ValueError(f"unknown algorithm {alg!r}; expected {SP!r} or {COSAMP!r}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.success_threshold <= 0:
            raise ValueError("success_threshold must be positive")
        for cell in self.grid:
            if not (1 <= cell.s <= cell.m <= cell.n):
                raise ValueError(f"bad grid cell {cell}: need 1 <= s <= m <= N")
            for alg in self.algorithms:
                need = merged_size(alg, cell.s)
                if need > cell.m:
                    raise ValueError(
                        f"bad grid cell {cell}: {alg} needs m >= {need} for full-rank least squares"
                    )

    @classmethod
    def from_dict(cls, raw: dict, default_output: str = "results.csv") -> "ExperimentConfig":
        grid = tuple(
            GridCell(int(c["m"]), int(c["N"]), int(c["s"]), float(c.get("noise_sigma", 0.0)))
            for c in raw.get("grid", [])
        )
        return cls(
            experiment=raw["experiment"],
            algorithms=tuple(raw.get("algorithms", [SP])),
            grid=grid,
            trials_per_cell=int(raw.get("trials_per_cell", 1)),
            master_seed=int(raw.get("master_seed", 0)),
            output_path=str(raw.get("output_path", default_output)),
            success_threshold=float(raw.get("success_threshold", 1e-4)),
            kind=str(raw.get("kind", "exact-sparse")),
            per_trial=bool(raw.get("per_trial", False)),
            ric_budget=int(raw.get("ric_budget", DEFAULT_ENUMERATION_BUDGET)),
            deltas=tuple(float(d) for d in raw.get("deltas", [])),
            families=tuple(raw.get("families", [])),
        )

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


def trials_path(output_path: str | Path) -> Path:
    p = Path(output_path)
    return p.with_name(p.stem + ".trials" + p.suffix)


def _recover(algorithm: str, instance, stop: StoppingRule, with_truth: bool):
    # Ground truth forces a full trace with per-iteration error norms; only
    # convergence rows and audits read them.
    run = subspace_pursuit if algorithm == SP else cosamp
    truth = instance.x if with_truth else None
    return run(instance.phi, instance.y, instance.s, stop=stop, truth=truth, trace="none")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _run_trial(
    config: ExperimentConfig,
    cell_index: int,
    trial_index: int,
    algorithms: tuple[str, ...],
) -> dict:
    """All per-trial measurements for one (cell, trial): one dict per algorithm."""
    cell = config.grid[cell_index]
    seed = derive_seed(config.master_seed, cell_index, trial_index)
    instance = make_instance(config.kind, cell.m, cell.n, cell.s, cell.noise_sigma, seed)
    stop = StoppingRule(e_prime_norm_hint=instance.e_prime_norm)
    x_norm = float(np.linalg.norm(instance.x))
    out: dict = {"seed": seed, "algorithms": {}}
    for algorithm in algorithms:
        entry: dict = {}
        result = _recover(algorithm, instance, stop, config.experiment != "phase-transition")
        error = float(np.linalg.norm(result.estimate - instance.x))
        rel_error = error / x_norm if x_norm > 0 else error
        entry.update(
            converged=result.converged,
            iterations=len(result.iterations),
            final_error=rel_error,
            success=rel_error <= config.success_threshold,
        )
        if config.experiment == "convergence":
            entry["history"] = [
                (rec.n, rec.residual_norm, rec.signal_error, rec.tail_energy)
                for rec in result.iterations
            ]
        if config.experiment == "audit":
            order = 3 * cell.s if algorithm == SP else 4 * cell.s
            delta = exact_ric(instance.phi, order, budget=config.ric_budget)
            report_threshold = bounds_for(algorithm, 0.0).threshold_rho1
            checks = audit_run(result, instance, delta)
            entry.update(
                certified_delta=delta.value,
                delta_order=order,
                below_threshold=delta.value < report_threshold,
                violations=sum(1 for _, chk in checks if not chk.holds),
            )
        out["algorithms"][algorithm] = entry
    return out


def _bounds_rows(config: ExperimentConfig) -> list[dict]:
    rows = []
    index = 0
    for family in config.families:
        for delta in config.deltas:
            report = bounds_for(family, delta)
            rows.append(
                {
                    "schema_version": SCHEMA_VERSION,
                    "experiment": config.experiment,
                    "row_index": index,
                    "family": report.algorithm,
                    "delta": report.delta,
                    "rho": report.rho,
                    "tau": report.tau,
                    "valid": report.valid,
                    "threshold_rho1": report.threshold_rho1,
                    "threshold_rho_half": report.threshold_rho_half,
                }
            )
            index += 1
    return rows


def run_experiment(config: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    """Execute the experiment; returns (aggregated rows, detail rows)."""
    if config.experiment == "bounds-table":
        return _bounds_rows(config), []

    # Audit cells whose exhaustive certification would blow the budget are
    # skipped per (cell, algorithm), never silently degraded.
    skipped: dict[tuple[int, str], str] = {}
    if config.experiment == "audit":
        for ci, cell in enumerate(config.grid):
            for algorithm in config.algorithms:
                order = 3 * cell.s if algorithm == SP else 4 * cell.s
                if order > cell.n or math.comb(cell.n, order) > config.ric_budget:
                    skipped[(ci, algorithm)] = "enumeration budget exceeded"

    cell_algorithms = {
        ci: tuple(a for a in config.algorithms if (ci, a) not in skipped)
        for ci in range(len(config.grid))
    }
    by_task = {
        (ci, ti): _run_trial(config, ci, ti, cell_algorithms[ci])
        for ci in range(len(config.grid))
        if cell_algorithms[ci]
        for ti in range(config.trials_per_cell)
    }

    cell_rows: list[dict] = []
    detail_rows: list[dict] = []
    for ci, cell in enumerate(config.grid):
        for algorithm in config.algorithms:
            base = {
                "schema_version": SCHEMA_VERSION,
                "experiment": config.experiment,
                "cell_index": ci,
                "algorithm": algorithm,
                "m": cell.m,
                "N": cell.n,
                "s": cell.s,
                "noise_sigma": cell.noise_sigma,
                "kind": config.kind,
                "trials": config.trials_per_cell,
            }
            if (ci, algorithm) in skipped:
                cell_rows.append(
                    base | {"skipped": True, "skip_reason": skipped[(ci, algorithm)]}
                )
                continue
            trials = [
                (ti, by_task[(ci, ti)]) for ti in range(config.trials_per_cell)
                if (ci, ti) in by_task
            ]
            entries = [(ti, t["seed"], t["algorithms"][algorithm]) for ti, t in trials]
            successes = [e["success"] for _, _, e in entries]
            iteration_counts = [e["iterations"] for _, _, e in entries]
            errors = [e["final_error"] for _, _, e in entries]
            row = base | {
                "success_rate": float(np.mean(successes)),
                "median_iterations": float(np.median(iteration_counts)),
                "mean_final_error": float(np.mean(errors)),
                "skipped": False,
                "skip_reason": "",
            }
            if config.experiment == "audit":
                row["audit_violations"] = int(sum(e["violations"] for _, _, e in entries))
                row["certified_delta"] = float(np.median([e["certified_delta"] for _, _, e in entries]))
                row["delta_order"] = entries[0][2]["delta_order"]
                row["below_threshold"] = all(e["below_threshold"] for _, _, e in entries)
            cell_rows.append(row)

            if config.experiment == "convergence":
                for ti, seed, e in entries:
                    for n, residual, sig, tail in e["history"]:
                        detail_rows.append(
                            {
                                "schema_version": SCHEMA_VERSION,
                                "experiment": config.experiment,
                                "cell_index": ci,
                                "algorithm": algorithm,
                                "trial_index": ti,
                                "iteration": n,
                                "residual_norm": residual,
                                "signal_error": sig,
                                "tail_energy": tail,
                            }
                        )
            else:
                for ti, seed, e in entries:
                    detail_rows.append(
                        {
                            "schema_version": SCHEMA_VERSION,
                            "experiment": config.experiment,
                            "cell_index": ci,
                            "algorithm": algorithm,
                            "trial_index": ti,
                            "seed": seed,
                            "converged": e["converged"],
                            "iterations": e["iterations"],
                            "final_error": e["final_error"],
                            "success": e["success"],
                            "audit_violations": e.get("violations"),
                            "certified_delta": e.get("certified_delta"),
                        }
                    )
    return cell_rows, detail_rows


def write_csv(path: str | Path, rows: list[dict], columns: list[str]) -> None:
    """Write rows under a fixed column order with round-trip float formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in columns])


def detail_columns(experiment: str) -> list[str]:
    return ITERATION_COLUMNS if experiment == "convergence" else TRIAL_COLUMNS


def write_results(config: ExperimentConfig, cell_rows: list[dict], detail_rows: list[dict]) -> list[Path]:
    """Persist result rows; returns the paths written."""
    out = Path(config.output_path)
    written = [out]
    if config.experiment == "bounds-table":
        write_csv(out, cell_rows, BOUNDS_COLUMNS)
        return written
    write_csv(out, cell_rows, CELL_COLUMNS)
    if config.per_trial:
        detail = trials_path(out)
        write_csv(detail, detail_rows, detail_columns(config.experiment))
        written.append(detail)
    return written
