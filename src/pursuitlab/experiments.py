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

``run_experiment`` takes the grid one cell at a time: it runs the cell's
trials, each on one instance shared by the algorithms, then builds the
cell's rows.  Aggregated rows go to ``output_path``; per-trial (or
per-iteration, for ``convergence``) rows go alongside it when
``per_trial`` is set.  Both files stream through ``fileio.write_rows``,
and ``bounds-table`` rows are ``fileio.bound_row``, as the CLI prints them.
A cell with a trial whose perturbation norm overflows to inf is marked
skipped, with its reason, for every algorithm and gets no per-trial rows.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import COSAMP, SP, bounds_for, canonical_family
from .fileio import BOUND_FIELDS, SCHEMA_VERSION, bound_row, write_rows
from .recovery import StoppingRule, audit_run, certified_order, cosamp, merged_size, subspace_pursuit
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

BOUNDS_COLUMNS = ["schema_version", "experiment", "row_index", *BOUND_FIELDS]


def _scalar(value, name: str, kind: str):
    """A config value checked to be of JSON type ``kind``: "integer" (an
    integral number), "number", "boolean" or "string".  A boolean is not a
    number, and a string is not converted."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "integer" and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind == "number" and number:
        return float(value)
    if (kind == "boolean" and isinstance(value, bool)) or (kind == "string" and isinstance(value, str)):
        return value
    article = "an" if kind == "integer" else "a"
    raise ValueError(f"'{name}' must be {article} {kind}, got {value!r}")


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
            for delta in self.deltas:
                if not 0.0 <= delta < 1.0:
                    raise ValueError(f"bounds-table delta {delta} must lie in [0, 1)")
            return
        if not self.grid:
            raise ValueError("grid must be non-empty")
        named = [(f, getattr(self, f)) for f in ("trials_per_cell", "master_seed", "ric_budget")]
        named += [pair for c in self.grid for pair in zip(("m", "N", "s"), (c.m, c.n, c.s))]
        for name, value in named:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"'{name}' must be an integer, got {value!r}")
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be >= 1")
        if not self.algorithms:
            raise ValueError("algorithms must be non-empty")
        for alg in self.algorithms:
            if alg not in (SP, COSAMP):
                raise ValueError(f"unknown algorithm {alg!r}; expected {SP!r} or {COSAMP!r}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if not (math.isfinite(self.success_threshold) and self.success_threshold > 0):
            raise ValueError("success_threshold must be positive and finite")
        for cell in self.grid:
            if not (1 <= cell.s <= cell.m <= cell.n):
                raise ValueError(f"bad grid cell {cell}: need 1 <= s <= m <= N")
            if not (math.isfinite(cell.noise_sigma) and cell.noise_sigma >= 0):
                raise ValueError(f"bad grid cell {cell}: noise_sigma must be finite and >= 0")
            for alg in self.algorithms:
                need = merged_size(alg, cell.s)
                if need > cell.m:
                    raise ValueError(
                        f"bad grid cell {cell}: {alg} needs m >= {need} for full-rank least squares"
                    )

    @classmethod
    def from_dict(cls, raw: dict, default_output: str = "results.csv") -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")

        def listed(field: str, default: list, entry: type | None = None) -> list:
            value = raw.get(field, default)
            if not isinstance(value, list):
                raise ValueError(f"'{field}' must be a list, got {value!r}")
            for item in value:
                if entry is not None and not isinstance(item, entry):
                    kind = "an object" if entry is dict else "a string"
                    raise ValueError(f"each '{field}' entry must be {kind}, got {item!r}")
            return value

        def field(source: dict, name: str, kind: str, default=None, where: str = ""):
            """``source[name]`` checked to be a JSON ``kind``; ``default``
            when missing, which None makes an error."""
            if name not in source:
                if default is None:
                    raise ValueError(f"missing required field '{name}'{where}")
                return default
            return _scalar(source[name], name, kind)

        grid = tuple(
            GridCell(
                *(field(c, name, "integer", where=" in a 'grid' entry") for name in ("m", "N", "s")),
                field(c, "noise_sigma", "number", 0.0),
            )
            for c in listed("grid", [], dict)
        )
        return cls(
            experiment=field(raw, "experiment", "string"),
            algorithms=tuple(listed("algorithms", [SP], str)),
            grid=grid,
            trials_per_cell=field(raw, "trials_per_cell", "integer", 1),
            master_seed=field(raw, "master_seed", "integer", 0),
            output_path=field(raw, "output_path", "string", default_output),
            success_threshold=field(raw, "success_threshold", "number", 1e-4),
            kind=field(raw, "kind", "string", "exact-sparse"),
            per_trial=field(raw, "per_trial", "boolean", False),
            ric_budget=field(raw, "ric_budget", "integer", DEFAULT_ENUMERATION_BUDGET),
            deltas=tuple(_scalar(d, "deltas", "number") for d in listed("deltas", [])),
            families=tuple(listed("families", [], str)),
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


class _SkippedCell(Exception):
    """A trial of the cell cannot run; the message is the cell's skip reason."""


def _run_trial(
    config: ExperimentConfig,
    cell_index: int,
    trial_index: int,
    keys: dict[str, dict],
) -> dict[str, tuple[dict, list[dict]]]:
    """One (cell, trial) on one instance: per algorithm of ``keys``, its trial
    row and its iteration rows (``convergence`` only)."""
    cell = config.grid[cell_index]
    seed = derive_seed(config.master_seed, cell_index, trial_index)
    # An overflow is reported as a skipped cell, not as a numpy warning.
    with np.errstate(over="ignore"):
        instance = make_instance(config.kind, cell.m, cell.n, cell.s, cell.noise_sigma, seed)
    if not math.isfinite(instance.e_prime_norm):
        raise _SkippedCell(f"perturbation norm overflows (trial {trial_index})")
    stop = StoppingRule(e_prime_norm_hint=instance.e_prime_norm)
    x_norm = float(np.linalg.norm(instance.x))
    out = {}
    for algorithm, key in keys.items():
        result = _recover(algorithm, instance, stop, config.experiment != "phase-transition")
        error = float(np.linalg.norm(result.estimate - instance.x))
        rel_error = error / x_norm if x_norm > 0 else error
        row = key | {
            "trial_index": trial_index,
            "seed": seed,
            "converged": result.converged,
            "iterations": len(result.iterations),
            "final_error": rel_error,
            "success": rel_error <= config.success_threshold,
            "audit_violations": None,
            "certified_delta": None,
        }
        iteration_rows = []
        if config.experiment == "convergence":
            iteration_rows = [
                key | {
                    "trial_index": trial_index,
                    "iteration": rec.n,
                    "residual_norm": rec.residual_norm,
                    "signal_error": rec.signal_error,
                    "tail_energy": rec.tail_energy,
                }
                for rec in result.iterations
            ]
        if config.experiment == "audit":
            delta = exact_ric(instance.phi, certified_order(algorithm, cell.s), budget=config.ric_budget)
            checks = audit_run(result, instance, delta)
            row["audit_violations"] = sum(1 for _, chk in checks if not chk.holds)
            row["certified_delta"] = delta.value
        out[algorithm] = (row, iteration_rows)
    return out


def _run_cell(config: ExperimentConfig, cell_index: int) -> tuple[list[dict], list[dict]]:
    """Run every trial of one grid cell; returns its cell rows and detail rows."""
    cell = config.grid[cell_index]
    # Audit cells whose exhaustive certification would blow the budget are
    # skipped per algorithm, never silently degraded.
    skipped: dict[str, str] = {}
    if config.experiment == "audit":
        for algorithm in config.algorithms:
            order = certified_order(algorithm, cell.s)
            if order > cell.n or math.comb(cell.n, order) > config.ric_budget:
                skipped[algorithm] = "enumeration budget exceeded"
    keys = {
        algorithm: {
            "schema_version": SCHEMA_VERSION,
            "experiment": config.experiment,
            "cell_index": cell_index,
            "algorithm": algorithm,
        }
        for algorithm in config.algorithms
    }
    active = {a: key for a, key in keys.items() if a not in skipped}
    runs: dict[str, list[tuple[dict, list[dict]]]] = {a: [] for a in active}
    # A cell with a trial that cannot run is skipped whole, with no detail
    # rows; a cell skipped for every algorithm draws no instance.
    try:
        for ti in range(config.trials_per_cell if active else 0):
            for algorithm, run in _run_trial(config, cell_index, ti, active).items():
                runs[algorithm].append(run)
    except _SkippedCell as skip:
        skipped.update(dict.fromkeys(active, str(skip)))

    cell_rows: list[dict] = []
    detail_rows: list[dict] = []
    for algorithm, key in keys.items():
        row = key | {
            "m": cell.m,
            "N": cell.n,
            "s": cell.s,
            "noise_sigma": cell.noise_sigma,
            "kind": config.kind,
            "trials": config.trials_per_cell,
        }
        if algorithm in skipped:
            cell_rows.append(row | {"skipped": True, "skip_reason": skipped[algorithm]})
            continue
        trial_rows = [trial for trial, _ in runs[algorithm]]
        row |= {
            "success_rate": float(np.mean([t["success"] for t in trial_rows])),
            "median_iterations": float(np.median([t["iterations"] for t in trial_rows])),
            "mean_final_error": float(np.mean([t["final_error"] for t in trial_rows])),
            "skipped": False,
            "skip_reason": "",
        }
        if config.experiment == "audit":
            deltas = [t["certified_delta"] for t in trial_rows]
            threshold = bounds_for(algorithm, 0.0).threshold_rho1
            row |= {
                "audit_violations": int(sum(t["audit_violations"] for t in trial_rows)),
                "certified_delta": float(np.median(deltas)),
                "delta_order": certified_order(algorithm, cell.s),
                "below_threshold": all(d < threshold for d in deltas),
            }
        cell_rows.append(row)
        if config.experiment == "convergence":
            detail_rows.extend(r for _, iteration_rows in runs[algorithm] for r in iteration_rows)
        else:
            detail_rows.extend(trial_rows)
    return cell_rows, detail_rows


def run_experiment(config: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    """Execute the experiment; returns (aggregated rows, detail rows)."""
    if config.experiment == "bounds-table":
        pairs = itertools.product(config.families, config.deltas)
        head = {"schema_version": SCHEMA_VERSION, "experiment": config.experiment}
        return [
            head | {"row_index": i} | bound_row(bounds_for(family, delta))
            for i, (family, delta) in enumerate(pairs)
        ], []
    cell_rows: list[dict] = []
    detail_rows: list[dict] = []
    for ci in range(len(config.grid)):
        cells, details = _run_cell(config, ci)
        cell_rows += cells
        detail_rows += details
    return cell_rows, detail_rows


def detail_columns(experiment: str) -> list[str]:
    return ITERATION_COLUMNS if experiment == "convergence" else TRIAL_COLUMNS


def write_results(config: ExperimentConfig, cell_rows: list[dict], detail_rows: list[dict]) -> list[Path]:
    """Persist result rows; returns the paths written."""
    out = Path(config.output_path)
    if config.experiment == "bounds-table":
        files = [(out, cell_rows, BOUNDS_COLUMNS)]
    else:
        files = [(out, cell_rows, CELL_COLUMNS)]
        if config.per_trial:
            files.append((trials_path(out), detail_rows, detail_columns(config.experiment)))
    for path, rows, columns in files:
        with open(path, "w", newline="") as fh:
            write_rows(fh, rows, columns)
    return [path for path, _, _ in files]
