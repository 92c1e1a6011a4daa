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
  trial matrix (skipping cells whose enumeration exceeds the budget or
  whose certified order exceeds N) and count inequality violations over
  instrumented runs.
* ``bounds-table``     - tabulate rho/tau over a delta grid per family
  (no randomness; uses ``deltas`` and ``families`` instead of the grid).

``run_experiment`` takes the grid one cell at a time, in one loop over the
cell's trials: each trial derives its seed, draws one instance, runs every
algorithm on it and keeps each algorithm's trial row (and, for
``convergence``, its iteration rows); the cell rows are built after the
loop.  A trial whose perturbation norm overflows to inf ends the loop, and
the cell is marked skipped, with its reason, for every algorithm and keeps
no per-trial rows.  Aggregated rows go to ``output_path``; per-trial (or
per-iteration) rows go alongside it when ``per_trial`` is set;
``run_experiment`` checks that both can be written before the first cell.
Both files stream through ``fileio.write_rows``, and ``bounds-table`` rows are
``fileio.bound_row``, as the CLI prints them.  A config built in Python
gets the defaults and the type checks of one read from JSON.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .bounds import COSAMP, DELTA_MAX, SP, bounds_for, canonical_family
from .fileio import BOUND_FIELDS, SCHEMA_VERSION, bound_row, write_rows
from .linalg import check_integer, check_real
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


# The fields that JSON gives as numbers but the config takes as integers.
_INTEGER_FIELDS = {"trials_per_cell", "master_seed", "ric_budget", "m", "N", "s"}


@dataclass(frozen=True)
class GridCell:
    m: int
    n: int
    s: int
    noise_sigma: float


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    algorithms: tuple[str, ...] = (SP,)
    grid: tuple[GridCell, ...] = ()
    trials_per_cell: int = 1
    master_seed: int = 0
    output_path: str = "results.csv"
    success_threshold: float = 1e-4
    kind: str = "exact-sparse"
    per_trial: bool = False
    ric_budget: int = DEFAULT_ENUMERATION_BUDGET
    deltas: tuple[float, ...] = ()
    families: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # A config built in Python gets the checks of one read from JSON.
        strings = [("experiment", self.experiment), ("output_path", self.output_path), ("kind", self.kind)]
        for name, value in strings + [(f, v) for f in ("algorithms", "families") for v in getattr(self, f)]:
            if not isinstance(value, str):
                raise ValueError(f"'{name}' must be a string, got {value!r}")
        if not isinstance(self.per_trial, bool):
            raise ValueError(f"'per_trial' must be a boolean, got {self.per_trial!r}")
        check_integer(self.trials_per_cell, "'trials_per_cell'", 1)
        check_integer(self.master_seed, "'master_seed'")
        check_integer(self.ric_budget, "'ric_budget'", 1)
        check_real(self.success_threshold, "'success_threshold'", math.ulp(0.0))  # > 0
        for delta in self.deltas:
            check_real(delta, "'deltas'", 0, DELTA_MAX)
        for cell in self.grid:
            for name, value in zip(("m", "N", "s"), (cell.m, cell.n, cell.s)):
                check_integer(value, f"'{name}'")
            check_real(cell.noise_sigma, f"bad grid cell {cell}: 'noise_sigma'", 0)
            if not (1 <= cell.s <= cell.m <= cell.n):
                raise ValueError(f"bad grid cell {cell}: need 1 <= s <= m <= N")
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
        if not self.algorithms:
            raise ValueError("algorithms must be non-empty")
        for alg in self.algorithms:
            if alg not in (SP, COSAMP):
                raise ValueError(f"unknown algorithm {alg!r}; expected {SP!r} or {COSAMP!r}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        for cell in self.grid:
            for alg in self.algorithms:
                need = merged_size(alg, cell.s)
                if need > cell.m:
                    raise ValueError(
                        f"bad grid cell {cell}: {alg} needs m >= {need} for full-rank least squares"
                    )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The config a parsed JSON object describes; a missing field takes
        its default.  JSON has one number type, so an integral float is an
        integer, and a JSON list is a tuple."""
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")

        def read(source: dict, names, required: tuple[str, ...], where: str = "") -> dict:
            """``source`` with an integral float in an integer field read as
            an int.  A key that names no field is rejected: it would
            otherwise be ignored and its field left at its default."""
            values = {}
            for key, value in source.items():
                if key not in names:
                    raise ValueError(f"unknown field '{key}'{where}")
                integral = key in _INTEGER_FIELDS and isinstance(value, float) and value.is_integer()
                values[key] = int(value) if integral else value
            for name in required:
                if name not in values:
                    raise ValueError(f"missing required field '{name}'{where}")
            return values

        def cell(entry) -> GridCell:
            if not isinstance(entry, dict):
                raise ValueError(f"each 'grid' entry must be an object, got {entry!r}")
            c = read(entry, ("m", "N", "s", "noise_sigma"), ("m", "N", "s"), " in a 'grid' entry")
            return GridCell(c["m"], c["N"], c["s"], c.get("noise_sigma", 0.0))

        values = read(raw, {f.name for f in fields(cls)}, ("experiment",))
        for name in ("algorithms", "grid", "deltas", "families"):
            if name in values:
                if not isinstance(values[name], list):
                    raise ValueError(f"'{name}' must be a list, got {values[name]!r}")
                values[name] = tuple(values[name])
        if "grid" in values:
            values["grid"] = tuple(map(cell, values["grid"]))
        return cls(**values)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


def trials_path(output_path: str | Path) -> Path:
    p = Path(output_path)
    return p.with_name(p.stem + ".trials" + p.suffix)


def _output_files(config: ExperimentConfig) -> list[tuple[Path, list[str]]]:
    """The (path, columns) of each file ``write_results`` writes: the cell
    file, then the per-trial (or per-iteration) file.  Raises ``ValueError``
    for a file that could not be opened for writing."""
    out = Path(config.output_path)  # the .trials file shares its directory
    if not out.parent.is_dir():
        raise ValueError(f"cannot write {out}: no directory {out.parent}")
    if out.is_dir():  # before trials_path, which rejects a path with no name
        raise ValueError(f"cannot write {out}: it is a directory")
    if config.experiment == "bounds-table":
        return [(out, BOUNDS_COLUMNS)]
    files = [(out, CELL_COLUMNS)]
    if config.per_trial:
        trials = trials_path(out)
        if trials.is_dir():
            raise ValueError(f"cannot write {trials}: it is a directory")
        files.append((trials, ITERATION_COLUMNS if config.experiment == "convergence" else TRIAL_COLUMNS))
    return files


def _run_cell(config: ExperimentConfig, cell_index: int) -> tuple[list[dict], list[dict]]:
    """Run every trial of one grid cell; returns its cell rows and detail rows."""
    cell = config.grid[cell_index]
    # Audit cells with no support of the certified order, or whose exhaustive
    # certification would blow the budget, are skipped per algorithm, never
    # silently degraded.
    skipped: dict[str, str] = {}
    if config.experiment == "audit":
        for alg in config.algorithms:
            order = certified_order(alg, cell.s)
            if order > cell.n:
                skipped[alg] = f"certified order {order} exceeds N={cell.n}"
            elif math.comb(cell.n, order) > config.ric_budget:
                skipped[alg] = "enumeration budget exceeded"
    key = {"schema_version": SCHEMA_VERSION, "experiment": config.experiment, "cell_index": cell_index}
    head = {alg: key | {"algorithm": alg} for alg in config.algorithms}
    active = [alg for alg in config.algorithms if alg not in skipped]
    trial_rows: dict[str, list[dict]] = {alg: [] for alg in active}
    iteration_rows: dict[str, list[dict]] = {alg: [] for alg in active}
    # A cell skipped for every algorithm draws no instance.
    for ti in range(config.trials_per_cell if active else 0):
        seed = derive_seed(config.master_seed, cell_index, ti)
        # An overflow is reported as a skipped cell, not as a numpy warning.
        with np.errstate(over="ignore"):
            instance = make_instance(config.kind, cell.m, cell.n, cell.s, cell.noise_sigma, seed)
        if not math.isfinite(instance.e_prime_norm):
            # The whole cell is skipped and keeps no detail rows.
            skipped |= dict.fromkeys(active, f"perturbation norm overflows (trial {ti})")
            break
        stop = StoppingRule(e_prime_norm_hint=instance.e_prime_norm)
        # sqrt(v.dot(v)) is np.linalg.norm's computation for a 1-d float vector.
        x_norm = math.sqrt(instance.x.dot(instance.x))
        # Ground truth only adds per-iteration error norms to the records, and
        # only convergence rows read them; an audit takes the signal from the instance.
        truth = instance.x if config.experiment == "convergence" else None
        for alg in active:
            # Looked up at call time, so that a wrapper installed on the module is seen.
            run = subspace_pursuit if alg == SP else cosamp
            result = run(instance.phi, instance.y, instance.s, stop=stop, truth=truth)
            miss = result.estimate - instance.x
            error = math.sqrt(miss.dot(miss))
            rel_error = error / x_norm if x_norm > 0 else error
            row = head[alg] | {
                "trial_index": ti, "seed": seed, "converged": result.converged,
                "iterations": len(result.iterations), "final_error": rel_error,
                "success": rel_error <= config.success_threshold,
                "audit_violations": None, "certified_delta": None,
            }
            if config.experiment == "audit":
                delta = exact_ric(instance.phi, certified_order(alg, cell.s), budget=config.ric_budget)
                violations = sum(not chk.holds for _, chk in audit_run(result, instance, delta))
                row |= {"audit_violations": violations, "certified_delta": delta.value}
            trial_rows[alg].append(row)
            if config.experiment == "convergence":
                iteration_rows[alg] += [
                    head[alg] | {
                        "trial_index": ti, "iteration": it, "residual_norm": rec.residual_norm,
                        "signal_error": rec.signal_error, "tail_energy": rec.tail_energy,
                    }
                    for it, rec in enumerate(result.iterations, start=1)
                ]

    cell_rows: list[dict] = []
    detail_rows: list[dict] = []
    for alg in config.algorithms:
        row = head[alg] | {
            "m": cell.m,
            "N": cell.n,
            "s": cell.s,
            "noise_sigma": float(cell.noise_sigma),
            "kind": config.kind,
            "trials": config.trials_per_cell,
        }
        if alg in skipped:
            cell_rows.append(row | {"skipped": True, "skip_reason": skipped[alg]})
            continue
        trials = trial_rows[alg]
        row |= {
            "success_rate": float(np.mean([t["success"] for t in trials])),
            "median_iterations": float(np.median([t["iterations"] for t in trials])),
            "mean_final_error": float(np.mean([t["final_error"] for t in trials])),
            "skipped": False,
            "skip_reason": "",
        }
        if config.experiment == "audit":
            deltas = [t["certified_delta"] for t in trials]
            threshold = bounds_for(alg, 0.0).threshold_rho1
            row |= {
                "audit_violations": int(sum(t["audit_violations"] for t in trials)),
                "certified_delta": float(np.median(deltas)),
                "delta_order": certified_order(alg, cell.s),
                "below_threshold": all(d < threshold for d in deltas),
            }
        cell_rows.append(row)
        detail_rows += iteration_rows[alg] if config.experiment == "convergence" else trials
    return cell_rows, detail_rows


def run_experiment(config: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    """Execute the experiment; returns (aggregated rows, detail rows).
    Raises ``ValueError`` before the first cell if ``write_results`` could
    not write the config's files."""
    _output_files(config)
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


def write_results(config: ExperimentConfig, cell_rows: list[dict], detail_rows: list[dict]) -> list[Path]:
    """Persist result rows; returns the paths written."""
    files = _output_files(config)
    for (path, columns), rows in zip(files, (cell_rows, detail_rows)):
        with open(path, "w", newline="") as fh:
            write_rows(fh, rows, columns)
    return [path for path, _ in files]
