import itertools
import json
import math
import warnings

import numpy as np
import pytest

from pursuitlab import (
    ExperimentConfig,
    GridCell,
    StoppingRule,
    audit_run,
    bounds_for,
    cosamp,
    exact_ric,
    experiments,
    make_instance,
    run_experiment,
    subspace_pursuit,
    write_results,
)
from pursuitlab.experiments import trials_path
from pursuitlab.fileio import SCHEMA_VERSION
from pursuitlab.recovery import certified_order
from pursuitlab.seeding import derive_seed


def config_dict(**overrides):
    base = {
        "experiment": "phase-transition",
        "algorithms": ["SP"],
        "grid": [{"m": 12, "N": 24, "s": 2, "noise_sigma": 0.0}],
        "trials_per_cell": 5,
        "master_seed": 7,
        "output_path": "out.csv",
    }
    base.update(overrides)
    return base


def test_derive_seed_is_pinned():
    # Frozen values: the sub-seed derivation is part of the reproducibility
    # contract, so any change to the hash must fail loudly.
    assert derive_seed(0) == 12035550249420947055
    assert derive_seed(7, 0, 3) == 10450146841535597153
    assert derive_seed(7, 3, 0) == 4984071562749677342


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(config_dict(experiment="unknown"))
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(config_dict(grid=[]))
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(config_dict(trials_per_cell=0))
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(config_dict(algorithms=["OMP"]))
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(config_dict(grid=[{"m": 4, "N": 2, "s": 1}]))
    # Cells too small for full-rank least squares fail before any work starts.
    with pytest.raises(ValueError, match="m=8.*CoSaMP needs m >= 12"):
        ExperimentConfig(
            "phase-transition", ("SP", "CoSaMP"), (GridCell(8, 32, 4, 0.0),), 1, 0, "out.csv"
        )
    with pytest.raises(ValueError, match="m=7.*SP needs m >= 8"):
        ExperimentConfig.from_dict(config_dict(grid=[{"m": 7, "N": 32, "s": 4}]))
    # A bad noise level fails when the config is built, naming its cell,
    # not in the middle of a sweep (or, for NaN, silently as a noiseless run).
    for sigma in (-1e-3, float("inf"), float("nan")):
        grid = [
            {"m": 12, "N": 24, "s": 2, "noise_sigma": 0.0},
            {"m": 16, "N": 24, "s": 2, "noise_sigma": sigma},
        ]
        with pytest.raises(ValueError, match="m=16.*'noise_sigma' must be finite and >= 0"):
            ExperimentConfig.from_dict(config_dict(grid=grid))
    for threshold in (0.0, -1e-4, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="'success_threshold' must be finite and >= 5e-324"):
            ExperimentConfig.from_dict(config_dict(success_threshold=threshold))
    # JSON of the wrong shape fails with a message that names the field,
    # not with a TypeError or AttributeError, and a string is not read as
    # a list of its characters.
    with pytest.raises(ValueError, match="config must be a JSON object"):
        ExperimentConfig.from_dict([config_dict()])
    for field, value in (("algorithms", "SP"), ("grid", {"m": 12, "N": 24, "s": 2})):
        with pytest.raises(ValueError, match=f"'{field}' must be a list"):
            ExperimentConfig.from_dict(config_dict(**{field: value}))
    for raw, message in (
        (config_dict(grid=[1]), "each 'grid' entry must be an object"),
        (config_dict(algorithms=["SP", 1]), "'algorithms' must be a string, got 1"),
    ):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(raw)
    # Scalars must have their JSON type: a boolean, string, list or null is
    # no number, an integer has no fraction (2.7 is not read as 2), and
    # per_trial is a JSON boolean ("false" is not true).  A missing
    # required field is named.
    no_experiment = {k: v for k, v in config_dict().items() if k != "experiment"}
    no_grid = {k: v for k, v in config_dict().items() if k != "grid"}
    for raw, message in (
        (config_dict(trials_per_cell=[1]), r"'trials_per_cell' must be an integer >= 1, got \[1\]"),
        (config_dict(trials_per_cell=2.7), "'trials_per_cell' must be an integer >= 1, got 2.7"),
        (config_dict(trials_per_cell=True), "'trials_per_cell' must be an integer >= 1, got True"),
        (config_dict(master_seed="7"), "'master_seed' must be an integer, got '7'"),
        (config_dict(ric_budget=1e3 + 0.5), "'ric_budget' must be an integer"),
        (config_dict(grid=[{"m": None, "N": 24, "s": 2}]), "'m' must be an integer, got None"),
        (config_dict(grid=[{"N": 24, "s": 2}]), "missing required field 'm' in a 'grid' entry"),
        (config_dict(grid=[{"m": 12, "N": 24, "s": 2, "noise_sigma": "0"}]),
         "'noise_sigma' must be a number, got '0'"),
        (config_dict(success_threshold=None), "'success_threshold' must be a number, got None"),
        (config_dict(per_trial="false"), "'per_trial' must be a boolean, got 'false'"),
        (config_dict(per_trial=1), "'per_trial' must be a boolean, got 1"),
        (config_dict(output_path=3), "'output_path' must be a string, got 3"),
        (no_experiment, "missing required field 'experiment'"),
        (no_grid, "missing required field 'grid'"),
        (config_dict(grid=[]), "grid must be non-empty"),
        # A misspelt key is named rather than ignored: 'trials_per_cel' used
        # to run 1 trial per cell and a grid 'sigma' a noiseless cell.
        (config_dict(trials_per_cel=5), "unknown field 'trials_per_cel'"),
        (config_dict(grid=[{"m": 12, "N": 24, "s": 2, "sigma": 1e-3}]),
         "unknown field 'sigma' in a 'grid' entry"),
    ):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(raw)
    # An integral float is an integer.
    cfg = ExperimentConfig.from_dict(config_dict(trials_per_cell=2.0, grid=[{"m": 12.0, "N": 24, "s": 2}]))
    assert cfg.trials_per_cell == 2 and cfg.grid[0] == GridCell(12, 24, 2, 0.0)
    assert isinstance(cfg.trials_per_cell, int) and isinstance(cfg.grid[0].m, int)
    # from_dict converts JSON numbers before it builds the config; a config
    # built in Python gets the same integer check, so a float or a bool fails
    # here, not with a TypeError inside run_experiment or, for a seed of 1.5,
    # silently as seed 1.
    good = dict(
        experiment="phase-transition", algorithms=("SP",), grid=(GridCell(12, 24, 2, 0.0),),
        trials_per_cell=2, master_seed=1, output_path="out.csv",
    )
    for field, value, message in (
        ("trials_per_cell", 2.5, "'trials_per_cell' must be an integer >= 1, got 2.5"),
        ("trials_per_cell", True, "'trials_per_cell' must be an integer >= 1, got True"),
        ("master_seed", 1.5, "'master_seed' must be an integer, got 1.5"),
        ("ric_budget", 1e3, "'ric_budget' must be an integer >= 1, got 1000.0"),
        ("grid", (GridCell(8.0, 16, 2, 0.0),), "'m' must be an integer, got 8.0"),
        ("grid", (GridCell(12, 24.0, 2, 0.0),), "'N' must be an integer, got 24.0"),
        ("grid", (GridCell(12, 24, True, 0.0),), "'s' must be an integer, got True"),
        # Every other field gets from_dict's type check too, so a bad value
        # fails here, not with a TypeError, or at write_results after every
        # cell has run, or (for per_trial) silently as true.
        ("grid", (GridCell(12, 24, 2, "0"),), "'noise_sigma' must be a number, got '0'"),
        ("success_threshold", "1e-4", "'success_threshold' must be a number, got '1e-4'"),
        ("per_trial", "no", "'per_trial' must be a boolean, got 'no'"),
        ("output_path", 3, "'output_path' must be a string, got 3"),
        ("experiment", 3, "'experiment' must be a string, got 3"),
        ("kind", None, "'kind' must be a string, got None"),
        ("algorithms", ("SP", 1), "'algorithms' must be a string, got 1"),
        ("algorithms", (), "algorithms must be non-empty"),
        ("kind", "gaussian", "kind must be one of"),
    ):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**good | {field: value})
    # Any real number is a number, numpy's included.
    ExperimentConfig(**good | {"grid": (GridCell(12, 24, 2, np.float32(0.5)),), "success_threshold": 1})
    cells, _ = run_experiment(ExperimentConfig(**good | {"master_seed": np.uint64(1)}))
    assert cells == run_experiment(ExperimentConfig(**good))[0]


def test_python_config_takes_the_json_defaults():
    # The defaults are declared once, on the dataclass: a config built in
    # Python equals the one read from the same minimal JSON.
    built = ExperimentConfig("phase-transition", grid=(GridCell(12, 24, 2, 0.0),))
    assert built == ExperimentConfig.from_dict({"experiment": "phase-transition", "grid": [{"m": 12, "N": 24, "s": 2}]})
    assert (built.algorithms, built.trials_per_cell, built.master_seed, built.output_path) == (
        ("SP",), 1, 0, "results.csv"
    )


def test_rows_are_deterministic(tmp_path):
    cfg = ExperimentConfig.from_dict(
        config_dict(output_path=str(tmp_path / "a.csv"), per_trial=True,
                    algorithms=["SP", "CoSaMP"], trials_per_cell=4)
    )
    cells_a, trials_a = run_experiment(cfg)
    cells_b, trials_b = run_experiment(cfg)
    assert cells_a == cells_b
    assert trials_a == trials_b
    write_results(cfg, cells_a, trials_a)
    first = (tmp_path / "a.csv").read_bytes()
    write_results(cfg, cells_b, trials_b)
    assert (tmp_path / "a.csv").read_bytes() == first
    assert trials_path(tmp_path / "a.csv").exists()


def test_run_experiment_checks_output_files_before_any_cell(tmp_path, monkeypatch):
    # A Python caller gets the CLI's checks on the files write_results will
    # write before the first cell runs, not an OSError after the last.
    cells = []
    run_cell = experiments._run_cell
    monkeypatch.setattr(experiments, "_run_cell", lambda config, ci: cells.append(ci) or run_cell(config, ci))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "res.trials.csv").mkdir()
    missing = tmp_path / "missing" / "res.csv"
    blocked = [
        (".", False, "cannot write .: it is a directory"),
        ("", False, "cannot write .: it is a directory"),
        (str(missing), False, f"cannot write {missing}: no directory {missing.parent}"),
        ("res.csv", True, "cannot write res.trials.csv: it is a directory"),
    ]
    for output_path, per_trial, message in blocked:
        cfg = ExperimentConfig.from_dict(config_dict(output_path=output_path, per_trial=per_trial))
        with pytest.raises(ValueError) as err:
            run_experiment(cfg)
        assert str(err.value) == message
        assert cells == []
    # Without per-trial rows the .trials directory is in nobody's way.
    run_experiment(ExperimentConfig.from_dict(config_dict(output_path="res.csv")))
    assert cells == [0]


def test_phase_transition_rates_sensible():
    cfg = ExperimentConfig.from_dict(
        config_dict(
            grid=[
                {"m": 8, "N": 32, "s": 2, "noise_sigma": 0.0},
                {"m": 24, "N": 32, "s": 2, "noise_sigma": 0.0},
            ],
            trials_per_cell=20,
        )
    )
    cells, _ = run_experiment(cfg)
    by_m = {row["m"]: row for row in cells}
    assert by_m[24]["success_rate"] >= by_m[8]["success_rate"]
    assert by_m[24]["success_rate"] == 1.0
    for row in cells:
        assert 0.0 <= row["success_rate"] <= 1.0
        assert not row["skipped"]


def test_phase_transition_trend_baseline():
    # Frozen sweep baseline (measured once): SP success over m = 8..32 at
    # N=64, s=4, 100 trials/cell came out 2, 29, 56, 86, 99, 99, 100 per
    # hundred; assert the non-decreasing trend up to sampling noise and the
    # saturated endpoint.
    cfg = ExperimentConfig.from_dict(
        config_dict(
            grid=[{"m": m, "N": 64, "s": 4, "noise_sigma": 0.0} for m in range(8, 33, 4)],
            trials_per_cell=100,
            master_seed=1234,
        )
    )
    cells, _ = run_experiment(cfg)
    rates = [row["success_rate"] for row in sorted(cells, key=lambda r: r["m"])]
    assert all(b >= a - 0.05 for a, b in zip(rates, rates[1:]))
    assert rates[0] <= 0.2
    assert rates[-1] >= 0.95


def test_convergence_detail_rows():
    cfg = ExperimentConfig.from_dict(
        config_dict(experiment="convergence", trials_per_cell=2, per_trial=True)
    )
    cells, details = run_experiment(cfg)
    assert cells
    assert details
    for row in details:
        assert row["iteration"] >= 1
        assert np.isfinite(row["residual_norm"])
        assert np.isfinite(row["signal_error"])


def test_audit_counts_zero_and_skips_over_budget():
    cfg = ExperimentConfig.from_dict(
        config_dict(
            experiment="audit",
            grid=[
                {"m": 15, "N": 16, "s": 2, "noise_sigma": 0.0},
                {"m": 40, "N": 80, "s": 5, "noise_sigma": 0.0},
                {"m": 8, "N": 10, "s": 4, "noise_sigma": 0.0},
            ],
            trials_per_cell=2,
            ric_budget=20000,
        )
    )
    cells, details = run_experiment(cfg)
    ran = [r for r in cells if not r["skipped"]]
    skipped = [r for r in cells if r["skipped"]]
    assert len(ran) == 1 and len(skipped) == 2
    assert ran[0]["audit_violations"] == 0
    assert ran[0]["delta_order"] == 6
    # The last cell has no support of SP's certified order 3s = 12 at all.
    assert [r["skip_reason"] for r in skipped] == ["enumeration budget exceeded", "certified order 12 exceeds N=10"]
    assert all(d["audit_violations"] == 0 for d in details)


def test_audit_mixed_feasibility_in_one_cell():
    # comb(20, 6) = 38760 fits a 50k budget but comb(20, 8) = 125970 does
    # not, so the same cell must run for SP while CoSaMP is skipped.
    cfg = ExperimentConfig.from_dict(
        config_dict(
            experiment="audit",
            algorithms=["SP", "CoSaMP"],
            grid=[{"m": 18, "N": 20, "s": 2, "noise_sigma": 0.0}],
            trials_per_cell=2,
            ric_budget=50000,
        )
    )
    cells, _ = run_experiment(cfg)
    by_alg = {row["algorithm"]: row for row in cells}
    assert not by_alg["SP"]["skipped"]
    assert by_alg["SP"]["audit_violations"] == 0
    assert by_alg["CoSaMP"]["skipped"]


@pytest.mark.parametrize("experiment", ["phase-transition", "convergence"])
def test_overflowing_cell_is_skipped(experiment, tmp_path):
    # The middle cell's noise overflows ||e'||; it is skipped with a reason
    # and no detail rows, and the other cells keep the rows they have when
    # it is noiseless, since seeds depend only on (master, cell, trial).
    def grid(sigma):
        return [
            {"m": 40, "N": 64, "s": 4, "noise_sigma": 1e-3},
            {"m": 40, "N": 64, "s": 4, "noise_sigma": sigma},
            {"m": 48, "N": 64, "s": 4, "noise_sigma": 0.0},
        ]

    outputs = {}
    for sigma in (1e300, 0.0):
        cfg = ExperimentConfig.from_dict(config_dict(
            experiment=experiment, algorithms=["SP", "CoSaMP"], grid=grid(sigma),
            trials_per_cell=3, per_trial=True, output_path=str(tmp_path / f"{sigma}.csv"),
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells, details = run_experiment(cfg)
        outputs[sigma] = [p.read_text().splitlines() for p in write_results(cfg, cells, details)]
        if sigma:
            bad = [row for row in cells if row["cell_index"] == 1]
            assert [row["algorithm"] for row in bad] == ["SP", "CoSaMP"]
            assert all(row["skipped"] for row in bad)
            assert all(row["skip_reason"] == "perturbation norm overflows (trial 0)" for row in bad)
            assert not any(row["skipped"] for row in cells if row["cell_index"] != 1)
            assert {row["cell_index"] for row in details} == {0, 2}

    def other_cells(lines):
        return [line for line in lines if line.split(",")[2] != "1"]

    for overflowing, noiseless in zip(outputs[1e300], outputs[0.0]):
        assert other_cells(overflowing) == other_cells(noiseless)


def test_config_json_round_trip(tmp_path):
    raw = config_dict(output_path=str(tmp_path / "o.csv"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = ExperimentConfig.from_json_file(path)
    assert cfg.grid == (GridCell(12, 24, 2, 0.0),)
    assert cfg.master_seed == 7


def test_python_and_json_configs_write_the_same_bytes(tmp_path):
    # noise_sigma is written as a float however the config was built: a
    # Python GridCell(12, 24, 2, 0) once wrote "0" where its JSON twin
    # wrote "0.0".
    raw = config_dict(
        experiment="convergence", algorithms=["SP", "CoSaMP"], trials_per_cell=2, per_trial=True,
        grid=[{"m": 12, "N": 24, "s": 2, "noise_sigma": 0}, {"m": 16, "N": 24, "s": 2, "noise_sigma": 1}],
    )
    built = ExperimentConfig(
        "convergence", ("SP", "CoSaMP"), (GridCell(12, 24, 2, 0), GridCell(16, 24, 2, 1)), 2, 7,
        str(tmp_path / "built.csv"), per_trial=True,
    )
    twin = ExperimentConfig.from_dict(json.loads(json.dumps(raw | {"output_path": str(tmp_path / "j.csv")})))
    written = [write_results(cfg, *run_experiment(cfg)) for cfg in (built, twin)]
    assert len(written[0]) == 2
    for ours, theirs in zip(*written):
        assert ours.read_bytes() == theirs.read_bytes()
    assert b",12,24,2,0.0,exact-sparse," in written[0][0].read_bytes()


def reference_run(cfg):
    """``run_experiment``'s rows rebuilt from the library calls, one
    algorithm and one trial at a time."""
    cells, details = [], []
    for ci, cell in enumerate(cfg.grid):
        instances, overflow = [], None
        for ti in range(cfg.trials_per_cell):
            seed = derive_seed(cfg.master_seed, ci, ti)
            with np.errstate(over="ignore"):
                inst = make_instance(cfg.kind, cell.m, cell.n, cell.s, cell.noise_sigma, seed)
            if not math.isfinite(inst.e_prime_norm):
                overflow = f"perturbation norm overflows (trial {ti})"
                break
            instances.append((seed, inst))
        for alg in cfg.algorithms:
            key = {"schema_version": SCHEMA_VERSION, "experiment": cfg.experiment, "cell_index": ci}
            key["algorithm"] = alg
            row = key | {"m": cell.m, "N": cell.n, "s": cell.s, "noise_sigma": float(cell.noise_sigma),
                         "kind": cfg.kind, "trials": cfg.trials_per_cell}
            order = certified_order(alg, cell.s)
            if cfg.experiment == "audit" and order > cell.n:
                cells.append(row | {"skipped": True, "skip_reason": f"certified order {order} exceeds N={cell.n}"})
                continue
            if cfg.experiment == "audit" and math.comb(cell.n, order) > cfg.ric_budget:
                cells.append(row | {"skipped": True, "skip_reason": "enumeration budget exceeded"})
                continue
            if overflow:
                cells.append(row | {"skipped": True, "skip_reason": overflow})
                continue
            trials = []
            for ti, (seed, inst) in enumerate(instances):
                run = subspace_pursuit if alg == "SP" else cosamp
                truth = None if cfg.experiment == "phase-transition" else inst.x
                stop = StoppingRule(e_prime_norm_hint=inst.e_prime_norm)
                result = run(inst.phi, inst.y, inst.s, stop=stop, truth=truth)
                error = float(np.linalg.norm(result.estimate - inst.x)) / float(np.linalg.norm(inst.x))
                trial = key | {"trial_index": ti, "seed": seed, "converged": result.converged,
                               "iterations": len(result.iterations), "final_error": error,
                               "success": error <= cfg.success_threshold,
                               "audit_violations": None, "certified_delta": None}
                if cfg.experiment == "audit":
                    delta = exact_ric(inst.phi, order)
                    checks = audit_run(result, inst, delta)
                    violations = sum(not c.holds for _, c in checks)
                    trial |= {"audit_violations": violations, "certified_delta": delta.value}
                trials.append(trial)
                if cfg.experiment == "convergence":
                    details += [
                        key | {"trial_index": ti, "iteration": it, "residual_norm": rec.residual_norm,
                               "signal_error": rec.signal_error, "tail_energy": rec.tail_energy}
                        for it, rec in enumerate(result.iterations, start=1)
                    ]
            if cfg.experiment != "convergence":
                details += trials
            row |= {
                "success_rate": float(np.mean([t["success"] for t in trials])),
                "median_iterations": float(np.median([t["iterations"] for t in trials])),
                "mean_final_error": float(np.mean([t["final_error"] for t in trials])),
                "skipped": False, "skip_reason": "",
            }
            if cfg.experiment == "audit":
                deltas = [t["certified_delta"] for t in trials]
                threshold = bounds_for(alg, 0.0).threshold_rho1
                row |= {"audit_violations": sum(t["audit_violations"] for t in trials),
                        "certified_delta": float(np.median(deltas)), "delta_order": order,
                        "below_threshold": all(d < threshold for d in deltas)}
            cells.append(row)
    return cells, details


@pytest.mark.parametrize("experiment", ["phase-transition", "convergence", "audit"])
def test_rows_match_the_library_calls(experiment):
    # Pins the engine's cell, trial and iteration rows to the library calls
    # they come from, on this machine's BLAS.  Cell 1 is over the audit
    # budget for CoSaMP (comb(16, 8) = 12870 > 10000) but not for SP,
    # cell 2's noise overflows, and in cell 4 CoSaMP's order 16 exceeds N
    # while SP's order 12 does not.
    grid = [
        {"m": 12, "N": 14, "s": 2, "noise_sigma": 1e-3},
        {"m": 16, "N": 16, "s": 2, "noise_sigma": 0.0},
        {"m": 12, "N": 14, "s": 2, "noise_sigma": 1e300},
        {"m": 14, "N": 14, "s": 3, "noise_sigma": 0.0},
        {"m": 12, "N": 14, "s": 4},
    ]
    orders = (["SP", "CoSaMP"], ["CoSaMP", "SP"])
    for algorithms, kind in itertools.product(orders, ("exact-sparse", "almost-sparse")):
        raw = config_dict(experiment=experiment, algorithms=algorithms, kind=kind, grid=grid,
                          trials_per_cell=3, ric_budget=10000)
        cfg = ExperimentConfig.from_dict(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells, details = run_experiment(cfg)
        assert (cells, details) == reference_run(cfg)
        if experiment == "audit":
            assert [r["skip_reason"] for r in cells if r["cell_index"] == 1] == [
                "enumeration budget exceeded" if a == "CoSaMP" else "" for a in algorithms
            ]
            assert [r["skip_reason"] for r in cells if r["cell_index"] == 4] == [
                "certified order 16 exceeds N=14" if a == "CoSaMP" else "" for a in algorithms
            ]
