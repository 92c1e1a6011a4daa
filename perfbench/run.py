"""pursuitlab benchmark: seeded workloads through the public API.

Run from the repository root; the package is imported from ./src:

    python3 perfbench/run.py --workload sweep-capped --seed 2013 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one after another

A run sets up its workload five times (import in a fresh interpreter, input
generation, an untimed warm-up) and reports the median as setup_s. It then
repeats passes for --seconds seconds and reports medians over them: a
pass time is the sum over the pass's segments of each segment's median. The
load is one process making serial calls (a closed loop with one client),
with the library's defaults and PURSUITLAB_THREADS unset.

Times are reported raw and normalised. On a shared two-core virtual
machine the speed swings by up to 2x from one few-second stretch to the
next, which no number of repeated passes averages away, so a fixed
reference kernel is run right before and after every timed segment
(speed.py) and each time is also reported in normalised seconds, the time
it would have taken at the kernel's nominal speed. The metrics named in
BENCHMARK.json, which decide regressions, are the normalised ones
(wall_norm_s, setup_s) and peak_rss_mb; the raw ones (wall_s, and per
workload runs_per_s, supports_per_s or gen_s, recover_s, ric_s) are
printed beside them. failed_ratio is printed too; it cannot be in
BENCHMARK.json, whose metrics must be non-zero on every workload.

Every pass goes through the correctness gate (gate.py). For the default
seed it compares against values recorded in reference.json; for any seed it
prints a digest of the gated fields of the first pass, which every run
makes whatever --seconds is, so two commits can be compared.

--trace 0 reports the end-to-end metrics. --trace 1 alternates plain and
traced passes (tracing.py), reports the per-layer metrics and the tracing
overhead, compares layers with the hand-measured ROADMAP baselines, and
writes the spans to .perfbench_work/<workload>/spans.csv. A time per call
of a function the workload never calls prints as n/a; BENCHMARK.json lists
its rate or share form instead, which reads 0 there. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from gate import Gate
from speed import SpeedMeter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

DEFAULT_SEED = 2013
SETUP_REPEATS = 5
THREADS_ENV = "PURSUITLAB_THREADS"

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import pursuitlab; print(time.perf_counter() - t)"
)

# A layer reproduces its ROADMAP baseline when within 25% of it.
BASELINE_TOLERANCE = 0.25


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def import_seconds() -> float:
    """Import time of pursuitlab in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=120,
    )
    return float(out.stdout.split()[-1])


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = "unknown"
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib_path in glob.glob(libs):
        try:
            threads = ctypes.CDLL(lib_path).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            continue
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        THREADS_ENV: os.environ.get(THREADS_ENV, "unset"),
    }


@dataclass
class Pass:
    raws: list
    raw_s: list[float]    # seconds per segment
    norm_s: list[float]   # normalised seconds per segment
    cpu_s: float


def typical_pass(passes: list[Pass], field: str) -> float:
    """Sum over segments of each segment's median across passes.

    A run of a long workload holds only three or four passes, and segments
    that ran at a bad moment spread over all of them; the segment-wise
    median discards each bad segment rather than whole passes.
    """
    return sum(statistics.median(column) for column in zip(*(getattr(p, field) for p in passes)))


def timed_pass(workload, state, index: int, meter: SpeedMeter, tracer=None) -> Pass:
    """Run every segment of pass ``index``, each timed alone by the speed meter."""
    out = Pass([], [], [], 0.0)
    for segment in workload.segments(state, index):
        if tracer is not None:
            tracer.install()
        try:
            timing = meter.time(segment)
        finally:
            if tracer is not None:
                tracer.uninstall()
        out.raws.append(timing.result)
        out.raw_s.append(timing.seconds)
        out.norm_s.append(timing.normalised_s)
        out.cpu_s += timing.cpu_s
    return out


def baselines(name: str, stats) -> list[str]:
    """Traced layer numbers next to the ROADMAP baselines of the same shape."""
    rows = []
    if name == "certify":
        layer = stats.metrics()
        if stats.calls["ric.exact_ric"]:
            rows.append(("exact_ric N=20 s=8, s per call", layer["ric.exact_ric.s_per_call"][0], 1.25, "s"))
            rows.append(("exact_ric N=20 s=8, us per support", layer["ric.exact_ric.us_per_support"][0], 9.9, "us"))
    if name == "cli-large":
        for fn, base in (("read_matrix", 2.53), ("write_matrix", 1.29)):
            calls = stats.calls[f"fileio.{fn}"]
            if calls:
                rows.append((f"{fn} 512x2048, s per call", stats.total_s[f"fileio.{fn}"] / calls, base, "s"))
    if name == "sweep-capped":
        failing = stats.run_groups.get(("SP", 12, True, False), [])
        if failing:
            # The ROADMAP figure is 4.2 s over 200 runs without ground truth;
            # sweep runs carry ground truth, so they keep full traces.
            rows.append(("failing SP m=12 noiseless, ms per run", 1e3 * statistics.fmean(failing), 21.0, "ms"))
    lines = []
    for label, value, base, unit in rows:
        verdict = "reproduces" if abs(value / base - 1.0) <= BASELINE_TOLERANCE else "does not reproduce"
        lines.append(f"baseline {label}: {value:.4g} {unit} vs ROADMAP {base:g} {unit} "
                     f"({value / base:.2f}x, {verdict})")
    return lines


def run_workload(args, spec: dict) -> int:
    from tracing import LayerStats, Tracer
    from workloads import WORKLOADS

    name = args.workload
    workload = WORKLOADS[name]
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)

    meter = SpeedMeter()
    setups, setups_norm, imports = [], [], []

    def set_up():
        imports.append(import_seconds())
        return workload.setup(args.seed, work)

    for _ in range(SETUP_REPEATS):
        timing = meter.time(set_up)
        state = timing.result
        setups.append(timing.seconds)
        setups_norm.append(timing.normalised_s)

    recorded = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    use_reference = args.seed == DEFAULT_SEED and not args.record_reference
    gate = Gate(recorded.get(name, {}) if use_reference else None)
    tracer = Tracer() if args.trace else None
    stats = LayerStats()
    plain: list[Pass] = []
    traced_passes: list[Pass] = []
    last = None
    first_digest = None

    t_start = time.perf_counter()
    for index in itertools.count():
        traced = tracer is not None and len(traced_passes) < len(plain)
        first_span = len(tracer.names) if traced else 0
        try:
            timing = timed_pass(workload, state, index, meter, tracer if traced else None)
            output = workload.check(state, index, timing.raws)
        except Exception:
            traceback.print_exc()
            gate.fail_all(workload.op_count(state))
            break
        gate.judge(output.ops)
        if first_digest is None:
            first_digest = (gate.digest(), len(gate.first))
        timing.raws = None  # keep the timings, not the outputs
        if traced:
            traced_passes.append(timing)
            stats.add_pass(tracer, first_span, sum(timing.raw_s))
        else:
            plain.append(timing)
            last = output
        measured = plain and (tracer is None or traced_passes)
        # Recording the reference covers every distinct pass input.
        covered = not args.record_reference or index + 1 >= workload.pass_sets
        if measured and covered and time.perf_counter() - t_start >= args.seconds:
            break
    try:
        gate.judge(workload.verify_once(state))
    except Exception:
        traceback.print_exc()
        gate.fail_all(1)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    lines = [f"workload {name} seed {args.seed}: {len(plain)} timed passes"
             + (f", {len(traced_passes)} traced" if tracer else "")]
    end_to_end: dict[str, float] = {}
    per_layer: dict[str, float] = {}
    if last is not None:
        wall = typical_pass(plain, "raw_s")
        wall_norm = typical_pass(plain, "norm_s")
        end_to_end = {
            "setup_s": statistics.median(setups_norm),
            "wall_norm_s": wall_norm,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        shown = {
            "setup_raw_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
        }
        if last.runs:
            shown["runs_per_s"] = (last.runs / wall, "1/s")
        if last.supports:
            shown["supports_per_s"] = (last.supports / wall, "1/s")
            shown["supports_per_norm_s"] = (last.supports / wall_norm, "1/s")
        for i, segment in enumerate(workload.segment_names):
            shown[f"{segment}_s"] = (statistics.median(p.raw_s[i] for p in plain), "s")
            shown[f"{segment}_norm_s"] = (statistics.median(p.norm_s[i] for p in plain), "s")
        lines += [f"{k} {v:.6g} {units[k]}" for k, v in end_to_end.items()]
        lines += [f"{k} {v:.6g} {unit}" for k, (v, unit) in shown.items()]
        lines.append("pass wall_s: " + ", ".join(f"{sum(p.raw_s):.4g}" for p in plain))
        lines.append("pass wall_norm_s: " + ", ".join(f"{sum(p.norm_s):.4g}" for p in plain))
        lines.append("set-up raw s: " + ", ".join(f"{s:.4g}" for s in setups)
                     + "; of which import in a fresh interpreter: "
                     + ", ".join(f"{s:.4g}" for s in imports))
    lines.append(f"failed_ratio {gate.failed / max(gate.attempted, 1):.6g} ratio "
                 f"({gate.failed} of {gate.attempted} operations)")
    if tracer is not None and traced_passes:
        layers = stats.metrics()
        layers["process.cpu_s"] = (statistics.median(p.cpu_s for p in plain), "s")
        layers["tracing.overhead_ratio"] = (
            typical_pass(traced_passes, "norm_s") / typical_pass(plain, "norm_s") - 1.0,
            "ratio",
        )
        per_layer = {k: v for k, (v, _) in layers.items() if v is not None}
        lines += [f"{k} {v:.6g} {unit}" if v is not None else f"{k} n/a (not called)"
                  for k, (v, unit) in layers.items()]
        lines += baselines(name, stats)
        tracer.write(work / "spans.csv")
    if first_digest is not None:
        lines.append(f"digest {first_digest[0]} over the {first_digest[1]} gated outputs "
                     "of the first pass")
    lines.append("environment " + json.dumps(environment(), sort_keys=True))

    if args.record_reference and gate.failed == 0:
        recorded[name] = dict(sorted(gate.first.items()))
        REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        lines.append(f"recorded the reference for {name}")

    print("\n".join(lines))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"no value for {', '.join(missing)}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Run every workload in its own process, one after another."""
    attempted = failed = 0
    for entry in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {entry['name']}: {entry['why']}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return fail(f"workload {entry['name']} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
    print(f"all workloads: failed {failed} of {attempted} operations")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the default seed's gated outputs in reference.json")
    args = parser.parse_args(argv)

    os.environ.pop(THREADS_ENV, None)  # measure the serial default
    if not SPEC.is_file():
        return fail(f"{SPEC} not found; run from a repository checkout")
    if not (SRC / "pursuitlab" / "__init__.py").is_file():
        return fail(f"no pursuitlab sources under {SRC}; run from a repository checkout")
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    if args.record_reference and args.seed != DEFAULT_SEED:
        return fail(f"the reference is recorded for the default seed {DEFAULT_SEED} only")

    sys.path.insert(0, str(SRC))
    import pursuitlab

    if Path(pursuitlab.__file__).resolve().parent != (SRC / "pursuitlab").resolve():
        return fail(f"imported pursuitlab from {pursuitlab.__file__}, not from {SRC}")
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
