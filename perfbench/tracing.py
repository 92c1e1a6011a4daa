"""Span tracing of pursuitlab from outside the package.

The tracer replaces public functions at their import sites (the module
attribute a caller looks up, such as ``pursuitlab.recovery.least_squares_on_support``)
with wrappers that record one span per call: name, start, end and parent.
Spans stay in memory and are written out when the benchmark ends.  A layer's
self time is the duration of its spans minus the time their child spans
cover; calls are serial, so children never overlap.

The wrappers are installed for a traced pass only and removed after it, so
timed passes run the unmodified functions.
"""

from __future__ import annotations

import csv
import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from pursuitlab.supports import SupportSet

# (module, attribute, span name, keep the call's arguments and result).
# The span name is the layer that owns the function, then the function.
SITES = [
    # entry points the benchmark itself calls
    ("pursuitlab", "run_experiment", "experiments.run_experiment", False),
    ("pursuitlab", "write_results", "experiments.write_results", False),
    ("pursuitlab", "make_instance", "signals.make_instance", False),
    ("pursuitlab", "subspace_pursuit", "recovery.subspace_pursuit", True),
    ("pursuitlab", "cosamp", "recovery.cosamp", True),
    ("pursuitlab", "audit_run", "recovery.audit_run", True),
    ("pursuitlab", "exact_ric", "ric.exact_ric", True),
    ("pursuitlab", "sampled_ric_lower_bound", "ric.sampled_ric_lower_bound", True),
    ("pursuitlab.cli", "main", None, False),  # named cli.<command>
    # experiments -> lower layers
    ("pursuitlab.experiments", "make_instance", "signals.make_instance", False),
    ("pursuitlab.experiments", "subspace_pursuit", "recovery.subspace_pursuit", True),
    ("pursuitlab.experiments", "cosamp", "recovery.cosamp", True),
    ("pursuitlab.experiments", "exact_ric", "ric.exact_ric", True),
    ("pursuitlab.experiments", "audit_run", "recovery.audit_run", True),
    ("pursuitlab.experiments", "bounds_for", "bounds.bounds_for", False),
    # cli -> lower layers
    ("pursuitlab.cli", "read_matrix", "fileio.read_matrix", True),
    ("pursuitlab.cli", "read_vector", "fileio.read_vector", True),
    ("pursuitlab.cli", "write_matrix", "fileio.write_matrix", True),
    ("pursuitlab.cli", "write_vector", "fileio.write_vector", True),
    ("pursuitlab.cli", "dump_json", "fileio.dump_json", False),
    ("pursuitlab.cli", "make_instance", "signals.make_instance", False),
    ("pursuitlab.cli", "subspace_pursuit", "recovery.subspace_pursuit", True),
    ("pursuitlab.cli", "cosamp", "recovery.cosamp", True),
    ("pursuitlab.cli", "exact_ric", "ric.exact_ric", True),
    ("pursuitlab.cli", "sampled_ric_lower_bound", "ric.sampled_ric_lower_bound", True),
    # recovery -> kernels
    ("pursuitlab.recovery", "least_squares_on_support", "linalg.least_squares_on_support", False),
    ("pursuitlab.recovery", "top_k_magnitude", "signals.top_k_magnitude", False),
    ("pursuitlab.recovery", "restrict", "signals.restrict", False),
    ("pursuitlab.recovery", "best_s_term", "signals.best_s_term", False),
    ("pursuitlab.recovery", "bounds_for", "bounds.bounds_for", False),
    # kernels called inside signals and ric
    ("pursuitlab.signals", "best_s_term", "signals.best_s_term", False),
    ("pursuitlab.signals", "top_k_magnitude", "signals.top_k_magnitude", False),
    ("pursuitlab.signals", "restrict", "signals.restrict", False),
    ("pursuitlab.ric", "spectral_norm_symmetric", "linalg.spectral_norm_symmetric", False),
]

RUN_SPANS = ("recovery.subspace_pursuit", "recovery.cosamp")


class Tracer:
    """Records spans of wrapped calls; ``install``/``uninstall`` bracket a pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kept: list[tuple[int, tuple, dict, object]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span, keep in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, keep))
        # SupportSet is built everywhere; count constructions without spans.
        post_init = SupportSet.__post_init__
        counts = self.counts

        def counted(obj):
            counts["supports.SupportSet.constructed"] += 1
            post_init(obj)

        self._undo.append((SupportSet, "__post_init__", post_init))
        SupportSet.__post_init__ = counted

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def _wrap(self, fn, span: str | None, keep: bool):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, kept = self._stack, self.kept
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(span or "cli." + args[0][0])
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if keep:
                kept.append((sid, args, kwargs, result))
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Write every span as CSV: id, parent, name, start_s, end_s."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["id", "parent", "name", "start_s", "end_s"])
            for sid, row in enumerate(zip(self.parents, self.names, self.starts, self.ends)):
                out.writerow([sid, *row])


def after_repeat(result) -> int:
    """Iterations that ran after the run's state first repeated bitwise.

    The state is the pruned support for SP, and the support plus the
    estimate bytes for CoSaMP (the estimate is on the records whenever the
    run was traced with ground truth, as every benchmark CoSaMP run is).
    """
    seen = set()
    total = len(result.iterations)
    for k, rec in enumerate(result.iterations, start=1):
        state = rec.pruned_support.indices
        if result.algorithm != "SP" and rec.estimate is not None:
            state = (state, rec.estimate.tobytes())
        if state in seen:
            return total - k
        seen.add(state)
    return 0


class LayerStats:
    """Per-layer totals accumulated over traced passes."""

    def __init__(self) -> None:
        self.passes = 0
        self.wall_s = 0.0
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.run_ms: list[float] = []
        # (algorithm, m, noiseless, converged) -> run durations, for the baselines
        self.run_groups: defaultdict = defaultdict(list)

    def add_pass(self, tracer: Tracer, first_span: int, wall_s: float) -> None:
        """Fold in the spans a traced pass of ``wall_s`` seconds added from
        ``first_span`` on."""
        self.passes += 1
        self.wall_s += wall_s
        names = tracer.names
        dur = [e - s for s, e in zip(tracer.starts[first_span:], tracer.ends[first_span:])]
        child = [0.0] * len(dur)
        for i, parent in enumerate(tracer.parents[first_span:]):
            if parent >= first_span:
                child[parent - first_span] += dur[i]
        for i, d in enumerate(dur):
            name = names[first_span + i]
            self.calls[name] += 1
            self.total_s[name] += d
            self.self_s[name] += d - child[i]
        for sid, args, kwargs, result in tracer.kept:
            self._add_result(names[sid], dur[sid - first_span], args, kwargs, result)
        tracer.kept.clear()
        self.counts.update(tracer.counts)
        tracer.counts.clear()

    def _add_result(self, name, seconds, args, kwargs, result) -> None:
        c = self.counts
        if name in RUN_SPANS:
            c["recovery.runs"] += 1
            c["recovery.iterations"] += len(result.iterations)
            c["recovery.iterations.after_repeat"] += after_repeat(result)
            c["recovery.cap_hits"] += 0 if result.converged else 1
            self.run_ms.append(1e3 * seconds)
            stop = kwargs.get("stop") or (args[3] if len(args) > 3 else None)
            noiseless = stop is None or stop.e_prime_norm_hint == 0.0
            key = (result.algorithm, np.shape(args[0])[0], noiseless, result.converged)
            self.run_groups[key].append(seconds)
        elif name == "recovery.audit_run":
            c["recovery.audit.violations"] += sum(1 for _, chk in result if not chk.holds)
        elif name == "ric.exact_ric":
            c["ric.exact_ric.supports_examined"] += result.supports_examined
        elif name == "ric.sampled_ric_lower_bound":
            c["ric.sampled_ric_lower_bound.trials"] += result.supports_examined
        elif name.startswith("fileio.read"):
            c["fileio.bytes_read"] += os.path.getsize(args[0])
            c[name + ".bytes"] += os.path.getsize(args[0])
        elif name.startswith("fileio.write"):
            c["fileio.bytes_written"] += os.path.getsize(args[0])
            c[name + ".bytes"] += os.path.getsize(args[0])

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def metrics(self) -> dict[str, tuple[float | None, str]]:
        """Per-pass value and unit of every per-layer metric.

        A time per call or per item is None when the workload never calls
        the function.  Functions only some workloads call are also given as
        a rate or as a share of the traced pass time, which read 0 when the
        function is idle; BENCHMARK.json lists those forms, so that no
        metric there is a time that reads 0 on every run of a workload.
        """
        p = max(self.passes, 1)
        c = self.counts
        wall = self.wall_s or 1.0

        def per(name: str, scale: float, items: float | None = None) -> float | None:
            items = self.calls[name] if items is None else items
            return scale * self.total_s[name] / items if items else None

        def rate(name: str, items: float) -> float:
            t = self.total_s[name]
            return items / t if t else 0.0

        iterations = c["recovery.iterations"]
        after = c["recovery.iterations.after_repeat"]
        run_s = sum(self.total_s[n] for n in RUN_SPANS)
        runs = sorted(self.run_ms)
        supports = c["ric.exact_ric.supports_examined"]
        trials = c["ric.sampled_ric_lower_bound.trials"]
        return {
            "recovery.iterations": (iterations / p, "count"),
            "recovery.iterations.after_repeat": (after / p, "count"),
            "recovery.iterations.useful_ratio": (1.0 - after / iterations if iterations else 0.0, "ratio"),
            "recovery.cap_hits": (c["recovery.cap_hits"] / p, "count"),
            "recovery.us_per_iteration": (1e6 * run_s / iterations if iterations else None, "us"),
            "recovery.self_s": (self.layer_self_s("recovery") / p, "s"),
            "recovery.run.ms_p50": (float(np.percentile(runs, 50)) if runs else None, "ms"),
            "recovery.run.ms_p90": (float(np.percentile(runs, 90)) if runs else None, "ms"),
            "linalg.least_squares_on_support.calls": (self.calls["linalg.least_squares_on_support"] / p, "count"),
            "linalg.least_squares_on_support.us_per_call": (per("linalg.least_squares_on_support", 1e6), "us"),
            "signals.top_k_magnitude.calls": (self.calls["signals.top_k_magnitude"] / p, "count"),
            "signals.top_k_magnitude.us_per_call": (per("signals.top_k_magnitude", 1e6), "us"),
            "supports.SupportSet.constructed": (c["supports.SupportSet.constructed"] / p, "count"),
            "signals.make_instance.us_per_call": (per("signals.make_instance", 1e6), "us"),
            "signals.make_instance.calls_per_s": (
                rate("signals.make_instance", self.calls["signals.make_instance"]), "1/s"),
            "experiments.self_s": (self.layer_self_s("experiments") / p, "s"),
            "experiments.self_share": (self.layer_self_s("experiments") / wall, "ratio"),
            "experiments.write_results.s": (self.total_s["experiments.write_results"] / p, "s"),
            "experiments.write_results.share": (self.total_s["experiments.write_results"] / wall, "ratio"),
            "ric.exact_ric.calls": (self.calls["ric.exact_ric"] / p, "count"),
            "ric.exact_ric.s_per_call": (per("ric.exact_ric", 1.0), "s"),
            "ric.exact_ric.us_per_support": (per("ric.exact_ric", 1e6, supports), "us"),
            "ric.exact_ric.supports_per_s": (rate("ric.exact_ric", supports), "1/s"),
            "ric.exact_ric.supports_examined": (supports / p, "count"),
            "ric.sampled_ric_lower_bound.us_per_trial": (per("ric.sampled_ric_lower_bound", 1e6, trials), "us"),
            "ric.sampled_ric_lower_bound.trials_per_s": (rate("ric.sampled_ric_lower_bound", trials), "1/s"),
            "recovery.audit_run.ms_per_call": (per("recovery.audit_run", 1e3), "ms"),
            "recovery.audit_run.calls_per_s": (
                rate("recovery.audit_run", self.calls["recovery.audit_run"]), "1/s"),
            "recovery.audit.violations": (c["recovery.audit.violations"] / p, "count"),
            "bounds.bounds_for.calls": (self.calls["bounds.bounds_for"] / p, "count"),
            "fileio.write_matrix.mb_per_s": (
                rate("fileio.write_matrix", c["fileio.write_matrix.bytes"] / 1e6), "MB/s"),
            "fileio.read_matrix.mb_per_s": (
                rate("fileio.read_matrix", c["fileio.read_matrix.bytes"] / 1e6), "MB/s"),
            "fileio.bytes_written": (c["fileio.bytes_written"] / p, "bytes"),
            "fileio.bytes_read": (c["fileio.bytes_read"] / p, "bytes"),
            "fileio.dump_json.s": (self.total_s["fileio.dump_json"] / p, "s"),
            "fileio.dump_json.share": (self.total_s["fileio.dump_json"] / wall, "ratio"),
            **{
                f"cli.{cmd}.{form}": value
                for cmd in ("gen", "recover", "ric")
                for form, value in (
                    ("self_s", (self.self_s[f"cli.{cmd}"] / p, "s")),
                    ("self_share", (self.self_s[f"cli.{cmd}"] / wall, "ratio")),
                )
            },
        }
