"""Command-line front end.

Subcommands:

* ``recover``    - run SP or CoSaMP on a matrix/measurement file pair,
                   emitting a JSON result (exit 0 converged, 2 not).
* ``ric``        - certify or sample the isometry constant of a matrix file.
* ``bounds``     - evaluate rate/coefficient formulas, compare families, or
                   solve rho(delta) = r.
* ``experiment`` - run a seeded batch experiment from a JSON config.
* ``gen``        - generate a reproducible instance as fixture files.

Exit codes: 0 success, 1 input/usage error, 2 recovery hit the iteration
cap without meeting the residual criterion.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import math
import sys
from pathlib import Path

import numpy as np

from .bounds import SP, bounds_for, canonical_family, delta_for_rho
from .experiments import ExperimentConfig, run_experiment, write_results
from .fileio import (
    BOUND_FIELDS,
    TRACE_LEVELS,
    bound_row,
    dump_json,
    read_matrix,
    read_vector,
    recovery_payload,
    ric_payload,
    write_matrix,
    write_rows,
    write_vector,
)
from .recovery import StoppingRule, cosamp, subspace_pursuit
from .ric import DEFAULT_ENUMERATION_BUDGET, exact_ric, sampled_ric_lower_bound
from .signals import KINDS, make_instance


def _emit(text: str, output: str | Path | None) -> None:
    if output:
        Path(output).write_text(text, newline="")
    else:
        sys.stdout.write(text)


def _cmd_recover(args: argparse.Namespace) -> int:
    phi = read_matrix(args.matrix)
    y = read_vector(args.measurements)
    truth = read_vector(args.truth) if args.truth else None
    stop = StoppingRule(**{f.name: getattr(args, f.name) for f in dataclasses.fields(StoppingRule)})
    run = subspace_pursuit if canonical_family(args.algorithm) == SP else cosamp
    result = run(phi, y, args.sparsity, stop=stop, truth=truth)
    _emit(dump_json(recovery_payload(result, trace=args.trace)), args.output)
    return 0 if result.converged else 2


def _cmd_ric(args: argparse.Namespace) -> int:
    for flag in ("trials", "seed") if args.mode == "exact" else ("budget",):
        if getattr(args, flag) is not None:
            raise ValueError(f"--mode {args.mode} takes no --{flag}")
    phi = read_matrix(args.matrix)
    if args.mode == "exact":
        budget = DEFAULT_ENUMERATION_BUDGET if args.budget is None else args.budget
        estimate = exact_ric(phi, args.sparsity, budget=budget)
    else:
        trials = 100 if args.trials is None else args.trials
        estimate = sampled_ric_lower_bound(phi, args.sparsity, trials, args.seed or 0)
    _emit(dump_json(ric_payload(estimate)), args.output)
    return 0


def _bounds_text(rows: list[dict]) -> str:
    header = f"{'family':<16} {'delta':>10} {'rho':>12} {'tau':>12} {'valid':>6} {'rho=1 at':>10} {'rho=1/2 at':>11}"
    lines = [header, "-" * len(header)]
    for r in rows:
        tau = f"{r['tau']:.6f}" if r["tau"] is not None else "n/a"
        lines.append(
            f"{r['family']:<16} {r['delta']:>10.6f} {r['rho']:>12.6f} {tau:>12} "
            f"{str(r['valid']).lower():>6} {r['threshold_rho1']:>10.6f} {r['threshold_rho_half']:>11.6f}"
        )
    return "\n".join(lines) + "\n"


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.solve:
        key, _, value = args.solve.partition("=")
        try:
            rho = float(value)
        except ValueError:
            rho = None
        if key.strip() != "rho" or rho is None:
            raise ValueError(f"--solve expects rho=<r>, got {args.solve!r}")
        if len(args.family) != 1:
            raise ValueError("--solve takes one --family")
        for flag in ("delta", "format"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--solve takes no --{flag}")
        family = canonical_family(args.family[0])
        delta = delta_for_rho(family, rho)
        _emit(dump_json({"family": family, "target_rho": rho, "delta": delta}), args.output)
        return 0
    if args.delta is None:
        raise ValueError("bounds needs --delta (or --solve rho=<r>)")
    rows = [bound_row(bounds_for(f, d)) for f in args.family for d in args.delta]
    if args.format == "csv":
        text = io.StringIO()
        write_rows(text, rows, BOUND_FIELDS)
        _emit(text.getvalue(), args.output)
    elif args.format == "json":
        _emit(dump_json({"reports": rows}), args.output)
    else:
        _emit(_bounds_text(rows), args.output)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    cell_rows, detail_rows = run_experiment(config)
    written = write_results(config, cell_rows, detail_rows)
    # A cell is skipped for one algorithm or for all; count each cell once.
    skipped = len({r["cell_index"] for r in cell_rows if r.get("skipped")})
    for path in written:
        print(f"wrote {path}")
    if skipped:
        print(f"skipped {skipped} cell(s) (see skip_reason column)")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    # An overflow is an error before any file is written, not a numpy warning.
    with np.errstate(over="ignore"):
        instance = make_instance(args.kind, args.m, args.n, args.sparsity, args.sigma, args.seed)
    if not math.isfinite(instance.e_prime_norm):
        raise ValueError(f"perturbation norm overflows at --sigma {args.sigma!r}")
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    paths = phi_path, y_path, x_path, meta_path = [
        prefix.with_name(prefix.name + suffix) for suffix in ("_phi.csv", "_y.csv", "_x.csv", "_meta.json")
    ]
    write_matrix(phi_path, instance.phi)
    write_vector(y_path, instance.y)
    write_vector(x_path, instance.x)
    _emit(
        dump_json(
            {
                "kind": args.kind,
                "m": args.m,
                "N": args.n,
                "s": args.sparsity,
                "noise_sigma": args.sigma,
                "seed": args.seed,
                "s_support": list(instance.s_support.indices),
                "e_prime_norm": instance.e_prime_norm,
            }
        ),
        meta_path,
    )
    for p in paths:
        print(f"wrote {p}")
    return 0


# Built once per process: parse_args leaves the parser as it was, and one
# parser per call left its reference cycles for the garbage collector.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pursuitlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recover", help="run SP or CoSaMP on matrix/measurement files")
    p.add_argument("--matrix", required=True)
    p.add_argument("--measurements", required=True)
    p.add_argument("--sparsity", "-s", type=int, required=True)
    p.add_argument("--algorithm", choices=("cosamp", "sp"), default="sp")
    p.add_argument("--truth", help="optional signal file enabling error traces")
    p.add_argument("--trace", choices=TRACE_LEVELS, default="norms")
    p.add_argument("--epsilon", type=float, default=StoppingRule.epsilon)
    p.add_argument("--e-prime-norm", type=float, default=StoppingRule.e_prime_norm_hint,
                   dest="e_prime_norm_hint", metavar="E_PRIME_NORM")
    p.add_argument("--epsilon-abs", type=float, default=StoppingRule.epsilon_abs)
    p.add_argument("--n-max", type=int, default=StoppingRule.n_max)
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser("ric", help="certify or sample a restricted isometry constant")
    p.add_argument("--matrix", required=True)
    p.add_argument("--sparsity", "-s", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    # None marks a flag not given: each applies to one mode only.
    p.add_argument("--trials", type=int, help="sampled mode (default 100)")
    p.add_argument("--seed", type=int, help="sampled mode (default 0)")
    p.add_argument("--budget", type=int, help=f"exact mode (default {DEFAULT_ENUMERATION_BUDGET})")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_ric)

    p = sub.add_parser("bounds", help="rate/error-coefficient formulas and thresholds")
    p.add_argument("--family", nargs="+", default=["sp"])
    p.add_argument("--delta", nargs="+", type=float)
    p.add_argument("--solve", metavar="rho=<r>", help="invert the rate formula")
    p.add_argument("--format", choices=("text", "csv", "json"))  # None prints text
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("experiment", help="run a seeded batch experiment from JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("gen", help="generate a seeded instance as fixture files")
    p.add_argument("--kind", choices=KINDS, default="exact-sparse")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True, dest="n")
    p.add_argument("--sparsity", "-s", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="path prefix for the fixture files")
    p.set_defaults(fn=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit:
        # A usage error returns 1: argparse's 2 is a capped recover run's code.
        return 1 if exit.code == 2 else exit.code
    try:
        return args.fn(args)
    except (ValueError, OSError) as err:
        # Covers malformed files (FileFormatError; bad JSON and text that is
        # not UTF-8 are ValueErrors too), budget and singularity errors, bad
        # config values, and I/O failures. Anything else is a bug, and its
        # traceback is shown.
        print(f"error: {err}", file=sys.stderr)
        return 1
