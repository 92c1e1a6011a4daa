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
import io
import math
import sys
from pathlib import Path

import numpy as np

from .bounds import COSAMP, SP, SP_DM, SP_LBJ, SP_TAIL, bounds_for, canonical_family, delta_for_rho
from .experiments import ExperimentConfig, run_experiment, write_results
from .fileio import (
    BOUND_FIELDS,
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

_ALGORITHMS = {"sp": SP, "cosamp": COSAMP}

_COMPARE_FAMILIES = (SP, SP_TAIL, SP_LBJ, SP_DM)


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_recover(args: argparse.Namespace) -> int:
    phi = read_matrix(args.matrix)
    y = read_vector(args.measurements)
    truth = read_vector(args.truth) if args.truth else None
    stop = StoppingRule(
        epsilon=args.epsilon,
        n_max=args.n_max,
        e_prime_norm_hint=args.e_prime_norm,
        epsilon_abs=args.epsilon_abs,
    )
    run = subspace_pursuit if _ALGORITHMS[args.algorithm] == SP else cosamp
    result = run(phi, y, args.sparsity, stop=stop, truth=truth, trace=args.trace)
    _emit(dump_json(recovery_payload(result, trace=args.trace)), args.output)
    return 0 if result.converged else 2


def _cmd_ric(args: argparse.Namespace) -> int:
    phi = read_matrix(args.matrix)
    if args.mode == "exact":
        estimate = exact_ric(phi, args.sparsity, budget=args.budget)
    else:
        estimate = sampled_ric_lower_bound(phi, args.sparsity, args.trials, args.seed)
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
        if key.strip() != "rho" or not value:
            raise ValueError(f"--solve expects rho=<r>, got {args.solve!r}")
        family = canonical_family(args.family)
        delta = delta_for_rho(family, float(value))
        _emit(dump_json({"family": family, "target_rho": float(value), "delta": delta}), args.output)
        return 0
    if args.delta is None:
        raise ValueError("bounds needs --delta (or --solve rho=<r>)")
    families = _COMPARE_FAMILIES if args.compare else (canonical_family(args.family),)
    rows = [bound_row(bounds_for(f, args.delta)) for f in families]
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
    if args.per_trial:
        config = dataclasses.replace(config, per_trial=True)
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
    phi_path = prefix.with_name(prefix.name + "_phi.csv")
    y_path = prefix.with_name(prefix.name + "_y.csv")
    x_path = prefix.with_name(prefix.name + "_x.csv")
    meta_path = prefix.with_name(prefix.name + "_meta.json")
    write_matrix(phi_path, instance.phi)
    write_vector(y_path, instance.y)
    write_vector(x_path, instance.x)
    meta_path.write_text(
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
        )
    )
    for p in (phi_path, y_path, x_path, meta_path):
        print(f"wrote {p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pursuitlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recover", help="run SP or CoSaMP on matrix/measurement files")
    p.add_argument("--matrix", required=True)
    p.add_argument("--measurements", required=True)
    p.add_argument("--sparsity", "-s", type=int, required=True)
    p.add_argument("--algorithm", choices=sorted(_ALGORITHMS), default="sp")
    p.add_argument("--truth", help="optional signal file enabling error traces")
    p.add_argument("--trace", choices=("none", "norms", "full"), default="norms")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--e-prime-norm", type=float, default=0.0)
    p.add_argument("--epsilon-abs", type=float, default=1e-10)
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser("ric", help="certify or sample a restricted isometry constant")
    p.add_argument("--matrix", required=True)
    p.add_argument("--sparsity", "-s", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET)
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_ric)

    p = sub.add_parser("bounds", help="rate/error-coefficient formulas and thresholds")
    p.add_argument("--family", default="sp")
    p.add_argument("--delta", type=float)
    p.add_argument("--compare", action="store_true", help="all SP-style families side by side")
    p.add_argument("--solve", metavar="rho=<r>", help="invert the rate formula")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("experiment", help="run a seeded batch experiment from JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--per-trial", action="store_true", help="also write per-trial rows")
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
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as err:
        # Covers malformed files (FileFormatError), budget and singularity
        # errors, bad config values, and I/O failures.
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
