"""File formats: delimited matrices/vectors and JSON result payloads.

Matrix files carry a ``# dense m N`` header line followed by m rows of N
comma-separated decimals; vector files carry ``# vector dim`` followed by
one value per line.  Headers are matched exactly and floats are written
with shortest round-trip precision, so fixtures are diffable and re-writing
a parsed file reproduces it byte for byte.  Blank lines in the body are
skipped, and error messages give physical line numbers (the header is
line 1).

The writers hand the whole array to ``floattext.write_floats``, which
computes the text of every value on numpy lanes, a chunk at a time, and
writes it to the file opened in binary mode, so lines end in ``\n`` on
every platform.  That text is byte for byte Python's ``repr`` (shortest
round-trip digits, nearest the value; positional for 1e-4 <= |v| < 1e16):
the tests check it against ``repr`` on random bit patterns and on every
power of two and of ten, and against golden ``gen`` files.

``read_matrix`` tries a fast path first: each row is counted (``n - 1``
commas), converted with ``float()`` per token into a preallocated array,
and the whole array is checked finite once.  If any of those checks fails,
the per-token loop re-scans the rows from the first one and raises the
first error in file order.  The fast path calls the same ``float()`` on
the same tokens, so it cannot change a value, and since it only hands over
to the per-token loop, which checks the same three conditions, it cannot
change a message either.  Vectors are short and always take the per-token
loop.

Result rows (the ``bounds`` command and every experiment file) go through
one CSV writer, ``write_rows``: floats in shortest round-trip form,
booleans as ``true``/``false`` and a missing value as an empty field.
``bound_row`` is the one row of a formula family at one delta that both
``bounds`` and the ``bounds-table`` experiment print.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import TextIO

import numpy as np

from .bounds import BoundReport
from .floattext import write_floats
from .linalg import as_matrix, as_vector
from .recovery import RecoveryResult
from .ric import RicEstimate

SCHEMA_VERSION = 1

BOUND_FIELDS = ("family", "delta", "rho", "tau", "valid", "threshold_rho1", "threshold_rho_half")


class FileFormatError(ValueError):
    """Malformed input file; the message names the offending line/field."""


def _parse_value(token: str, path: str, line_no: int, field_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FileFormatError(
            f"{path}: line {line_no}, field {field_no}: {token.strip()!r} is not a number"
        ) from None
    if not np.isfinite(value):
        raise FileFormatError(
            f"{path}: line {line_no}, field {field_no}: value must be finite"
        )
    return value


def _data_lines(lines: list[str]) -> list[tuple[int, str]]:
    """``(physical line number, text)`` for each non-blank line after the header."""
    return [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip()]


def _fill_rows(body: list[tuple[int, str]], out: np.ndarray) -> bool:
    """Fast path: parse ``body`` into ``out``; False if a row needs the per-token scan."""
    n = out.shape[1]
    try:
        for i, (_, ln) in enumerate(body):
            if ln.count(",") != n - 1:
                return False
            out[i] = np.fromiter(map(float, ln.split(",")), float, count=n)
    except ValueError:
        return False
    return bool(np.isfinite(out).all())


def write_matrix(path: str | Path, phi: np.ndarray) -> None:
    phi = as_matrix(phi)
    m, n = phi.shape
    with Path(path).open("wb") as f:
        f.write(f"# dense {m} {n}\n".encode())
        write_floats(f, phi, n)


def read_matrix(path: str | Path) -> np.ndarray:
    path = str(path)
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise FileFormatError(f"{path}: line 1: empty file, expected '# dense m N' header")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "#" or head[1] != "dense":
        raise FileFormatError(f"{path}: line 1: expected '# dense m N' header, got {lines[0]!r}")
    try:
        m, n = int(head[2]), int(head[3])
    except ValueError:
        raise FileFormatError(f"{path}: line 1: non-integer dimensions in {lines[0]!r}") from None
    if m < 1 or n < 1:
        raise FileFormatError(f"{path}: line 1: dimensions must be positive, got {m} x {n}")
    if lines[0] != f"# dense {m} {n}":
        raise FileFormatError(f"{path}: line 1: header must be exactly '# dense {m} {n}'")
    body = _data_lines(lines)
    if len(body) != m:
        raise FileFormatError(f"{path}: expected {m} data rows, got {len(body)}")
    out = np.empty((m, n))
    if _fill_rows(body, out):
        return out
    # Slow path: raises the first error in file order.
    for line_no, ln in body:
        tokens = ln.split(",")
        if len(tokens) != n:
            raise FileFormatError(f"{path}: line {line_no}: expected {n} values, got {len(tokens)}")
        for j, tok in enumerate(tokens):
            _parse_value(tok, path, line_no, j + 1)
    raise AssertionError("unreachable")


def write_vector(path: str | Path, v: np.ndarray) -> None:
    v = as_vector(v)
    with Path(path).open("wb") as f:
        f.write(f"# vector {v.shape[0]}\n".encode())
        write_floats(f, v, 1)


def read_vector(path: str | Path) -> np.ndarray:
    path = str(path)
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise FileFormatError(f"{path}: line 1: empty file, expected '# vector dim' header")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "#" or head[1] != "vector":
        raise FileFormatError(f"{path}: line 1: expected '# vector dim' header, got {lines[0]!r}")
    try:
        dim = int(head[2])
    except ValueError:
        raise FileFormatError(f"{path}: line 1: non-integer dimension in {lines[0]!r}") from None
    if dim < 1:
        raise FileFormatError(f"{path}: line 1: dimension must be positive, got {dim}")
    if lines[0] != f"# vector {dim}":
        raise FileFormatError(f"{path}: line 1: header must be exactly '# vector {dim}'")
    body = _data_lines(lines)
    if len(body) != dim:
        raise FileFormatError(f"{path}: expected {dim} values, got {len(body)}")
    return np.asarray([_parse_value(ln, path, i, 1) for i, ln in body])


def dump_json(payload: dict) -> str:
    """Canonical JSON text: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def recovery_payload(result: RecoveryResult, trace: str = "norms") -> dict:
    """JSON-ready dict for a recovery run at the requested trace level."""
    iterations = []
    if trace != "none":
        for rec in result.iterations:
            row: dict = {
                "n": rec.n,
                "delta_support": list(rec.delta_support.indices),
                "merged_support": list(rec.merged_support.indices),
                "pruned_support": list(rec.pruned_support.indices),
                "residual_norm": rec.residual_norm,
            }
            if rec.signal_error is not None:
                row["signal_error"] = rec.signal_error
                row["tail_energy"] = rec.tail_energy
            if trace == "full" and rec.estimate is not None:
                row["intermediate"] = rec.intermediate.tolist()
                row["estimate"] = rec.estimate.tolist()
            iterations.append(row)
    return {
        "schema_version": SCHEMA_VERSION,
        "algorithm": result.algorithm,
        "converged": result.converged,
        "estimate": result.estimate.tolist(),
        "support": list(result.support.indices),
        "iterations": iterations,
        "residual_history": result.residual_history,
    }


def ric_payload(estimate: RicEstimate) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "s": estimate.s,
        "value": estimate.value,
        "mode": estimate.mode,
        "witness": list(estimate.witness.indices),
        "supports_examined": estimate.supports_examined,
        "rip_holds": estimate.rip_holds,
    }


def bound_row(report: BoundReport) -> dict:
    """The ``BOUND_FIELDS`` of one formula family at one delta."""
    return {
        "family": report.algorithm,
        "delta": report.delta,
        "rho": report.rho,
        "tau": report.tau,
        "valid": report.valid,
        "threshold_rho1": report.threshold_rho1,
        "threshold_rho_half": report.threshold_rho_half,
    }


def _csv_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows(stream: TextIO, rows: Iterable[dict], columns: Sequence[str]) -> None:
    """Write a header and one CSV line per row, in ``columns`` order, as rows arrive."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_field(row.get(col)) for col in columns])
