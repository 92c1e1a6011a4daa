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

``read_matrix`` and ``read_vector`` read the first line, and when it is
exactly the header hand the rest of the file to
``floattext.read_floats``.  That reads it through one reused window of 2
MB, widened to 25 bytes a value when one row of the writers' form
(values of at most 24 bytes and a separator each) may need more.  It
parses the window's whole rows on numpy lanes, bit for bit as
``float()``, into the result, and moves the partial last row to the
window's front.  So reading holds the result, the window and under 3 MB
of scratch, whatever the file's size.  A window that is not in the form
the writers produce (rows of comma-separated tokens in the lane grammar,
each ending in a newline), a row count other than the header's, or bytes
after the last newline send the file to the per-token reader, the only
one that holds the whole file: it decodes UTF-8, splits lines as
``str.splitlines`` does and calls ``float()`` on each token, and is the
only source of error messages.  Text the lanes take has no byte that
``splitlines`` or ``float()`` treats specially, so both readers give it
the same values.

Result rows (the ``bounds`` command and every experiment file) go through
one CSV writer, ``write_rows``: floats in shortest round-trip form,
booleans as ``true``/``false`` and a missing value as an empty field.
``bound_row`` is the row ``bounds`` prints for one formula family at one delta.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import TextIO

import numpy as np

from .bounds import BoundReport
from .floattext import read_floats, write_floats
from .linalg import as_matrix, as_vector
from .recovery import RecoveryResult
from .ric import RicEstimate

SCHEMA_VERSION = 1

# What a ``recover`` payload lists per iteration: nothing, the supports and
# norms, or those and the two vectors.
TRACE_LEVELS = ("none", "norms", "full")

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
    if not math.isfinite(value):
        raise FileFormatError(
            f"{path}: line {line_no}, field {field_no}: value must be finite"
        )
    return value


# Per header kind: the header's form, the noun for its dimensions and the
# noun for the lines of the body.
_FORMS = {"dense": ("# dense m N", "dimensions", "data rows"), "vector": ("# vector dim", "dimension", "values")}


def _header(line: str, kind: str, path: str) -> tuple[int, ...]:
    """The dimensions in header ``line``, which must be exactly canonical."""
    form, noun, _ = _FORMS[kind]
    head = line.split()
    if len(head) != len(form.split()) or head[:2] != ["#", kind]:
        raise FileFormatError(f"{path}: line 1: expected '{form}' header, got {line!r}")
    try:
        dims = tuple(int(h) for h in head[2:])
    except ValueError:
        raise FileFormatError(f"{path}: line 1: non-integer {noun} in {line!r}") from None
    if min(dims) < 1:
        raise FileFormatError(f"{path}: line 1: {noun} must be positive, got {' x '.join(map(str, dims))}")
    canonical = " ".join(["#", kind, *map(str, dims)])
    if line != canonical:
        raise FileFormatError(f"{path}: line 1: header must be exactly '{canonical}'")
    return dims


def _read_text(path: str, text: bytes, kind: str) -> np.ndarray:
    """The per-token reader: any text ``float()`` takes, blank lines skipped,
    and the first error in file order."""
    try:
        lines = str(text, "utf-8").splitlines()
    except UnicodeDecodeError as err:
        line_no = 1 + text.count(b"\n", 0, err.start)
        raise FileFormatError(f"{path}: line {line_no}: not UTF-8 text") from None
    form, _, body_noun = _FORMS[kind]
    if not lines:
        raise FileFormatError(f"{path}: line 1: empty file, expected '{form}' header")
    dims = _header(lines[0], kind, path)
    body = [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != dims[0]:
        raise FileFormatError(f"{path}: expected {dims[0]} {body_noun}, got {len(body)}")
    dense, values = kind == "dense", []
    for line_no, ln in body:
        tokens = ln.split(",") if dense else [ln]
        if dense and len(tokens) != dims[1]:
            raise FileFormatError(f"{path}: line {line_no}: expected {dims[1]} values, got {len(tokens)}")
        values += [_parse_value(tok, path, line_no, j) for j, tok in enumerate(tokens, start=1)]
    return np.array(values, dtype=np.float64).reshape(dims)


def _read(path: str | Path, kind: str) -> np.ndarray:
    path = str(path)
    with open(path, "rb") as f:
        # A canonical header with dimensions below 10**19 is shorter than 64 bytes.
        head = f.readline(64)
        try:
            dims = _header(head[:-1].decode("latin-1"), kind, path) if head.endswith(b"\n") else None
        except FileFormatError:
            dims = None
        values = read_floats(f, dims[0], dims[1] if kind == "dense" else 1) if dims else None
        if values is not None:
            return values.reshape(dims)
        f.seek(0)
        return _read_text(path, f.read(), kind)


def write_matrix(path: str | Path, phi: np.ndarray) -> None:
    phi = as_matrix(phi)
    m, n = phi.shape
    with Path(path).open("wb") as f:
        f.write(f"# dense {m} {n}\n".encode())
        write_floats(f, phi, n)


def read_matrix(path: str | Path) -> np.ndarray:
    return _read(path, "dense")


def write_vector(path: str | Path, v: np.ndarray) -> None:
    v = as_vector(v)
    with Path(path).open("wb") as f:
        f.write(f"# vector {v.shape[0]}\n".encode())
        write_floats(f, v, 1)


def read_vector(path: str | Path) -> np.ndarray:
    return _read(path, "vector")


def dump_json(payload: dict) -> str:
    """Canonical JSON text: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def recovery_payload(result: RecoveryResult, trace: str = "norms") -> dict:
    """JSON-ready dict for a recovery run at the requested trace level."""
    if trace not in TRACE_LEVELS:
        raise ValueError(f"trace must be one of {TRACE_LEVELS}, got {trace!r}")
    iterations = []
    if trace != "none":
        for n, rec in enumerate(result.iterations, start=1):
            row: dict = {
                "n": n,
                "delta_support": list(rec.delta_support.indices),
                "merged_support": list(rec.merged_support.indices),
                "pruned_support": list(rec.pruned_support.indices),
                "residual_norm": rec.residual_norm,
            }
            if rec.signal_error is not None:
                row["signal_error"] = rec.signal_error
                row["tail_energy"] = rec.tail_energy
            if trace == "full":
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
