"""The correctness gate: operations, their bit-exact fingerprints, and counts.

An operation is one unit the gate judges: one recovery run, one
certification, one CLI command.  Its ``fields`` hold only the outputs the
reproducibility contract keeps fixed when iteration counts change, so an
early exit or a pruned enumeration cannot fail the gate while a changed
result does.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass

import numpy as np


@dataclass
class Op:
    """One gated operation: ``fields`` must match the reference, ``ok``
    carries the checks that need no reference."""

    key: str
    fields: tuple
    ok: bool = True


@dataclass
class PassOutput:
    ops: list[Op]
    runs: int = 0
    supports: int = 0


def canonical(value) -> str:
    """Bit-exact text of a gate field (floats as hex, arrays by digest)."""
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(value.tobytes()).hexdigest()[:16]
        return f"array[{value.dtype}{value.shape}:{digest}]"
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(canonical(v) for v in value) + ")"
    return repr(value)


class Gate:
    """Counts operations and the ones that fail the correctness gate.

    With a reference (the default seed) each operation's fields must equal
    the recorded ones; otherwise they must equal the first pass's.
    """

    def __init__(self, reference: dict[str, str] | None):
        self.reference = reference
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def judge(self, ops: list[Op]) -> None:
        for op in ops:
            got = hashlib.sha256(canonical(op.fields).encode()).hexdigest()[:16]
            self.first.setdefault(op.key, got)
            want = self.first[op.key] if self.reference is None else self.reference.get(op.key)
            self.attempted += 1
            if not op.ok or got != want:
                self.failed += 1
                if self.failed <= 5:
                    print(f"gate: {op.key} failed (checks ok: {op.ok}; fields {got}, "
                          f"expected {want})", file=sys.stderr)

    def fail_all(self, count: int) -> None:
        self.attempted += count
        self.failed += count

    def digest(self) -> str:
        """Digest of every gated output's fingerprint, comparable across commits."""
        text = "\n".join(f"{k}={v}" for k, v in sorted(self.first.items()))
        return hashlib.sha256(text.encode()).hexdigest()
