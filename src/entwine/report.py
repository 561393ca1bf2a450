"""Check reports shared by every verifier in the package.

A report is a named list of per-axiom verdicts.  Failed matrix identities
carry the first differing coordinate so hand-written instances can be
debugged; invertibility-style checks carry their witness matrices in the
``data`` dict.  The conventions header is attached to every report so that
leg orderings are never ambiguous when comparing constructions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exactalg import FpMatrix

CONVENTIONS = (
    "column vectors; g@f composes f first; tensor legs flatten row-major "
    "((i,j) -> i*dim2+j); actions are right (h: X(x)A -> X) and Hopf-module "
    "coactions are right (theta: X -> X(x)C); the generalized layer uses left "
    "coactions (rho: B -> A(x)B) and left monads B(x)-, A(x)-; entwining base "
    "maps: right side lambda0: C(x)A -> A(x)C, left side lambda0: B(x)Z -> Z(x)B"
)


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class UnsupportedError(ValueError):
    """The input is valid but outside the supported scope."""


def require(what: str, proof: "Report") -> None:
    """Raise PreconditionError naming every failed check of ``proof``.

    Pass the report memoised on the data object (``a.axioms``) so that each
    object is proved at most once however many constructors need it.
    """
    if not proof.ok:
        raise PreconditionError(f"{what} fails: {', '.join(proof.failed_names())}")


@dataclass
class CheckResult:
    name: str
    passed: bool
    counterexample: Optional[dict] = None
    note: str = ""

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def equality_check(name: str, lhs: FpMatrix, rhs: FpMatrix) -> CheckResult:
    """Exact matrix equality with the first differing coordinate on failure."""
    if lhs.p != rhs.p or lhs.shape != rhs.shape:
        return CheckResult(
            name,
            False,
            note=f"shape mismatch: {lhs.shape} mod {lhs.p} vs {rhs.shape} mod {rhs.p}",
        )
    if np.array_equal(lhs.a, rhs.a):
        return CheckResult(name, True)
    i, j = (int(x) for x in np.argwhere(lhs.a != rhs.a)[0])
    return CheckResult(
        name,
        False,
        counterexample={"row": i, "col": j, "lhs": lhs.entry(i, j), "rhs": rhs.entry(i, j)},
    )


@dataclass
class Report:
    title: str
    subject: str = ""
    checks: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    conventions: str = CONVENTIONS

    def add(self, result: CheckResult) -> bool:
        self.checks.append(result)
        return result.passed

    def require_equal(self, name: str, lhs: FpMatrix, rhs: FpMatrix) -> bool:
        return self.add(equality_check(name, lhs, rhs))

    def add_flag(self, name: str, passed: bool, note: str = "") -> bool:
        return self.add(CheckResult(name, bool(passed), note=note))

    def merge(self, other: "Report", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(
                CheckResult(prefix + c.name, c.passed, c.counterexample, c.note)
            )
        for k, v in other.data.items():
            self.data.setdefault(prefix + k if prefix else k, v)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_status(self) -> int:
        return 0 if self.ok else 1

    def failed_names(self) -> list:
        return [c.name for c in self.checks if not c.passed]


# json.dumps(v, sort_keys=True, indent=2, ensure_ascii=True), one encoder for all calls
_dump = json.JSONEncoder(sort_keys=True, indent=2).encode
_BLOCK = 1 << 14  # entries per block of text that _joined writes


def _joined(flat: np.ndarray, sep: str):
    """``sep.join(map(str, flat))`` for entries in [0, 2^31), in blocks of text.
    A block is a uint8 grid, one row per entry: the separator and as many
    decimal digits as the block's largest entry has (divmod by 10 on a uint32
    copy), leading zeros masked out, decoded from the grid's buffer."""
    head = np.frombuffer(sep.encode("ascii"), dtype=np.uint8)
    for start in range(0, flat.size, _BLOCK):
        v = flat[start:start + _BLOCK].astype(np.uint32)
        top = int(v.max())
        grid = np.empty((v.size, head.size + len(str(top))), dtype=np.uint8)
        keep = np.ones(grid.shape, dtype=bool) if top > 9 else None
        grid[:, :head.size] = head
        for col in range(grid.shape[1] - 1, head.size, -1):
            grid[:, col] = v % 10 + 48
            v //= 10
            keep[:, col - 1] = v > 0  # the digit left of col is not a leading zero
        grid[:, head.size] = v + 48  # the leading digit: v < 10 is left
        text = grid.reshape(-1) if keep is None else grid[keep]
        yield str(memoryview(text)[head.size if start == 0 else 0:], "ascii")


def _holds_matrix(v) -> bool:
    return isinstance(v, FpMatrix) or isinstance(v, dict) and any(map(_holds_matrix, v.values()))


def _pieces(v, pad: str):
    """The text of v at indentation ``pad``, in document order.  (A module
    function: a recursive closure would be a reference cycle, keeping the
    matrices alive until the next collection.)"""
    inner = pad + "  "
    if isinstance(v, FpMatrix):
        yield f'{{\n{inner}"cols": {v.cols},\n{inner}"entries": '
        if v.a.size:
            yield f"[\n{inner}  "
            yield from _joined(v.a.reshape(-1), ",\n" + inner + "  ")
            yield f"\n{inner}]"
        else:
            yield "[]"
        yield f',\n{inner}"rows": {v.rows}\n{pad}}}'
    elif _holds_matrix(v):
        opening = "{"
        for key in sorted(v):
            yield f"{opening}\n{inner}{_dump(key)}: "
            yield from _pieces(v[key], inner)
            opening = ","
        yield f"\n{pad}}}"
    else:
        yield _dump(v).replace("\n", "\n" + pad)


def render_json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True)``
    and a newline, with each FpMatrix value of the payload's (nested) dicts
    written as ``{"cols": ..., "entries": [...], "rows": ...}``.

    json.dumps with an indent runs the pure-Python encoder, one call per
    entry.  So the document is written in order: a dict that holds a matrix
    key by key, a matrix's entries one per line by ``_joined`` (no Python
    object per entry), and any other value by one json call, re-indented.
    """
    return "".join([*_pieces(payload, ""), "\n"])
