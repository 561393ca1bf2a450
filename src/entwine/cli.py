"""Command dispatch and report emission.

    entwine <command> <instance> [--json] [--samples d1,d2,...]
    entwine make-instance <kind> --p P [--order N] [--out PATH]

Exit codes: 0 = all checks pass / Galois, 1 = a check fails / not Galois,
2 = usage or input error, out of memory, or an internal error.  ``--json``
reports are deterministic: identical inputs and flags produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from .exactalg import FpMatrix
from .report import PreconditionError, Report, UnsupportedError, render_json
from . import structures
from .duoidal import braided_duoidal, check_duoidal, galois_map_Kprime, tau_splitting
from .entwining import check_entwining, entwining_from_bimonoid
from .hopfmod import (
    GaloisReport,
    check_hopf_module,
    galois_map_beta,
    galois_map_generalized,
    verify_fundamental_theorem,
)
from .instances import (
    InstanceError,
    InstanceFile,
    build_instance,
    builders,
    load_instance,
    serialize_instance,
)

CHECK_COMMANDS = (
    "check-monoid",
    "check-comonoid",
    "check-bimonoid",
    "check-comodule-algebra",
    "check-entwining",
    "check-hopf-module",
    "derive-entwining",
    "galois",
    "galois-generalized",
    "galois-dual",
    "fundamental-theorem",
    "check-duoidal",
    "tau-split",
)


def _fail(msg: str) -> int:
    print(f"entwine: error: {msg}", file=sys.stderr)
    return 2


def _need(items: list, what: str) -> list:
    if not items:
        raise InstanceError(f"instance declares no {what}")
    return items


def _one(items: list, what: str, command: str) -> tuple:
    """The single ``what`` role: a command whose report rows and data keys
    carry no role name cannot tell two roles apart."""
    if len(_need(items, what)) > 1:
        names = ", ".join(name for name, _ in items)
        raise InstanceError(f"{command} needs one {what} role, found {names}")
    return items[0]


def _galois_checks(rep: Report, prefix: str, g: GaloisReport) -> None:
    rows, cols = g.base_map.shape
    if rows == cols:
        label = f"{prefix}invertible (rank {g.rank}/{rows})"
    else:
        label = f"{prefix}invertible (rank {g.rank}, map {cols} -> {rows})"
    rep.data[prefix + "map"] = g.base_map
    rep.data[prefix + "rank"] = g.rank
    rep.add_flag(label, g.invertible, note=g.note)
    if g.inverse is not None:
        rep.data[prefix + "inverse"] = g.inverse
    if g.antipode is not None:
        rep.data["antipode"] = g.antipode
        rep.add_flag("antipode satisfies both antipode axioms", bool(g.antipode_ok))


def dispatch(command: str, inst: Optional[InstanceFile], samples=(1, 2, 3)) -> Report:
    """Run one verification command against a loaded instance and return the
    combined report; raises InstanceError for missing roles."""
    rep = Report(command, subject=inst.source if inst else "")
    if inst is not None and inst.description():
        rep.data["description"] = inst.description()
    try:
        _run_command(command, inst, rep, samples)
    except PreconditionError as exc:
        rep.add_flag("preconditions hold", False, note=str(exc))
    return rep


def _run_command(command: str, inst: Optional[InstanceFile], rep: Report, samples) -> None:
    if command == "check-monoid":
        for name, mon in _need(inst.providers("monoid"), "monoid"):
            rep.merge(structures.check_monoid(mon), prefix=f"{name}: ")
    elif command == "check-comonoid":
        for name, com in _need(inst.providers("comonoid"), "comonoid"):
            rep.merge(structures.check_comonoid(com), prefix=f"{name}: ")
    elif command == "check-bimonoid":
        for name, a in _need(inst.roles_of("bimonoid"), "bimonoid"):
            rep.merge(a.axioms, prefix=f"{name}: ")
    elif command == "check-comodule-algebra":
        for name, b in _need(inst.roles_of("comodule-algebra"), "comodule-algebra"):
            rep.merge(b.over.axioms, prefix=f"{name}: base ")
            rep.merge(b.axioms, prefix=f"{name}: ")
    elif command == "check-entwining":
        for name, ed in _need(inst.roles_of("entwining"), "entwining"):
            rep.merge(structures.check_monoid(ed.monoid), prefix=f"{name}: monoid ")
            rep.merge(structures.check_comonoid(ed.comonoid), prefix=f"{name}: comonoid ")
            rep.merge(check_entwining(ed), prefix=f"{name}: ")
    elif command == "check-hopf-module":
        over = {name: a for b, a in inst.roles_of("bimonoid") for name, _ in inst.modules_over(b)}
        for name, m in _need(inst.roles_of("hopf-module"), "hopf-module"):
            rep.merge(check_hopf_module(m, entwining_from_bimonoid(over[name])), prefix=f"{name}: ")
    elif command == "derive-entwining":
        for name, a in _need(inst.roles_of("bimonoid"), "bimonoid"):
            pre = a.axioms
            rep.merge(pre, prefix=f"{name}: ")
            if pre.ok:
                ed = entwining_from_bimonoid(a)
                rep.data[f"{name}: lambda0"] = ed.lambda0
                rep.merge(check_entwining(ed), prefix=f"{name}: entwining ")
    elif command == "galois":
        name, a = _one(inst.roles_of("bimonoid"), "bimonoid", command)
        rep.merge(a.axioms, prefix=f"{name}: ")
        if a.axioms.ok:
            _galois_checks(rep, "beta ", galois_map_beta(a))
            rep.data["labels"] = inst.labels_for(inst.roles[name]["object"])
    elif command == "galois-generalized":
        _, b = _one(inst.roles_of("comodule-algebra"), "comodule-algebra", command)
        _, c = _one(inst.roles_of("comonoid"), "comonoid", command)
        _galois_checks(rep, "can ", galois_map_generalized(b, c))
    elif command == "galois-dual":
        _, a = _one(inst.roles_of("bimonoid"), "bimonoid", command)
        _galois_checks(rep, "beta' ", galois_map_Kprime(a, braided_duoidal(inst.field_p)))
    elif command == "fundamental-theorem":
        for name, a in _need(inst.roles_of("bimonoid"), "bimonoid"):
            extras = [m for _, m in inst.modules_over(name)]
            rep.merge(
                verify_fundamental_theorem(a, sample_dims=tuple(samples), extras=extras),
                prefix=f"{name}: ",
            )
    elif command == "check-duoidal":
        ctx = braided_duoidal(inst.field_p)
        rep.merge(check_duoidal(ctx, probe_dims=(1, 2)))
    elif command == "tau-split":
        ctx = braided_duoidal(inst.field_p)
        split = tau_splitting(ctx)
        rep.add_flag("tau is a split monomorphism", split["split_mono"])
        rep.add_flag("tau is a split epimorphism", split["split_epi"])
        if split["retraction"] is not None:
            rep.data["tau retraction"] = split["retraction"]
        if split["section"] is not None:
            rep.data["tau section"] = split["section"]
    else:
        raise InstanceError(f"unknown command {command!r}")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def report_json(rep: Report) -> str:
    """The deterministic ``--json`` form of a report."""
    return render_json(
        {
            "command": rep.title,
            "instance": rep.subject,
            "conventions": rep.conventions,
            "checks": [
                {"name": c.name, "verdict": c.verdict, "counterexample": c.counterexample, "note": c.note}
                for c in rep.checks
            ],
            "data": rep.data,
            "exit": rep.exit_status,
        }
    )


def _antipode_table(s: FpMatrix, labels) -> str:
    if labels is None or len(labels) != s.cols:
        labels = [f"e{i}" for i in range(s.cols)]
    pieces = []
    for j in range(s.cols):
        terms = []
        for i in range(s.rows):
            c = s.entry(i, j)
            if c == 1:
                terms.append(labels[i])
            elif c:
                terms.append(f"{c}*{labels[i]}")
        pieces.append(f"S({labels[j]}) = {' + '.join(terms) if terms else '0'}")
    return ", ".join(pieces)


def render_human(rep: Report) -> str:
    lines = []
    lines.append(f"command     : {rep.title}")
    if rep.subject:
        lines.append(f"instance    : {rep.subject}")
    desc = rep.data.get("description")
    if desc:
        lines.append(f"description : {desc}")
    lines.append(f"conventions : {rep.conventions}")
    lines.append("")
    width = max((len(c.name) for c in rep.checks), default=20)
    for c in rep.checks:
        lines.append(f"{c.name:<{width}}  {c.verdict}")
        if c.counterexample:
            ce = c.counterexample
            lines.append(
                f"{'':<{width}}  first difference at ({ce['row']}, {ce['col']}): "
                f"lhs={ce['lhs']}, rhs={ce['rhs']}"
            )
        if c.note:
            lines.append(f"{'':<{width}}  {c.note}")
    labels = rep.data.get("labels")
    for key in sorted(rep.data):
        val = rep.data[key]
        if key in ("description", "labels"):
            continue
        if isinstance(val, FpMatrix):
            if key == "antipode":
                lines.append("")
                lines.append(f"antipode: {_antipode_table(val, labels)}")
            lines.append(f"{key} =")
            for row in val.a.tolist():
                lines.append("  " + " ".join(map(str, row)))
        else:
            lines.append(f"{key}: {val}")
    lines.append("")
    lines.append(f"exit: {rep.exit_status}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: it reads no argv, instance or environment value."""
    parser = argparse.ArgumentParser(
        prog="entwine",
        description="exact verification of entwining, Hopf-module and Galois structure over F_p",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in CHECK_COMMANDS:
        sp = sub.add_parser(cmd)
        sp.add_argument("instance", help="path to an instance JSON file")
        sp.add_argument("--json", action="store_true", help="emit a deterministic JSON report")
        sp.add_argument(
            "--samples",
            default="1,2,3",
            help="comma-separated sample dimensions for fundamental-theorem",
        )
    mk = sub.add_parser("make-instance", help="generate a corpus instance")
    mk.add_argument("kind", choices=sorted(builders))
    mk.add_argument("--p", type=int, required=True, help="prime modulus")
    mk.add_argument("--order", type=int, default=2, help="group order for group-algebra, regular-comodule "
                    "and trivial-coaction; sweedler, idempotent-monoid and trivial have none and ignore it")
    mk.add_argument("--out", default="-", help="output path, - for stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    what = args.kind if args.command == "make-instance" else args.instance
    try:
        return _run(args)
    except MemoryError:
        return _fail(f"out of memory running {args.command} on {what}")
    except Exception as exc:  # a defect, not a refutation: never exit 1
        detail = " ".join(str(exc).split())
        return _fail(f"{type(exc).__name__} running {args.command} on {what}: {detail}")


def _run(args: argparse.Namespace) -> int:
    if args.command == "make-instance":
        try:
            inst = build_instance(args.kind, args.p, args.order)
        except (InstanceError, UnsupportedError) as exc:
            return _fail(str(exc))
        text = serialize_instance(inst)
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0

    try:
        samples = tuple(int(x) for x in str(args.samples).split(",") if x != "")
        if any(d < 0 for d in samples):
            raise ValueError
    except ValueError:
        return _fail(f"invalid --samples: {args.samples!r}")
    try:
        inst = load_instance(args.instance)
    except InstanceError as exc:
        return _fail(str(exc))
    for w in inst.warnings:
        print(f"entwine: warning: {w}", file=sys.stderr)
    try:
        rep = dispatch(args.command, inst, samples=samples)
    except (InstanceError, UnsupportedError) as exc:
        return _fail(str(exc))
    sys.stdout.write(report_json(rep) if args.json else render_human(rep))
    return rep.exit_status


if __name__ == "__main__":
    sys.exit(main())
