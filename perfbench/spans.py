"""Out-of-process tracing of the engine, installed from the benchmark.

Every public function of every ``entwine`` module is wrapped, and the
wrapper is written into every binding that holds the original: the defining
module, each module that imported the name, the package namespace and the
``builders`` table.  ``FpMatrix.__matmul__`` is wrapped on the class, and
each context built by ``braided_duoidal`` gets a wrapped ``zeta``.  Nothing
in the engine's source changes.

Each wrapped call records a span (function, CLI call id, parent span,
start, end).  Spans are kept in memory and written out by ``dump``.  Self
time is a span's duration minus the durations of its direct children; time
in unwrapped private helpers and in numpy counts as self time of the
nearest wrapped caller.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

MODULES = ("exactalg", "report", "structures", "entwining", "hopfmod", "duoidal", "instances", "cli")
MB = 2.0**20


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self.fid: dict = {}
        self.span_fid = array("i")
        self.span_call = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.stack: list = []  # [span index, child time]
        self.call_id = -1
        self.calls: list = []  # per CLI call: (command, tag, expected exit)
        # size and count probes, keyed by metric name
        self.maxima: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)

    # -- span recording ------------------------------------------------------

    def begin_call(self, call) -> None:
        self.calls.append((call.command, call.tag, call.exit))
        self.call_id = len(self.calls) - 1

    def _enter(self, fid: int) -> None:
        self.span_fid.append(fid)
        self.span_call.append(self.call_id)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_end.append(0.0)
        self.span_self.append(0.0)
        self.stack.append([len(self.span_fid) - 1, 0.0])
        self.span_start.append(time.perf_counter())

    def _exit(self) -> None:
        end = time.perf_counter()
        idx, child = self.stack.pop()
        dur = end - self.span_start[idx]
        self.span_end[idx] = end
        self.span_self[idx] = dur - child
        if self.stack:
            self.stack[-1][1] += dur

    def wrap(self, name: str, fn, probe=None):
        if name not in self.fid:
            self.fid[name] = len(self.names)
            self.names.append(name)
        fid = self.fid[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(fid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if probe is not None:
                probe(self, args, out)
            return out

        return traced

    def _zeta_traced(self, braided):
        """``braided_duoidal`` whose contexts carry a traced ``zeta``."""

        @functools.wraps(braided)
        def build(p):
            ctx = braided(p)
            zeta = self.wrap("duoidal.zeta", ctx.zeta, _out_probe("duoidal.zeta"))
            return dataclasses.replace(ctx, zeta=zeta)

        return build

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of the engine's modules and rebind
        every name that refers to one."""
        mods = [importlib.import_module(f"{package.__name__}.{name}") for name in MODULES]
        wrapped = {}  # id(original) -> (original, wrapper)
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported here; wrapped where it is defined
                name = f"{short}.{attr}"
                fn = self._zeta_traced(obj) if name == "duoidal.braided_duoidal" else obj
                wrapped[id(obj)] = (obj, self.wrap(name, fn, PROBES.get(name)))
        # module namespaces are dicts too; writing them rebinds the name
        for table in [vars(package), package.instances.builders] + [vars(mod) for mod in mods]:
            for key, obj in list(table.items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    table[key] = hit[1]
        fpm = package.exactalg.FpMatrix
        fpm.__matmul__ = self.wrap("exactalg.matmul", fpm.__matmul__, _matmul_probe)

    # -- aggregation ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Totals per function: calls, self seconds, inclusive seconds; plus
        per CLI call the spans of each function (count, inclusive time)."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        per_call = defaultdict(lambda: [0, 0.0])
        call_wall = defaultdict(float)
        names = self.names
        for i in range(len(self.span_fid)):
            name = names[self.span_fid[i]]
            calls[name] += 1
            self_s[name] += self.span_self[i]
            dur = self.span_end[i] - self.span_start[i]
            cid = self.span_call[i]
            entry = per_call[(cid, name)]
            entry[0] += 1
            entry[1] += dur
            if self.span_parent[i] < 0:
                call_wall[cid] += dur
        return {"calls": calls, "self_s": self_s, "per_call": per_call, "call_wall": call_wall}

    def dump(self, path: str, calls: int) -> None:
        """Write the spans of the first ``calls`` CLI calls (one pass; the
        passes repeat) as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tcall\tcommand\ttag\tparent\tstart\tend\tself\n")
            for i in range(len(self.span_fid)):
                cid = self.span_call[i]
                if cid >= calls:
                    break
                command, tag, _ = self.calls[cid]
                fh.write(
                    f"{i}\t{self.names[self.span_fid[i]]}\t{cid}\t{command}\t{tag}\t"
                    f"{self.span_parent[i]}\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                    f"{self.span_self[i]:.9f}\n"
                )


# ---------------------------------------------------------------------------
# probes: sizes and counts measured at the wrapped boundary
# ---------------------------------------------------------------------------

def _matmul_probe(tr: Tracer, args, out) -> None:
    a, b = args
    tr.maxima["exactalg.matmul.max_operand_mb"] = max(
        tr.maxima["exactalg.matmul.max_operand_mb"], a.a.nbytes / MB, b.a.nbytes / MB)
    if a.cols * (a.p - 1) ** 2 >= 2**63:
        tr.counts["exactalg.matmul.object_calls"] += 1


def _out_probe(name: str):
    key = name + ".max_out_mb"

    def probe(tr: Tracer, args, out) -> None:
        tr.maxima[key] = max(tr.maxima[key], out.a.nbytes / MB)

    return probe


def _rref_probe(tr: Tracer, args, out) -> None:
    m = args[0]
    tr.maxima["exactalg.rref.max_cells"] = max(tr.maxima["exactalg.rref.max_cells"], m.rows * m.cols)


def _search_probe(tr: Tracer, args, out) -> None:
    # both searches enumerate all of F_p^dim and return every hit
    x = args[0]
    tr.counts["hopfmod.search.candidates"] += x.p ** x.dim
    tr.counts["hopfmod.search.hits"] += len(out)


def _render_probe(tr: Tracer, args, out) -> None:
    tr.counts["cli.render.bytes"] += len(out)


PROBES = {
    "exactalg.kron": _out_probe("exactalg.kron"),
    "exactalg.swap_matrix": _out_probe("exactalg.swap_matrix"),
    "exactalg.rref": _rref_probe,
    "hopfmod.find_characters": _search_probe,
    "hopfmod.find_group_likes": _search_probe,
    "cli.report_json": _render_probe,
    "cli.render_human": _render_probe,
}

SEARCH = ("hopfmod.find_characters", "hopfmod.find_group_likes")
RENDER = ("cli.report_json", "cli.render_human")


def layer_metrics(tr: Tracer, traced_walls: list, untraced_walls: list) -> dict:
    """The per-layer metrics of one traced run: counts and times per pass,
    sizes as maxima, shares as ratios.  The overhead compares the fastest
    traced pass with the fastest untraced one."""
    passes = len(traced_walls)
    agg = tr.aggregate()
    calls, self_s, per_call = agg["calls"], agg["self_s"], agg["per_call"]

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    def fn_calls(name: str) -> float:
        return calls.get(name, 0) / passes

    def fn_self(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names) / passes

    out = {f"{layer}.self_s": (layer_self(layer) / passes, "s") for layer in MODULES}

    def in_calls(name: str, command: str, known_exit=None) -> tuple:
        """(number of CLI calls of ``command``, spans of ``name`` inside
        them, their inclusive seconds, the calls' own seconds)."""
        ids = [cid for cid, (cmd, _, code) in enumerate(tr.calls)
               if cmd == command and known_exit in (None, code)]
        hits = [per_call[(cid, name)] for cid in ids if (cid, name) in per_call]
        return (len(ids), sum(h[0] for h in hits), sum(h[1] for h in hits),
                sum(agg["call_wall"][cid] for cid in ids))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    n_ft, cb_n, cb_t, ft_t = in_calls("structures.check_bialgebra", "fundamental-theorem")
    # galois-generalized whose known answer is an invertible can (exit 0)
    # or a dimension obstruction (exit 1)
    n_sq, rref_sq, _, _ = in_calls("exactalg.rref", "galois-generalized", 0)
    n_ob, rref_ob, _, _ = in_calls("exactalg.rref", "galois-generalized", 1)

    pass_s = sum(traced_walls) / passes
    cand = tr.counts["hopfmod.search.candidates"]
    out.update({
        "structures.check_bialgebra.calls": (fn_calls("structures.check_bialgebra"), "count"),
        "structures.check_bialgebra.self_s": (fn_self("structures.check_bialgebra"), "s"),
        "structures.check_bialgebra.per_ft_call": (ratio(cb_n, n_ft), "count"),
        "structures.check_bialgebra.ft_share": (ratio(cb_t, ft_t), "frac"),
        "exactalg.kron.calls": (fn_calls("exactalg.kron"), "count"),
        "exactalg.kron.max_out_mb": (tr.maxima["exactalg.kron.max_out_mb"], "MB"),
        "exactalg.swap_matrix.calls": (fn_calls("exactalg.swap_matrix"), "count"),
        "exactalg.swap_matrix.max_out_mb": (tr.maxima["exactalg.swap_matrix.max_out_mb"], "MB"),
        "exactalg.rref.calls": (fn_calls("exactalg.rref"), "count"),
        "exactalg.rref.self_s": (fn_self("exactalg.rref"), "s"),
        "exactalg.rref.self_share": (fn_self("exactalg.rref") / pass_s, "frac"),
        "exactalg.rref.max_cells": (tr.maxima["exactalg.rref.max_cells"], "count"),
        "exactalg.rref.per_gg_square": (ratio(rref_sq, n_sq), "count"),
        "exactalg.rref.per_gg_obstructed": (ratio(rref_ob, n_ob), "count"),
        "exactalg.matmul.calls": (fn_calls("exactalg.matmul"), "count"),
        "exactalg.matmul.self_s": (fn_self("exactalg.matmul"), "s"),
        "exactalg.matmul.object_calls": (tr.counts["exactalg.matmul.object_calls"] / passes, "count"),
        "exactalg.matmul.max_operand_mb": (tr.maxima["exactalg.matmul.max_operand_mb"], "MB"),
        "hopfmod.search.self_s": (fn_self(*SEARCH), "s"),
        "hopfmod.search.candidates": (cand / passes, "count"),
        "hopfmod.search.hits": (tr.counts["hopfmod.search.hits"] / passes, "count"),
        "hopfmod.search.hit_ratio": (ratio(tr.counts["hopfmod.search.hits"], cand), "frac"),
        "duoidal.check_duoidal.self_s": (fn_self("duoidal.check_duoidal"), "s"),
        "duoidal.zeta.calls": (fn_calls("duoidal.zeta"), "count"),
        "instances.load.calls": (fn_calls("instances.load_instance"), "count"),
        "instances.build.self_s": (fn_self(*[n for n in self_s if n.startswith("instances.build")]), "s"),
        "report.equality_check.calls": (fn_calls("report.equality_check"), "count"),
        "cli.render.self_s": (fn_self(*RENDER), "s"),
        "cli.render.bytes": (tr.counts["cli.render.bytes"] / passes, "count"),
        "trace.pass_s": (pass_s, "s"),
        "trace.overhead_frac": (min(traced_walls) / min(untraced_walls) - 1.0, "frac"),
    })
    return out
