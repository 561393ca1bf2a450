"""The benchmark's workloads and their known answers.

Each workload is a list of CLI calls.  One pass runs every call once, in
order; the timed loop repeats whole passes.  Every call carries the outcome
the mathematics predicts, written down here and not obtained by running the
engine:

* a group algebra passes every bimonoid, entwining and Hopf-module check,
  is Galois (beta and beta' invertible) and its extracted antipode passes;
* a non-group monoid algebra is a bimonoid whose beta is not invertible.
  A one-dimensional witness Hopf module (character phi, group-like t) needs
  t.g = t whenever phi(g) != 0.  In a chain under max the top element
  absorbs everything, so a witness exists; in Z/a x chain (a > 1) every
  character is nonzero on the units (g, 0), which move every t, so none
  does;
* the regular comodule algebra (B = A, rho = delta) has an invertible
  canonical map; the trivial coaction B = F_p has source dim dim C and
  target dim dim A * dim C, a dimension obstruction;
* the shipped corpus follows the README table; a command whose role kind a
  fixture lacks exits 2 naming the missing kind.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import gen

WORKLOADS = ("corpus", "hopf-ladder", "obstruction", "generalized-wide")

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

PASS, FAIL = "PASS", "FAIL"


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the outcome it must produce."""

    key: str
    argv: tuple
    exit: int
    verdicts: tuple = ()  # (substring of a check name, PASS | FAIL)
    stderr: str = ""  # required substring of stderr
    objects: dict = field(default_factory=dict)  # make-instance: expected objects
    tag: str = ""  # instance class, for traced breakdowns

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def json(self) -> bool:
        return "--json" in self.argv


# ---------------------------------------------------------------------------
# known answers by structure class
# ---------------------------------------------------------------------------

HOPF = {
    "galois": (0, (("beta invertible", PASS), ("antipode satisfies both antipode axioms", PASS))),
    "galois-dual": (0, (("beta' invertible", PASS),)),
    "fundamental-theorem": (0, (
        ("canonical map beta is invertible", PASS),
        ("antipode satisfies both antipode axioms", PASS),
        ("coinvariants of K(F^3) have dimension 3", PASS),
    )),
}


def _non_hopf(witness: bool) -> dict:
    return {
        "galois": (1, (("beta invertible", FAIL), ("comultiplication is multiplicative (I)", PASS))),
        "galois-dual": (1, (("beta' invertible", FAIL),)),
        "fundamental-theorem": (1, (
            ("unit of the monad is a split monomorphism", PASS),
            ("canonical map beta is invertible", FAIL),
            ("a witness Hopf module", PASS if witness else FAIL),
        )),
    }


def _answer(table: dict, command: str) -> tuple:
    return table.get(command, (0, ()))


# role kinds a command needs; a fixture without one exits 2
NEEDS = {
    "check-comodule-algebra": "comodule-algebra",
    "check-entwining": "entwining",
    "check-hopf-module": "hopf-module",
    "galois-generalized": "comodule-algebra",
}

# README corpus table: fixture -> (role kinds, answers of its bimonoid A)
CORPUS = {
    "kz2_f3": ({"bimonoid", "entwining", "hopf-module"}, HOPF),
    "kz3_f2": ({"bimonoid", "entwining", "hopf-module"}, HOPF),
    "m2_f2": ({"bimonoid", "entwining", "hopf-module"}, _non_hopf(witness=True)),
    "sweedler_f5": ({"bimonoid", "entwining", "hopf-module"}, HOPF),
    "trivial_fp": ({"bimonoid", "entwining", "hopf-module"}, HOPF),
    "regular_comodule_f3": ({"bimonoid", "comodule-algebra", "comonoid"}, dict(
        HOPF, **{"galois-generalized": (0, (("can invertible", PASS),))})),
    "trivial_coaction_f3": ({"bimonoid", "comodule-algebra", "comonoid"}, dict(
        HOPF, **{"galois-generalized": (1, (("can invertible", FAIL),))})),
}

# make-instance kind -> (extra argv, expected objects)
MAKE_INSTANCE = {
    "group-algebra": (("--p", "3", "--order", "3"), {"A": 3}),
    "idempotent-monoid": (("--p", "3"), {"A": 2}),
    "sweedler": (("--p", "5"), {"A": 4}),
    "trivial": (("--p", "3"), {"A": 1}),
    "regular-comodule": (("--p", "3", "--order", "3"), {"A": 3, "B": 3, "C": 1}),
    "trivial-coaction": (("--p", "3", "--order", "3"), {"A": 3, "B": 1, "C": 1}),
}


# ---------------------------------------------------------------------------
# workload builders
# ---------------------------------------------------------------------------

def _corpus(rng: random.Random, root: str, workdir: str) -> list:
    """The shipped fixtures with seeded labels, every check command, JSON and
    human output, plus make-instance for every builder kind."""
    calls = []
    for name, (kinds, answers) in sorted(CORPUS.items()):
        with open(os.path.join(root, "src", "entwine", "fixtures", name + ".json"), encoding="utf-8") as fh:
            raw = gen.relabel(json.load(fh), rng)
        path = os.path.join(workdir, name + ".json")
        gen.write_instance(path, raw)
        for command in CHECK_COMMANDS:
            need = NEEDS.get(command)
            if need and need not in kinds:
                code, verdicts, err = 2, (), f"instance declares no {need}"
            else:
                (code, verdicts), err = _answer(answers, command), ""
            for flag in (("--json",), ()):
                calls.append(Call(f"{name}:{command}{''.join(flag)}", (command, path) + flag,
                                  code, verdicts, err, tag=name))
    for kind, (extra, objects) in sorted(MAKE_INSTANCE.items()):
        calls.append(Call(f"make:{kind}", ("make-instance", kind) + extra + ("--out", "-"),
                          0, objects=objects, tag="make-instance"))
    return calls


def _instance_calls(workdir: str, tag: str, raw: dict, commands: tuple, answers: dict) -> list:
    """Write one instance file and return one ``--json`` call per command."""
    path = os.path.join(workdir, tag + ".json")
    gen.write_instance(path, raw)
    return [Call(f"{tag}:{command}", (command, path, "--json"), *_answer(answers, command), tag=tag)
            for command in commands]


LADDER_COMMANDS = ("check-bimonoid", "check-hopf-module", "derive-entwining",
                   "galois", "galois-dual", "fundamental-theorem")


def _hopf_ladder(rng: random.Random, root: str, workdir: str) -> list:
    """F_5[Z/n], n = 5..8, in seeded dense bases, plus F_p[Z/4] at
    p = 2^31 - 1 on the object-dtype matmul path.

    The large-prime rung keeps the basis of group elements: in a dense basis
    every command raises OverflowError today, because the object-dtype
    matmul returns unreduced sums above 2^63 that FpMatrix's int64
    constructor cannot hold.
    """
    calls = []
    for n in range(5, 9):
        raw = gen.monoid_algebra_instance(rng, 5, gen.cyclic_group(n), f"F_5[Z/{n}], dense basis")
        calls += _instance_calls(workdir, f"z{n}_f5", raw, LADDER_COMMANDS, HOPF)
    raw = gen.monoid_algebra_instance(rng, 2**31 - 1, gen.cyclic_group(4), "F_p[Z/4], p = 2^31 - 1",
                                      dense=False)
    return calls + _instance_calls(workdir, "z4_fbig", raw, LADDER_COMMANDS, HOPF)


def _obstruction(rng: random.Random, root: str, workdir: str) -> list:
    """Non-group monoid algebras in seeded dense bases; p^dim stays under the
    engine's witness-search cap of 200000."""
    calls = []
    for tag, p, monoid, witness in (
        ("chain5_f7", 7, gen.chain(5), True),
        ("chain6_f5", 5, gen.chain(6), True),
        ("z3xchain2_f5", 5, gen.cyclic_times_chain(3, 2), False),
    ):
        raw = gen.monoid_algebra_instance(rng, p, monoid, f"{tag}, dense basis")
        calls += _instance_calls(workdir, tag, raw, ("check-bimonoid", "galois", "fundamental-theorem"),
                                 _non_hopf(witness))
    return calls


def _generalized_wide(rng: random.Random, root: str, workdir: str) -> list:
    """Comodule algebras over F_5[Z/4] with a wide group-like C; the canonical
    map has side 16 * dim C."""
    calls = []
    for k, trivial in ((16, False), (24, False), (32, False), (32, True)):
        tag = f"{'trivial' if trivial else 'regular'}_c{k}"
        raw = gen.comodule_algebra_instance(rng, 5, 4, k, trivial)
        gg = (1, (("can invertible", FAIL),)) if trivial else (0, (("can invertible", PASS),))
        calls += _instance_calls(workdir, tag, raw, ("check-comodule-algebra", "galois-generalized"),
                                 {"galois-generalized": gg})
    return calls


BUILDERS = {
    "corpus": _corpus,
    "hopf-ladder": _hopf_ladder,
    "obstruction": _obstruction,
    "generalized-wide": _generalized_wide,
}


def build(workload: str, seed: int, root: str, workdir: str) -> list:
    """Write the workload's instance files under ``workdir`` and return its
    calls; the same seed gives the same files."""
    os.makedirs(workdir, exist_ok=True)
    return BUILDERS[workload](random.Random(seed), root, workdir)
