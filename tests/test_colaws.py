"""The co-law checkers pinned on mutated inputs by one digest.

Every row (name, verdict, counterexample, note) of check_comonoid, both
comodule checkers, check_entwining on either side, check_hopf_module,
check_comodule_algebra and check_module_comonoid, on each bimonoid fixture
and on F_5[Z/n] for n = 3..5: first as built, then with one entry of one
structure map changed, a few seeded entries per map.  The digest was
recorded while each co-law was still written as its own contraction, before
it was computed as the law of the transposed structure maps, so it pins
that the two routes print the same rows.
"""

import hashlib
import random

import numpy as np

from entwine.entwining import (
    EntwiningData,
    check_entwining,
    entwining_from_bimonoid,
    entwining_from_comodule_monad,
)
from entwine.exactalg import FpMatrix, identity
from entwine.hopfmod import HopfModuleData, check_hopf_module
from entwine.instances import build_instance
from entwine.structures import (
    BimonoidData,
    ComonoidData,
    ComoduleAlgebraData,
    ModuleComonoidData,
    MonoidData,
    check_comodule_algebra,
    check_comonoid,
    check_left_comodule,
    check_module_comonoid,
    check_right_comodule,
    module_comonoid_of_coalgebra,
)

from conftest import BIMONOID_FIXTURES, corpus_bimonoid

MUTANTS_PER_MAP = 6


def _bases() -> list:
    bases = [(name, corpus_bimonoid(name)) for name in BIMONOID_FIXTURES]
    for n in (3, 4, 5):
        (_, a), = build_instance("group-algebra", 5, n).roles_of("bimonoid")
        bases.append((f"F_5[Z/{n}]", a))
    return bases


def _mutants(rng: random.Random, maps: dict, p: int):
    """(label, maps): the maps as given, then MUTANTS_PER_MAP seeded one-entry
    changes of each map in turn."""
    yield "as built", maps
    for key in sorted(maps):
        for _ in range(MUTANTS_PER_MAP):
            a = np.array(maps[key].a)
            k = rng.randrange(a.size)
            a.flat[k] = (a.flat[k] + rng.randrange(1, p)) % p
            yield f"{key}[{k}]", {**maps, key: FpMatrix(p, a)}


def _cases(a: BimonoidData):
    """(checker label, its maps, the check on a dict of those maps) per co-law
    checker over the bimonoid a."""
    d, p = a.dim, a.p

    def comonoid(f) -> ComonoidData:
        return ComonoidData(d, f["delta"], f["eps"])

    co = {"delta": a.delta, "eps": a.eps}
    yield "comonoid", co, lambda f: check_comonoid(comonoid(f))
    regular = {**co, "coaction": a.delta}
    yield "right comodule", regular, lambda f: check_right_comodule(d, f["coaction"], comonoid(f))
    yield "left comodule", regular, lambda f: check_left_comodule(d, f["coaction"], comonoid(f))
    ed = entwining_from_bimonoid(a)
    yield "right entwining", {**co, "lambda0": ed.lambda0}, lambda f: check_entwining(
        EntwiningData(a.monoid, comonoid(f), f["lambda0"], "right")
    )
    b = ComoduleAlgebraData(a.monoid, a, a.delta)
    left = entwining_from_comodule_monad(b, ComonoidData(1, identity(p, 1), identity(p, 1)))
    z, zco = left.comonoid, {"delta": left.comonoid.delta, "eps": left.comonoid.eps, "lambda0": left.lambda0}
    yield "left entwining", zco, lambda f: check_entwining(
        EntwiningData(left.monoid, ComonoidData(z.dim, f["delta"], f["eps"]), f["lambda0"], "left")
    )
    hopf = {"action": a.m, "coaction": a.delta, "lambda0": ed.lambda0}
    yield "hopf module", hopf, lambda f: check_hopf_module(
        HopfModuleData(d, f["action"], f["coaction"]),
        EntwiningData(a.monoid, a.comonoid, f["lambda0"], "right"),
    )
    alg = {**co, "rho": a.delta, "mB": a.m, "eB": a.e}
    yield "comodule algebra", alg, lambda f: check_comodule_algebra(
        ComoduleAlgebraData(MonoidData(d, f["mB"], f["eB"]), BimonoidData(a.monoid, comonoid(f)), f["rho"])
    )
    mz = module_comonoid_of_coalgebra(a, a.comonoid)
    zmaps = {"sigma": mz.sigma, "deltaZ": mz.deltaZ, "epsZ": mz.epsZ}
    yield "module comonoid", zmaps, lambda f: check_module_comonoid(
        ModuleComonoidData(mz.dim, f["sigma"], f["deltaZ"], f["epsZ"]), a
    )


def colaw_lines() -> list:
    rng = random.Random(20)
    lines = []
    for base, a in _bases():
        for checker, maps, check in _cases(a):
            for label, mutant in _mutants(rng, maps, a.p):
                rows = [(c.name, c.verdict, c.counterexample, c.note) for c in check(mutant).checks]
                lines.append(f"{base} {checker} {label}: {rows!r}")
    return lines


def test_colaw_rows_match_digest():
    lines = colaw_lines()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) == 1264
    assert digest == "6d9f40cf78c3daba3e7dfaa1db9112747a125dad4c0d915f9c28f69c46113a05", digest
