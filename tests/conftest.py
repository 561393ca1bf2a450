import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from entwine.entwining import EntwiningData
from entwine.exactalg import FpMatrix, swap_matrix
from entwine.instances import build_instance, fixture_path, load_instance
from entwine.report import Report
from entwine.structures import (
    BimonoidData,
    ComonoidData,
    ComoduleAlgebraData,
    ModuleComonoidData,
    ModuleData,
    MonoidData,
    module_comonoid_of_coalgebra,
)

# Property sweeps draw the same examples on every run and write no example
# database, so a failure reproduces from the test name alone.
settings.register_profile(
    "entwine", derandomize=True, database=None, max_examples=60, deadline=None
)
settings.load_profile("entwine")

BIMONOID_FIXTURES = ("kz2_f3", "kz3_f2", "m2_f2", "sweedler_f5", "trivial_fp")
HOPF_FIXTURES = ("kz2_f3", "kz3_f2", "sweedler_f5", "trivial_fp")
ALL_FIXTURES = BIMONOID_FIXTURES + ("regular_comodule_f3", "trivial_coaction_f3")
# the sweeps' primes: 2^31 - 1 sends every product with more than one term
# down the object-dtype branch of the exact matmul, and one term down int64
SMALL_PRIMES = (2, 3, 5)
SWEEP_PRIMES = SMALL_PRIMES + (2**31 - 1,)

_cache = {}


def corpus_instance(name):
    if name not in _cache:
        _cache[name] = load_instance(fixture_path(name))
    return _cache[name]


def corpus_bimonoid(name):
    (_, a), = corpus_instance(name).roles_of("bimonoid")
    return a


def monoid_algebra(p, elements, op):
    """Instance dict of F_p[M] for the finite monoid M on ``elements`` under
    ``op``, with the group-like basis (delta g = g (x) g, eps g = 1) and
    ``elements[0]`` as the unit."""
    n = len(elements)
    m = [0] * (n * n * n)
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            m[elements.index(op(x, y)) * n * n + i * n + j] = 1
    delta = [0] * (n * n * n)
    for i in range(n):
        delta[(i * n + i) * n + i] = 1
    return {
        "field_p": p,
        "objects": {"A": n},
        "maps": {
            "m": {"rows": n, "cols": n * n, "entries": m},
            "e": {"rows": n, "cols": 1, "entries": [1] + [0] * (n - 1)},
            "delta": {"rows": n * n, "cols": n, "entries": delta},
            "eps": {"rows": 1, "cols": n, "entries": [1] * n},
        },
        "roles": {"A": {"kind": "bimonoid", "object": "A", "m": "m", "e": "e", "delta": "delta", "eps": "eps"}},
    }


def chain_algebra(p, n):
    """F_p[{0 < 1 < ... < n-1}] under max: a bimonoid, not Hopf for n > 1."""
    return monoid_algebra(p, list(range(n)), max)


def bimonoid_from_constants(p, d, m, e, delta, eps) -> BimonoidData:
    return BimonoidData(
        MonoidData(d, FpMatrix(p, m), FpMatrix(p, e)),
        ComonoidData(d, FpMatrix(p, delta), FpMatrix(p, eps)),
    )


def draw_entries(draw, p, rows, cols) -> np.ndarray:
    if draw(st.booleans()):  # one basis vector per column, as in a monoid algebra
        hot = draw(st.lists(st.integers(0, rows - 1), min_size=cols, max_size=cols))
        return np.eye(rows, dtype=np.int64)[:, hot]
    flat = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=np.int64).reshape(rows, cols)


@st.composite
def random_structure_constants(draw, primes=SMALL_PRIMES) -> BimonoidData:
    # BimonoidData checks shapes only, so any constants make a checker input
    p = draw(st.sampled_from(primes))
    d = draw(st.integers(1, 4))

    def entries(rows, cols):
        return draw_entries(draw, p, rows, cols)

    return bimonoid_from_constants(p, d, entries(d, d * d), entries(d, 1), entries(d * d, d), entries(1, d))


def mutate_one(draw, maps: dict, p: int) -> dict:
    """maps with one entry of one drawn map changed by a nonzero amount."""
    maps = {k: np.array(v) for k, v in maps.items()}
    changed = maps[draw(st.sampled_from(sorted(maps)))]
    k = draw(st.integers(0, changed.size - 1))
    changed.flat[k] = (changed.flat[k] + draw(st.integers(1, p - 1))) % p
    return maps


@st.composite
def mutated_fixtures(draw) -> BimonoidData:
    a = corpus_bimonoid(draw(st.sampled_from(BIMONOID_FIXTURES)))
    maps = mutate_one(draw, {"m": a.m.a, "e": a.e.a, "delta": a.delta.a, "eps": a.eps.a}, a.p)
    return bimonoid_from_constants(a.p, a.dim, maps["m"], maps["e"], maps["delta"], maps["eps"])


@st.composite
def random_comodule_algebras(draw, primes=SMALL_PRIMES) -> ComoduleAlgebraData:
    # ComoduleAlgebraData checks shapes only, so any constants make an input
    a = draw(random_structure_constants(primes))
    p, da, db = a.p, a.dim, draw(st.integers(1, 4))
    algebra = MonoidData(db, FpMatrix(p, draw_entries(draw, p, db, db * db)), FpMatrix(p, draw_entries(draw, p, db, 1)))
    return ComoduleAlgebraData(algebra, a, FpMatrix(p, draw_entries(draw, p, da * db, db)))


@st.composite
def mutated_comodule_fixtures(draw) -> ComoduleAlgebraData:
    (_, b), = corpus_instance(draw(st.sampled_from(("regular_comodule_f3", "trivial_coaction_f3")))).roles_of(
        "comodule-algebra"
    )
    a = b.over
    maps = {"m": a.m, "e": a.e, "delta": a.delta, "eps": a.eps, "mB": b.algebra.m, "eB": b.algebra.e, "rho": b.rho}
    maps = mutate_one(draw, {k: v.a for k, v in maps.items()}, a.p)
    over = bimonoid_from_constants(a.p, a.dim, maps["m"], maps["e"], maps["delta"], maps["eps"])
    algebra = MonoidData(b.algebra.dim, FpMatrix(a.p, maps["mB"]), FpMatrix(a.p, maps["eB"]))
    return ComoduleAlgebraData(algebra, over, FpMatrix(a.p, maps["rho"]))


SIDES = ("right", "left")


@st.composite
def random_modules(draw, primes=SMALL_PRIMES) -> tuple:
    """(x, a): a monoid of any constants and a right or left action of it on
    a space of dim 1-3, of any constants."""
    a = draw(random_structure_constants(primes)).monoid
    dx = draw(st.integers(1, 3))
    action = FpMatrix(a.p, draw_entries(draw, a.p, dx, dx * a.dim))
    return ModuleData(dx, action, draw(st.sampled_from(SIDES))), a


@st.composite
def mutated_modules(draw) -> tuple:
    """(x, a): a corpus monoid acting on the free module of rank 1 or 2 (on
    the side drawn), with one entry of the action, m or e changed."""
    a = corpus_bimonoid(draw(st.sampled_from(BIMONOID_FIXTURES))).monoid
    side, rank = draw(st.sampled_from(SIDES)), draw(st.integers(1, 2))
    eye = np.eye(rank, dtype=np.int64)
    action = np.kron(eye, a.m.a) if side == "right" else np.kron(a.m.a, eye)
    maps = mutate_one(draw, {"action": action, "m": a.m.a, "e": a.e.a}, a.p)
    x = ModuleData(a.dim * rank, FpMatrix(a.p, maps["action"]), side)
    return x, MonoidData(a.dim, FpMatrix(a.p, maps["m"]), FpMatrix(a.p, maps["e"]))


@st.composite
def random_comodules(draw, primes=SMALL_PRIMES) -> tuple:
    """(side, dim, coaction, c): a comonoid of any constants and a right or
    left coaction of it on a space of dim 1-3, of any constants."""
    c = draw(random_structure_constants(primes)).comonoid
    dx = draw(st.integers(1, 3))
    coaction = FpMatrix(c.p, draw_entries(draw, c.p, dx * c.dim, dx))
    return draw(st.sampled_from(SIDES)), dx, coaction, c


@st.composite
def mutated_comodules(draw) -> tuple:
    """(side, dim, coaction, c): a corpus comonoid coacting on the cofree
    comodule of rank 1 or 2, with one entry of the coaction, delta or eps
    changed."""
    c = corpus_bimonoid(draw(st.sampled_from(BIMONOID_FIXTURES))).comonoid
    side, rank = draw(st.sampled_from(SIDES)), draw(st.integers(1, 2))
    eye = np.eye(rank, dtype=np.int64)
    coaction = np.kron(eye, c.delta.a) if side == "right" else np.kron(c.delta.a, eye)
    maps = mutate_one(draw, {"coaction": coaction, "delta": c.delta.a, "eps": c.eps.a}, c.p)
    comonoid = ComonoidData(c.dim, FpMatrix(c.p, maps["delta"]), FpMatrix(c.p, maps["eps"]))
    return side, c.dim * rank, FpMatrix(c.p, maps["coaction"]), comonoid


@st.composite
def unequal_entwinings(draw, primes=SMALL_PRIMES) -> EntwiningData:
    """An entwining of either side between the group algebras F_p[Z/dA] (as
    a monoid) and F_p[Z/dC] (as a comonoid), dA != dC: the leg flip, which
    is always one, with one entry of m, e, delta, eps or lambda0 changed, or
    lambda0 of any constants."""
    p = draw(st.sampled_from(primes))
    da, dc = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2, unique=True))
    (_, a), = build_instance("group-algebra", p, da).roles_of("bimonoid")
    (_, c), = build_instance("group-algebra", p, dc).roles_of("bimonoid")
    side = draw(st.sampled_from(SIDES))
    flip = swap_matrix(p, dc, da) if side == "right" else swap_matrix(p, da, dc)
    maps = {"m": a.m.a, "e": a.e.a, "delta": c.delta.a, "eps": c.eps.a, "lambda0": flip.a}
    if draw(st.booleans()):
        maps = mutate_one(draw, maps, p)
    else:
        maps["lambda0"] = draw_entries(draw, p, da * dc, da * dc)
    f = {k: FpMatrix(p, v) for k, v in maps.items()}
    monoid, comonoid = MonoidData(da, f["m"], f["e"]), ComonoidData(dc, f["delta"], f["eps"])
    return EntwiningData(monoid, comonoid, f["lambda0"], side)


@st.composite
def module_comonoids(draw, mutate: bool) -> tuple:
    """(z, a): module_comonoid_of_coalgebra of a bimonoid a and a comonoid c
    at p in SMALL_PRIMES.  a is a corpus bimonoid, a group algebra F_p[Z/n]
    (n = 1..3) or constants of any value in dimension 1 or 2, taken as
    proved; c is a's own comonoid or a group algebra's, and constants too
    when a is.  With ``mutate``, one entry of sigma, deltaZ or epsZ is
    changed."""
    source = draw(st.sampled_from(("corpus", "group", "constants")))
    if source == "corpus":
        a = corpus_bimonoid(draw(st.sampled_from(BIMONOID_FIXTURES)))
    else:
        p = draw(st.sampled_from(SMALL_PRIMES))
        (_, a), = build_instance("group-algebra", p, draw(st.integers(1, 3))).roles_of("bimonoid")
    p = a.p
    if source == "constants":
        d, dc = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        m, e, delta, eps = (draw_entries(draw, p, r, k) for r, k in ((d, d * d), (d, 1), (d * d, d), (1, d)))
        a = proved(bimonoid_from_constants(p, d, m, e, delta, eps))
        delta_c, eps_c = (FpMatrix(p, draw_entries(draw, p, r, k)) for r, k in ((dc * dc, dc), (1, dc)))
        c = proved(ComonoidData(dc, delta_c, eps_c))
    elif draw(st.booleans()):
        c = a.comonoid
    else:
        (_, g), = build_instance("group-algebra", p, draw(st.integers(1, 3))).roles_of("bimonoid")
        c = g.comonoid
    z = module_comonoid_of_coalgebra(a, c)
    if mutate:
        maps = mutate_one(draw, {"sigma": z.sigma.a, "deltaZ": z.deltaZ.a, "epsZ": z.epsZ.a}, p)
        z = ModuleComonoidData(z.dim, *(FpMatrix(p, maps[k]) for k in ("sigma", "deltaZ", "epsZ")))
    return z, a


def proved(*objects):
    """Store a passing precondition proof as each object's memoised
    ``axioms``, so that a constructor requiring it runs on arbitrary
    structure constants.  The maps swept against the oracles (beta, beta',
    lambda0, can) are formulas in the constants whether or not the axioms
    hold.  Use on freshly built objects only, never on the cached corpus."""
    for obj in objects:
        obj.__dict__["axioms"] = Report("taken as proved")
    return objects[0]


@pytest.fixture(params=BIMONOID_FIXTURES)
def bimonoid_fixture(request):
    return request.param, corpus_bimonoid(request.param)


@pytest.fixture(params=HOPF_FIXTURES)
def hopf_fixture(request):
    return request.param, corpus_bimonoid(request.param)
