import tracemalloc

import numpy as np
import pytest
from hypothesis import given

from entwine import structures
from entwine.duoidal import braided_duoidal, check_bimonoid
from entwine.exactalg import FpMatrix, identity, kron
from entwine.instances import build_instance
from entwine.report import PreconditionError
from entwine.structures import (
    BimonoidData,
    ComonoidData,
    ComoduleAlgebraData,
    ModuleComonoidData,
    MonoidData,
    check_bialgebra,
    check_comodule_algebra,
    check_comonoid,
    check_left_comodule,
    check_module,
    check_module_comonoid,
    check_monoid,
    check_right_comodule,
    module_comonoid_of_coalgebra,
    regular_right_module,
)

from conftest import (
    BIMONOID_FIXTURES,
    corpus_bimonoid,
    corpus_instance,
    module_comonoids,
    mutated_comodule_fixtures,
    mutated_comodules,
    mutated_fixtures,
    mutated_modules,
    random_comodule_algebras,
    random_comodules,
    random_modules,
    random_structure_constants,
)
from oracles import (
    oracle_bialgebra,
    oracle_comodule_algebra,
    oracle_comonoid,
    oracle_left_comodule,
    oracle_module,
    oracle_module_comonoid,
    oracle_monoid,
    oracle_right_comodule,
)


def flip_entry(mat: FpMatrix, i: int, j: int, value: int) -> FpMatrix:
    a = np.array(mat.a)
    a[i, j] = value
    return FpMatrix(mat.p, a)


def trivial_comonoid(p):
    return ComonoidData(1, identity(p, 1), identity(p, 1))


def verdicts(report):
    return {c.name: c.passed for c in report.checks}


# ---------------------------------------------------------------------------
# monoid / comonoid checks against the brute-force oracle
# ---------------------------------------------------------------------------

def test_group_algebra_monoid_passes():
    a = corpus_bimonoid("kz2_f3")
    rep = check_monoid(a.monoid)
    assert rep.ok
    assert verdicts(rep) == oracle_monoid(a.monoid)


def test_one_dim_trivial_monoid():
    a = MonoidData(1, identity(3, 1), identity(3, 1))
    assert check_monoid(a).ok


def test_flipped_entry_breaks_associativity():
    a = corpus_bimonoid("kz2_f3")
    bad = MonoidData(2, flip_entry(a.m, 0, 0, 2), a.e)
    rep = check_monoid(bad)
    oracle = oracle_monoid(bad)
    assert not rep.ok
    assert verdicts(rep)["associativity"] is False
    assert oracle["associativity"] is False
    assert verdicts(rep) == oracle
    failed = [c for c in rep.checks if not c.passed]
    assert all(c.counterexample is not None for c in failed)


def test_group_like_comonoid_passes():
    a = corpus_bimonoid("kz2_f3")
    rep = check_comonoid(a.comonoid)
    assert rep.ok
    assert verdicts(rep) == oracle_comonoid(a.comonoid)


def test_one_dim_trivial_comonoid():
    assert check_comonoid(trivial_comonoid(3)).ok


def test_zero_counit_entry_breaks_counit():
    a = corpus_bimonoid("kz2_f3")
    bad = ComonoidData(2, a.delta, flip_entry(a.eps, 0, 1, 0))
    rep = check_comonoid(bad)
    assert not rep.ok
    assert verdicts(rep)["left counit"] is False
    assert verdicts(rep) == oracle_comonoid(bad)


@pytest.mark.parametrize("name", BIMONOID_FIXTURES)
def test_checker_verdicts_match_oracle_on_corpus(name):
    a = corpus_bimonoid(name)
    assert verdicts(check_monoid(a.monoid)) == oracle_monoid(a.monoid)
    assert verdicts(check_comonoid(a.comonoid)) == oracle_comonoid(a.comonoid)
    bial = verdicts(check_bialgebra(a))
    for diag, ok in oracle_bialgebra(a).items():
        assert bial[diag] == ok


def _assert_monoid_comonoid_match_oracles(a: BimonoidData) -> None:
    assert verdicts(check_monoid(a.monoid)) == oracle_monoid(a.monoid)
    assert verdicts(check_comonoid(a.comonoid)) == oracle_comonoid(a.comonoid)


@given(random_structure_constants())
def test_monoid_comonoid_match_oracles_on_random_structure_constants(a):
    _assert_monoid_comonoid_match_oracles(a)


@given(mutated_fixtures())
def test_monoid_comonoid_match_oracles_on_mutated_fixtures(a):
    _assert_monoid_comonoid_match_oracles(a)


# ---------------------------------------------------------------------------
# modules and comodules, swept against the oracles
# ---------------------------------------------------------------------------

@given(random_modules())
def test_module_matches_oracle_on_random_structure_constants(xa):
    x, a = xa
    assert verdicts(check_module(x, a)) == oracle_module(x, a)


@given(mutated_modules())
def test_module_matches_oracle_on_mutated_fixtures(xa):
    x, a = xa
    assert verdicts(check_module(x, a)) == oracle_module(x, a)


def _assert_comodule_matches_oracle(side, dim, coaction, c) -> None:
    if side == "right":
        assert verdicts(check_right_comodule(dim, coaction, c)) == oracle_right_comodule(dim, coaction, c)
    else:
        assert verdicts(check_left_comodule(dim, coaction, c)) == oracle_left_comodule(dim, coaction, c)


@given(random_comodules())
def test_comodule_matches_oracle_on_random_structure_constants(args):
    _assert_comodule_matches_oracle(*args)


@given(mutated_comodules())
def test_comodule_matches_oracle_on_mutated_fixtures(args):
    _assert_comodule_matches_oracle(*args)


# ---------------------------------------------------------------------------
# the one bimonoid law, swept against the oracle
# ---------------------------------------------------------------------------

def _assert_diagrams_match_oracle(a: BimonoidData) -> None:
    oracle = oracle_bialgebra(a)
    bial = verdicts(check_bialgebra(a))
    assert {k: bial[k] for k in oracle} == oracle
    assert verdicts(check_bimonoid(a, braided_duoidal(a.p))) == oracle


@given(random_structure_constants())
def test_bimonoid_diagrams_match_oracle_on_random_structure_constants(a):
    _assert_diagrams_match_oracle(a)


@given(mutated_fixtures())
def test_bimonoid_diagrams_match_oracle_on_mutated_fixtures(a):
    _assert_diagrams_match_oracle(a)


@pytest.mark.parametrize("cells", (1, 2 * 4**5, 3 * 4**5, 4**6))
def test_law_one_blocks_give_the_single_block_report(cells):
    # one entry of m bumped breaks (I).  The one contraction must give the
    # matrix that (m(x)m).zeta.(delta(x)delta) gives when assembled over
    # column blocks of the first delta, a block of b columns holding d^5 * b
    # entries, for each b from one column to all four; and since the report
    # prints the first difference, it must name the one it always named
    a = corpus_bimonoid("sweedler_f5")
    bad = BimonoidData(MonoidData(4, flip_entry(a.m, 1, 5, 3), a.e), a.comonoid)
    d, step = bad.dim, max(1, cells // bad.dim**5)
    m_m = kron(bad.m, bad.m)
    blocks = [
        m_m @ structures._middle_transposition(kron(FpMatrix(bad.p, bad.delta.a[:, i:i + step]), bad.delta), d, d, d, d)
        for i in range(0, d, step)
    ]
    assert len(blocks) == -(-d // step)
    assembled = FpMatrix(bad.p, np.hstack([b.a for b in blocks]))
    assert structures._law_one_rhs(bad.delta, bad.m, bad.m) == assembled
    (law_one,) = (c for c in check_bialgebra(bad).checks if c.name.endswith("(I)"))
    assert law_one.counterexample == {"row": 1, "col": 5, "lhs": 0, "rhs": 3}


def test_law_one_peaks_at_a_few_d4_arrays():
    # law (I) holds its operands, two d^4 intermediates, their reordered
    # and float64 copies and the result; a single d^5 array would already
    # be 12 of these at d = 12.  The regular comodule algebra runs the same
    # law through its own checker.
    (_, a), = build_instance("group-algebra", 5, 12).roles_of("bimonoid")
    (_, b), = build_instance("regular-comodule", 5, 12).roles_of("comodule-algebra")
    d4_bytes = 8 * a.dim**4
    for law_one_holds in (
        lambda: structures._law_one_rhs(a.delta, a.m, a.m) == a.delta @ a.m,
        lambda: check_comodule_algebra(b).ok,
    ):
        tracemalloc.start()
        try:
            holds = law_one_holds()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert holds
        assert peak <= 10 * d4_bytes, (peak, d4_bytes)


# ---------------------------------------------------------------------------
# comodule algebras
# ---------------------------------------------------------------------------

def test_regular_comodule_algebra_passes():
    inst = corpus_instance("regular_comodule_f3")
    (_, b), = inst.roles_of("comodule-algebra")
    assert check_comodule_algebra(b).ok


def test_trivial_coaction_comodule_algebra_passes():
    inst = corpus_instance("trivial_coaction_f3")
    (_, b), = inst.roles_of("comodule-algebra")
    assert check_comodule_algebra(b).ok


def test_zero_coaction_fails_counit():
    a = corpus_bimonoid("kz2_f3")
    b = ComoduleAlgebraData(a.monoid, a, FpMatrix(3, np.zeros((4, 2), dtype=np.int64)))
    rep = check_comodule_algebra(b)
    assert not rep.ok
    assert verdicts(rep)["coaction counit"] is False


@given(random_comodule_algebras())
def test_comodule_algebra_matches_oracle_on_random_structure_constants(b):
    assert verdicts(check_comodule_algebra(b)) == oracle_comodule_algebra(b)


@given(mutated_comodule_fixtures())
def test_comodule_algebra_matches_oracle_on_mutated_fixtures(b):
    assert verdicts(check_comodule_algebra(b)) == oracle_comodule_algebra(b)


# ---------------------------------------------------------------------------
# module comonoids
# ---------------------------------------------------------------------------

def test_module_comonoid_trivial_coalgebra_is_base():
    a = corpus_bimonoid("kz2_f3")
    z = module_comonoid_of_coalgebra(a, trivial_comonoid(3))
    assert z.dim == a.dim
    assert z.deltaZ == a.delta and z.epsZ == a.eps
    assert check_module_comonoid(z, a).ok


def test_module_comonoid_trivial_base_is_coalgebra():
    one = identity(3, 1)
    a = BimonoidData(MonoidData(1, one, one), ComonoidData(1, one, one))
    c = corpus_bimonoid("kz2_f3").comonoid
    z = module_comonoid_of_coalgebra(a, c)
    assert z.dim == c.dim
    assert z.deltaZ == c.delta and z.epsZ == c.eps


def test_module_comonoid_four_dim_derived():
    a = corpus_bimonoid("m2_f2")
    z = module_comonoid_of_coalgebra(a, a.comonoid)
    assert z.dim == 4
    assert check_module_comonoid(z, a).ok


@pytest.mark.parametrize("name", BIMONOID_FIXTURES)
def test_module_comonoid_self_consistent_on_corpus(name):
    a = corpus_bimonoid(name)
    for c in (trivial_comonoid(a.p), a.comonoid):
        z = module_comonoid_of_coalgebra(a, c)
        assert check_module_comonoid(z, a).ok


def test_module_comonoid_mutated_action_counterexamples_are_pinned():
    # recorded before the module axioms were merged from check_module and the
    # colax map was applied leg by leg: both routes print the same report
    a = corpus_bimonoid("sweedler_f5")
    z = module_comonoid_of_coalgebra(a, a.comonoid)
    bad = ModuleComonoidData(z.dim, flip_entry(z.sigma, 1, 5, (z.sigma.entry(1, 5) + 1) % 5), z.deltaZ, z.epsZ)
    got = [(c.name, c.counterexample) for c in check_module_comonoid(bad, a).checks]
    assert got == [
        ("action associativity", {"row": 1, "col": 5, "lhs": 2, "rhs": 1}),
        ("action unit", {"row": 1, "col": 5, "lhs": 1, "rhs": 0}),
        ("comonoid coassociativity", None),
        ("comonoid left counit", None),
        ("comonoid right counit", None),
        ("comultiplication is a module morphism", {"row": 21, "col": 5, "lhs": 0, "rhs": 1}),
        ("counit is a module morphism", {"row": 0, "col": 5, "lhs": 2, "rhs": 1}),
    ]


@given(module_comonoids(mutate=False))
def test_module_comonoid_matches_oracle_on_built_module_comonoids(za):
    z, a = za
    assert verdicts(check_module_comonoid(z, a)) == oracle_module_comonoid(z, a)


@given(module_comonoids(mutate=True))
def test_module_comonoid_matches_oracle_on_mutated_module_comonoids(za):
    z, a = za
    assert verdicts(check_module_comonoid(z, a)) == oracle_module_comonoid(z, a)


def test_module_comonoid_precondition():
    a = corpus_bimonoid("kz2_f3")
    broken = BimonoidData(a.monoid, ComonoidData(2, a.delta, flip_entry(a.eps, 0, 0, 0)))
    with pytest.raises(PreconditionError):
        module_comonoid_of_coalgebra(broken, trivial_comonoid(3))

