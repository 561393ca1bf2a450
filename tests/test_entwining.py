import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entwine.exactalg import FpMatrix, identity, kron, swap_matrix
from entwine.instances import build_instance
from entwine.report import PreconditionError, UnsupportedError
from entwine.structures import (
    BimonoidData,
    ComonoidData,
    ModuleData,
    MonoidData,
    check_module,
    regular_right_module,
)
from entwine.entwining import (
    EntwiningData,
    check_entwining,
    entwining_from_bimonoid,
    entwining_from_comodule_monad,
    lift_comonad,
    lift_report,
    rebuild_base_map,
)

from conftest import (
    BIMONOID_FIXTURES,
    SWEEP_PRIMES,
    corpus_bimonoid,
    corpus_instance,
    mutate_one,
    mutated_fixtures,
    proved,
    random_structure_constants,
    unequal_entwinings,
)
from oracles import oracle_entwining, oracle_lambda0, oracle_lift_legs, oracle_lifted_action, oracle_module


def verdicts(report):
    return {c.name: c.passed for c in report.checks}


def perturb(ed: EntwiningData, i: int, j: int, value: int) -> EntwiningData:
    a = np.array(ed.lambda0.a)
    a[i, j] = value
    return EntwiningData(ed.monoid, ed.comonoid, FpMatrix(ed.p, a), ed.side)


# ---------------------------------------------------------------------------
# axioms of derived entwinings
# ---------------------------------------------------------------------------

def test_one_dim_swap_passes_trivially():
    one = identity(5, 1)
    ed = EntwiningData(MonoidData(1, one, one), ComonoidData(1, one, one), one)
    assert check_entwining(ed).ok


def test_group_algebra_entwining_frozen():
    # hand expansion of the group-like comultiplication: with basis (u, g),
    # c(x)u |-> u(x)c and c(x)g |-> g(x)cg, a permutation on the four pairs
    ed = entwining_from_bimonoid(corpus_bimonoid("kz2_f3"))
    want = np.zeros((4, 4), dtype=np.int64)
    want[0, 0] = 1  # (u,u) -> (u,u)
    want[3, 1] = 1  # (u,g) -> (g,g)
    want[1, 2] = 1  # (g,u) -> (u,g)
    want[2, 3] = 1  # (g,g) -> (g,u)
    assert ed.lambda0 == FpMatrix(3, want)
    assert check_entwining(ed).ok


def test_idempotent_monoid_entwining_collapses():
    # delta(z) = z(x)z and z.z = z force c(x)z |-> z(x)cz
    ed = entwining_from_bimonoid(corpus_bimonoid("m2_f2"))
    want = np.zeros((4, 4), dtype=np.int64)
    want[0, 0] = 1  # (u,u) -> (u,u)
    want[3, 1] = 1  # (u,z) -> (z, uz) = (z,z)
    want[1, 2] = 1  # (z,u) -> (u,z)
    want[3, 3] = 1  # (z,z) -> (z, zz) = (z,z)
    assert ed.lambda0 == FpMatrix(2, want)
    assert check_entwining(ed).ok


@pytest.mark.parametrize("name", BIMONOID_FIXTURES)
def test_derived_entwining_passes_and_matches_oracle(name):
    ed = entwining_from_bimonoid(corpus_bimonoid(name))
    rep = check_entwining(ed)
    assert rep.ok
    assert verdicts(rep) == oracle_entwining(ed)


@given(random_structure_constants(SWEEP_PRIMES))
def test_canonical_entwining_matches_oracle_on_random_structure_constants(a):
    assert entwining_from_bimonoid(proved(a)).lambda0 == FpMatrix(a.p, oracle_lambda0(a))


@given(mutated_fixtures())
def test_canonical_entwining_matches_oracle_on_mutated_fixtures(a):
    assert entwining_from_bimonoid(proved(a)).lambda0 == FpMatrix(a.p, oracle_lambda0(a))


@given(unequal_entwinings())
def test_entwining_matches_oracle_with_unequal_dims(ed):
    assert verdicts(check_entwining(ed)) == oracle_entwining(ed)
    if ed.side == "right":
        _assert_lift_matches_oracle(ed, regular_right_module(ed.monoid))
        _assert_legs_match_oracle(ed, regular_right_module(ed.monoid))


def test_entwining_peaks_at_a_few_d5_arrays():
    # each of the larger axioms has d^5 entries for a bimonoid's own
    # entwining; the side through lambda0 twice is built before the other
    # and dropped after, so at most three such arrays are alive at once
    # (3.1 d^5 measured at d = 10; 4.1 when each axiom held an
    # identity-padded Kronecker tower)
    (_, a), = build_instance("group-algebra", 5, 10).roles_of("bimonoid")
    ed = entwining_from_bimonoid(a)
    tracemalloc.start()
    try:
        holds = check_entwining(ed).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holds
    assert peak <= 3.5 * 8 * a.dim**5, (peak, 8 * a.dim**5)


def test_every_single_entry_perturbation_fails():
    # exhaustive over all 16 positions and both nontrivial shifts mod 3
    ed = entwining_from_bimonoid(corpus_bimonoid("kz2_f3"))
    for i in range(4):
        for j in range(4):
            for value in range(3):
                if value == ed.lambda0.entry(i, j):
                    continue
                bad = perturb(ed, i, j, value)
                rep = check_entwining(bad)
                assert not rep.ok
                assert verdicts(rep) == oracle_entwining(bad)


def test_precondition_rejects_non_bialgebra():
    a = corpus_bimonoid("kz2_f3")
    eps = np.array(a.eps.a)
    eps[0, 1] = 2
    broken = BimonoidData(a.monoid, ComonoidData(2, a.delta, FpMatrix(3, eps)))
    with pytest.raises(PreconditionError):
        entwining_from_bimonoid(broken)


# ---------------------------------------------------------------------------
# comodule-monad entwinings (left side)
# ---------------------------------------------------------------------------

def test_trivial_algebra_gives_identity_reindex():
    inst = corpus_instance("trivial_coaction_f3")
    (_, b), = inst.roles_of("comodule-algebra")
    (_, c), = inst.roles_of("comonoid")
    ed = entwining_from_comodule_monad(b, c)
    assert ed.side == "left"
    assert ed.lambda0.is_identity()
    assert check_entwining(ed).ok


def test_regular_comodule_matches_bimonoid_entwining():
    # B = A = F_3[Z/2] is commutative and cocommutative, so the left base map
    # agrees with the right one after conjugating by the leg swap
    inst = corpus_instance("regular_comodule_f3")
    (_, b), = inst.roles_of("comodule-algebra")
    (_, c), = inst.roles_of("comonoid")
    (_, a), = inst.roles_of("bimonoid")
    left = entwining_from_comodule_monad(b, c)
    rep = check_entwining(left)
    assert rep.ok
    assert verdicts(rep) == oracle_entwining(left)
    right = entwining_from_bimonoid(a)
    sw = swap_matrix(3, 2, 2)
    assert (sw @ left.lambda0 @ sw) == right.lambda0


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def test_lift_trivial_comonoid_is_identity():
    a = corpus_bimonoid("kz2_f3")
    one = identity(3, 1)
    ed = EntwiningData(a.monoid, ComonoidData(1, one, one), identity(3, 2))
    lifted = lift_comonad(ed, regular_right_module(a.monoid))
    assert lifted.dim == a.dim
    assert lifted.action == a.m


def test_lift_group_algebra_brute_force():
    a = corpus_bimonoid("kz2_f3")
    ed = entwining_from_bimonoid(a)
    x = regular_right_module(a.monoid)
    lifted = lift_comonad(ed, x)
    assert check_module(lifted, a.monoid).ok
    assert lifted.action == FpMatrix(3, oracle_lifted_action(ed, x))


def _assert_lift_matches_oracle(ed: EntwiningData, x: ModuleData) -> None:
    if all(oracle_module(x, ed.monoid).values()):
        assert lift_comonad(ed, x).action == FpMatrix(ed.p, oracle_lifted_action(ed, x))
    else:
        with pytest.raises(PreconditionError):
            lift_comonad(ed, x)


@given(random_structure_constants())
def test_lift_matches_oracle_on_random_structure_constants(a):
    _assert_lift_matches_oracle(entwining_from_bimonoid(proved(a)), regular_right_module(a.monoid))


@given(mutated_fixtures())
def test_lift_matches_oracle_on_mutated_fixtures(a):
    _assert_lift_matches_oracle(entwining_from_bimonoid(proved(a)), regular_right_module(a.monoid))


@pytest.mark.parametrize("name", BIMONOID_FIXTURES)
def test_lift_legs_are_module_morphisms(name):
    a = corpus_bimonoid(name)
    ed = entwining_from_bimonoid(a)
    rep = lift_report(ed, regular_right_module(a.monoid))
    assert rep.ok


LEG_ROWS = ("counit leg is a module morphism", "comultiplication leg is a module morphism")


@st.composite
def mutated_derived_entwinings(draw) -> EntwiningData:
    """A corpus bimonoid's own entwining with one entry of lambda0 or of the
    comonoid's delta changed."""
    ed = entwining_from_bimonoid(corpus_bimonoid(draw(st.sampled_from(BIMONOID_FIXTURES))))
    maps = mutate_one(draw, {"lambda0": ed.lambda0.a, "delta": ed.comonoid.delta.a}, ed.p)
    comonoid = ComonoidData(ed.comonoid.dim, FpMatrix(ed.p, maps["delta"]), ed.comonoid.eps)
    return EntwiningData(ed.monoid, comonoid, FpMatrix(ed.p, maps["lambda0"]))


def _assert_legs_match_oracle(ed: EntwiningData, x: ModuleData) -> None:
    if not all(oracle_module(x, ed.monoid).values()):
        with pytest.raises(PreconditionError):
            lift_report(ed, x)
        return
    got = verdicts(lift_report(ed, x))
    assert {name: got[name] for name in LEG_ROWS} == oracle_lift_legs(ed, x)


@given(mutated_derived_entwinings())
def test_lift_legs_match_oracle_on_mutated_entwinings(ed):
    _assert_legs_match_oracle(ed, regular_right_module(ed.monoid))


def test_lift_report_of_a_lift_that_is_not_a_module():
    # the comultiplication leg once lifted the lift again, whose module
    # precondition raised PreconditionError for these lambda0; the report
    # now carries the failing lifted rows instead
    a = corpus_bimonoid("kz2_f3")
    ed = entwining_from_bimonoid(a)
    x = regular_right_module(a.monoid)
    not_modules = 0
    for i, j, v in itertools.product(range(4), range(4), range(3)):
        if v != ed.lambda0.entry(i, j):
            bad = perturb(ed, i, j, v)
            rep = verdicts(lift_report(bad, x))
            lifted = verdicts(check_module(lift_comonad(bad, x), a.monoid))
            assert {name: rep["lifted " + name] for name in lifted} == lifted
            not_modules += not all(lifted.values())
    assert not_modules == 32


def test_lift_report_peaks_below_the_lift_of_the_lift():
    # each leg's sides have dX*dC^2 x dX*dC*dA entries (d^6 for a bimonoid's
    # own entwining); the lift of the lift, with d^7, is never built (3.3 d^6
    # measured at d = 8; 18.1 when it was)
    (_, a), = build_instance("group-algebra", 5, 8).roles_of("bimonoid")
    ed = entwining_from_bimonoid(a)
    tracemalloc.start()
    try:
        holds = lift_report(ed, regular_right_module(a.monoid)).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holds
    assert peak <= 4 * 8 * a.dim**6, (peak, 8 * a.dim**6)


def test_lift_rejects_non_module():
    a = corpus_bimonoid("kz2_f3")
    ed = entwining_from_bimonoid(a)
    bad = ModuleData(2, FpMatrix(3, np.zeros((2, 4), dtype=np.int64)), "right")
    with pytest.raises(PreconditionError):
        lift_comonad(ed, bad)


def test_broken_multiplication_axiom_breaks_lifted_associativity():
    # witness search: scan single-entry perturbations of the corpus entwining
    # until one violates the multiplication axiom, then observe the lifted
    # regular module fail associativity
    a = corpus_bimonoid("kz2_f3")
    ed = entwining_from_bimonoid(a)
    x = regular_right_module(a.monoid)
    found = False
    for i in range(4):
        for j in range(4):
            for v in range(3):
                if v == ed.lambda0.entry(i, j):
                    continue
                bad = perturb(ed, i, j, v)
                rep = check_entwining(bad)
                if verdicts(rep)["multiplication"]:
                    continue
                lifted = lift_comonad(bad, x)
                if not check_module(lifted, a.monoid).ok:
                    found = True
                    break
            if found:
                break
        if found:
            break
    assert found


# ---------------------------------------------------------------------------
# round trip and representability
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BIMONOID_FIXTURES)
def test_rebuild_base_map_round_trip(name):
    ed = entwining_from_bimonoid(corpus_bimonoid(name))
    assert rebuild_base_map(ed) == ed.lambda0


def test_rebuild_rejects_left_side():
    inst = corpus_instance("regular_comodule_f3")
    (_, b), = inst.roles_of("comodule-algebra")
    (_, c), = inst.roles_of("comonoid")
    ed = entwining_from_comodule_monad(b, c)
    with pytest.raises(UnsupportedError):
        rebuild_base_map(ed)


def test_component_naturality_by_representability():
    # components I_X (x) lambda0 commute with f (x) I for arbitrary linear f
    ed = entwining_from_bimonoid(corpus_bimonoid("kz3_f2"))
    n = ed.lambda0.rows
    rng = np.random.default_rng(11)
    for dx in (1, 2, 3):
        for dy in (1, 2, 3):
            f = FpMatrix(2, rng.integers(0, 2, size=(dy, dx)))
            lhs = kron(f, identity(2, n)) @ kron(identity(2, dx), ed.lambda0)
            rhs = kron(identity(2, dy), ed.lambda0) @ kron(f, identity(2, n))
            assert lhs == rhs
