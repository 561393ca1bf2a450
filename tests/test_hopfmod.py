import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entwine import exactalg, hopfmod
from entwine.duoidal import braided_duoidal, galois_map_Kprime
from entwine.exactalg import (
    FpMatrix,
    ShapeError,
    identity,
    inverse,
    kron,
    rank,
    solve,
    swap_matrix,
)
from entwine.instances import instance_from_dict
from entwine.report import PreconditionError, UnsupportedError
from entwine.structures import (
    BimonoidData,
    ComonoidData,
    MonoidData,
    module_comonoid_of_coalgebra,
)
from entwine.entwining import entwining_from_bimonoid
from entwine.hopfmod import (
    GaloisReport,
    HopfModuleData,
    check_hopf_module,
    coinvariants,
    comparison_K,
    find_characters,
    find_group_likes,
    galois_map_beta,
    galois_map_generalized,
    verify_fundamental_theorem,
)

from conftest import (
    BIMONOID_FIXTURES,
    HOPF_FIXTURES,
    SWEEP_PRIMES,
    chain_algebra,
    corpus_bimonoid,
    corpus_instance,
    draw_entries,
    mutated_comodule_fixtures,
    mutated_fixtures,
    proved,
    random_comodule_algebras,
    random_structure_constants,
)
from oracles import oracle_beta, oracle_can, oracle_characters, oracle_group_likes, oracle_pentagon


def regular_module(a: BimonoidData) -> HopfModuleData:
    return HopfModuleData(a.dim, a.m, a.delta)


def verdicts(report):
    return {c.name: c.passed for c in report.checks}


# ---------------------------------------------------------------------------
# Hopf module axioms
# ---------------------------------------------------------------------------

def test_regular_module_is_hopf_module():
    a = corpus_bimonoid("kz2_f3")
    ed = entwining_from_bimonoid(a)
    m = regular_module(a)
    rep = check_hopf_module(m, ed)
    assert rep.ok
    assert oracle_pentagon(m, ed)


def test_trivial_coaction_breaks_pentagon():
    # over F_3[Z/2]: theta(x) = x (x) u is a comodule but the pentagon fails
    # already at g (x) g
    a = corpus_bimonoid("kz2_f3")
    ed = entwining_from_bimonoid(a)
    theta = kron(identity(3, 2), a.e)
    m = HopfModuleData(2, a.m, theta)
    rep = check_hopf_module(m, ed)
    assert not rep.ok
    v = verdicts(rep)
    assert v["compatibility pentagon"] is False
    assert all(v[k] for k in v if k != "compatibility pentagon")
    assert oracle_pentagon(m, ed) is False


def test_zero_dimensional_module_passes_vacuously():
    a = corpus_bimonoid("kz2_f3")
    ed = entwining_from_bimonoid(a)
    m = HopfModuleData(0, FpMatrix(3, np.zeros((0, 0))), FpMatrix(3, np.zeros((0, 0))))
    assert check_hopf_module(m, ed).ok


# ---------------------------------------------------------------------------
# comparison with free modules
# ---------------------------------------------------------------------------

def test_comparison_zero_dim():
    a = corpus_bimonoid("kz2_f3")
    assert comparison_K(0, a).dim == 0


def test_comparison_dim_one_is_regular():
    a = corpus_bimonoid("kz2_f3")
    k = comparison_K(1, a)
    assert k.action == a.m and k.coaction == a.delta


def test_comparison_dim_two_over_idempotent_monoid():
    a = corpus_bimonoid("m2_f2")
    k = comparison_K(2, a)
    assert k.dim == 4
    assert check_hopf_module(k, entwining_from_bimonoid(a)).ok


@pytest.mark.parametrize("name", BIMONOID_FIXTURES)
@pytest.mark.parametrize("dim", (0, 1, 2, 3))
def test_comparison_always_yields_hopf_modules(name, dim):
    a = corpus_bimonoid(name)
    ed = entwining_from_bimonoid(a)
    assert check_hopf_module(comparison_K(dim, a), ed).ok


# ---------------------------------------------------------------------------
# coinvariants
# ---------------------------------------------------------------------------

def test_coinvariants_of_regular_module_is_unit_line():
    a = corpus_bimonoid("kz2_f3")
    inc = coinvariants(regular_module(a), a.e)
    assert inc.cols == 1
    assert inc == a.e


def test_coinvariants_of_free_modules_have_base_dimension():
    for name in HOPF_FIXTURES + ("m2_f2",):
        a = corpus_bimonoid(name)
        for d in (1, 2, 3):
            inc = coinvariants(comparison_K(d, a), a.e)
            assert inc.cols == d


def test_coinvariants_zero_module():
    a = corpus_bimonoid("kz2_f3")
    m = HopfModuleData(0, FpMatrix(3, np.zeros((0, 0))), FpMatrix(3, np.zeros((0, 0))))
    assert coinvariants(m, a.e).cols == 0


@st.composite
def hopf_module_cases(draw, bimonoids):
    """K(F^d), d = 1 or 2, on a drawn bimonoid's constants, as built or with
    one entry of its action or coaction bumped, over the canonical entwining."""
    a = proved(draw(bimonoids))
    mod = comparison_K(draw(st.integers(1, 2)), a)
    side = draw(st.sampled_from(("", "action", "coaction")))
    if side:
        bumped = np.array(getattr(mod, side).a)
        k = draw(st.integers(0, bumped.size - 1))
        bumped.flat[k] = (bumped.flat[k] + draw(st.integers(1, a.p - 1))) % a.p
        mod = dataclasses.replace(mod, **{side: FpMatrix(a.p, bumped)})
    return mod, entwining_from_bimonoid(a)


@given(hopf_module_cases(random_structure_constants(SWEEP_PRIMES)))
def test_pentagon_matches_oracle_on_random_structure_constants(case):
    mod, ed = case
    assert verdicts(check_hopf_module(mod, ed))["compatibility pentagon"] == oracle_pentagon(mod, ed)


@given(hopf_module_cases(mutated_fixtures()))
def test_pentagon_matches_oracle_on_mutated_fixtures(case):
    mod, ed = case
    assert verdicts(check_hopf_module(mod, ed))["compatibility pentagon"] == oracle_pentagon(mod, ed)


# ---------------------------------------------------------------------------
# canonical map beta
# ---------------------------------------------------------------------------

def test_beta_trivial_bimonoid():
    g = galois_map_beta(corpus_bimonoid("trivial_fp"))
    assert g.invertible and g.base_map.is_identity() and g.antipode.is_identity()


def test_beta_group_algebra_frozen():
    # brute force on the four basis pairs: beta is the permutation
    # (u,u)->(u,u), (u,g)->(g,g), (g,u)->(g,u), (g,g)->(u,g)
    g = galois_map_beta(corpus_bimonoid("kz2_f3"))
    want = np.zeros((4, 4), dtype=np.int64)
    want[0, 0] = 1
    want[3, 1] = 1
    want[2, 2] = 1
    want[1, 3] = 1
    assert g.base_map == FpMatrix(3, want)
    assert g.invertible and g.antipode.is_identity() and g.antipode_ok


def test_beta_idempotent_monoid_rank_three():
    g = galois_map_beta(corpus_bimonoid("m2_f2"))
    assert not g.invertible
    assert g.rank == 3 and g.base_map.rows == 4
    assert g.antipode is None and g.inverse is None


@pytest.mark.parametrize("name", BIMONOID_FIXTURES)
def test_beta_matches_basis_pair_oracle(name):
    a = corpus_bimonoid(name)
    g = galois_map_beta(a)
    assert g.base_map == FpMatrix(a.p, oracle_beta(a))


@given(random_structure_constants(SWEEP_PRIMES))
def test_beta_matches_oracle_on_random_structure_constants(a):
    assert galois_map_beta(proved(a)).base_map == FpMatrix(a.p, oracle_beta(a))


@given(mutated_fixtures())
def test_beta_matches_oracle_on_mutated_fixtures(a):
    assert galois_map_beta(proved(a)).base_map == FpMatrix(a.p, oracle_beta(a))


@pytest.mark.parametrize("name", HOPF_FIXTURES)
def test_antipode_is_algebra_antihomomorphism(name):
    a = corpus_bimonoid(name)
    s = galois_map_beta(a).antipode
    sw = swap_matrix(a.p, a.dim, a.dim)
    assert s @ a.m == a.m @ kron(s, s) @ sw
    assert s @ a.e == a.e
    assert a.eps @ s == a.eps


@pytest.mark.parametrize("name", BIMONOID_FIXTURES)
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_beta_invertible_iff_component_invertible(name, dim):
    # representability restatement: the component at any sample object is
    # I_d (x) beta, so invertibility propagates both ways
    a = corpus_bimonoid(name)
    g = galois_map_beta(a, want_antipode=False)
    component = kron(identity(a.p, dim), g.base_map)
    assert (rank(component) == component.rows) == g.invertible


def test_galois_report_invariant_enforced():
    a = corpus_bimonoid("kz2_f3")
    g = galois_map_beta(a)
    with pytest.raises(Exception):
        GaloisReport(g.base_map, g.rank, True, None)
    forged = FpMatrix(a.p, g.inverse.a ^ np.eye(4, dtype=np.int64))
    with pytest.raises(ShapeError, match="inverse witness does not verify"):
        GaloisReport(g.base_map, g.rank, True, forged)


# ---------------------------------------------------------------------------
# generalized canonical map
# ---------------------------------------------------------------------------

def test_generalized_can_regular_matches_beta_up_to_swap():
    inst = corpus_instance("regular_comodule_f3")
    (_, b), = inst.roles_of("comodule-algebra")
    (_, c), = inst.roles_of("comonoid")
    (_, a), = inst.roles_of("bimonoid")
    g = galois_map_generalized(b, c)
    assert g.invertible
    beta = galois_map_beta(a).base_map
    sw = swap_matrix(3, 2, 2)
    assert sw @ g.base_map @ sw == beta


def test_generalized_can_dimension_obstruction():
    inst = corpus_instance("trivial_coaction_f3")
    (_, b), = inst.roles_of("comodule-algebra")
    (_, c), = inst.roles_of("comonoid")
    g = galois_map_generalized(b, c)
    assert not g.invertible
    assert "dimension obstruction" in g.note
    assert g.base_map.shape == (2, 1)


@pytest.mark.parametrize("name", BIMONOID_FIXTURES)
def test_generalized_can_of_regular_coaction_is_beta_prime(name):
    # with B = A, rho = delta and trivial C the generalized map IS the dual
    # canonical map a(x)b |-> a1(x)a2.b, for every bimonoid
    from entwine.duoidal import braided_duoidal, galois_map_Kprime
    from entwine.structures import ComoduleAlgebraData

    a = corpus_bimonoid(name)
    one = identity(a.p, 1)
    b = ComoduleAlgebraData(a.monoid, a, a.delta)
    g = galois_map_generalized(b, ComonoidData(1, one, one))
    assert g.base_map == galois_map_Kprime(a, braided_duoidal(a.p)).base_map
    assert g.invertible == galois_map_beta(a, want_antipode=False).invertible


@st.composite
def can_cases(draw, comodule_algebras):
    """A drawn comodule algebra with a coalgebra of dimension 1 to 3; can
    depends on the coalgebra through its dimension alone."""
    b = draw(comodule_algebras)
    proved(b, b.over)
    p, dc = b.algebra.p, draw(st.integers(1, 3))
    return b, ComonoidData(dc, FpMatrix(p, draw_entries(draw, p, dc * dc, dc)), FpMatrix(p, draw_entries(draw, p, 1, dc)))


@given(can_cases(random_comodule_algebras(SWEEP_PRIMES)))
def test_generalized_can_matches_oracle_on_random_comodule_algebras(case):
    b, c = case
    assert galois_map_generalized(b, c).base_map == FpMatrix(c.p, oracle_can(b, c.dim))


@given(can_cases(mutated_comodule_fixtures()))
def test_generalized_can_matches_oracle_on_mutated_fixtures(case):
    b, c = case
    assert galois_map_generalized(b, c).base_map == FpMatrix(c.p, oracle_can(b, c.dim))


def test_generalized_can_swap_identity_needs_commutativity():
    # the swap conjugation onto beta is special to commutative cocommutative
    # instances; the four-dimensional Hopf algebra separates the two maps
    from entwine.structures import ComoduleAlgebraData

    a = corpus_bimonoid("sweedler_f5")
    one = identity(5, 1)
    g = galois_map_generalized(ComoduleAlgebraData(a.monoid, a, a.delta), ComonoidData(1, one, one))
    sw = swap_matrix(5, 4, 4)
    assert g.invertible
    assert sw @ g.base_map @ sw != galois_map_beta(a).base_map


def test_generalized_can_trivial_everything():
    one = identity(3, 1)
    a = BimonoidData(MonoidData(1, one, one), ComonoidData(1, one, one))
    from entwine.structures import ComoduleAlgebraData

    b = ComoduleAlgebraData(a.monoid, a, one)
    g = galois_map_generalized(b, ComonoidData(1, one, one))
    assert g.invertible and g.base_map.is_identity()


# ---------------------------------------------------------------------------
# characters and group-likes
# ---------------------------------------------------------------------------

def test_characters_and_group_likes_of_group_algebra():
    a = corpus_bimonoid("kz2_f3")
    chars = find_characters(a)
    assert [c.a.tolist() for c in chars] == [[[1, 1]], [[1, 2]]]
    likes = find_group_likes(a.comonoid)
    assert [t.a.tolist() for t in likes] == [[[0], [1]], [[1], [0]]]


def _tuples(found) -> list:
    return [tuple(x.a.ravel().tolist()) for x in found]


def _chain(p, n) -> BimonoidData:
    (_, a), = instance_from_dict(chain_algebra(p, n)).roles_of("bimonoid")
    return a


def _assert_searches_match_oracles(a: BimonoidData) -> None:
    chars, likes = find_characters(a), find_group_likes(a.comonoid)
    assert all(c.shape == (1, a.dim) for c in chars)
    assert all(t.shape == (a.dim, 1) for t in likes)
    assert _tuples(chars) == oracle_characters(a)
    assert _tuples(likes) == oracle_group_likes(a.comonoid)


def test_searches_match_oracles_on_fixtures(bimonoid_fixture):
    _assert_searches_match_oracles(bimonoid_fixture[1])


@given(random_structure_constants())
def test_searches_match_oracles_on_random_structure_constants(a):
    _assert_searches_match_oracles(a)


@given(mutated_fixtures())
def test_searches_match_oracles_on_mutated_fixtures(a):
    _assert_searches_match_oracles(a)


def test_searches_test_candidates_in_blocks(monkeypatch):
    a = _chain(7, 5)  # 7^5 = 16807 candidates per search
    product = exactalg._product
    calls = []

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(exactalg, "_product", counted)
    monkeypatch.setattr(hopfmod, "_product", counted)
    chars, likes = find_characters(a), find_group_likes(a.comonoid)
    assert len(calls) < 100
    # a chain under max: the characters are the indicators of its down-sets,
    # the group-likes its elements
    assert _tuples(chars) == [(1,) * k + (0,) * (5 - k) for k in range(1, 6)]
    assert _tuples(likes) == [tuple(int(i == j) for j in range(5)) for i in reversed(range(5))]


def test_search_over_the_cap_refused_before_any_block(monkeypatch):
    a = _chain(5, 8)  # 5^8 = 390625 candidates, over the cap of 200000

    def no_block(*args, **kwargs):
        raise AssertionError("a candidate block was built")

    with monkeypatch.context() as mp:
        mp.setattr(np, "arange", no_block)
        mp.setattr(hopfmod, "_product", no_block)
        for search, arg in ((find_characters, a), (find_group_likes, a.comonoid)):
            with pytest.raises(UnsupportedError, match=r"5\^8 = 390625 .* 200000"):
                search(arg)


# ---------------------------------------------------------------------------
# fundamental theorem driver
# ---------------------------------------------------------------------------

def test_fundamental_theorem_group_algebra():
    a = corpus_bimonoid("kz2_f3")
    rep = verify_fundamental_theorem(a, (1, 2, 3), extras=[regular_module(a)])
    assert rep.ok and rep.exit_status == 0


def test_fundamental_theorem_trivial():
    a = corpus_bimonoid("trivial_fp")
    rep = verify_fundamental_theorem(a, (1, 2, 3))
    assert rep.ok


def test_fundamental_theorem_non_hopf_witness():
    a = corpus_bimonoid("m2_f2")
    rep = verify_fundamental_theorem(a, (1, 2), extras=[regular_module(a)])
    assert not rep.ok and rep.exit_status == 1
    assert rep.data["witness dim"] == 1
    assert rep.data["witness coinvariant dim"] == 0
    # the witness really is a Hopf module with zero coinvariants
    ed = entwining_from_bimonoid(a)
    witness = HopfModuleData(1, rep.data["witness action"], rep.data["witness coaction"])
    assert check_hopf_module(witness, ed).ok
    assert coinvariants(witness, a.e).cols == 0


def test_fundamental_theorem_spec_witness_also_valid():
    # the explicitly constructed witness: h through the character z |-> 1,
    # theta through the group-like z
    a = corpus_bimonoid("m2_f2")
    ed = entwining_from_bimonoid(a)
    m = HopfModuleData(1, FpMatrix(2, [[1, 1]]), FpMatrix(2, [[0], [1]]))
    assert check_hopf_module(m, ed).ok
    assert coinvariants(m, a.e).cols == 0


def test_fundamental_theorem_precondition():
    a = corpus_bimonoid("kz2_f3")
    eps = np.array(a.eps.a)
    eps[0, 1] = 2
    broken = BimonoidData(a.monoid, ComonoidData(2, a.delta, FpMatrix(3, eps)))
    with pytest.raises(PreconditionError):
        verify_fundamental_theorem(broken)


# K(F^d) = F^d (x) A is d copies of K(F^1); the driver decides the sample
# rows of every d once, on K(F^1)

def _per_d_sample_rows(a, sample_dims):
    """The four sample rows of each d, computed on K(F^d) itself."""
    ed = entwining_from_bimonoid(a)
    rows = []
    for d in sample_dims:
        kx = comparison_K(d, a)
        inc = coinvariants(kx, a.e)
        w = solve(inc, kron(identity(a.p, d), a.e))
        counit = kx.action @ kron(inc, identity(a.p, a.dim))
        rows += [
            (f"K(F^{d}) is a Hopf module", check_hopf_module(kx, ed).ok),
            (f"coinvariants of K(F^{d}) have dimension {d}", inc.cols == d),
            (
                f"unit map of K(F^{d}) is an isomorphism onto the coinvariants",
                w is not None and w.rows == w.cols and inverse(w) is not None,
            ),
            (
                f"counit map of K(F^{d}) is an isomorphism",
                counit.rows == counit.cols and inverse(counit) is not None,
            ),
        ]
    return rows


def _driver_sample_rows(rep):
    return [(c.name, c.passed) for c in rep.checks if "K(F^" in c.name]


def _same_bytes(x, y):
    return x.p == y.p and x.a.dtype == y.a.dtype and x.shape == y.shape and x.a.tobytes() == y.a.tobytes()


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_coinvariants_of_free_hopf_modules_are_additive(bimonoid_fixture, d):
    _, a = bimonoid_fixture
    one = coinvariants(comparison_K(1, a), a.e)
    assert _same_bytes(coinvariants(comparison_K(d, a), a.e), kron(identity(a.p, d), one))


@given(random_structure_constants(), st.integers(0, 3))
def test_coinvariants_additive_on_random_constants(a, d):
    proved(a)
    one = coinvariants(comparison_K(1, a), a.e)
    assert _same_bytes(coinvariants(comparison_K(d, a), a.e), kron(identity(a.p, d), one))


@pytest.mark.parametrize("sample_dims", [(0, 1, 2, 3, 5), (1, 1)])
def test_driver_sample_rows_match_a_per_d_loop(hopf_fixture, sample_dims):
    _, a = hopf_fixture
    rep = verify_fundamental_theorem(a, sample_dims)
    assert _driver_sample_rows(rep) == _per_d_sample_rows(a, sample_dims)
    with pytest.raises(ShapeError, match="nonnegative"):
        verify_fundamental_theorem(a, (1, -1))


@given(random_structure_constants(), st.lists(st.integers(0, 3), max_size=4))
def test_driver_sample_rows_match_a_per_d_loop_on_random_constants(a, sample_dims):
    # most draws with an invertible beta fail some row on K(F^1)
    rep = verify_fundamental_theorem(proved(a), sample_dims)
    want = _per_d_sample_rows(a, sample_dims) if galois_map_beta(a).invertible else []
    assert _driver_sample_rows(rep) == want


def test_driver_builds_and_checks_only_k_f1(monkeypatch):
    a = corpus_bimonoid("sweedler_f5")
    extras = [regular_module(a)] * 2
    built, checked = [], []
    build, check = hopfmod.comparison_K, hopfmod.check_hopf_module
    monkeypatch.setattr(hopfmod, "comparison_K", lambda d, b: built.append(d) or build(d, b))
    monkeypatch.setattr(hopfmod, "check_hopf_module", lambda m, ed: checked.append(m.dim) or check(m, ed))
    for sample_dims in ((), (0,), (1, 2, 3), (0, 1, 2, 3, 5, 1, 1), (16,)):
        built.clear()
        checked.clear()
        assert verify_fundamental_theorem(a, sample_dims, extras).ok
        assert built == [1]
        assert len(checked) == 1 + len(extras)


def test_memo_does_not_vouch_for_a_replaced_object():
    a = corpus_bimonoid("kz2_f3")
    assert a.axioms.ok and galois_map_beta(a).invertible  # a is proved
    m = np.array(a.m.a)
    m[0, 0] = 2
    broken = dataclasses.replace(a, monoid=MonoidData(a.dim, FpMatrix(a.p, m), a.e))
    ctx = braided_duoidal(a.p)
    for build in (
        galois_map_beta,
        entwining_from_bimonoid,
        lambda b: comparison_K(1, b),
        lambda b: galois_map_Kprime(b, ctx),
        lambda b: module_comonoid_of_coalgebra(b, a.comonoid),
    ):
        with pytest.raises(PreconditionError, match="bimonoid fails: associativity"):
            build(broken)
    assert galois_map_beta(a).invertible
