import dataclasses
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwine import duoidal
from entwine.exactalg import FpMatrix, ShapeError, identity, permute_legs, swap_matrix, zeros
from entwine.report import UnsupportedError
from entwine.structures import BimonoidData, ComonoidData, _middle_transposition
from entwine.hopfmod import galois_map_beta
from entwine.duoidal import (
    DuoidalCtx,
    braided_duoidal,
    check_bimonoid,
    check_duoidal,
    galois_map_Kprime,
    tau_splitting,
)

from conftest import (
    BIMONOID_FIXTURES,
    SWEEP_PRIMES,
    corpus_bimonoid,
    mutated_fixtures,
    proved,
    random_structure_constants,
)
from oracles import oracle_beta_prime, oracle_duoidal


def verdicts(report):
    return {c.name: c.passed for c in report.checks}


# ---------------------------------------------------------------------------
# the braided context
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", (2, 3, 5))
def test_braided_context_coherent(p):
    assert check_duoidal(braided_duoidal(p), probe_dims=(1, 2)).ok


def test_braided_rejects_composite_modulus():
    with pytest.raises(UnsupportedError):
        braided_duoidal(6)


def test_zeta_on_1221_is_the_transposition():
    ctx = braided_duoidal(3)
    assert ctx.zeta(identity(3, 4), 1, 2, 2, 1) == swap_matrix(3, 2, 2)


def test_zeta_on_1111_is_identity():
    ctx = braided_duoidal(3)
    assert ctx.zeta(identity(3, 1), 1, 1, 1, 1).is_identity()


def test_zeroed_mu_fails_monoid_axioms():
    base = braided_duoidal(3)
    ctx = DuoidalCtx(
        "broken", 3, 1, 1, base.zeta, base.Delta, zeros(3, 1, 1), base.tau
    )
    rep = check_duoidal(ctx)
    v = verdicts(rep)
    assert v["(J, mu, tau) left unit"] is False
    assert v["interchange unit squares"] is False
    (square,) = (c for c in rep.checks if c.name == "interchange unit squares")
    assert square.note == "mu right unit square at dims (1, 1)"


def test_identity_zeta_fails_naturality():
    base = braided_duoidal(3)

    def broken_zeta(x, dw, dx, dy, dz):
        if (dw, dx, dy, dz) == (1, 2, 2, 1):
            return x
        return base.zeta(x, dw, dx, dy, dz)

    ctx = DuoidalCtx("broken", 3, 1, 1, broken_zeta, base.Delta, base.mu, base.tau)
    rep = check_duoidal(ctx, probe_dims=(1, 2))
    assert verdicts(rep)["interchange naturality on probe maps"] is False


def test_identity_zeta_note_names_first_failing_slot():
    # the identity W(x)X(x)Y(x)Z -> W(x)Y(x)X(x)Z is the interchange while X
    # or Y is a line; at (1, 2, 2, 1) it commutes with maps on W but not on X
    base = braided_duoidal(3)
    ctx = dataclasses.replace(base, tag="identity", zeta=lambda x, *legs: x)
    (nat,) = (c for c in check_duoidal(ctx).checks if c.name.startswith("interchange nat"))
    assert not nat.passed and nat.note == "dims (1, 2, 2, 1), slot 1"


@pytest.mark.parametrize("probe_dims", ((), (0,), (1, 0), (2, -1)))
def test_vacuous_probe_dims_rejected(probe_dims):
    # with no positive probe dimension every interchange flag would pass,
    # even for a zeta that is not natural
    with pytest.raises(ShapeError):
        check_duoidal(braided_duoidal(3), probe_dims=probe_dims)


def counted_calls(monkeypatch, name):
    """Record the calls duoidal makes to its module-level name."""
    calls = []
    f = getattr(duoidal, name)

    def counted(*args):
        calls.append(args)
        return f(*args)

    monkeypatch.setattr(duoidal, name, counted)
    return calls


def test_zeta_components_read_once_per_call(monkeypatch):
    # 64 distinct components, each read once: 16 for naturality (the mu
    # unit squares reuse them) and 48 more for the nestings; plus 8 actions
    # on the Delta unit squares.  Every component is natural, so no nesting
    # is composed densely
    base = braided_duoidal(5)
    calls = []

    def counted(x, *legs):
        calls.append(legs)
        return base.zeta(x, *legs)

    contracts = counted_calls(monkeypatch, "contract")
    assert check_duoidal(dataclasses.replace(base, zeta=counted), probe_dims=(1, 2)).ok
    assert len(calls) == 72
    assert contracts == []


def test_nestings_build_no_kronecker_products(monkeypatch):
    # 4 per pair of unit-square dims; the unit-structure rows are
    # check_monoid's and check_comonoid's contractions, and each nesting of
    # natural components is decided by its scalars, with no route composed
    krons = counted_calls(monkeypatch, "kron")
    contracts = counted_calls(monkeypatch, "contract")
    for probe_dims in ((1, 2), (1, 2, 3)):
        krons.clear()
        assert check_duoidal(braided_duoidal(5), probe_dims=probe_dims).ok
        assert len(krons) <= 4 * len(probe_dims) ** 2
    assert contracts == []


def test_wrong_shaped_nesting_component_refused_under_its_legs():
    # (4, 2, 1, 2) is read only by the first-product nesting at (1, 2)
    base = braided_duoidal(3)

    def zeta(x, *legs):
        z = base.zeta(x, *legs)
        return FpMatrix(3, z.a[:, :-1]) if legs == (4, 2, 1, 2) else z

    ctx = dataclasses.replace(base, tag="short", zeta=zeta)
    with pytest.raises(ShapeError, match=r"^zeta at dims \(4, 2, 1, 2\): expected \(16, 16\), got \(16, 15\)$"):
        check_duoidal(ctx, probe_dims=(1, 2))


def leg_reorder(p, legs):
    """R: W(x)X(x)Y(x)Z -> W(x)Y(x)X(x)Z at legs, densely."""
    return permute_legs(identity(p, prod(legs)), legs, (0, 2, 1, 3))


@st.composite
def zeta_components(draw):
    """(p, legs, z, c): a candidate zeta component z at legs from {1, 2, 3}^4,
    and c when z was built as c*R (else None): c*R with c in F_p, c*R with
    one entry changed, the identity, another leg permutation, or random
    entries."""
    p = draw(st.sampled_from(SWEEP_PRIMES))
    legs = tuple(draw(st.lists(st.integers(1, 3), min_size=4, max_size=4)))
    n = prod(legs)
    kind = draw(st.sampled_from(("scalar", "entry", "identity", "permutation", "random")))
    c = draw(st.integers(0, p - 1))
    if kind in ("scalar", "entry"):
        z = c * np.array(leg_reorder(p, legs).a)
        if kind == "entry":
            z.flat[draw(st.integers(0, n * n - 1))] += draw(st.integers(1, p - 1))
            c = None
    elif kind == "identity":
        z, c = np.eye(n, dtype=np.int64), None
    elif kind == "permutation":
        perm = draw(st.permutations(range(4)).filter(lambda q: tuple(q) != (0, 2, 1, 3)))
        z, c = np.array(permute_legs(identity(p, n), legs, perm).a), None
    else:
        z, c = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, p, (n, n)), None
    return p, legs, FpMatrix(p, z), c


@given(zeta_components())
def test_scalar_classifier_is_naturality_in_all_four_slots(case):
    p, legs, z, c = case
    natural = all(duoidal._natural_in(z, legs, slot) for slot in range(4))
    got = duoidal._scalar_of(z, legs)
    assert (got is not None) == natural
    if c is not None:
        assert got == c
    if natural:
        assert got == z.entry(0, 0) and z == FpMatrix(p, got * leg_reorder(p, legs).a)


def read_legs(draw, probe):
    """Legs that check_duoidal reads at probe: a probe tuple, or the outer
    component of a nesting, whose legs may be products of two probe dims."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(st.sampled_from(probe), min_size=4, max_size=4)))
    du, dv, dw, dx, dy, dz = draw(st.lists(st.sampled_from(probe), min_size=6, max_size=6))
    return draw(st.sampled_from((
        (du * dw, dv * dx, dy, dz),
        (du, dv, dw * dy, dx * dz),
        (du, dv * dw, dx, dy * dz),
        (du * dv, dw, dx * dy, dz),
    )))


@st.composite
def faulty_contexts(draw, probes):
    """A braided context with one fault, and probe dimensions from probes:
    zeta replaced at one tuple it reads, a probe tuple or a nesting's outer
    legs (by the identity, a scalar multiple or one mutated entry), zeta
    shuffling the wrong legs, or Delta, mu or tau scaled (0 zeroes it)."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    probe = draw(st.sampled_from(probes))
    base = braided_duoidal(p)
    kind = draw(st.sampled_from(("component", "legs", "structure")))
    if kind == "component":
        at = read_legs(draw, probe)
        z = np.array(base.zeta(identity(p, prod(at)), *at).a)
        how = draw(st.sampled_from(("identity", "scalar", "entry")))
        if how == "identity":
            z = np.eye(len(z), dtype=np.int64)
        elif how == "scalar":
            z *= draw(st.integers(0, p - 1))
        else:
            k = draw(st.integers(0, z.size - 1))
            z.flat[k] += draw(st.integers(1, p - 1))
        fault = FpMatrix(p, z)

        def zeta(x, *legs):
            return fault @ x if legs == at else base.zeta(x, *legs)

        return dataclasses.replace(base, tag=f"{how} at {at}", zeta=zeta), probe
    if kind == "legs":
        perm = tuple(draw(st.permutations(range(4))))

        def zeta(x, *legs):
            return permute_legs(x, legs, perm)

        return dataclasses.replace(base, tag=f"legs {perm}", zeta=zeta), probe
    name = draw(st.sampled_from(("Delta", "mu", "tau")))
    c = draw(st.integers(0, p - 1))
    scaled = FpMatrix(p, c * getattr(base, name).a)
    return dataclasses.replace(base, tag=f"{c} {name}", **{name: scaled}), probe


def assert_rows_match_oracle(ctx, probe):
    def rows(report):
        return [(c.name, c.verdict, c.note, c.counterexample) for c in report.checks]

    assert rows(check_duoidal(ctx, probe)) == rows(oracle_duoidal(ctx, probe))


@given(faulty_contexts(((1, 2), (2,))))
def test_check_duoidal_matches_probe_map_oracle(case):
    assert_rows_match_oracle(*case)


# a passing (1, 2, 3) probe takes the oracle about 2 s, so this sweep draws
# fewer examples than the profile's default
@settings(max_examples=5)
@given(faulty_contexts(((1, 2, 3),)))
def test_check_duoidal_matches_probe_map_oracle_at_three_dims(case):
    assert_rows_match_oracle(*case)


@st.composite
def scalar_contexts(draw, probes):
    """A braided context whose zeta is scaled per legs tuple, c(legs) * the
    middle transposition, so every component is natural and every nesting
    is decided by its scalars: one scalar throughout (the nestings hold,
    and the unit squares hold only for 1), a nonzero scalar but another at
    one tuple read (the nestings through it fail), or a scalar drawn for
    each tuple as it is read (0 included)."""
    p = draw(st.sampled_from(SWEEP_PRIMES))
    probe = draw(st.sampled_from(probes))
    base = braided_duoidal(p)
    how = draw(st.sampled_from(("constant", "one other", "per legs")))
    k = draw(st.integers(how == "one other", p - 1))
    scalars = {}
    if how == "one other":
        scalars[read_legs(draw, probe)] = (k + draw(st.integers(1, p - 1))) % p
    data = draw(st.data()) if how == "per legs" else None

    def zeta(x, *legs):
        if legs not in scalars:
            scalars[legs] = k if data is None else data.draw(st.integers(0, p - 1))
        return FpMatrix(p, scalars[legs] * base.zeta(x, *legs).a)

    return dataclasses.replace(base, tag=f"{how} scalars", zeta=zeta), probe


@given(scalar_contexts(((1, 2), (2,))))
def test_check_duoidal_matches_oracle_on_scalar_contexts(case):
    assert_rows_match_oracle(*case)


# as above, the (1, 2, 3) oracle's cost bounds the examples
@settings(max_examples=5)
@given(scalar_contexts(((1, 2, 3),)))
def test_check_duoidal_matches_oracle_on_scalar_contexts_at_three_dims(case):
    assert_rows_match_oracle(*case)


# ---------------------------------------------------------------------------
# bimonoid diagrams through the context
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BIMONOID_FIXTURES)
def test_bimonoid_diagrams_pass_on_corpus(name):
    a = corpus_bimonoid(name)
    assert check_bimonoid(a, braided_duoidal(a.p)).ok


def test_bimonoid_diagrams_refuse_another_interchange():
    # a wrapper acts as the middle transposition but is not it: law (I) is
    # computed for the middle transposition alone, so the context is refused
    # rather than checked as if it were the symmetric one
    wrapped = dataclasses.replace(
        braided_duoidal(3), tag="wrapped", zeta=lambda x, *dims: _middle_transposition(x, *dims)
    )
    with pytest.raises(UnsupportedError, match="'wrapped'"):
        check_bimonoid(corpus_bimonoid("kz2_f3"), wrapped)


def test_zeroed_counit_breaks_diagram_two():
    # eps(g) = 0 over F_3 kills multiplicativity at g.g: eps(u) = 1 != 0
    a = corpus_bimonoid("kz2_f3")
    eps = np.array(a.eps.a)
    eps[0, 1] = 0
    broken = BimonoidData(a.monoid, ComonoidData(2, a.delta, FpMatrix(3, eps)))
    rep = check_bimonoid(broken, braided_duoidal(3))
    v = verdicts(rep)
    assert v["counit is multiplicative (II)"] is False


def test_sign_character_counit_breaks_comonoid_not_diagram_two():
    # eps(g) = 2 = -1 over F_3 stays multiplicative (it is the sign
    # character), so diagram (II) survives; the comonoid counit axiom is
    # what rules the instance out
    from entwine.structures import check_comonoid

    a = corpus_bimonoid("kz2_f3")
    eps = np.array(a.eps.a)
    eps[0, 1] = 2
    broken_com = ComonoidData(2, a.delta, FpMatrix(3, eps))
    broken = BimonoidData(a.monoid, broken_com)
    v = verdicts(check_bimonoid(broken, braided_duoidal(3)))
    assert v["counit is multiplicative (II)"] is True
    assert not check_comonoid(broken_com).ok


@pytest.mark.parametrize("name", BIMONOID_FIXTURES)
def test_diagram_four_equals_direct_test(name):
    a = corpus_bimonoid(name)
    ctx = braided_duoidal(a.p)
    v = verdicts(check_bimonoid(a, ctx))
    assert v["counit of unit (IV)"] == (a.eps @ a.e == ctx.tau)


# ---------------------------------------------------------------------------
# tau splitting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", (2, 3, 5))
def test_braided_tau_splits_both_ways(p):
    out = tau_splitting(braided_duoidal(p))
    assert out["split_mono"] and out["split_epi"]
    assert out["retraction"].is_identity() and out["section"].is_identity()


def test_zero_tau_splits_neither_way():
    base = braided_duoidal(3)
    ctx = DuoidalCtx("broken", 3, 1, 1, base.zeta, base.Delta, base.mu, zeros(3, 1, 1))
    out = tau_splitting(ctx)
    assert not out["split_mono"] and not out["split_epi"]


def unit_embedding_context() -> DuoidalCtx:
    # I one-dimensional, J two-dimensional, tau the unit column
    a = corpus_bimonoid("kz2_f3")
    return DuoidalCtx("hypothetical", 3, 1, 2, braided_duoidal(3).zeta, identity(3, 1), a.m, a.e)


def test_unit_embedding_tau_splits_one_way():
    # a retraction exists but rank 1 < 2 rules out a section
    ctx = unit_embedding_context()
    out = tau_splitting(ctx)
    assert out["split_mono"] and not out["split_epi"]
    assert (out["retraction"] @ ctx.tau).is_identity()


def test_checkers_refuse_units_that_are_not_lines():
    # tau is the unit of J and the counit of I only when both are lines;
    # a two-dimensional J is outside what either checker decides
    ctx = unit_embedding_context()
    with pytest.raises(UnsupportedError, match="duoidal checking is implemented for contexts"):
        check_duoidal(ctx)
    with pytest.raises(UnsupportedError, match="bimonoid checking is implemented for contexts"):
        check_bimonoid(corpus_bimonoid("kz2_f3"), ctx)


# ---------------------------------------------------------------------------
# the dual canonical map
# ---------------------------------------------------------------------------

def test_kprime_trivial():
    g = galois_map_Kprime(corpus_bimonoid("trivial_fp"), braided_duoidal(3))
    assert g.invertible and g.base_map.is_identity()


def test_kprime_group_algebra_frozen():
    # beta'(a (x) b) = a1 (x) a2.b: on basis pairs of F_3[Z/2] the permutation
    # (u,u)->(u,u), (u,g)->(u,g), (g,u)->(g,g), (g,g)->(g,u)
    g = galois_map_Kprime(corpus_bimonoid("kz2_f3"), braided_duoidal(3))
    want = np.zeros((4, 4), dtype=np.int64)
    want[0, 0] = 1
    want[1, 1] = 1
    want[3, 2] = 1
    want[2, 3] = 1
    assert g.base_map == FpMatrix(3, want)
    assert g.invertible


def test_kprime_idempotent_monoid_rank_three():
    g = galois_map_Kprime(corpus_bimonoid("m2_f2"), braided_duoidal(2))
    assert not g.invertible and g.rank == 3


@pytest.mark.parametrize("name", BIMONOID_FIXTURES)
def test_kprime_matches_basis_pair_oracle(name):
    a = corpus_bimonoid(name)
    g = galois_map_Kprime(a, braided_duoidal(a.p))
    assert g.base_map == FpMatrix(a.p, oracle_beta_prime(a))


@given(random_structure_constants(SWEEP_PRIMES))
def test_kprime_matches_oracle_on_random_structure_constants(a):
    g = galois_map_Kprime(proved(a), braided_duoidal(a.p))
    assert g.base_map == FpMatrix(a.p, oracle_beta_prime(a))


@given(mutated_fixtures())
def test_kprime_matches_oracle_on_mutated_fixtures(a):
    g = galois_map_Kprime(proved(a), braided_duoidal(a.p))
    assert g.base_map == FpMatrix(a.p, oracle_beta_prime(a))


@pytest.mark.parametrize("name", BIMONOID_FIXTURES)
def test_beta_and_beta_prime_agree_on_invertibility(name):
    a = corpus_bimonoid(name)
    g = galois_map_beta(a, want_antipode=False)
    gp = galois_map_Kprime(a, braided_duoidal(a.p))
    assert g.invertible == gp.invertible


def test_kprime_rejects_other_contexts():
    base = braided_duoidal(3)
    other = DuoidalCtx("custom", 3, 1, 1, base.zeta, base.Delta, base.mu, base.tau)
    with pytest.raises(UnsupportedError):
        galois_map_Kprime(corpus_bimonoid("kz2_f3"), other)

