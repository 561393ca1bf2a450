"""Acceptance criteria, one test per criterion.

Everything is exact finite-field arithmetic, so every tolerance is zero:
each criterion asserts entrywise matrix equality, an exact rank, or an exact
exit code.  Each test prints one PASS/FAIL line; brute-force oracles live in
oracles.py and were written before the checkers they validate.
"""

import json

import numpy as np
import pytest

from entwine.cli import main
from entwine.exactalg import FpMatrix, identity, inverse, kron, solve, swap_matrix
from entwine.structures import check_bialgebra, check_comonoid, check_monoid
from entwine.entwining import (
    EntwiningData,
    check_entwining,
    entwining_from_bimonoid,
    rebuild_base_map,
)
from entwine.hopfmod import (
    HopfModuleData,
    check_hopf_module,
    coinvariants,
    comparison_K,
    galois_map_beta,
    galois_map_generalized,
    verify_fundamental_theorem,
)
from entwine.duoidal import braided_duoidal, check_bimonoid, check_duoidal, galois_map_Kprime, tau_splitting
from entwine.instances import fixture_path, load_instance

from conftest import BIMONOID_FIXTURES, HOPF_FIXTURES, corpus_bimonoid, corpus_instance
from oracles import (
    oracle_bialgebra,
    oracle_comonoid,
    oracle_entwining,
    oracle_monoid,
    oracle_pentagon,
)


def report_line(number: int, title: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    print(f"ACCEPTANCE {number} [{title}]: {status}")
    assert not failures, failures


def verdicts(report):
    return {c.name: c.passed for c in report.checks}


def test_criterion_1_entwining_theorem_executable():
    failures = []
    rng = np.random.default_rng(57721566)
    for name in BIMONOID_FIXTURES:
        a = corpus_bimonoid(name)
        if not check_bimonoid(a, braided_duoidal(a.p)).ok:
            failures.append(f"{name}: bimonoid checks fail")
            continue
        ed = entwining_from_bimonoid(a)
        if not check_entwining(ed).ok:
            failures.append(f"{name}: derived entwining fails an axiom")
        n = ed.lambda0.rows
        for trial in range(50):
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            shift = int(rng.integers(1, a.p)) if a.p > 2 else 1
            mutated = np.array(ed.lambda0.a)
            mutated[i, j] = (mutated[i, j] + shift) % a.p
            bad = EntwiningData(ed.monoid, ed.comonoid, FpMatrix(a.p, mutated), ed.side)
            if check_entwining(bad).ok:
                failures.append(f"{name}: perturbation {trial} at ({i},{j}) passes all axioms")
    report_line(1, "entwining theorem executable", failures)


def test_criterion_2_lifting_round_trip():
    failures = []
    for name in BIMONOID_FIXTURES:
        ed = entwining_from_bimonoid(corpus_bimonoid(name))
        if rebuild_base_map(ed) != ed.lambda0:
            failures.append(f"{name}: rebuilt base map differs")
    report_line(2, "lifting round-trip", failures)


def test_criterion_3_galois_hopf_dichotomy():
    failures = []

    def check_hopf(name, want_antipode):
        g = galois_map_beta(corpus_bimonoid(name))
        if not (g.invertible and g.antipode_ok):
            failures.append(f"{name}: beta not invertible with verified antipode")
        elif g.antipode != want_antipode:
            failures.append(f"{name}: antipode differs from S(g) = g^-1")

    # S permutes each group-like to its inverse
    check_hopf("kz2_f3", identity(3, 2))
    check_hopf("kz3_f2", FpMatrix(2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]))

    g = galois_map_beta(corpus_bimonoid("m2_f2"))
    if g.invertible or g.rank != 3 or g.base_map.rows != 4 or g.antipode is not None:
        failures.append("m2_f2: expected rank 3 of 4 with no antipode")

    gs = galois_map_beta(corpus_bimonoid("sweedler_f5"))
    if not (gs.invertible and gs.antipode_ok):
        failures.append("sweedler_f5: beta not invertible with verified antipode")
    else:
        s2 = gs.antipode @ gs.antipode
        s4 = s2 @ s2
        if s2.is_identity() or not s4.is_identity():
            failures.append("sweedler_f5: antipode order is not exactly 4")
    report_line(3, "Galois/Hopf dichotomy", failures)


def test_criterion_4_fundamental_theorem_witnesses(capsys):
    failures = []
    for name in HOPF_FIXTURES:
        a = corpus_bimonoid(name)
        regular = HopfModuleData(a.dim, a.m, a.delta)
        rep = verify_fundamental_theorem(a, (1, 2, 3), extras=[regular])
        if not rep.ok:
            failures.append(f"{name}: {rep.failed_names()}")
        for d in (1, 2, 3):
            kx = comparison_K(d, a)
            inc = coinvariants(kx, a.e)
            if inc.cols != d:
                failures.append(f"{name}: coinvariants of K(F^{d}) have dim {inc.cols}")
                continue
            w = solve(inc, kron(identity(a.p, d), a.e))
            if w is None or inverse(w) is None:
                failures.append(f"{name}: unit map of K(F^{d}) is not an isomorphism")
            counit = kx.action @ kron(inc, identity(a.p, a.dim))
            if counit.rows != counit.cols or inverse(counit) is None:
                failures.append(f"{name}: counit map of K(F^{d}) is not an isomorphism")

    a = corpus_bimonoid("m2_f2")
    rep = verify_fundamental_theorem(a, (1, 2, 3), extras=[HopfModuleData(a.dim, a.m, a.delta)])
    if rep.exit_status != 1:
        failures.append("m2_f2: driver did not exit 1")
    wd, wc = rep.data.get("witness dim"), rep.data.get("witness coinvariant dim")
    if wd is None or wd == a.dim * wc:
        failures.append("m2_f2: no witness with dim M != dim A * dim coinvariants")
    else:
        witness = HopfModuleData(1, rep.data["witness action"], rep.data["witness coaction"])
        if not check_hopf_module(witness, entwining_from_bimonoid(a)).ok:
            failures.append("m2_f2: witness is not a Hopf module")
    code = main(["fundamental-theorem", fixture_path("m2_f2"), "--json"])
    capsys.readouterr()
    if code != 1:
        failures.append(f"m2_f2: CLI exit {code} != 1")
    report_line(4, "fundamental theorem witnesses", failures)


def test_criterion_5_generalized_hopf_galois(capsys):
    failures = []
    inst = corpus_instance("regular_comodule_f3")
    (_, b), = inst.roles_of("comodule-algebra")
    (_, c), = inst.roles_of("comonoid")
    (_, a), = inst.roles_of("bimonoid")
    g = galois_map_generalized(b, c)
    if not g.invertible:
        failures.append("regular comodule: can not invertible")
    sw = swap_matrix(a.p, a.dim, a.dim)
    if sw @ g.base_map @ sw != galois_map_beta(a).base_map:
        failures.append("regular comodule: can differs from beta after the leg swap")
    tc = corpus_instance("trivial_coaction_f3")
    (_, b2), = tc.roles_of("comodule-algebra")
    (_, c2), = tc.roles_of("comonoid")
    g2 = galois_map_generalized(b2, c2)
    if g2.invertible or "dimension obstruction" not in g2.note:
        failures.append("trivial coaction: dimension obstruction not reported")
    code = main(["galois-generalized", fixture_path("trivial_coaction_f3")])
    capsys.readouterr()
    if code != 1:
        failures.append(f"trivial coaction: CLI exit {code} != 1")
    report_line(5, "generalized Hopf/Galois", failures)


def test_criterion_6_duoidal_consistency():
    failures = []
    for p in (2, 3, 5):
        ctx = braided_duoidal(p)
        if not check_duoidal(ctx, probe_dims=(1, 2)).ok:
            failures.append(f"braided context over F_{p} fails coherence")
        split = tau_splitting(ctx)
        if not (split["split_mono"] and split["split_epi"]):
            failures.append(f"tau over F_{p} does not split both ways")
    for name in BIMONOID_FIXTURES:
        a = corpus_bimonoid(name)
        ctx = braided_duoidal(a.p)
        if not check_bimonoid(a, ctx).ok:
            failures.append(f"{name}: a bimonoid diagram fails")
        beta = galois_map_beta(a, want_antipode=False)
        beta_prime = galois_map_Kprime(a, ctx)
        if beta.invertible != beta_prime.invertible:
            failures.append(f"{name}: beta and beta' disagree on invertibility")
    report_line(6, "duoidal consistency", failures)


def test_criterion_7_oracle_equivalence():
    failures = []

    def compare(tag, got, want):
        for key, ok in want.items():
            if got[key] != ok:
                failures.append(f"{tag}: verdict for {key!r} disagrees with the oracle")

    for name in BIMONOID_FIXTURES:
        a = corpus_bimonoid(name)
        compare(f"{name} monoid", verdicts(check_monoid(a.monoid)), oracle_monoid(a.monoid))
        compare(f"{name} comonoid", verdicts(check_comonoid(a.comonoid)), oracle_comonoid(a.comonoid))
        compare(f"{name} bialgebra", verdicts(check_bialgebra(a)), oracle_bialgebra(a))
        ed = entwining_from_bimonoid(a)
        compare(f"{name} entwining", verdicts(check_entwining(ed)), oracle_entwining(ed))
        regular = HopfModuleData(a.dim, a.m, a.delta)
        pentagon = verdicts(check_hopf_module(regular, ed))["compatibility pentagon"]
        if pentagon != oracle_pentagon(regular, ed):
            failures.append(f"{name}: pentagon verdict disagrees with the oracle")

    # FAIL-side agreement on broken variants
    a = corpus_bimonoid("kz2_f3")
    m_bad = np.array(a.m.a)
    m_bad[0, 0] = 2
    from entwine.structures import BimonoidData, ComonoidData, MonoidData

    bad_monoid = MonoidData(2, FpMatrix(3, m_bad), a.e)
    compare("broken monoid", verdicts(check_monoid(bad_monoid)), oracle_monoid(bad_monoid))
    eps_bad = np.array(a.eps.a)
    eps_bad[0, 1] = 0
    bad_com = ComonoidData(2, a.delta, FpMatrix(3, eps_bad))
    compare("broken comonoid", verdicts(check_comonoid(bad_com)), oracle_comonoid(bad_com))
    bad_bim = BimonoidData(a.monoid, bad_com)
    compare("broken bialgebra", verdicts(check_bialgebra(bad_bim)), oracle_bialgebra(bad_bim))
    ed = entwining_from_bimonoid(a)
    rng = np.random.default_rng(2718281)
    for _ in range(10):
        i, j = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        mutated = np.array(ed.lambda0.a)
        mutated[i, j] = (mutated[i, j] + 1) % 3
        bad_ed = EntwiningData(ed.monoid, ed.comonoid, FpMatrix(3, mutated))
        compare(f"perturbed entwining ({i},{j})", verdicts(check_entwining(bad_ed)), oracle_entwining(bad_ed))
    theta_triv = kron(identity(3, 2), a.e)
    broken_mod = HopfModuleData(2, a.m, theta_triv)
    pentagon = verdicts(check_hopf_module(broken_mod, ed))["compatibility pentagon"]
    if pentagon != oracle_pentagon(broken_mod, ed):
        failures.append("broken module: pentagon verdict disagrees with the oracle")
    report_line(7, "oracle equivalence", failures)


def test_criterion_8_determinism_and_interface(capsys):
    failures = []
    for cmd, name in (
        ("galois", "kz2_f3"),
        ("galois", "m2_f2"),
        ("fundamental-theorem", "sweedler_f5"),
        ("check-duoidal", "trivial_fp"),
        ("galois-generalized", "regular_comodule_f3"),
    ):
        main([cmd, fixture_path(name), "--json"])
        first = capsys.readouterr().out
        main([cmd, fixture_path(name), "--json"])
        second = capsys.readouterr().out
        if first != second or not first:
            failures.append(f"{cmd} {name}: JSON output not byte-identical")
        try:
            json.loads(first)
        except json.JSONDecodeError:
            failures.append(f"{cmd} {name}: JSON output does not parse")

    expected = [
        ("galois", "kz2_f3", 0),
        ("galois", "kz3_f2", 0),
        ("galois", "sweedler_f5", 0),
        ("galois", "trivial_fp", 0),
        ("galois", "m2_f2", 1),
        ("galois-dual", "m2_f2", 1),
        ("galois-generalized", "regular_comodule_f3", 0),
        ("galois-generalized", "trivial_coaction_f3", 1),
        ("fundamental-theorem", "m2_f2", 1),
        ("check-bimonoid", "m2_f2", 0),
    ]
    for cmd, name, want in expected:
        code = main([cmd, fixture_path(name)])
        capsys.readouterr()
        if code != want:
            failures.append(f"{cmd} {name}: exit {code} != {want}")
    if main(["galois", "/nonexistent.json"]) != 2:
        failures.append("missing file: exit != 2")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command", "x.json"])
    if exc.value.code != 2:
        failures.append("unknown command: exit != 2")
    capsys.readouterr()
    report_line(8, "determinism and interface", failures)
