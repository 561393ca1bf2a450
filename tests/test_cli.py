import argparse
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import entwine
from entwine import cli, duoidal, entwining, exactalg, hopfmod, instances, structures
from entwine.cli import main, report_json
from entwine.exactalg import FpMatrix
from entwine.instances import (
    InstanceError,
    build_instance,
    fixture_path,
    instance_from_dict,
    load_instance,
    serialize_instance,
)
from entwine.report import Report, render_json

from conftest import ALL_FIXTURES, BIMONOID_FIXTURES, SWEEP_PRIMES, chain_algebra, monoid_algebra


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# loading and round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_round_trip(name):
    path = fixture_path(name)
    inst = load_instance(path)
    text = serialize_instance(inst)
    again = instance_from_dict(json.loads(text))
    assert again.field_p == inst.field_p
    assert again.objects == inst.objects
    assert again.roles == inst.roles
    assert again.maps == inst.maps
    assert serialize_instance(again) == text
    # the shipped file is already in canonical form
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.read() == text


def test_shape_violation_named(tmp_path):
    raw = json.loads(serialize_instance(load_instance(fixture_path("kz2_f3"))))
    raw["maps"]["m"] = {"rows": 3, "cols": 2, "entries": [0] * 6}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(InstanceError) as err:
        load_instance(str(bad))
    assert "multiplication m" in str(err.value) or "'A'" in str(err.value)


def test_oversized_entries_reduced_with_warning():
    raw = json.loads(serialize_instance(load_instance(fixture_path("kz2_f3"))))
    raw["maps"]["e"]["entries"] = [4, 3]  # reduces to [1, 0] mod 3
    inst = instance_from_dict(raw)
    assert inst.warnings and "reduced mod 3" in inst.warnings[0]
    (_, a), = inst.roles_of("bimonoid")
    assert a.e.entries_rowmajor() == [1, 0]


def test_entries_beyond_int64_reduced_with_warning(tmp_path, capsys):
    raw = json.loads(serialize_instance(load_instance(fixture_path("kz2_f3"))))
    raw["maps"]["e"]["entries"] = [2**70, -3 * 2**70]  # reduces to [1, 0] mod 3
    inst = instance_from_dict(raw)
    assert inst.warnings == ["map 'e': entries outside [0, 3) reduced mod 3"]
    (_, a), = inst.roles_of("bimonoid")
    assert a.e.entries_rowmajor() == [2**70 % 3, -3 * 2**70 % 3]
    f = tmp_path / "huge.json"
    f.write_text(json.dumps(raw))
    code, out, err = run(capsys, "check-monoid", str(f))
    assert code == 0 and out
    assert err == "entwine: warning: map 'e': entries outside [0, 3) reduced mod 3\n"


def test_max_dim_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("ENTWINE_MAX_DIM", "1")
    with pytest.raises(InstanceError) as err:
        load_instance(fixture_path("kz2_f3"))
    assert "ENTWINE_MAX_DIM" in str(err.value)


@pytest.mark.parametrize(
    "edit, named",
    (
        (lambda raw: raw["maps"]["e"]["entries"].__setitem__(0, True), "map 'e'"),
        (lambda raw: raw["objects"].__setitem__("A", True), "object 'A'"),
    ),
    ids=("bool-entry", "bool-dimension"),
)
def test_json_booleans_rejected(tmp_path, capsys, edit, named):
    raw = json.loads(serialize_instance(load_instance(fixture_path("kz2_f3"))))
    edit(raw)
    f = tmp_path / "bool.json"
    f.write_text(json.dumps(raw))
    code, out, err = run(capsys, "check-monoid", str(f))
    assert code == 2 and named in err and not out


@pytest.mark.parametrize("value", ("eight", "-1"))
def test_invalid_max_dim_exits_two(monkeypatch, capsys, value):
    monkeypatch.setenv("ENTWINE_MAX_DIM", value)
    code, out, err = run(capsys, "galois", fixture_path("kz2_f3"))
    assert code == 2 and "ENTWINE_MAX_DIM must be a nonnegative integer" in err
    assert not out


def test_unknown_role_kind():
    raw = json.loads(serialize_instance(load_instance(fixture_path("kz2_f3"))))
    raw["roles"]["odd"] = {"kind": "mystery"}
    with pytest.raises(InstanceError):
        instance_from_dict(raw)


KINDS = ("monoid", "comonoid", "bimonoid", "comodule-algebra", "hopf-module", "entwining")


def _fixture_raw(name):
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _role_mutations(raw):
    """One-fault edits of an instance: every field of every role deleted, set
    to an unknown name and to every role, map and object name; every role's
    kind set to each kind and to an unknown one, its side to left and to an
    invalid value; every object's dimension set to 0, 1 and 3."""
    names = sorted(raw["roles"]) + sorted(raw["maps"]) + sorted(raw["objects"])
    for role, decl in sorted(raw["roles"].items()):
        for key in sorted(decl):
            yield "roles", role, key, None
            for value in ("nosuch",) + tuple(names):
                yield "roles", role, key, value
        for value in KINDS + ("nosuch-kind",):
            yield "roles", role, "kind", value
        for value in ("left", "sideways"):
            yield "roles", role, "side", value
    for obj in sorted(raw["objects"]):
        for d in (0, 1, 3):
            yield "objects", obj, None, d


def _load_outcome(raw):
    try:
        inst = instance_from_dict(raw)
    except Exception as exc:  # the exception type is part of the outcome
        return f"{type(exc).__name__}: {exc}"
    return "ok " + " ".join(f"{name}={type(built).__name__}" for name, built in sorted(inst.resolved.items()))


def test_loader_outcomes_under_role_mutations():
    # every one-fault edit of every fixture's roles and objects, pinned by one
    # digest of the outcomes: resolved types, or the exception and its message
    lines = []
    for name in ALL_FIXTURES:
        base = _fixture_raw(name)
        for section, target, key, value in _role_mutations(base):
            raw = _fixture_raw(name)
            if section == "objects":
                raw["objects"][target] = value
            elif value is None:
                del raw["roles"][target][key]
            else:
                raw["roles"][target][key] = value
            lines.append(f"{name} {section} {target} {key} {value!r} -> {_load_outcome(raw)}")
    assert len(lines) == 1518
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "09c2cd0f96ad8945cd3db3194d8b8591464b7a22ee40b49015f3f431fbccf5c1", digest


@pytest.mark.parametrize(
    "name, edit, message",
    (
        ("regular_comodule_f3", lambda roles: roles["B"].pop("over"), "role 'B' is missing 'over'"),
        (
            "regular_comodule_f3",
            lambda roles: roles["B"].update(over="C"),
            "role 'B': 'over' must reference a bimonoid role, got 'C'",
        ),
        (
            "regular_comodule_f3",
            lambda roles: roles.update(E={"kind": "entwining", "monoid": "A", "comonoid": "B", "lambda0": "m"}),
            "role 'E': 'B' does not provide a comonoid",
        ),
        (
            "kz2_f3",
            lambda roles: roles["regular"].update(action="lambda0"),
            "role 'regular': action must have shape (2, 4), got (4, 4)",
        ),
        ("kz2_f3", lambda roles: roles["A"].update(kind="nosuch"), "role 'A': unknown kind 'nosuch'"),
    ),
    ids=("missing-over", "over-not-bimonoid", "no-comonoid", "action-shape", "unknown-kind"),
)
def test_role_fault_messages(name, edit, message):
    raw = _fixture_raw(name)
    edit(raw["roles"])
    with pytest.raises(InstanceError) as err:
        instance_from_dict(raw)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_codes_across_corpus(capsys):
    expected = {
        "kz2_f3": 0,
        "kz3_f2": 0,
        "sweedler_f5": 0,
        "trivial_fp": 0,
        "m2_f2": 1,
    }
    for name, want in expected.items():
        code, _, _ = run(capsys, "galois", fixture_path(name))
        assert code == want, name


def test_fundamental_theorem_exit_codes(capsys):
    code, _, _ = run(capsys, "fundamental-theorem", fixture_path("kz2_f3"), "--samples", "1,2")
    assert code == 0
    code, _, _ = run(capsys, "fundamental-theorem", fixture_path("m2_f2"), "--samples", "1,2")
    assert code == 1


def test_generalized_exit_codes(capsys):
    code, _, _ = run(capsys, "galois-generalized", fixture_path("regular_comodule_f3"))
    assert code == 0
    code, _, _ = run(capsys, "galois-generalized", fixture_path("trivial_coaction_f3"))
    assert code == 1


def test_generalized_rejects_two_comonoid_roles(tmp_path, capsys):
    raw = json.loads(serialize_instance(load_instance(fixture_path("regular_comodule_f3"))))
    (name, role), = ((k, v) for k, v in raw["roles"].items() if v["kind"] == "comonoid")
    raw["roles"]["C2"] = dict(role)
    path = tmp_path / "two_comonoids.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "galois-generalized", str(path))
    assert code == 2 and out == ""
    assert "one comonoid role" in err and f"{name}, C2" in err


@pytest.mark.parametrize(
    "command, name, kind",
    (
        ("galois", "kz2_f3", "bimonoid"),
        ("galois-dual", "kz2_f3", "bimonoid"),
        ("galois-generalized", "regular_comodule_f3", "comodule-algebra"),
    ),
)
def test_galois_commands_reject_two_roles(tmp_path, capsys, command, name, kind):
    # their rows and data keys carry no role name, so a second role would
    # overwrite the first one's
    raw = json.loads(serialize_instance(load_instance(fixture_path(name))))
    (first, role), = ((k, v) for k, v in raw["roles"].items() if v["kind"] == kind)
    raw["roles"]["Z2"] = dict(role)
    path = tmp_path / "two_roles.json"
    path.write_text(json.dumps(raw))
    for argv in ((), ("--json",)):
        code, out, err = run(capsys, command, str(path), *argv)
        assert code == 2 and out == ""
        assert err == f"entwine: error: {command} needs one {kind} role, found {first}, Z2\n"


@pytest.mark.parametrize("samples", ("-1", "1,-2"))
def test_negative_samples_are_a_usage_error(capsys, samples):
    code, out, err = run(capsys, "fundamental-theorem", fixture_path("kz2_f3"), "--samples", samples)
    assert code == 2 and out == ""
    assert err == f"entwine: error: invalid --samples: {samples!r}\n"


def test_out_of_memory_exits_two(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "dispatch", exhausted)
    code, out, err = run(capsys, "fundamental-theorem", fixture_path("kz2_f3"), "--json")
    assert code == 2 and out == ""
    assert err.startswith("entwine: error: out of memory") and "fundamental-theorem" in err
    assert "Traceback" not in err


def test_internal_error_exits_two(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("unexpected\nstate")

    monkeypatch.setattr(cli, "dispatch", broken)
    code, out, err = run(capsys, "galois", fixture_path("kz2_f3"), "--json")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("entwine: error: RuntimeError running galois on ")
    assert err.endswith(": unexpected state\n")


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_check_bimonoid_rows_are_the_derive_entwining_preconditions(capsys, name):
    code, out, _ = run(capsys, "check-bimonoid", fixture_path(name), "--json")
    rows = json.loads(out)["checks"]
    derived = json.loads(run(capsys, "derive-entwining", fixture_path(name), "--json")[1])
    assert code == 0 and rows == derived["checks"][: len(rows)]
    assert not any("entwining" in c["name"] for c in rows)


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "galois", str(bad))
    assert code == 2 and "error" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "galois", "/nonexistent/instance.json")
    assert code == 2 and "error" in err


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.json"])
    assert exc.value.code == 2


def test_missing_role_exits_two(capsys, tmp_path):
    raw = {
        "field_p": 3,
        "objects": {},
        "maps": {},
        "roles": {},
        "meta": "empty",
    }
    f = tmp_path / "empty.json"
    f.write_text(json.dumps(raw))
    code, _, err = run(capsys, "galois", str(f))
    assert code == 2 and "no bimonoid" in err


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def test_json_reports_byte_identical(capsys):
    for cmd in ("galois", "check-bimonoid", "fundamental-theorem", "tau-split"):
        _, out1, _ = run(capsys, cmd, fixture_path("kz2_f3"), "--json")
        _, out2, _ = run(capsys, cmd, fixture_path("kz2_f3"), "--json")
        assert out1 == out2 and out1.strip()


def test_json_report_structure(capsys):
    code, out, _ = run(capsys, "galois", fixture_path("kz3_f2"), "--json")
    payload = json.loads(out)
    assert payload["exit"] == code == 0
    assert payload["command"] == "galois"
    assert any(c["name"].endswith("invertible (rank 9/9)") for c in payload["checks"])
    assert payload["data"]["antipode"]["rows"] == 3


def reference_json(rep: Report) -> str:
    """The report through json.dumps(indent=2) alone, entries as lists."""
    payload = {
        "command": rep.title,
        "instance": rep.subject,
        "conventions": rep.conventions,
        "checks": [
            {"name": c.name, "verdict": c.verdict, "counterexample": c.counterexample, "note": c.note}
            for c in rep.checks
        ],
        "data": {
            k: {"rows": v.rows, "cols": v.cols, "entries": [int(x) for x in v.a.flat]}
            if isinstance(v, FpMatrix) else v
            for k, v in rep.data.items()
        },
        "exit": rep.exit_status,
    }
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def edge_report() -> Report:
    rep = Report("galois", subject="d\u00e9j\u00e0/vu.json")
    rep.require_equal("m is associative", FpMatrix(5, [[1, 2]]), FpMatrix(5, [[1, 3]]))
    rep.add_flag("entries 0:0", True, note='"entries": "entries 0:1"')
    rep.data["description"] = "entries 0:0"
    rep.data["labels"] = ["\u03b1", "g\u00b2", "entries 0:2"]
    rep.data["empty rows"] = FpMatrix(3, np.zeros((0, 4), dtype=np.int64))
    rep.data["empty cols"] = FpMatrix(3, np.zeros((4, 0), dtype=np.int64))
    rep.data["one"] = FpMatrix(3, [[2]])
    rep.data["wide"] = FpMatrix(7, np.arange(24).reshape(3, 8))
    rep.data["rank"] = 3
    return rep


def test_spliced_json_matches_plain_dumps():
    rep = edge_report()
    assert report_json(rep) == reference_json(rep)


def test_spliced_json_ignores_strings_equal_to_a_placeholder():
    rep = edge_report()
    # a data entry keyed "entries" spells the first placeholder of "wide",
    # and sorts before it
    rep.data["entries"] = "entries 0:3"
    assert report_json(rep) == reference_json(rep)


def test_spliced_json_of_a_report_without_matrices():
    rep = Report("tau-split")
    rep.add_flag("tau is a split monomorphism", False)
    assert report_json(rep) == reference_json(rep)


def test_spliced_json_keeps_no_matrix_alive():
    # a reference cycle in the renderer would hold every rendered matrix
    # until the next collection, raising the peak memory of a run of reports
    rep = edge_report()
    wide = weakref.ref(rep.data["wide"].a)
    gc.disable()
    try:
        report_json(rep)
        del rep
        assert wide() is None
    finally:
        gc.enable()


def plain(v):
    """v with each FpMatrix, at any dict depth, as the dict render_json writes."""
    if isinstance(v, FpMatrix):
        return {"rows": v.rows, "cols": v.cols, "entries": [int(x) for x in v.a.flat]}
    if isinstance(v, dict):
        return {k: plain(x) for k, x in v.items()}
    return v


@st.composite
def fp_matrices(draw) -> FpMatrix:
    p = draw(st.sampled_from(SWEEP_PRIMES))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    flat = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
    return FpMatrix(p, np.array(flat, dtype=np.int64).reshape(rows, cols))


# strings that spell the placeholders an earlier renderer spliced, keys that
# sort around a matrix's own, and text of any alphabet
TEXT = st.sampled_from(("entries 0:0", "entries 1:0", '"entries": "entries 0:1"', "déjà", "")) | st.text(max_size=8)
KEYS = st.sampled_from(("entries", "rows", "cols", "data", "α")) | st.text(max_size=4)
LEAVES = st.none() | st.booleans() | st.integers(-(2**62), 2**62) | TEXT
# matrices sit at any dict depth; lists (of dicts too) hold plain values only
PLAIN = st.recursive(
    LEAVES, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(KEYS, kids, max_size=3), max_leaves=10
)
PAYLOADS = st.recursive(
    PLAIN | fp_matrices(), lambda kids: st.dictionaries(KEYS, kids, max_size=4), max_leaves=12
)


@given(PAYLOADS)
@example({"wide": FpMatrix(7, np.arange(6).reshape(2, 3)), "empty": {}, "rows": FpMatrix(3, np.zeros((0, 2)))})
@example({"deep": {"er": {"cols": FpMatrix(5, np.zeros((2, 0))), "list": [{"a": 1}, {}]}}, "entries": "entries 0:0"})
def test_render_json_matches_json_dumps(payload):
    want = json.dumps(plain(payload), sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    assert render_json(payload) == want


def test_human_report_antipode_labels(capsys):
    code, out, _ = run(capsys, "galois", fixture_path("kz2_f3"))
    assert code == 0
    assert "S(u) = u" in out and "S(g) = g" in out
    assert "exit: 0" in out


def test_failure_carries_counterexample(capsys, tmp_path):
    raw = json.loads(serialize_instance(load_instance(fixture_path("kz2_f3"))))
    raw["maps"]["m"]["entries"][0] = 2  # break associativity and the unit law
    f = tmp_path / "broken.json"
    f.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "check-monoid", str(f), "--json")
    assert code == 1
    payload = json.loads(out)
    failed = [c for c in payload["checks"] if c["verdict"] == "FAIL"]
    assert failed and any(c["counterexample"] for c in failed)


@pytest.mark.parametrize(
    "cmd",
    (
        "check-monoid",
        "check-comonoid",
        "check-bimonoid",
        "check-entwining",
        "check-hopf-module",
        "derive-entwining",
        "galois-dual",
        "check-duoidal",
        "tau-split",
    ),
)
@pytest.mark.parametrize("name", BIMONOID_FIXTURES)
def test_all_check_commands_pass_on_corpus(capsys, cmd, name):
    code, out, _ = run(capsys, cmd, fixture_path(name))
    want = 1 if (name == "m2_f2" and cmd == "galois-dual") else 0
    assert code == want, (cmd, name, out)


def test_comodule_commands(capsys):
    code, _, _ = run(capsys, "check-comodule-algebra", fixture_path("regular_comodule_f3"))
    assert code == 0
    code, _, _ = run(capsys, "check-comodule-algebra", fixture_path("trivial_coaction_f3"))
    assert code == 0


# ---------------------------------------------------------------------------
# work done per call: proofs and eliminations
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` in every engine namespace that binds it and
    return the list of recorded calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (exactalg, structures, entwining, hopfmod, duoidal, cli):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_parser_built_once_per_process(monkeypatch, capsys):
    trees = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "entwine":
            trees.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    path = fixture_path("kz2_f3")
    assert run(capsys, "check-monoid", path)[0] == 0
    assert len(trees) <= 1
    trees.clear()
    assert run(capsys, "check-monoid", path)[0] == 0
    assert not trees


def test_reused_parser_keeps_no_state(capsys):
    path = fixture_path("kz2_f3")
    before = run(capsys, "fundamental-theorem", path, "--json")
    one = run(capsys, "fundamental-theorem", path, "--json", "--samples", "1")
    assert one != before
    assert run(capsys, "fundamental-theorem", path, "--json") == before
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.json"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "check-monoid", path)[0] == 0


@pytest.mark.parametrize(
    "command, name",
    (
        ("fundamental-theorem", "sweedler_f5"),
        ("galois", "kz2_f3"),
        ("derive-entwining", "kz2_f3"),
        ("check-bimonoid", "kz2_f3"),
    ),
)
def test_each_bimonoid_proved_once_per_call(monkeypatch, capsys, command, name):
    calls = _count_calls(monkeypatch, structures, "check_bialgebra")
    for _ in range(2):  # a second call loads new objects and proves them anew
        calls.clear()
        code, _, _ = run(capsys, command, fixture_path(name), "--json")
        assert code == 0
        assert len(calls) == 1


def _z2_times_chain2(p):
    """F_p[Z/2 x {0 < 1}] (max on the chain) with its group-like basis: a
    bimonoid, not Hopf, with four characters and no witness module, so the
    search visits every character."""
    elements = [(g, c) for g in range(2) for c in range(2)]
    return monoid_algebra(p, elements, lambda x, y: ((x[0] + y[0]) % 2, max(x[1], y[1])))


@pytest.mark.parametrize("name", ("m2_f2", "z2_chain2_f3"))
def test_group_likes_enumerated_once_per_search(monkeypatch, capsys, tmp_path, name):
    if name == "m2_f2":
        path = fixture_path(name)
    else:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_z2_times_chain2(3)))
    characters = _count_calls(monkeypatch, hopfmod, "find_characters")
    group_likes = _count_calls(monkeypatch, hopfmod, "find_group_likes")
    code, out, _ = run(capsys, "fundamental-theorem", str(path), "--json")
    assert code == 1
    assert len(characters) == 1 and len(group_likes) == 1
    witness = [c for c in json.loads(out)["checks"] if "witness Hopf module" in c["name"]]
    assert [c["verdict"] for c in witness] == ["PASS" if name == "m2_f2" else "FAIL"]


def test_search_cap_exits_two(capsys, tmp_path):
    # a valid non-Hopf bimonoid whose witness search would test 5^8 = 390625
    # candidates: a resource limit (exit 2), not a refutation (exit 1)
    path = tmp_path / "chain8_f5.json"
    path.write_text(json.dumps(chain_algebra(5, 8)))
    for argv in ((), ("--json",)):
        code, out, err = run(capsys, "fundamental-theorem", str(path), *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert "5^8 = 390625" in err and "200000" in err


@pytest.mark.parametrize(
    "command, name, code",
    (
        ("galois-generalized", "regular_comodule_f3", 0),
        ("galois-generalized", "trivial_coaction_f3", 1),
        ("galois-generalized", "wide_C", 0),
        ("galois-dual", "m2_f2", 1),
    ),
)
def test_canonical_map_reduced_once(monkeypatch, capsys, tmp_path, command, name, code):
    # one elimination: of [M | I] for a square map M, else of M itself;
    # galois-generalized decides on t, of shape (dA*dB, dB*dB) whatever dim C is
    path = fixture_path(name)
    if name == "wide_C":  # regular_comodule_f3 with C = A, so the map can is 8x8
        raw = _fixture_raw("regular_comodule_f3")
        raw["roles"]["C"] = {"kind": "comonoid", "object": "A", "delta": "delta", "eps": "eps"}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(raw))
    calls = _count_calls(monkeypatch, exactalg, "rref")
    got, out, _ = run(capsys, command, str(path), "--json")
    assert got == code
    assert len(calls) == 1
    assert calls[0][0].shape == ((2, 1) if name == "trivial_coaction_f3" else (4, 8))
    if name == "wide_C":
        assert json.loads(out)["checks"][0]["name"] == "can invertible (rank 8/8)"


def test_entwining_of_a_comodule_algebra(tmp_path, capsys):
    # a comodule algebra provides its algebra to an entwining, as it does to
    # check-monoid; with C one-dimensional, lambda0 = I is an entwining
    raw = _fixture_raw("regular_comodule_f3")
    raw["maps"]["I2"] = {"rows": 2, "cols": 2, "entries": [1, 0, 0, 1]}
    raw["roles"]["lambda"] = {"kind": "entwining", "monoid": "B", "comonoid": "C", "lambda0": "I2"}
    path = tmp_path / "entwined.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "check-entwining", str(path), "--json")
    assert (code, err) == (0, "")
    assert all(c["verdict"] == "PASS" for c in json.loads(out)["checks"])
    code, out, _ = run(capsys, "check-monoid", str(path))
    assert code == 0 and "B: " in out


# ---------------------------------------------------------------------------
# make-instance
# ---------------------------------------------------------------------------

def test_make_instance_round_trips(tmp_path, capsys):
    out_path = tmp_path / "kz4.json"
    code, _, _ = run(capsys, "make-instance", "group-algebra", "--p", "5", "--order", "4", "--out", str(out_path))
    assert code == 0
    inst = load_instance(str(out_path))
    (_, a), = inst.roles_of("bimonoid")
    assert a.dim == 4
    code, _, _ = run(capsys, "galois", str(out_path))
    assert code == 0


def test_comodule_kinds_do_not_prove_their_base(monkeypatch):
    # A is written from its definition; loading the instance proves nothing,
    # and these kinds carry no entwining
    proofs = _count_calls(monkeypatch, structures, "check_bialgebra")
    derived = []
    monkeypatch.setattr(instances, "entwining_from_bimonoid", derived.append)
    for kind in ("regular-comodule", "trivial-coaction"):
        assert build_instance(kind, 5, 4).objects["A"] == 4
    assert proofs == [] and derived == []


def test_dense_group_algebra_of_order_12(tmp_path, capsys):
    # the leg-by-leg kernel and the contractions keep every intermediate
    # within a few times d^4 entries; a dense d^4 x d^4 swap would ask for
    # 3.2 GiB here
    out_path = tmp_path / "z12.json"
    code, _, _ = run(capsys, "make-instance", "group-algebra", "--p", "5", "--order", "12", "--out", str(out_path))
    assert code == 0
    for command in ("check-bimonoid", "galois", "fundamental-theorem"):
        assert run(capsys, command, str(out_path), "--json")[0] == 0, command


def run_capped(*argv):
    """The CLI in a child process whose address space is capped at 1.5 GiB
    (set in that child alone).  One BLAS thread: its buffers count against
    the cap as well."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))

    src = str(Path(entwine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "entwine", *argv], preexec_fn=cap, env=env, capture_output=True, text=True, timeout=300
    )


def test_fundamental_theorem_of_order_24_under_a_memory_cap(tmp_path):
    # the sample rows are decided on K(F^1) alone (dX = 24); the module
    # axioms and pentagon of K(F^3) (dX = 72), which once ran out of memory
    # under the cap here, are no longer computed
    path = str(tmp_path / "z24.json")
    made = run_capped("make-instance", "group-algebra", "--p", "5", "--order", "24", "--out", path)
    assert made.returncode == 0, made.stderr
    done = run_capped("fundamental-theorem", path, "--json")
    assert done.returncode == 0, done.stderr
    verdicts = {c["name"]: c["verdict"] for c in json.loads(done.stdout)["checks"]}
    assert verdicts["A: coinvariants of K(F^3) have dimension 3"] == "PASS"


def test_fundamental_theorem_of_order_32_under_a_memory_cap(tmp_path):
    # K(F^16) has dX = 512: its module axioms alone hold dX^2 * d^2 entries,
    # beyond the cap, but its rows are read off K(F^1) by additivity
    path = str(tmp_path / "z32.json")
    made = run_capped("make-instance", "group-algebra", "--p", "5", "--order", "32", "--out", path)
    assert made.returncode == 0, made.stderr
    done = run_capped("fundamental-theorem", path, "--json", "--samples", "1,2,3,16")
    assert done.returncode == 0, done.stderr
    verdicts = {c["name"]: c["verdict"] for c in json.loads(done.stdout)["checks"]}
    assert verdicts["A: coinvariants of K(F^16) have dimension 16"] == "PASS"


def test_fundamental_theorem_cost_does_not_grow_with_the_sample_dimension():
    # a dense K(F^100000) would not fit under any cap; interpreter start and
    # imports take about 0.25 s of the child's time, K(F^1) about 10 ms
    start = time.perf_counter()
    done = run_capped("fundamental-theorem", fixture_path("kz2_f3"), "--json", "--samples", "100000")
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    verdicts = {c["name"]: c["verdict"] for c in json.loads(done.stdout)["checks"]}
    assert verdicts["A: counit map of K(F^100000) is an isomorphism"] == "PASS"
    assert elapsed < 2.0


def test_console_path_matches_in_process_main(capsys):
    # argv=None: the parser reads sys.argv of a fresh process
    path = fixture_path("kz2_f3")
    child = run_capped("check-monoid", path, "--json")
    code, out, _ = run(capsys, "check-monoid", path, "--json")
    assert child.returncode == code == 0
    assert child.stdout == out


def test_make_instance_stdout(capsys):
    code, out, _ = run(capsys, "make-instance", "trivial", "--p", "7")
    assert code == 0
    inst = instance_from_dict(json.loads(out))
    assert inst.field_p == 7


def test_make_instance_rejects_even_sweedler(capsys):
    code, _, err = run(capsys, "make-instance", "sweedler", "--p", "2")
    assert code == 2 and "odd" in err


def test_build_instance_unknown_kind():
    with pytest.raises(InstanceError):
        build_instance("nope", 3)
