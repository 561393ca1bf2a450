"""Instance files: loading, validation, canonical serialization, builders.

The on-disk format is JSON with explicit integer matrices, trivially
diffable and language-neutral:

    {
      "field_p": 3,
      "meta": {"description": "...", "labels": {"A": ["u", "g"]}},
      "objects": {"A": 2},
      "maps": {"m": {"rows": 2, "cols": 4, "entries": [...]}, ...},
      "roles": {"A": {"kind": "bimonoid", "object": "A", "m": "m", ...}}
    }

Matrices act on column vectors, composition g.f applies f first, and tensor
legs flatten row-major.  Entries out of [0, p) are accepted, reduced and
reported as warnings.  Every role's shape constraints are enforced at load
time, before any check runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exactalg import FpMatrix, ShapeError, is_prime
from .report import render_json
from .structures import (
    BimonoidData,
    ComonoidData,
    ComoduleAlgebraData,
    MonoidData,
)
from .hopfmod import HopfModuleData
from .entwining import EntwiningData, entwining_from_bimonoid

__all__ = [
    "InstanceError",
    "InstanceFile",
    "load_instance",
    "instance_from_dict",
    "serialize_instance",
    "builders",
    "build_instance",
    "fixture_path",
]

DEFAULT_MAX_DIM = 64

class InstanceError(ValueError):
    """Malformed instance file or role/shape violation (CLI exit 2)."""


@dataclass
class InstanceFile:
    field_p: int
    objects: dict
    maps: dict
    roles: dict
    meta: object = ""
    warnings: list = field(default_factory=list)
    resolved: dict = field(default_factory=dict)
    source: str = "<memory>"

    def providers(self, half: str) -> list:
        """(name, structure) for every role that provides a ``half``
        ("monoid" or "comonoid"), in name order."""
        found = ((name, _provided(built, half)) for name, built in sorted(self.resolved.items()))
        return [(name, got) for name, got in found if got is not None]

    def roles_of(self, kind: str) -> list:
        out = [
            (name, self.resolved[name])
            for name, decl in sorted(self.roles.items())
            if decl["kind"] == kind
        ]
        return out

    def labels_for(self, obj: str) -> Optional[list]:
        if isinstance(self.meta, dict):
            labels = self.meta.get("labels", {})
            got = labels.get(obj)
            if isinstance(got, list) and len(got) == self.objects.get(obj, -1):
                return [str(x) for x in got]
        return None

    def description(self) -> str:
        if isinstance(self.meta, dict):
            return str(self.meta.get("description", ""))
        return str(self.meta)


def _max_dim() -> int:
    raw = os.environ.get("ENTWINE_MAX_DIM", str(DEFAULT_MAX_DIM))
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    _require(cap >= 0, f"ENTWINE_MAX_DIM must be a nonnegative integer, got {raw!r}")
    return cap


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InstanceError(msg)


def _load_matrix(p: int, name: str, decl, warnings: list) -> FpMatrix:
    _require(isinstance(decl, dict), f"map {name!r} must be an object")
    for key in ("rows", "cols", "entries"):
        _require(key in decl, f"map {name!r} is missing {key!r}")
    rows, cols, entries = decl["rows"], decl["cols"], decl["entries"]
    _require(
        type(rows) is int and type(cols) is int and rows >= 0 and cols >= 0,
        f"map {name!r} has invalid dimensions",
    )
    _require(isinstance(entries, list), f"map {name!r}: entries must be a list")
    _require(
        len(entries) == rows * cols,
        f"map {name!r}: expected {rows * cols} entries, got {len(entries)}",
    )
    _require(
        # type(), not isinstance: JSON true/false load as bool, an int subclass
        set(map(type, entries)) <= {int},
        f"map {name!r}: entries must be integers",
    )
    try:
        a = np.array(entries, dtype=np.int64)
        outside = a.size and (a.min() < 0 or a.max() >= p)
    except OverflowError:  # an entry outside int64: reduce the Python ints first
        a, outside = np.array([x % p for x in entries], dtype=np.int64), True
    if outside:
        np.mod(a, p, out=a)
        warnings.append(f"map {name!r}: entries outside [0, {p}) reduced mod {p}")
    return FpMatrix._reduced(p, a.reshape(rows, cols))


def _provided(built, half: str):
    """The ``half`` ("monoid" or "comonoid") that a resolved role provides, or
    None: a bimonoid provides either half, a comodule algebra its algebra, and
    a monoid or comonoid itself."""
    if isinstance(built, BimonoidData):
        return getattr(built, half)
    if isinstance(built, ComoduleAlgebraData):
        built = built.algebra
    return built if isinstance(built, MonoidData if half == "monoid" else ComonoidData) else None


def _hopf_module(d: int, over: BimonoidData, h: FpMatrix, theta: FpMatrix) -> HopfModuleData:
    for what, got, want in (("action", h, (d, d * over.dim)), ("coaction", theta, (d * over.dim, d))):
        if got.shape != want:
            raise ShapeError(f"{what} must have shape {want}, got {got.shape}")
    return HopfModuleData(d, h, theta)


# Per role kind, the fields it reads, in order, and its constructor on their
# values.  A field is "object" (its dimension), a role reference (_ROLE_REFS),
# the optional "side", or else a map slot.
_ROLES = {
    "monoid": (("object", "m", "e"), MonoidData),
    "comonoid": (("object", "delta", "eps"), ComonoidData),
    "bimonoid": (
        ("object", "m", "e", "delta", "eps"),
        lambda d, m, e, delta, eps: BimonoidData(MonoidData(d, m, e), ComonoidData(d, delta, eps)),
    ),
    "comodule-algebra": (
        ("object", "m", "e", "over", "rho"),
        lambda d, m, e, over, rho: ComoduleAlgebraData(MonoidData(d, m, e), over, rho),
    ),
    "hopf-module": (("object", "over", "action", "coaction"), _hopf_module),
    "entwining": (("monoid", "comonoid", "lambda0", "side"), EntwiningData),
}
ROLE_KINDS = tuple(_ROLES)
_ROLE_REFS = ("over", "monoid", "comonoid")
# kinds resolved after every role that references no other role
_REFERRING = tuple(kind for kind, (fields, _) in _ROLES.items() if any(f in _ROLE_REFS for f in fields))


def _role_field(inst: InstanceFile, name: str, decl: dict, key: str):
    """The value of one field of role ``name``: its object's dimension, what a
    referenced role provides, its side, or a map."""
    if key == "side":
        return decl.get(key, "right")
    slot = key != "object" and key not in _ROLE_REFS
    _require(key in decl, f"role {name!r} is missing {'map slot ' if slot else ''}{key!r}")
    ref = decl[key]
    if key == "object":
        _require(ref in inst.objects, f"role {name!r}: unknown object {ref!r}")
        return inst.objects[ref]
    if key == "over":
        _require(
            isinstance(inst.resolved.get(ref), BimonoidData),
            f"role {name!r}: 'over' must reference a bimonoid role, got {ref!r}",
        )
        return inst.resolved[ref]
    if key in _ROLE_REFS:
        _require(ref in inst.resolved, f"role {name!r}: unknown role {ref!r}")
        half = _provided(inst.resolved[ref], key)
        _require(half is not None, f"role {name!r}: {ref!r} does not provide a {key}")
        return half
    _require(ref in inst.maps, f"role {name!r}: unknown map {ref!r}")
    return inst.maps[ref]


def _resolve_roles(inst: InstanceFile) -> None:
    """Build the typed structure of every role, enforcing shape constraints:
    first the roles that reference no other role, then the rest, each group
    in name order.  A role references only roles resolved before it."""
    for name in sorted(inst.roles, key=lambda n: (inst.roles[n].get("kind") in _REFERRING, n)):
        decl = inst.roles[name]
        _require(decl.get("kind") in ROLE_KINDS, f"role {name!r}: unknown kind {decl.get('kind')!r}")
        fields, build = _ROLES[decl["kind"]]
        values = [_role_field(inst, name, decl, key) for key in fields]
        try:
            inst.resolved[name] = build(*values)
        except ShapeError as exc:
            raise InstanceError(f"role {name!r}: {exc}") from exc


def instance_from_dict(raw: dict, source: str = "<memory>") -> InstanceFile:
    _require(isinstance(raw, dict), "instance must be a JSON object")
    for key in ("field_p", "objects", "maps", "roles"):
        _require(key in raw, f"instance is missing top-level field {key!r}")
    p = raw["field_p"]
    _require(isinstance(p, int) and is_prime(p) and p < 2**31, f"field_p must be a prime < 2^31, got {p!r}")
    objects = raw["objects"]
    _require(isinstance(objects, dict), "'objects' must be a name -> dimension map")
    cap = _max_dim()
    for name, d in objects.items():
        _require(type(d) is int and d >= 0, f"object {name!r} has invalid dimension {d!r}")
        _require(d <= cap, f"object {name!r} has dimension {d} > ENTWINE_MAX_DIM={cap}")
    warnings: list = []
    _require(isinstance(raw["maps"], dict), "'maps' must be a name -> matrix map")
    maps = {
        name: _load_matrix(p, name, decl, warnings)
        for name, decl in sorted(raw["maps"].items())
    }
    _require(isinstance(raw["roles"], dict), "'roles' must be a name -> role map")
    roles = {}
    for k, v in sorted(raw["roles"].items()):
        _require(isinstance(v, dict), f"role {k!r} must be an object")
        roles[k] = dict(v)
    inst = InstanceFile(
        field_p=p,
        objects=dict(sorted(objects.items())),
        maps=maps,
        roles=roles,
        meta=raw.get("meta", ""),
        warnings=warnings,
        source=source,
    )
    _resolve_roles(inst)
    return inst


def load_instance(path: str) -> InstanceFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(f"parse error in {path}: {exc}") from exc
    return instance_from_dict(raw, source=path)


def serialize_instance(inst: InstanceFile) -> str:
    """Canonical text form; loading it back yields an identical instance."""
    return render_json(
        {
            "field_p": inst.field_p,
            "meta": inst.meta,
            "objects": inst.objects,
            "maps": inst.maps,
            "roles": inst.roles,
        }
    )


# ---------------------------------------------------------------------------
# builders for the shipped corpus
# ---------------------------------------------------------------------------

def _matrix_payload(m: FpMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": m.entries_rowmajor()}


def _bimonoid(p: int, meta: dict, m: list, e: list, delta: list, eps: list) -> dict:
    """Raw instance of one bimonoid role A on the four maps' row-major entries."""
    n = len(e)
    maps = {"m": (n, n * n, m), "e": (n, 1, e), "delta": (n * n, n, delta), "eps": (1, n, eps)}
    return {
        "field_p": p,
        "meta": meta,
        "objects": {"A": n},
        "maps": {k: {"rows": r, "cols": c, "entries": x} for k, (r, c, x) in maps.items()},
        "roles": {"A": {"kind": "bimonoid", "object": "A", **{k: k for k in maps}}},
    }


def _monoid_algebra(p: int, meta: dict, n: int, product) -> dict:
    """F_p[M] for the monoid M on 0..n-1 under ``product`` with unit 0, every
    basis element group-like (delta g = g (x) g, eps g = 1)."""
    m = [0] * (n * n * n)
    delta = [0] * (n * n * n)
    for i in range(n):
        for j in range(n):
            m[product(i, j) * n * n + i * n + j] = 1
        delta[(i * n + i) * n + i] = 1
    return _bimonoid(p, meta, m, [1] + [0] * (n - 1), delta, [1] * n)


def _with_entwining_and_regular(raw: dict) -> dict:
    """Attach the derived entwining and the regular Hopf module to a raw
    bimonoid instance (both are exercised by several CLI commands)."""
    (name, a), = instance_from_dict(raw).roles_of("bimonoid")
    raw["maps"]["lambda0"] = _matrix_payload(entwining_from_bimonoid(a).lambda0)
    raw["roles"]["lambda"] = {
        "kind": "entwining",
        "monoid": name,
        "comonoid": name,
        "lambda0": "lambda0",
        "side": "right",
    }
    raw["roles"]["regular"] = {
        "kind": "hopf-module",
        "object": raw["roles"][name]["object"],
        "over": name,
        "action": raw["roles"][name]["m"],
        "coaction": raw["roles"][name]["delta"],
    }
    return raw


def _group_algebra(p: int, order: int) -> dict:
    """Raw F_p[Z/order] with the group-like coalgebra structure."""
    if order < 1:
        raise InstanceError("order must be >= 1")
    n = order
    labels = ["u"] + [f"g{'' if k == 1 else k}" for k in range(1, n)]
    meta = {
        "description": f"group algebra F_{p}[Z/{n}] (Hopf)" if n > 1 else f"trivial bimonoid over F_{p}",
        "labels": {"A": labels},
    }
    return _monoid_algebra(p, meta, n, lambda i, j: (i + j) % n)


def build_group_algebra(p: int, order: int) -> dict:
    """Group algebra F_p[Z/order] with the group-like coalgebra structure."""
    return _with_entwining_and_regular(_group_algebra(p, order))


def build_idempotent_monoid(p: int) -> dict:
    """Monoid algebra F_p[{1, z}] with z^2 = z: a bimonoid that is not Hopf."""
    meta = {
        "description": f"monoid algebra F_{p}[{{1,z}}], z^2 = z (bimonoid, not Hopf)",
        "labels": {"A": ["u", "z"]},
    }
    return _with_entwining_and_regular(_monoid_algebra(p, meta, 2, max))


def build_sweedler(p: int) -> dict:
    """The four-dimensional Hopf algebra on 1, g, x, gx with g^2 = 1, x^2 = 0,
    xg = -gx; the antipode squares to a nontrivial involution."""
    if p == 2:
        raise InstanceError("the four-dimensional Hopf algebra needs p odd")
    neg = p - 1
    m = [0] * 64
    # basis order: 1, g, x, gx; products[i][j] lists the terms (k, c) of i.j
    products = (
        ([(0, 1)], [(1, 1)], [(2, 1)], [(3, 1)]),
        ([(1, 1)], [(0, 1)], [(3, 1)], [(2, 1)]),
        ([(2, 1)], [(3, neg)], [], []),
        ([(3, 1)], [(2, neg)], [], []),
    )
    for i, row in enumerate(products):
        for j, terms in enumerate(row):
            for k, c in terms:
                m[k * 16 + i * 4 + j] = c % p
    delta = [0] * 64
    # coproducts[i] lists the terms ((a, b), c) of delta(i)
    coproducts = (
        [((0, 0), 1)],
        [((1, 1), 1)],
        [((2, 0), 1), ((1, 2), 1)],
        [((3, 1), 1), ((0, 3), 1)],
    )
    for i, terms in enumerate(coproducts):
        for (a, b), c in terms:
            delta[(a * 4 + b) * 4 + i] = c % p
    meta = {
        "description": f"four-dimensional Hopf algebra over F_{p} (antipode of order 4)",
        "labels": {"A": ["u", "g", "x", "gx"]},
    }
    return _with_entwining_and_regular(_bimonoid(p, meta, m, [1, 0, 0, 0], delta, [1, 1, 0, 0]))


def _comodule_algebra(raw: dict, description: str, b_dim: int, m: str, e: str, rho: str) -> dict:
    """Extend a raw group algebra A by a comodule algebra B, whose m, e and
    rho name maps of A or the 1x1 map ``one``, and by a trivial comonoid C
    for the generalized canonical map."""
    raw["meta"]["description"] = description
    raw["objects"].update(B=b_dim, C=1)
    raw["maps"]["one"] = {"rows": 1, "cols": 1, "entries": [1]}
    raw["roles"]["B"] = {"kind": "comodule-algebra", "object": "B", "m": m, "e": e, "over": "A", "rho": rho}
    raw["roles"]["C"] = {"kind": "comonoid", "object": "C", "delta": "one", "eps": "one"}
    return raw


def build_regular_comodule(p: int, order: int = 2) -> dict:
    """B = A = F_p[Z/order] coacting on itself by its comultiplication, with a
    trivial comonoid C for the generalized canonical map."""
    description = f"regular comodule algebra B = A = F_{p}[Z/{order}], rho = delta"
    return _comodule_algebra(_group_algebra(p, order), description, order, "m", "e", "delta")


def build_trivial_coaction(p: int, order: int = 2) -> dict:
    """One-dimensional B coacting through the unit of A: not Galois, by a
    dimension obstruction."""
    raw = _group_algebra(p, order)
    del raw["meta"]["labels"]
    description = f"trivial coaction: B = F_{p} over A = F_{p}[Z/{order}], rho = e"
    return _comodule_algebra(raw, description, 1, "one", "one", "e")


builders = {
    "group-algebra": build_group_algebra,
    "idempotent-monoid": build_idempotent_monoid,
    "sweedler": build_sweedler,
    "trivial": lambda p: build_group_algebra(p, 1),
    "regular-comodule": build_regular_comodule,
    "trivial-coaction": build_trivial_coaction,
}


def build_instance(kind: str, p: int, order: int = 2) -> InstanceFile:
    if kind not in builders:
        raise InstanceError(f"unknown instance kind {kind!r}; choose from {sorted(builders)}")
    fn = builders[kind]
    raw = fn(p, order) if kind in ("group-algebra", "regular-comodule", "trivial-coaction") else fn(p)
    return instance_from_dict(raw, source=f"<make-instance {kind}>")


FIXTURES = {
    "kz2_f3": ("group-algebra", 3, 2),
    "kz3_f2": ("group-algebra", 2, 3),
    "m2_f2": ("idempotent-monoid", 2, None),
    "sweedler_f5": ("sweedler", 5, None),
    "trivial_fp": ("trivial", 3, None),
    "regular_comodule_f3": ("regular-comodule", 3, 2),
    "trivial_coaction_f3": ("trivial-coaction", 3, 2),
}


def fixture_path(name: str) -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "fixtures", name + ".json")
