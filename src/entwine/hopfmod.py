"""Hopf modules, the comparison with free modules, coinvariants and the
canonical Galois maps.

A Hopf module over an entwining is a carrier with a right action and a right
coaction tied together by one compatibility pentagon.  For the canonical
entwining of a bimonoid A the comparison functor sends a dimension d to the
free Hopf module (F^d (x) A, I(x)m, I(x)delta); whether that comparison is an
equivalence is decided at desk scale by the base Galois map

    beta: A(x)A -> A(x)A,   x(x)a |-> x.a1 (x) a2.

Invertibility of beta is equivalent to the existence of an antipode, which is
extracted from the inverse and verified against both antipode axioms.  The
fundamental-theorem driver assembles the whole story: split unit, Galois
verdict, unit/counit isomorphism witnesses on sample dimensions when the
verdict is positive, and a concrete obstruction module when it is not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .exactalg import (
    FpMatrix,
    ShapeError,
    _product,
    _solve,
    contract,
    identity,
    kernel_basis,
    kron,
    left_inverse,
    rank,
    solve,
)
from .report import Report, UnsupportedError, require
from .structures import (
    BimonoidData,
    ComonoidData,
    ComoduleAlgebraData,
    ModuleData,
    _expect,
    check_module,
    check_right_comodule,
)
from .entwining import EntwiningData, RIGHT, entwining_from_bimonoid

__all__ = [
    "HopfModuleData",
    "GaloisReport",
    "check_hopf_module",
    "comparison_K",
    "coinvariants",
    "canonical_map_report",
    "galois_map_beta",
    "galois_map_generalized",
    "verify_fundamental_theorem",
    "find_characters",
    "find_group_likes",
]

# The character and group-like searches test every vector of F_p^dim, in
# blocks; a larger p^dim is refused (UnsupportedError, exit 2) before any
# block is built.
_SEARCH_LIMIT = 200_000
# Entries per d x d^2 block product (1 MB of int64): a block holds this many
# entries divided by d^2 candidate rows.
_SEARCH_BLOCK_CELLS = 2**17


@dataclass(frozen=True)
class HopfModuleData:
    """A triple (X, h, theta): right action h: X(x)A -> X and right coaction
    theta: X -> X(x)C, compatible through the entwining pentagon."""

    dim: int
    action: FpMatrix
    coaction: FpMatrix


@dataclass(frozen=True)
class GaloisReport:
    """Outcome of a canonical-map computation.

    Invariant: invertible iff the inverse is present iff the map is square of
    full rank; the antipode is present only when requested and invertible.
    """

    base_map: FpMatrix
    rank: int
    invertible: bool
    inverse: Optional[FpMatrix] = None
    antipode: Optional[FpMatrix] = None
    antipode_ok: Optional[bool] = None
    note: str = ""

    def __post_init__(self) -> None:
        square = self.base_map.rows == self.base_map.cols
        full = square and self.rank == self.base_map.rows
        if self.invertible != full or self.invertible != (self.inverse is not None):
            raise ShapeError("inconsistent Galois report")
        if self.inverse is not None:
            if not (self.base_map @ self.inverse).is_identity():
                raise ShapeError("inverse witness does not verify")


def check_hopf_module(m: HopfModuleData, ed: EntwiningData) -> Report:
    """Module axioms, comodule axioms and the compatibility pentagon
    theta.h = (h(x)I_C).(I_X(x)lambda0).(theta(x)I_A), all exact; the right
    side contracts h with theta, then with lambda0, in dX^2*dA*dC entries."""
    if ed.side != RIGHT:
        raise ShapeError("Hopf modules are defined over right-side entwinings")
    da, dc, dx = ed.monoid.dim, ed.comonoid.dim, m.dim
    _expect(m.action, (dx, dx * da), "action")
    _expect(m.coaction, (dx * dc, dx), "coaction")
    r = Report("Hopf module axioms")
    r.merge(check_module(ModuleData(dx, m.action, "right"), ed.monoid))
    r.merge(check_right_comodule(dx, m.coaction, ed.comonoid))
    # h[x', (x1, a')], theta[(x1, c), x], lambda0[(a', c'), (c, a)]
    dims = dict(u=dx, k=dx, x=dx, a=da, b=da, c=dc, d=dc)
    h_theta = contract("u|ka,kc|x->ux|ac", m.action, m.coaction, dims)
    rhs = contract("ux|ac,ad|cb->ud|xb", h_theta, ed.lambda0, dims)
    r.require_equal("compatibility pentagon", m.coaction @ m.action, rhs)
    return r


def comparison_K(x_dim: int, a: BimonoidData) -> HopfModuleData:
    """Free Hopf module on a dimension: (F^d (x) A, I(x)m, I(x)delta).

    In the braided-vect context the trivial-unit comodule structure on the
    input is unique, so the input really is just a dimension.  For a
    bimonoid the result is always a Hopf module; check_hopf_module decides
    it when wanted.
    """
    if x_dim < 0:
        raise ShapeError("dimension must be nonnegative")
    require("bimonoid", a.axioms)
    i = identity(a.p, x_dim)
    return HopfModuleData(x_dim * a.dim, kron(i, a.m), kron(i, a.delta))


def coinvariants(m: HopfModuleData, unit: FpMatrix) -> FpMatrix:
    """Inclusion of the coinvariants {x : theta(x) = x (x) 1} into X.

    ``unit`` is the group-like column (the unit of A when C = A).  The result
    is kernel_basis(theta - I(x)unit): columns are a deterministic basis.
    """
    if unit.cols != 1:
        raise ShapeError("unit must be a column vector")
    dx = m.dim
    trivial = kron(identity(unit.p, dx), unit)
    if trivial.shape != m.coaction.shape:
        raise ShapeError(
            f"coaction shape {m.coaction.shape} does not match X(x)<unit> {trivial.shape}"
        )
    return kernel_basis(m.coaction - trivial)


def _antipode_checks(a: BimonoidData, s: FpMatrix) -> Report:
    r = Report("antipode axioms")
    dims = dict.fromkeys("yijk", a.dim)
    target = a.e @ a.eps
    # m.(S(x)I) and m.(I(x)S), then delta
    r.require_equal("left antipode axiom", contract("y|ij,i|k->y|kj", a.m, s, dims) @ a.delta, target)
    r.require_equal("right antipode axiom", contract("y|ij,j|k->y|ik", a.m, s, dims) @ a.delta, target)
    return r


def _galois_verdict(base: FpMatrix, r: int, inverse: Optional[FpMatrix]) -> GaloisReport:
    """The report of a canonical map of rank r; ``inverse`` is read only when
    the map is square of full rank."""
    rows, cols = base.shape
    if rows != cols:
        note = f"dimension obstruction: source dim {cols} != target dim {rows}"
        return GaloisReport(base, r, False, note=note)
    if r < rows:
        return GaloisReport(base, r, False, note=f"not Galois: rank {r}/{rows}")
    return GaloisReport(base, rows, True, inverse)


def canonical_map_report(base: FpMatrix) -> GaloisReport:
    """Galois verdict of an assembled canonical map: a square map M with its
    inverse from the one reduction solving M X = I, any other from its rank."""
    if base.rows != base.cols:
        return _galois_verdict(base, rank(base), None)
    return _galois_verdict(base, *_solve(base, identity(base.p, base.rows)))


def galois_map_beta(a: BimonoidData, want_antipode: bool = True) -> GaloisReport:
    """Canonical map beta = (m(x)I).(I(x)delta): x(x)a |-> x.a1 (x) a2.

    When beta is invertible the antipode S = (I(x)eps).beta^{-1}.(e(x)I) is
    extracted and verified against both antipode axioms.  (The extraction
    formula is standard Hopf-theory plumbing, flagged as such in reports.)
    """
    require("bimonoid", a.axioms)
    dims = dict.fromkeys("uxija", a.dim)
    g = canonical_map_report(contract("u|xi,ij|a->uj|xa", a.m, a.delta, dims))
    if not g.invertible:
        return replace(g, note="not Galois: no antipode")
    if not want_antipode:
        return g
    antipode = contract("|j,ij|a->i|a", a.eps, contract("ij|xa,x|->ij|a", g.inverse, a.e, dims), dims)
    return replace(g, antipode=antipode, antipode_ok=_antipode_checks(a, antipode).ok)


def galois_map_generalized(b: ComoduleAlgebraData, c: ComonoidData) -> GaloisReport:
    """Canonical map of the generalized layer at the free module:

        can: B(x)C(x)B -> A(x)C(x)B,  b(x)c(x)b' |-> b(-1)(x)c(x)b(0).b'

    Invertibility requires dim B = dim A; otherwise the report carries the
    dimension obstruction.  By representability this single base matrix
    decides the "isomorphism at every object" condition.  As can is
    t (x) I_C up to leg order, it is decided on t: rank can = dim C * rank t,
    and can^{-1} = t^{-1} (x) I_C.
    """
    require("bimonoid", b.over.axioms)
    require("comodule algebra", b.axioms)
    da, db, dc = b.over.dim, b.algebra.dim, c.dim
    # t[(a, y), (b, b')] = sum rho[(a, b0), b] m_B[y, b0, b']
    t = contract("ak|b,y|kv->ay|bv", b.rho, b.algebra.m, dict(a=da, k=db, b=db, y=db, v=db))
    g = canonical_map_report(t)

    def along_c(m: FpMatrix, r1: int, c1: int) -> FpMatrix:
        # m[(x, y), (u, v)] delta_{c', c} as [(x, c', y), (u, c, v)], the C leg second
        out = m.a.reshape(r1, 1, db, c1, 1, db) * np.eye(dc, dtype=np.int64).reshape(1, dc, 1, 1, dc, 1)
        return FpMatrix._reduced(m.p, out.reshape(r1 * dc * db, c1 * dc * db))

    can = along_c(t, da, db)
    # with dim C = 0, can is the empty map, its own inverse
    inverse = along_c(g.inverse, db, da) if g.invertible else can if dc == 0 else None
    return _galois_verdict(can, dc * g.rank, inverse)


# ---------------------------------------------------------------------------
# character and group-like searches (witness machinery)
# ---------------------------------------------------------------------------

def _multiplicative_rows(p: int, unit: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Rows v of F_p^d with v.unit = 1 and v.mult = v(x)v, in lexicographic
    order, for unit of shape (d, 1) and mult of shape (d, d^2).

    Candidates are the base-p digit rows of consecutive integers, most
    significant digit first, tested a block at a time with one product per
    condition.
    """
    d = unit.shape[0]
    total = p**d
    if total > _SEARCH_LIMIT:
        raise UnsupportedError(
            f"witness search space p^dim = {p}^{d} = {total} exceeds the "
            f"desk-scale cap of {_SEARCH_LIMIT}"
        )
    weights = p ** np.arange(d - 1, -1, -1, dtype=np.int64)
    step = _SEARCH_BLOCK_CELLS // max(d * d, 1)
    hits = []
    for start in range(0, total, step):
        v = np.arange(start, min(start + step, total), dtype=np.int64)[:, None] // weights % p
        v = v[_product(p, v, unit)[:, 0] == 1]
        outer = (v[:, :, None] * v[:, None, :]).reshape(len(v), d * d) % p
        hits.append(v[(_product(p, v, mult) == outer).all(axis=1)])
    return np.concatenate(hits)


def find_characters(a: BimonoidData) -> list:
    """All algebra maps A -> F_p, as rows, in lexicographic order."""
    rows = _multiplicative_rows(a.p, a.e.a, a.m.a)
    return [FpMatrix.row(a.p, v) for v in rows]


def find_group_likes(c: ComonoidData) -> list:
    """All group-like columns t (delta t = t(x)t, eps t = 1), lexicographic."""
    rows = _multiplicative_rows(c.p, c.eps.a.T, c.delta.a.T)
    return [FpMatrix.column(c.p, t) for t in rows]


def _witness_from_module(
    m: HopfModuleData, a: BimonoidData, ed: EntwiningData
) -> Optional[dict]:
    if not check_hopf_module(m, ed).ok:
        return None
    inc = coinvariants(m, a.e)
    if m.dim != a.dim * inc.cols:
        return {
            "module": m,
            "coinvariant dim": inc.cols,
            "module dim": m.dim,
        }
    return None


def _find_non_equivalence_witness(
    a: BimonoidData, ed: EntwiningData, extras: Sequence
) -> Optional[dict]:
    """A Hopf module M with dim M != dim A * dim M^co: user extras first, then
    one-dimensional modules twisted by a character and a group-like."""
    for m in extras:
        w = _witness_from_module(m, a, ed)
        if w is not None:
            return w
    group_likes = None  # enumerated once, and only if some character exists
    for phi in find_characters(a):
        if group_likes is None:
            group_likes = find_group_likes(a.comonoid)
        for t in group_likes:
            cand = HopfModuleData(1, phi, t)
            w = _witness_from_module(cand, a, ed)
            if w is not None:
                return w
    return None


# ---------------------------------------------------------------------------
# fundamental theorem driver
# ---------------------------------------------------------------------------

def _counit_map(m: HopfModuleData, inc: FpMatrix, da: int) -> FpMatrix:
    """M^co (x) A -> M, x(x)a |-> x.a: the action after inc(x)I_A."""
    return contract("u|xa,x|j->u|ja", m.action, inc, dict(u=m.dim, x=m.dim, a=da, j=inc.cols))


def _is_iso(m: Optional[FpMatrix]) -> bool:
    return m is not None and m.rows == m.cols == rank(m)


def verify_fundamental_theorem(
    a: BimonoidData,
    sample_dims: Sequence = (1, 2, 3),
    extras: Sequence = (),
) -> Report:
    """Equivalence witnesses for the comparison with free Hopf modules.

    Checks, in order: the split-unit condition (sufficient for comonadicity
    at desk scale), invertibility of beta with antipode verification, and
    then either round-trip isomorphism witnesses on every sample dimension
    and extra module (Galois case) or a concrete Hopf module whose dimension
    violates dim M = dim A * dim M^co (non-Galois case).

    The sample rows are decided once, on K(F^1), by additivity.  K(F^d) has
    action I_d(x)m and coaction I_d(x)delta, so for d >= 1 its identities
    hold iff those of K(F^1) do, its coinvariants are kron(I_d, those of
    K(F^1)), of dimension d iff K(F^1) has one, and its unit and counit maps
    are I_d (x) those of K(F^1); for d = 0 every row holds vacuously.
    """
    require("bimonoid", a.axioms)
    p, da = a.p, a.dim
    rep = Report("fundamental theorem", subject=f"bimonoid of dim {da} over F_{p}")
    retraction = left_inverse(a.e)
    rep.add_flag("unit of the monad is a split monomorphism", retraction is not None)
    if retraction is not None:
        rep.data["unit retraction"] = retraction

    g = galois_map_beta(a)
    rep.data["beta"] = g.base_map
    rep.data["beta rank"] = g.rank
    rep.add_flag(
        f"canonical map beta is invertible (rank {g.rank}/{g.base_map.rows})",
        g.invertible,
        note=g.note,
    )
    ed = entwining_from_bimonoid(a)

    if g.invertible:
        rep.data["antipode"] = g.antipode
        rep.add_flag("antipode satisfies both antipode axioms", bool(g.antipode_ok))
        if any(d < 0 for d in sample_dims):
            raise ShapeError("dimension must be nonnegative")
        k1 = comparison_K(1, a)
        inc = coinvariants(k1, a.e)
        on_k1 = (
            check_hopf_module(k1, ed).ok,
            inc.cols == 1,
            _is_iso(solve(inc, a.e)),
            _is_iso(_counit_map(k1, inc, da)),
        )
        for d in sample_dims:
            module, co_dim, unit_iso, counit_iso = (d == 0 or held for held in on_k1)
            rep.add_flag(f"K(F^{d}) is a Hopf module", module)
            rep.add_flag(f"coinvariants of K(F^{d}) have dimension {d}", co_dim)
            rep.add_flag(f"unit map of K(F^{d}) is an isomorphism onto the coinvariants", unit_iso)
            rep.add_flag(f"counit map of K(F^{d}) is an isomorphism", counit_iso)
        for idx, m in enumerate(extras):
            sub = check_hopf_module(m, ed)
            rep.add_flag(f"extra module {idx} is a Hopf module", sub.ok)
            if not sub.ok:
                continue
            inc = coinvariants(m, a.e)
            counit_map = _counit_map(m, inc, da)
            rep.add_flag(
                f"counit map of extra module {idx} is an isomorphism",
                _is_iso(counit_map),
            )
    else:
        witness = _find_non_equivalence_witness(a, ed, extras)
        found = witness is not None
        rep.add_flag(
            "a witness Hopf module with dim M != dim A * dim coinvariants exists",
            found,
            note="demonstrates failure of the equivalence" if found else "",
        )
        if found:
            m = witness["module"]
            rep.data["witness action"] = m.action
            rep.data["witness coaction"] = m.coaction
            rep.data["witness dim"] = witness["module dim"]
            rep.data["witness coinvariant dim"] = witness["coinvariant dim"]
    return rep
