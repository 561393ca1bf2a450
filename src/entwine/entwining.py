"""Mixed distributive laws (entwinings) between tensor-representable monads
and comonads, stored as a single base matrix.

On finite-dimensional vector spaces the functors in play are all of the form
"tensor with a fixed object", so a natural transformation between their
composites is determined by its component at the unit object.  An entwining
is therefore one matrix ``lambda0`` plus a side flag:

* ``right`` side: monad -(x)A, comonad -(x)C, base C(x)A -> A(x)C with
  components I_X (x) lambda0.  This is the convention the Hopf-module layer
  and the duoidal layer use throughout.
* ``left`` side: monad B(x)-, comonad Z(x)-, base B(x)Z -> Z(x)B with
  components lambda0 (x) I_X.  This is what the comodule-monad construction
  of the generalized layer produces.

The four axioms checked are the mixed-distributive-law diagrams expressed in
the relevant base convention; the report header records which one applies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import FpMatrix, ShapeError, contract, identity, kron
from .report import Report, UnsupportedError, require
from .structures import (
    BimonoidData,
    ComonoidData,
    ComoduleAlgebraData,
    ModuleData,
    MonoidData,
    _require_transposed,
    check_module,
    module_comonoid_of_coalgebra,
    regular_right_module,
)

__all__ = [
    "EntwiningData",
    "check_entwining",
    "entwining_from_bimonoid",
    "entwining_from_comodule_monad",
    "lift_comonad",
    "lift_report",
    "rebuild_base_map",
]

RIGHT = "right"
LEFT = "left"


@dataclass(frozen=True)
class EntwiningData:
    monoid: MonoidData
    comonoid: ComonoidData
    lambda0: FpMatrix
    side: str = RIGHT

    def __post_init__(self) -> None:
        if self.side not in (RIGHT, LEFT):
            raise ShapeError(f"side must be 'right' or 'left', got {self.side!r}")
        n = self.monoid.dim * self.comonoid.dim
        if self.lambda0.shape != (n, n):
            raise ShapeError(
                f"lambda0: expected shape ({n}, {n}), got {self.lambda0.shape}"
            )
        if not (self.monoid.p == self.comonoid.p == self.lambda0.p):
            raise ShapeError("entwining data carries mixed moduli")

    @property
    def p(self) -> int:
        return self.monoid.p


# Per side, the multiplication axiom's contractions of m with lambda0 (legs
# a, b, i, j, x, y on the monoid, c, e, k, z on the comonoid): the side
# through lambda0 once and the two steps of the side through it twice, e.g.
# on the right (m(x)I).(I(x)lambda0).(lambda0(x)I) sums m[a, (i, j)]
# lambda0[(i, e), (c, x)] lambda0[(j, k), (e, y)]; then the unit axiom's.
_ENTWINING_SPECS = {
    RIGHT: (("b|xy,ak|cb->ak|cxy", "a|ij,ie|cx->acx|je", "acx|je,jk|ey->ak|cxy"), "b|,ak|cb->ak|c"),
    LEFT: (("b|xy,ka|bz->ka|xyz", "b|ij,ej|yz->ie|byz", "ie|byz,ki|xe->kb|xyz"), "b|,ka|bz->ka|z"),
}


def _entwining_laws(side: str, m: FpMatrix, e: FpMatrix, dc: int, lam: FpMatrix) -> tuple:
    """The multiplication and unit axioms of lam, an entwining on ``side`` of
    the monoid (m, e) with a comonoid of dimension dc, as (lhs, rhs) pairs."""
    (once, first, second), unit = _ENTWINING_SPECS[side]
    dims = {**dict.fromkeys("abijxy", m.rows), **dict.fromkeys("cekz", dc)}
    # twice first, so at most three arrays of the axiom's size are alive
    twice = contract(second, contract(first, m, lam, dims), lam, dims)
    ic = identity(m.p, dc)
    return (
        (contract(once, m, lam, dims), twice),
        (contract(unit, e, lam, dims), kron(e, ic) if side == RIGHT else kron(ic, e)),
    )


def check_entwining(ed: EntwiningData) -> Report:
    """The four mixed-distributive-law axioms for lambda0.

    Stated in the base convention of ed.side; assumes the monoid and comonoid
    pass their own axiom checks.  The comultiplication and counit axioms are
    the multiplication and unit axioms of lambda0^T, an entwining on the same
    side of the monoid (delta^T, eps^T) with the comonoid (m^T, e^T),
    transposed back.
    """
    a, c, lam = ed.monoid, ed.comonoid, ed.lambda0
    r = Report(f"entwining axioms ({ed.side} side)")
    for name, sides in zip(("multiplication", "unit"), _entwining_laws(ed.side, a.m, a.e, c.dim, lam)):
        r.require_equal(name, *sides)
    laws = _entwining_laws(ed.side, c.delta.transpose(), c.eps.transpose(), a.dim, lam.transpose())
    return _require_transposed(r, ("comultiplication", "counit"), laws)


def entwining_from_bimonoid(a: BimonoidData) -> EntwiningData:
    """Canonical entwining of a bimonoid: C = A as a comonoid and
    c(x)a |-> a1 (x) c.a2: lambda0[(a1, z), (c, a)] = sum delta[(a1, a2), a] m[z, c, a2].

    Precondition: ``a`` passes check_bialgebra.
    """
    require("bimonoid", a.axioms)
    lam = contract("ij|a,z|cj->iz|ca", a.delta, a.m, dict.fromkeys("ijazc", a.dim))
    return EntwiningData(a.monoid, a.comonoid, lam, RIGHT)


def entwining_from_comodule_monad(
    b: ComoduleAlgebraData, c: ComonoidData
) -> EntwiningData:
    """Entwining of the left monad B(x)- with the comonad Z(x)- for the free
    module-comonoid Z = A(x)C: b(x)z |-> sigma(b(-1)(x)z) (x) b(0).

    Preconditions: the comodule-algebra axioms (B a monoid, rho a map of
    algebras and a coaction), the comonoid axioms and the bialgebra axioms
    of the base all hold.
    """
    require("comodule algebra", b.axioms)
    z = module_comonoid_of_coalgebra(b.over, c)  # requires a and c
    # lambda0[(w, k), (b, z)] = sum sigma[w, (a, z)] rho[(a, k), b]
    dims = dict(w=z.dim, z=z.dim, a=b.over.dim, k=b.algebra.dim, b=b.algebra.dim)
    lam = contract("w|az,ak|b->wk|bz", z.sigma, b.rho, dims)
    return EntwiningData(b.algebra, z.comonoid, lam, LEFT)


def lift_comonad(ed: EntwiningData, x: ModuleData) -> ModuleData:
    """Image of a right module under the lifted comonad: carrier X(x)C with
    action (h(x)I_C).(I_X(x)lambda0).

    Precondition: x is a verified right module over ed.monoid.
    """
    if ed.side != RIGHT:
        raise UnsupportedError("lift_comonad is defined for right-side entwinings")
    if x.side != "right":
        raise UnsupportedError("lift_comonad lifts right modules")
    require("module", check_module(x, ed.monoid))
    dc = ed.comonoid.dim
    # (h(x)I_C).(I_X(x)lambda0) at ((u, k), (x, c, b)) sums h[u, (x, a)] lambda0[(a, k), (c, b)]
    dims = dict(u=x.dim, x=x.dim, a=ed.monoid.dim, b=ed.monoid.dim, k=dc, c=dc)
    return ModuleData(x.dim * dc, contract("u|xa,ak|cb->uk|xcb", x.action, ed.lambda0, dims), "right")


def lift_report(ed: EntwiningData, x: ModuleData) -> Report:
    """Module axioms of the lifted action plus the module-morphism property
    of the counit and comultiplication legs."""
    lifted = lift_comonad(ed, x)
    r = Report("lifted module")
    r.merge(check_module(lifted, ed.monoid), prefix="lifted ")
    eps, delta = ed.comonoid.eps, ed.comonoid.delta
    dims = dict(u=x.dim, x=x.dim, a=ed.monoid.dim, b=ed.monoid.dim)
    dims.update(dict.fromkeys("cefghk", ed.comonoid.dim))
    # (I_X(x)f).h' = h''.(I_X(x)f(x)I_A) for f the counit, then the comultiplication,
    # with h'' the lift of h' never built: the right side at ((u, g, h), (x, c, b))
    # sums h'[(u, g), (x, e, a)] lambda0[(a, h), (f, b)] delta[(e, f), c]
    r.require_equal(
        "counit leg is a module morphism",
        contract("|k,uk|xcb->u|xcb", eps, lifted.action, dims),
        contract("u|xb,|c->u|xcb", x.action, eps, dims),
    )
    t = contract("ah|fb,ef|c->ah|ecb", ed.lambda0, delta, dims)
    r.require_equal(
        "comultiplication leg is a module morphism",
        contract("gh|k,uk|xcb->ugh|xcb", delta, lifted.action, dims),
        contract("ug|xea,ah|ecb->ugh|xcb", lifted.action, t, dims),
    )
    return r


def rebuild_base_map(ed: EntwiningData) -> FpMatrix:
    """Recover lambda0 from the lifting: insert the unit on the monad leg and
    evaluate the lifted action of the regular module.

    For a genuine entwining this returns lambda0 exactly, which is the
    round-trip half of the law/lifting correspondence.
    """
    if ed.side != RIGHT:
        raise UnsupportedError("rebuild_base_map expects a right-side entwining")
    lifted = lift_comonad(ed, regular_right_module(ed.monoid))
    # lifted.(e(x)I_C(x)I_A) at ((u, k), (c, b)) sums lifted[(u, k), (x, c, b)] e[x]
    dims = dict(u=ed.monoid.dim, x=ed.monoid.dim, b=ed.monoid.dim, k=ed.comonoid.dim, c=ed.comonoid.dim)
    return contract("uk|xcb,x|->uk|cb", lifted.action, ed.monoid.e, dims)
