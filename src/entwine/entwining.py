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

from .exactalg import FpMatrix, ShapeError, identity, kron, swap_matrix
from .report import Report, UnsupportedError, require
from .structures import (
    BimonoidData,
    ComonoidData,
    ComoduleAlgebraData,
    ModuleData,
    MonoidData,
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


def check_entwining(ed: EntwiningData) -> Report:
    """The four mixed-distributive-law axioms for lambda0.

    Stated in the base convention of ed.side; assumes the monoid and comonoid
    pass their own axiom checks.
    """
    p = ed.p
    da, dc = ed.monoid.dim, ed.comonoid.dim
    m, e = ed.monoid.m, ed.monoid.e
    delta, eps = ed.comonoid.delta, ed.comonoid.eps
    ia, ic = identity(p, da), identity(p, dc)
    lam = ed.lambda0
    r = Report(f"entwining axioms ({ed.side} side)")
    if ed.side == RIGHT:
        # lambda0: C(x)A -> A(x)C
        r.require_equal(
            "multiplication",
            lam @ kron(ic, m),
            kron(m, ic) @ kron(ia, lam) @ kron(lam, ia),
        )
        r.require_equal("unit", lam @ kron(ic, e), kron(e, ic))
        r.require_equal(
            "comultiplication",
            kron(ia, delta) @ lam,
            kron(lam, ic) @ kron(ic, lam) @ kron(delta, ia),
        )
        r.require_equal("counit", kron(ia, eps) @ lam, kron(eps, ia))
    else:
        # lambda0: B(x)Z -> Z(x)B
        r.require_equal(
            "multiplication",
            lam @ kron(m, ic),
            kron(ic, m) @ kron(lam, ia) @ kron(ia, lam),
        )
        r.require_equal("unit", lam @ kron(e, ic), kron(ic, e))
        r.require_equal(
            "comultiplication",
            kron(delta, ia) @ lam,
            kron(ic, lam) @ kron(lam, ic) @ kron(ia, delta),
        )
        r.require_equal("counit", kron(eps, ia) @ lam, kron(ia, eps))
    return r


def entwining_from_bimonoid(a: BimonoidData) -> EntwiningData:
    """Canonical entwining of a bimonoid: C = A as a comonoid and
    c(x)a |-> a1 (x) c.a2, assembled as (I(x)m).(swap(x)I).(I(x)delta).

    Precondition: ``a`` passes check_bialgebra.
    """
    require("bimonoid", a.axioms)
    p, d = a.p, a.dim
    i = identity(p, d)
    lam = kron(i, a.m) @ kron(swap_matrix(p, d, d), i) @ kron(i, a.delta)
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
    p = b.over.p
    da, db, dz = b.over.dim, b.algebra.dim, z.dim
    lam = (
        kron(z.sigma, identity(p, db))
        @ kron(identity(p, da), swap_matrix(p, db, dz))
        @ kron(b.rho, identity(p, dz))
    )
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
    p, dc = ed.p, ed.comonoid.dim
    lifted = kron(x.action, identity(p, dc)) @ kron(identity(p, x.dim), ed.lambda0)
    return ModuleData(x.dim * dc, lifted, "right")


def lift_report(ed: EntwiningData, x: ModuleData) -> Report:
    """Module axioms of the lifted action plus the module-morphism property
    of the counit and comultiplication legs."""
    lifted = lift_comonad(ed, x)
    r = Report("lifted module")
    r.merge(check_module(lifted, ed.monoid), prefix="lifted ")
    p, dc, da = ed.p, ed.comonoid.dim, ed.monoid.dim
    ix = identity(p, x.dim)
    ia = identity(p, da)
    counit_leg = kron(ix, ed.comonoid.eps)
    r.require_equal(
        "counit leg is a module morphism",
        counit_leg @ lifted.action,
        x.action @ kron(counit_leg, ia),
    )
    twice = lift_comonad(ed, lifted)
    comult_leg = kron(ix, ed.comonoid.delta)
    r.require_equal(
        "comultiplication leg is a module morphism",
        comult_leg @ lifted.action,
        twice.action @ kron(comult_leg, ia),
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
    p, da, dc = ed.p, ed.monoid.dim, ed.comonoid.dim
    lifted = lift_comonad(ed, regular_right_module(ed.monoid))
    insert_unit = kron(kron(ed.monoid.e, identity(p, dc)), identity(p, da))
    return lifted.action @ insert_unit
