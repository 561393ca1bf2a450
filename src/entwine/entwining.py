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

from .exactalg import FpMatrix, ShapeError, _contract, apply_leg, identity, kron, permute_legs
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
    da, dc = ed.monoid.dim, ed.comonoid.dim
    m, e = ed.monoid.m, ed.monoid.e
    delta, eps = ed.comonoid.delta, ed.comonoid.eps
    ia, ic = identity(ed.p, da), identity(ed.p, dc)
    lam, lt = ed.lambda0, ed.lambda0.transpose()
    # A right multiplication X.(I(x)f(x)I) is taken as the transpose of
    # (I(x)f^T(x)I).X^T, so no side is built larger than its identity.
    r = Report(f"entwining axioms ({ed.side} side)")
    if ed.side == RIGHT:
        # lambda0: C(x)A -> A(x)C
        # (m(x)I).(I(x)lambda0).(lambda0(x)I), transposed: rows A.A.C -> A.C.A -> C.A.A
        via_lam = apply_leg(lt, kron(m, ic).transpose(), (da, da * dc), 1)
        via_lam = apply_leg(lt, via_lam, (da * dc, da), 0).transpose()
        r.require_equal(
            "multiplication", apply_leg(m.transpose(), lt, (dc, da), 1).transpose(), via_lam
        )
        r.require_equal(
            "unit", apply_leg(e.transpose(), lt, (dc, da), 1).transpose(), kron(e, ic)
        )
        # (lambda0(x)I).(I(x)lambda0).(delta(x)I): rows C.C.A -> C.A.C -> A.C.C
        via_lam = apply_leg(lam, kron(delta, ia), (dc, dc * da), 1)
        via_lam = apply_leg(lam, via_lam, (dc * da, dc), 0)
        r.require_equal("comultiplication", apply_leg(delta, lam, (da, dc), 1), via_lam)
        r.require_equal("counit", apply_leg(eps, lam, (da, dc), 1), kron(eps, ia))
    else:
        # lambda0: B(x)Z -> Z(x)B
        # (I(x)m).(lambda0(x)I).(I(x)lambda0), transposed: rows Z.B.B -> B.Z.B -> B.B.Z
        via_lam = apply_leg(lt, kron(ic, m).transpose(), (dc * da, da), 0)
        via_lam = apply_leg(lt, via_lam, (da, dc * da), 1).transpose()
        r.require_equal(
            "multiplication", apply_leg(m.transpose(), lt, (da, dc), 0).transpose(), via_lam
        )
        r.require_equal(
            "unit", apply_leg(e.transpose(), lt, (da, dc), 0).transpose(), kron(ic, e)
        )
        # (I(x)lambda0).(lambda0(x)I).(I(x)delta): rows B.Z.Z -> Z.B.Z -> Z.Z.B
        via_lam = apply_leg(lam, kron(ia, delta), (da * dc, dc), 0)
        via_lam = apply_leg(lam, via_lam, (dc, da * dc), 1)
        r.require_equal("comultiplication", apply_leg(delta, lam, (dc, da), 0), via_lam)
        r.require_equal("counit", apply_leg(eps, lam, (dc, da), 0), kron(ia, eps))
    return r


def entwining_from_bimonoid(a: BimonoidData) -> EntwiningData:
    """Canonical entwining of a bimonoid: C = A as a comonoid and
    c(x)a |-> a1 (x) c.a2: lambda0[(a1, z), (c, a)] = sum delta[(a1, a2), a] m[z, c, a2].

    Precondition: ``a`` passes check_bialgebra.
    """
    require("bimonoid", a.axioms)
    lam = _contract("ija,zcj->iz|ca", a.delta, a.m, dict.fromkeys("ijazc", a.dim))
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
    da, db, dz = b.over.dim, b.algebra.dim, z.dim
    a_b_z = kron(b.rho, identity(b.over.p, dz))
    lam = apply_leg(z.sigma, permute_legs(a_b_z, (da, db, dz), (0, 2, 1)), (da * dz, db), 0)
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
    da, dc = ed.monoid.dim, ed.comonoid.dim
    # (h(x)I_C).(I_X(x)lambda0), as the transpose of (I_X(x)lambda0^T).(h(x)I_C)^T
    h_c = kron(x.action, identity(ed.p, dc)).transpose()
    lifted = apply_leg(ed.lambda0.transpose(), h_c, (x.dim, da * dc), 1).transpose()
    return ModuleData(x.dim * dc, lifted, "right")


def lift_report(ed: EntwiningData, x: ModuleData) -> Report:
    """Module axioms of the lifted action plus the module-morphism property
    of the counit and comultiplication legs."""
    lifted = lift_comonad(ed, x)
    r = Report("lifted module")
    r.merge(check_module(lifted, ed.monoid), prefix="lifted ")
    dc, da = ed.comonoid.dim, ed.monoid.dim
    ix = identity(ed.p, x.dim)
    # h'.(f(x)I_A) for the leg map f, as the transpose of (f^T(x)I_A).h'^T
    counit_leg = kron(ix, ed.comonoid.eps)
    r.require_equal(
        "counit leg is a module morphism",
        apply_leg(ed.comonoid.eps, lifted.action, (x.dim, dc), 1),
        apply_leg(counit_leg.transpose(), x.action.transpose(), (x.dim, da), 0).transpose(),
    )
    twice = lift_comonad(ed, lifted)
    comult_leg = kron(ix, ed.comonoid.delta)
    r.require_equal(
        "comultiplication leg is a module morphism",
        apply_leg(ed.comonoid.delta, lifted.action, (x.dim, dc), 1),
        apply_leg(
            comult_leg.transpose(), twice.action.transpose(), (x.dim * dc * dc, da), 0
        ).transpose(),
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
    da, dc = ed.monoid.dim, ed.comonoid.dim
    lifted = lift_comonad(ed, regular_right_module(ed.monoid))
    insert_unit = kron(ed.monoid.e, identity(ed.p, dc))
    # lifted.(insert_unit(x)I_A), as the transpose of (insert_unit^T(x)I_A).lifted^T
    return apply_leg(
        insert_unit.transpose(), lifted.action.transpose(), (da * dc, da), 0
    ).transpose()
