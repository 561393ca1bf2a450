"""Monoids, comonoids, bimonoids and their (co)module structures over F_p.

Everything is presented by structure constants: a monoid is the pair of
matrices (m: A(x)A -> A, e: k -> A) on a chosen basis, a comonoid the dual
pair, and every axiom is decided as an exact matrix identity.  Associators
and unitors are identity reindexings under the package-wide row-major
flattening, so no bracketing bookkeeping appears in any axiom.  Each co-law
is the law of the transposed structure maps, both sides transposed back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exactalg import FpMatrix, ShapeError, contract, identity, kron, permute_legs
from .report import Report, require

__all__ = [
    "MonoidData",
    "ComonoidData",
    "BimonoidData",
    "ModuleData",
    "ComoduleAlgebraData",
    "ModuleComonoidData",
    "check_monoid",
    "check_comonoid",
    "check_bialgebra",
    "check_module",
    "check_right_comodule",
    "check_left_comodule",
    "check_comodule_algebra",
    "check_module_comonoid",
    "module_comonoid_of_coalgebra",
    "regular_right_module",
]


def _expect(mat: FpMatrix, shape: tuple, what: str) -> None:
    if mat.shape != shape:
        raise ShapeError(f"{what}: expected shape {shape}, got {mat.shape}")


@dataclass(frozen=True)
class MonoidData:
    """An algebra (A, m, e) in finite-dimensional F_p-vector spaces."""

    dim: int
    m: FpMatrix
    e: FpMatrix

    def __post_init__(self) -> None:
        _expect(self.m, (self.dim, self.dim * self.dim), "multiplication m")
        _expect(self.e, (self.dim, 1), "unit e")
        if self.m.p != self.e.p:
            raise ShapeError("m and e carry different moduli")

    @property
    def p(self) -> int:
        return self.m.p


@dataclass(frozen=True)
class ComonoidData:
    """A coalgebra (C, delta, eps)."""

    dim: int
    delta: FpMatrix
    eps: FpMatrix

    def __post_init__(self) -> None:
        _expect(self.delta, (self.dim * self.dim, self.dim), "comultiplication delta")
        _expect(self.eps, (1, self.dim), "counit eps")
        if self.delta.p != self.eps.p:
            raise ShapeError("delta and eps carry different moduli")

    @property
    def p(self) -> int:
        return self.delta.p

    @cached_property
    def axioms(self) -> Report:
        """check_comonoid of this object, evaluated once and kept with it;
        treat it as read-only."""
        return check_comonoid(self)


@dataclass(frozen=True)
class BimonoidData:
    """A monoid and a comonoid on one carrier; compatibility is checked on
    demand, not assumed at construction.  Diagrams (I)-(IV) are written once,
    through the middle transposition: check_bialgebra runs them in the
    symmetric context, check_bimonoid in the duoidal module through a
    context's unit maps.  Constructors that need a bimonoid read the memoised
    ``axioms``, so each object is proved at most once."""

    monoid: MonoidData
    comonoid: ComonoidData

    def __post_init__(self) -> None:
        if self.monoid.dim != self.comonoid.dim:
            raise ShapeError(
                f"monoid dim {self.monoid.dim} != comonoid dim {self.comonoid.dim}"
            )
        if self.monoid.p != self.comonoid.p:
            raise ShapeError("monoid and comonoid carry different moduli")

    @property
    def dim(self) -> int:
        return self.monoid.dim

    @property
    def p(self) -> int:
        return self.monoid.p

    @property
    def m(self) -> FpMatrix:
        return self.monoid.m

    @property
    def e(self) -> FpMatrix:
        return self.monoid.e

    @property
    def delta(self) -> FpMatrix:
        return self.comonoid.delta

    @property
    def eps(self) -> FpMatrix:
        return self.comonoid.eps

    @cached_property
    def axioms(self) -> Report:
        """check_bialgebra of this object, evaluated once and kept with it;
        treat it as read-only."""
        return check_bialgebra(self)


@dataclass(frozen=True)
class ModuleData:
    """A module over a monoid: right actions are X(x)A -> X, left actions
    A(x)X -> X."""

    dim: int
    action: FpMatrix
    side: str = "right"

    def __post_init__(self) -> None:
        if self.side not in ("right", "left"):
            raise ShapeError(f"side must be 'right' or 'left', got {self.side!r}")


@dataclass(frozen=True)
class ComoduleAlgebraData:
    """An algebra B with a left coaction rho: B -> A(x)B of a bimonoid A,
    required (by check_comodule_algebra) to be a map of algebras."""

    algebra: MonoidData
    over: BimonoidData
    rho: FpMatrix

    def __post_init__(self) -> None:
        da, db = self.over.dim, self.algebra.dim
        _expect(self.rho, (da * db, db), "coaction rho")
        if self.rho.p != self.algebra.p or self.algebra.p != self.over.p:
            raise ShapeError("comodule algebra data carries mixed moduli")

    @cached_property
    def axioms(self) -> Report:
        """The monoid axioms of the algebra (prefixed ``algebra ``) and
        check_comodule_algebra, evaluated once and kept with this object;
        treat it as read-only.  The base bimonoid carries its own memo."""
        r = Report("comodule algebra preconditions")
        r.merge(check_monoid(self.algebra), prefix="algebra ")
        r.merge(check_comodule_algebra(self))
        return r


@dataclass(frozen=True)
class ModuleComonoidData:
    """A comonoid object in the module category of the left monad A(x)-:
    carrier Z with action sigma: A(x)Z -> Z and comonoid maps that are module
    morphisms."""

    dim: int
    sigma: FpMatrix
    deltaZ: FpMatrix
    epsZ: FpMatrix

    def __post_init__(self) -> None:
        _expect(self.deltaZ, (self.dim * self.dim, self.dim), "deltaZ")
        _expect(self.epsZ, (1, self.dim), "epsZ")
        if self.dim > 0:
            if self.sigma.rows != self.dim or self.sigma.cols % self.dim:
                raise ShapeError(
                    f"sigma: expected shape ({self.dim}, k*{self.dim}), got {self.sigma.shape}"
                )

    @property
    def monad_dim(self) -> int:
        return self.sigma.cols // self.dim if self.dim else 0

    @property
    def comonoid(self) -> ComonoidData:
        return ComonoidData(self.dim, self.deltaZ, self.epsZ)


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------

def _require_transposed(r: Report, names, laws) -> Report:
    """Add to r each co-law of ``names`` from the (lhs, rhs) pairs ``laws`` of
    the law of the transposed maps, both sides transposed back (views, no
    copy), so the rows compared and each first difference are the co-law's."""
    for name, (lhs, rhs) in zip(names, laws):
        r.require_equal(name, lhs.transpose(), rhs.transpose())
    return r


def _monoid_laws(m: FpMatrix, e: FpMatrix) -> tuple:
    """Associativity, left unit and right unit of (m, e) as (lhs, rhs) pairs."""
    dims, i = dict.fromkeys("xiabc", m.rows), identity(m.p, m.rows)
    return (
        (contract("x|ic,i|ab->x|abc", m, m, dims), contract("x|ai,i|bc->x|abc", m, m, dims)),
        (contract("x|ib,i|->x|b", m, e, dims), i),
        (contract("x|ai,i|->x|a", m, e, dims), i),
    )


def check_monoid(a: MonoidData) -> Report:
    """Associativity and the two unit identities, as matrix equalities."""
    r = Report("monoid axioms")
    for name, sides in zip(("associativity", "left unit", "right unit"), _monoid_laws(a.m, a.e)):
        r.require_equal(name, *sides)
    return r


def check_comonoid(c: ComonoidData) -> Report:
    """The monoid laws of (delta^T, eps^T), transposed back."""
    r = Report("comonoid axioms")
    laws = _monoid_laws(c.delta.transpose(), c.eps.transpose())
    return _require_transposed(r, ("coassociativity", "left counit", "right counit"), laws)


def _middle_transposition(x: FpMatrix, dw: int, dx: int, dy: int, dz: int) -> FpMatrix:
    """The interchange of the symmetric context, applied to the rows of x:
    W(x)X(x)Y(x)Z -> W(x)Y(x)X(x)Z, as a row gather."""
    return permute_legs(x, (dw, dx, dy, dz), (0, 2, 1, 3))


def _law_one_rhs(rho: FpMatrix, m_a: FpMatrix, m_b: FpMatrix) -> FpMatrix:
    """(m_A(x)m_B).zeta.(rho(x)rho) for a coaction rho: B -> A(x)B, zeta the
    middle transposition: at ((x,y),(b,b')), sum m_A[x,a1,a2] m_B[y,c1,c2]
    rho[(a1,c1),b] rho[(a2,c2),b'].  Three contractions (m_A with the first
    rho over a1, m_B with the second over c2, the two over (a2, c1)) hold at
    most dA^2*dB^2 or dA*dB^3 entries: d^4 for a bimonoid, which is its own
    regular comodule algebra (rho = delta, m_A = m_B = m).  On transposes it
    is also a module comonoid's comultiplication law."""
    dims = {**dict.fromkeys("xij", m_a.rows), **dict.fromkeys("yklbc", m_b.rows)}
    t1 = contract("x|ij,ik|b->xb|jk", m_a, rho, dims)
    t2 = contract("y|kl,jl|c->jk|yc", m_b, rho, dims)
    return contract("xb|jk,jk|yc->xy|bc", t1, t2, dims)


def _bimonoid_diagrams(r: Report, a: BimonoidData, mu, Delta, tau) -> None:
    """Add bimonoid diagrams (I)-(IV) of ``a`` to r, through the middle
    transposition as interchange and the unit maps mu: J o J -> J,
    Delta: I -> I * I and tau: I -> J, both units one-dimensional."""
    r.require_equal(
        "comultiplication is multiplicative (I)",
        a.delta @ a.m,
        _law_one_rhs(a.delta, a.m, a.m),
    )
    r.require_equal("counit is multiplicative (II)", a.eps @ a.m, mu @ kron(a.eps, a.eps))
    r.require_equal("unit is group-like (III)", a.delta @ a.e, kron(a.e, a.e) @ Delta)
    r.require_equal("counit of unit (IV)", a.eps @ a.e, tau)


def check_bialgebra(a: BimonoidData) -> Report:
    """Monoid and comonoid axioms, then bimonoid diagrams (I)-(IV) in the
    symmetric context: both monoidal products the plain tensor product, the
    interchange the middle transposition, the unit maps 1x1 identities."""
    r = Report("bialgebra axioms")
    r.merge(check_monoid(a.monoid))
    r.merge(check_comonoid(a.comonoid))
    one = identity(a.p, 1)
    _bimonoid_diagrams(r, a, one, one, one)
    return r


# h.(h(x)I) = h.(I(x)m) and h.(I(x)e) = I for a right action h[u, (x, a)],
# mirrored for a left action h[u, (a, x)]
_MODULE_SPECS = {
    "right": ("u|kb,k|xa->u|xab", "u|xc,c|ab->u|xab", "u|xc,c|->u|x"),
    "left": ("u|ak,k|bx->u|abx", "u|cx,c|ab->u|abx", "u|cx,c|->u|x"),
}


def _module_laws(side: str, h: FpMatrix, m: FpMatrix, e: FpMatrix) -> tuple:
    """Action associativity and unit of the ``side`` action h of (m, e) as
    (lhs, rhs) pairs."""
    by_action, by_m, by_e = _MODULE_SPECS[side]
    dims = {**dict.fromkeys("ukx", h.rows), **dict.fromkeys("abc", m.rows)}
    return (
        (contract(by_action, h, h, dims), contract(by_m, h, m, dims)),
        (contract(by_e, h, e, dims), identity(m.p, h.rows)),
    )


def check_module(x: ModuleData, a: MonoidData) -> Report:
    r = Report(f"{x.side} module axioms")
    _expect(x.action, (x.dim, x.dim * a.dim), f"{x.side} action")
    for name, sides in zip(("action associativity", "action unit"), _module_laws(x.side, x.action, a.m, a.e)):
        r.require_equal(name, *sides)
    return r


def _check_comodule(side: str, dim: int, coaction: FpMatrix, c: ComonoidData) -> Report:
    """The module laws of the action coaction^T of (delta^T, eps^T),
    transposed back.  A left coaction's coassociativity, (delta(x)I).rho =
    (I(x)rho).rho, reads the action's sides in the opposite order."""
    r = Report(f"{side} comodule axioms")
    _expect(coaction, (dim * c.dim, dim), f"{side} coaction")
    assoc, unit = _module_laws(side, coaction.transpose(), c.delta.transpose(), c.eps.transpose())
    laws = (assoc if side == "right" else assoc[::-1], unit)
    return _require_transposed(r, ("coaction coassociativity", "coaction counit"), laws)


def check_right_comodule(dim: int, theta: FpMatrix, c: ComonoidData) -> Report:
    return _check_comodule("right", dim, theta, c)


def check_left_comodule(dim: int, rho: FpMatrix, c: ComonoidData) -> Report:
    return _check_comodule("left", dim, rho, c)


def check_comodule_algebra(b: ComoduleAlgebraData) -> Report:
    """The four comodule-algebra invariants: left A-comodule plus rho being a
    map of algebras.  Assumes the base bimonoid has already been verified."""
    r = Report("comodule algebra axioms")
    a, alg = b.over, b.algebra
    r.merge(check_left_comodule(alg.dim, b.rho, a.comonoid))
    r.require_equal("coaction is multiplicative", b.rho @ alg.m, _law_one_rhs(b.rho, a.m, alg.m))
    r.require_equal("coaction preserves the unit", b.rho @ alg.e, kron(a.e, alg.e))
    return r


# ---------------------------------------------------------------------------
# opmonoidal structure of the left monad A(x)- and its module-comonoids
# ---------------------------------------------------------------------------

def module_comonoid_of_coalgebra(a: BimonoidData, c: ComonoidData) -> ModuleComonoidData:
    """Free module-comonoid on a coalgebra: carrier A(x)C, action by
    multiplication on the first leg, comultiplication through the colax
    structure and counit through both counits.

    Preconditions: ``a`` passes check_bialgebra and ``c`` passes
    check_comonoid (raises PreconditionError otherwise).
    """
    require("bimonoid", a.axioms)
    require("comonoid", c.axioms)
    if a.p != c.p:
        raise ShapeError("modulus mismatch between bimonoid and comonoid")
    da, dc = a.dim, c.dim
    sigma = kron(a.m, identity(a.p, dc))
    # the colax structure a(x)x(x)y |-> a1(x)x(x)a2(x)y after I(x)delta_C is
    # delta_A(x)delta_C followed by the middle transposition
    delta_z = _middle_transposition(kron(a.delta, c.delta), da, da, dc, dc)
    return ModuleComonoidData(da * dc, sigma, delta_z, kron(a.eps, c.eps))


def check_module_comonoid(z: ModuleComonoidData, a: BimonoidData) -> Report:
    """Module axioms for sigma, comonoid axioms for (deltaZ, epsZ), and the
    two module-morphism compatibilities of the comonoid maps."""
    r = Report("module comonoid axioms")
    da, dz = a.dim, z.dim
    if z.monad_dim != da:
        raise ShapeError(f"sigma acts for a monad of dim {z.monad_dim}, bimonoid has dim {da}")
    r.merge(check_module(ModuleData(dz, z.sigma, "left"), a.monoid))
    r.merge(check_comonoid(z.comonoid), prefix="comonoid ")
    # (sigma(x)sigma).colax.(delta(x)deltaZ) is law (I) of the coaction sigma^T of
    # the bimonoid's dual on the algebra (deltaZ^T, epsZ^T), transposed back
    colax = _law_one_rhs(z.sigma.transpose(), a.delta.transpose(), z.deltaZ.transpose())
    r.require_equal("comultiplication is a module morphism", z.deltaZ @ z.sigma, colax.transpose())
    r.require_equal("counit is a module morphism", z.epsZ @ z.sigma, kron(a.eps, z.epsZ))
    return r


def regular_right_module(a: MonoidData) -> ModuleData:
    return ModuleData(a.dim, a.m, "right")
