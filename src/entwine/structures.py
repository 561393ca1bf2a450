"""Monoids, comonoids, bimonoids and their (co)module structures over F_p.

Everything is presented by structure constants: a monoid is the pair of
matrices (m: A(x)A -> A, e: k -> A) on a chosen basis, a comonoid the dual
pair, and every axiom is decided as an exact matrix identity.  Associators
and unitors are identity reindexings under the package-wide row-major
flattening, so no bracketing bookkeeping appears in any axiom.
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

def check_monoid(a: MonoidData) -> Report:
    """Associativity and the two unit identities, as matrix equalities."""
    r = Report("monoid axioms")
    m, e, dims = a.m, a.e, dict.fromkeys("xiabc", a.dim)
    r.require_equal(
        "associativity",
        contract("x|ic,i|ab->x|abc", m, m, dims),
        contract("x|ai,i|bc->x|abc", m, m, dims),
    )
    i = identity(a.p, a.dim)
    r.require_equal("left unit", contract("x|ib,i|->x|b", m, e, dims), i)
    r.require_equal("right unit", contract("x|ai,i|->x|a", m, e, dims), i)
    return r


def check_comonoid(c: ComonoidData) -> Report:
    r = Report("comonoid axioms")
    delta, eps, dims = c.delta, c.eps, dict.fromkeys("xiabc", c.dim)
    r.require_equal(
        "coassociativity",
        contract("ab|i,ic|x->abc|x", delta, delta, dims),
        contract("bc|i,ai|x->abc|x", delta, delta, dims),
    )
    i = identity(c.p, c.dim)
    r.require_equal("left counit", contract("|i,ib|x->b|x", eps, delta, dims), i)
    r.require_equal("right counit", contract("|i,ai|x->a|x", eps, delta, dims), i)
    return r


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
    regular comodule algebra (rho = delta, m_A = m_B = m)."""
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


def check_module(x: ModuleData, a: MonoidData) -> Report:
    r = Report(f"{x.side} module axioms")
    h = x.action
    _expect(h, (x.dim, x.dim * a.dim), f"{x.side} action")
    by_action, by_m, by_e = _MODULE_SPECS[x.side]
    dims = {**dict.fromkeys("ukx", x.dim), **dict.fromkeys("abc", a.dim)}
    r.require_equal(
        "action associativity", contract(by_action, h, h, dims), contract(by_m, h, a.m, dims)
    )
    r.require_equal("action unit", contract(by_e, h, a.e, dims), identity(a.p, x.dim))
    return r


# (theta(x)I).theta = (I(x)delta).theta and (I(x)eps).theta = I for a right
# coaction theta[(x, c), u]; for a left coaction rho[(c, x), u], (delta(x)I).rho
# = (I(x)rho).rho and (eps(x)I).rho = I, the sides in the opposite order
_COMODULE_SPECS = {
    "right": ("xc|k,kd|u->xcd|u", "cd|e,xe|u->xcd|u", "|e,xe|u->x|u"),
    "left": ("dx|k,ck|u->cdx|u", "cd|e,ex|u->cdx|u", "|e,ex|u->x|u"),
}


def _check_comodule(side: str, dim: int, coaction: FpMatrix, c: ComonoidData) -> Report:
    r = Report(f"{side} comodule axioms")
    _expect(coaction, (dim * c.dim, dim), f"{side} coaction")
    by_coaction, by_delta, by_eps = _COMODULE_SPECS[side]
    dims = {**dict.fromkeys("xku", dim), **dict.fromkeys("cde", c.dim)}
    sides = contract(by_coaction, coaction, coaction, dims), contract(by_delta, c.delta, coaction, dims)
    r.require_equal("coaction coassociativity", *(sides if side == "right" else sides[::-1]))
    r.require_equal("coaction counit", contract(by_eps, c.eps, coaction, dims), identity(c.p, dim))
    return r


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
    # (sigma(x)sigma).colax.(I(x)deltaZ) at ((w, v), (a, z)) sums sigma[w, (i, k)]
    # sigma[v, (j, l)] delta[(i, j), a] deltaZ[(k, l), z], each sigma with one delta
    dims = {**dict.fromkeys("wvklz", dz), **dict.fromkeys("ija", da)}
    t1 = contract("w|ik,ij|a->wa|jk", z.sigma, a.delta, dims)
    t2 = contract("v|jl,kl|z->jk|vz", z.sigma, z.deltaZ, dims)
    r.require_equal(
        "comultiplication is a module morphism",
        z.deltaZ @ z.sigma,
        contract("wa|jk,jk|vz->wv|az", t1, t2, dims),
    )
    r.require_equal("counit is a module morphism", z.epsZ @ z.sigma, kron(a.eps, z.epsZ))
    return r


def regular_right_module(a: MonoidData) -> ModuleData:
    return ModuleData(a.dim, a.m, "right")
