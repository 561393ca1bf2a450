"""Duoidal-category data restricted to tensor-representable objects, the
braided vector-space instance, and the bimonoid/Galois machinery that lives
on top of it.

A context carries the two unit dimensions, the three structure morphisms
Delta: I -> I*I, mu: JoJ -> J, tau: I -> J, and the action of the
interchange component

    zeta_{W,X,Y,Z} : (W * X) o (Y * Z)  ->  (W o Y) * (X o Z)

for any four object dimensions: ``zeta(x, dw, dx, dy, dz)`` returns
``zeta_{W,X,Y,Z} @ x`` for a matrix x whose rows index the source, so a
large component is applied without being built.  Only the braided instance
(both products the plain tensor product, zeta the middle transposition) is
concretely constructible here; the context is an interface that
check_duoidal reads through zeta alone, while check_bimonoid computes law
(I) for the middle transposition and refuses any other interchange; both
refuse units that are not one-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import prod
from typing import Callable

import numpy as np

from .exactalg import (
    FpMatrix,
    ShapeError,
    contract,
    identity,
    is_prime,
    kron,
    left_inverse,
    right_inverse,
)
from .hopfmod import GaloisReport, canonical_map_report
from .report import Report, UnsupportedError, require
from .structures import (
    BimonoidData, ComonoidData, MonoidData, _bimonoid_diagrams, _middle_transposition, check_comonoid,
    check_monoid,
)

__all__ = [
    "DuoidalCtx",
    "braided_duoidal",
    "check_duoidal",
    "check_bimonoid",
    "tau_splitting",
    "galois_map_Kprime",
]

BRAIDED_TAG = "braided-vect"


@dataclass(frozen=True)
class DuoidalCtx:
    tag: str
    p: int
    dim_i: int
    dim_j: int
    zeta: Callable
    Delta: FpMatrix
    mu: FpMatrix
    tau: FpMatrix

    def __post_init__(self) -> None:
        di, dj = self.dim_i, self.dim_j
        if self.Delta.shape != (di * di, di):
            raise ShapeError(f"Delta: expected {(di * di, di)}, got {self.Delta.shape}")
        if self.mu.shape != (dj, dj * dj):
            raise ShapeError(f"mu: expected {(dj, dj * dj)}, got {self.mu.shape}")
        if self.tau.shape != (dj, di):
            raise ShapeError(f"tau: expected {(dj, di)}, got {self.tau.shape}")


def braided_duoidal(p: int) -> DuoidalCtx:
    """The degenerate duoidal structure on F_p-vector spaces: both products
    are the tensor product, both units are the line, and the interchange is
    the middle transposition I_W (x) swap_{X,Y} (x) I_Z, applied as a row
    gather: the one check_bialgebra uses."""
    if not is_prime(p):
        raise UnsupportedError(f"{p} is not prime")
    one = identity(p, 1)
    return DuoidalCtx(BRAIDED_TAG, p, 1, 1, _middle_transposition, one, one, one)


# ---------------------------------------------------------------------------
# coherence checks
# ---------------------------------------------------------------------------

def _require_unit_lines(ctx: DuoidalCtx, what: str) -> None:
    """Refuse (UnsupportedError) a context whose units I and J are not lines."""
    if ctx.dim_i != 1 or ctx.dim_j != 1:
        raise UnsupportedError(f"{what} is implemented for contexts with 1-dimensional units")


def _component_side(z: FpMatrix, legs) -> int:
    """The side d_W*d_X*d_Y*d_Z of the zeta component z at legs, which must
    be square of that side (else ShapeError, named by the legs)."""
    n = prod(legs)
    if z.shape != (n, n):
        raise ShapeError(f"zeta at dims {tuple(legs)}: expected {(n, n)}, got {z.shape}")
    return n


def _natural_in(z: FpMatrix, legs, slot: int) -> bool:
    """Whether the zeta component z at legs (W, X, Y, Z) commutes with every
    map on leg ``slot``.  With the target legs (W, Y, X, Z) put back in
    source order, that holds exactly when z is I_{d_slot} (x) Y for some Y,
    since the commutant of End(V_slot) (x) 1 is 1 (x) End(rest): with the
    slot's target and source legs moved to the front,
    T[a, o, b, i] == delta_ab * T[0, o, 0, i]."""
    _component_side(z, legs)
    d = legs[slot]
    dw, dx, dy, dz = legs
    t = z.a.reshape(dw, dy, dx, dz, dw, dx, dy, dz)
    t = np.moveaxis(t, ((0, 2, 1, 3)[slot], 4 + slot), (0, 1)).reshape(d, d, -1)
    return np.array_equal(t, np.eye(d, dtype=np.int64)[:, :, None] * t[0, 0])


def _scalar_of(z: FpMatrix, legs) -> int | None:
    """c when the zeta component z at legs (W, X, Y, Z) is c*R, R the leg
    reorder W(x)X(x)Y(x)Z -> W(x)Y(x)X(x)Z, else None.  Intersecting the
    four slots' commutants (see _natural_in) leaves the scalars, so z is
    natural in every slot exactly when z is such a multiple; c is then its
    (0, 0) entry.  The target legs are put back in source order by a
    reshape, so R is never built."""
    n = _component_side(z, legs)
    dw, dx, dy, dz = legs
    back = z.a.reshape(dw, dy, dx, dz, n).transpose(0, 2, 1, 3, 4).reshape(n, n)
    c = int(z.a[0, 0])
    return c if np.array_equal(back, c * np.eye(n, dtype=np.int64)) else None


def check_duoidal(ctx: DuoidalCtx, probe_dims=(1, 2)) -> Report:
    """Unit-compatibility structures plus interchange coherence, evaluated as
    matrix identities on every probe-dimension tuple.

    The units' laws are check_monoid's and check_comonoid's, so both units
    must be one-dimensional (else UnsupportedError).  Coherence checked:
    naturality of zeta in each slot against every map on that slot, the two
    associativity nestings, and the four unit squares through Delta and mu.
    Each zeta component is read once per call and classified as it is read
    (_scalar_of): it is natural in all four slots exactly when it is c*R,
    R the leg reorder (W, X, Y, Z) -> (W, Y, X, Z), and _natural_in runs
    only on a component that is not, to name its first failing slot.  When
    the four components of a nesting are natural, each route is its two
    scalars' product times one leg permutation, the same for both routes:
    (U, V, W, X, Y, Z) -> (U, W, Y, V, X, Z) across the first product and
    -> (U, X, V, Y, W, Z) across the second.  Such a nesting is decided as
    c1*c2 == c3*c4 mod p; a nesting with a component that is not natural
    is decided by composing both routes densely.  A wrong-shaped component
    raises ShapeError under its legs.
    """
    dims = tuple(probe_dims)
    if not dims or min(dims) < 1:
        raise ShapeError(f"probe dimensions must be a nonempty tuple of positive ints, got {dims}")
    _require_unit_lines(ctx, "duoidal checking")
    r = Report("duoidal context", subject=ctx.tag)
    p, di, dj = ctx.p, ctx.dim_i, ctx.dim_j
    eye = cache(lambda n: identity(p, n))
    r.merge(check_monoid(MonoidData(dj, ctx.mu, ctx.tau)), prefix="(J, mu, tau) ")
    r.merge(check_comonoid(ComonoidData(di, ctx.Delta, ctx.tau)), prefix="(I, Delta, tau) ")

    @cache
    def component(legs: tuple) -> tuple:
        """zeta at probe dimensions, read off its action on the identity,
        with its scalar (None when it is not natural)."""
        z = ctx.zeta(eye(prod(legs)), *legs)
        return z, _scalar_of(z, legs)

    # each generator yields the notes of failing tuples in probe order; a
    # flag reads only up to its first failure
    def naturality_faults():
        for legs in product(dims, repeat=4):
            z, c = component(legs)
            if c is None:
                for slot in range(4):
                    if not _natural_in(z, legs, slot):
                        yield f"dims {legs}, slot {slot}"

    def nested(spec: str, outer: FpMatrix, inner: FpMatrix) -> FpMatrix:
        # r, c: the outer component's target, source; q, s: the inner one's;
        # t: the outer one's legs the inner one leaves alone
        n, k = outer.rows, inner.rows
        return contract(spec, outer, inner, dict(r=n, c=n, q=k, s=k, t=n // k))

    def nesting_holds(spec1, outer1, inner1, spec2, outer2, inner2) -> bool:
        # each route composes two cached components, the inner one on the
        # first or last source (first product) or target (second) legs
        (o1, c1), (i1, c2), (o2, c3), (i2, c4) = map(component, (outer1, inner1, outer2, inner2))
        if None not in (c1, c2, c3, c4):
            return c1 * c2 % p == c3 * c4 % p
        return nested(spec1, o1, i1) == nested(spec2, o2, i2)

    def nesting_faults():
        for du, dv, dw, dx, dy, dz in product(dims, repeat=6):
            at = (du, dv, dw, dx, dy, dz)
            # nesting across the first product: ((U*V)o(W*X))o(Y*Z)
            if not nesting_holds(
                "r|qt,q|s->r|st", (du * dw, dv * dx, dy, dz), (du, dv, dw, dx),
                "r|tq,q|s->r|ts", (du, dv, dw * dy, dx * dz), (dw, dx, dy, dz),
            ):
                yield f"first-product nesting at dims {at}"
            # nesting across the second product: (U*V*W)o(X*Y*Z)
            if not nesting_holds(
                "ts|c,q|s->tq|c", (du, dv * dw, dx, dy * dz), (dv, dw, dy, dz),
                "st|c,q|s->qt|c", (du * dv, dw, dx * dy, dz), (du, dv, dx, dy),
            ):
                yield f"second-product nesting at dims {at}"

    def unit_faults():
        for dw, dx in product(dims, repeat=2):
            iwx = eye(dw * dx)
            squares = (
                ("Delta right", ctx.zeta(kron(iwx, ctx.Delta), dw, dx, di, di)),
                ("Delta left", ctx.zeta(kron(ctx.Delta, iwx), di, di, dw, dx)),
                ("mu right", kron(iwx, ctx.mu) @ component((dw, dj, dx, dj))[0]),
                ("mu left", kron(ctx.mu, iwx) @ component((dj, dw, dj, dx))[0]),
            )
            for name, got in squares:
                if not got == iwx:
                    yield f"{name} unit square at dims {(dw, dx)}"

    for name, faults in (
        ("interchange naturality on probe maps", naturality_faults()),
        ("interchange associativity nestings", nesting_faults()),
        ("interchange unit squares", unit_faults()),
    ):
        note = next(faults, "")
        r.add_flag(name, not note, note=note)
    return r


def check_bimonoid(a: BimonoidData, ctx: DuoidalCtx) -> Report:
    """Bimonoid diagrams (I)-(IV) through the context's unit morphisms, the
    routine check_bialgebra runs in the symmetric context; a context whose
    interchange is not the middle transposition is refused (UnsupportedError).
    Assumes the underlying monoid and comonoid already check."""
    if ctx.p != a.p:
        raise ShapeError(f"context over F_{ctx.p}, bimonoid over F_{a.p}")
    _require_unit_lines(ctx, "bimonoid checking")
    if ctx.zeta is not _middle_transposition:
        raise UnsupportedError(f"bimonoid checking needs the middle transposition, not {ctx.tag!r}'s zeta")
    r = Report("bimonoid diagrams", subject=ctx.tag)
    _bimonoid_diagrams(r, a, ctx.mu, ctx.Delta, ctx.tau)
    return r


def tau_splitting(ctx: DuoidalCtx) -> dict:
    """Split-monomorphism / split-epimorphism verdicts for tau: I -> J, with
    the one-sided inverses as witnesses.  A positive verdict licenses the
    Galois-only equivalence criterion in reports."""
    retraction = left_inverse(ctx.tau)
    section = right_inverse(ctx.tau)
    return {
        "split_mono": retraction is not None,
        "split_epi": section is not None,
        "retraction": retraction,
        "section": section,
    }


def galois_map_Kprime(a: BimonoidData, ctx: DuoidalCtx) -> GaloisReport:
    """Base Galois map of the dual comparison (free comodules):

        beta': A(x)A -> A(x)A,  a(x)b |-> a1 (x) a2.b

    that is (I(x)m).(delta(x)I).  Only the braided context is supported.
    """
    if ctx.tag != BRAIDED_TAG:
        raise UnsupportedError(f"unsupported duoidal context {ctx.tag!r}")
    require("bimonoid", a.axioms)
    return canonical_map_report(contract("ij|a,y|jb->iy|ab", a.delta, a.m, dict.fromkeys("ijayb", a.dim)))
