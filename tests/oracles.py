"""Brute-force oracles for every axiom checker.

Each oracle evaluates both sides of a diagram on all basis tuples by
explicit structure-constant summation (element-by-element loops), staying
independent of the kron/matrix-identity assembly used by the library
checkers.  Verdict agreement between the two routes is itself an acceptance
criterion, so these oracles never call the checkers they validate.
"""

from __future__ import annotations

import itertools
from math import prod
from types import SimpleNamespace

import numpy as np

from entwine.exactalg import FpMatrix, fp_inv
from entwine.report import Report


def mul_elem(a, i: int, j: int) -> np.ndarray:
    """Coordinates of (basis_i . basis_j)."""
    return np.array(a.m.a[:, i * a.dim + j])


def unit_elem(a) -> np.ndarray:
    return np.array(a.e.a[:, 0])


def comul_elem(c, i: int) -> np.ndarray:
    """Coordinates of delta(basis_i) as a (dim, dim) array T[j, k]."""
    return np.array(c.delta.a[:, i]).reshape(c.dim, c.dim)


def counit_elem(c, i: int) -> int:
    return int(c.eps.a[0, i])


def mul_vec(a, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    d, p = a.dim, a.p
    out = np.zeros(d, dtype=np.int64)
    for i in range(d):
        if not u[i]:
            continue
        for j in range(d):
            if not v[j]:
                continue
            out += int(u[i]) * int(v[j]) * mul_elem(a, i, j)
    return out % p


def comul_vec(c, u: np.ndarray) -> np.ndarray:
    d, p = c.dim, c.p
    out = np.zeros((d, d), dtype=np.int64)
    for i in range(d):
        if u[i]:
            out += int(u[i]) * comul_elem(c, i)
    return out % p


def oracle_characters(a) -> list:
    """Every algebra map phi: A -> F_p as a coordinate tuple, in the order of
    itertools.product: phi(1) = 1 and phi(b_i . b_j) = phi(b_i) phi(b_j) on
    every basis pair."""
    d, p = a.dim, a.p
    basis = np.eye(d, dtype=np.int64)
    table = [(i, j, mul_vec(a, basis[i], basis[j])) for i in range(d) for j in range(d)]
    e = unit_elem(a)
    out = []
    for phi in itertools.product(range(p), repeat=d):
        f = np.array(phi, dtype=np.int64)
        if int(f @ e) % p != 1:
            continue
        if all(int(f @ prod) % p == phi[i] * phi[j] % p for i, j, prod in table):
            out.append(phi)
    return out


def oracle_group_likes(c) -> list:
    """Every group-like t (delta t = t (x) t, eps t = 1) as a coordinate
    tuple, in the order of itertools.product."""
    d, p = c.dim, c.p
    out = []
    for t in itertools.product(range(p), repeat=d):
        if sum(t[i] * counit_elem(c, i) for i in range(d)) % p != 1:
            continue
        u = np.array(t, dtype=np.int64)
        if np.array_equal(comul_vec(c, u), np.outer(u, u) % p):
            out.append(t)
    return out


def oracle_monoid(a) -> dict:
    d, p = a.dim, a.p
    basis = np.eye(d, dtype=np.int64)
    assoc = all(
        np.array_equal(
            mul_vec(a, mul_vec(a, basis[i], basis[j]), basis[k]),
            mul_vec(a, basis[i], mul_vec(a, basis[j], basis[k])),
        )
        for i in range(d)
        for j in range(d)
        for k in range(d)
    )
    e = unit_elem(a) % p
    left = all(np.array_equal(mul_vec(a, e, basis[i]), basis[i]) for i in range(d))
    right = all(np.array_equal(mul_vec(a, basis[i], e), basis[i]) for i in range(d))
    return {"associativity": assoc, "left unit": left, "right unit": right}


def oracle_comonoid(c) -> dict:
    d, p = c.dim, c.p
    coassoc = True
    left = True
    right = True
    for i in range(d):
        t = comul_elem(c, i)
        lhs = np.zeros((d, d, d), dtype=np.int64)
        rhs = np.zeros((d, d, d), dtype=np.int64)
        for j in range(d):
            for k in range(d):
                if not t[j, k]:
                    continue
                dj = comul_elem(c, j)
                dk = comul_elem(c, k)
                for x in range(d):
                    for y in range(d):
                        lhs[x, y, k] += int(t[j, k]) * int(dj[x, y])
                        rhs[j, x, y] += int(t[j, k]) * int(dk[x, y])
        coassoc &= np.array_equal(lhs % p, rhs % p)
        lvec = np.zeros(d, dtype=np.int64)
        rvec = np.zeros(d, dtype=np.int64)
        for j in range(d):
            for k in range(d):
                lvec[k] += int(t[j, k]) * counit_elem(c, j)
                rvec[j] += int(t[j, k]) * counit_elem(c, k)
        ei = np.eye(d, dtype=np.int64)[i]
        left &= np.array_equal(lvec % p, ei)
        right &= np.array_equal(rvec % p, ei)
    return {"coassociativity": coassoc, "left counit": left, "right counit": right}


def oracle_module(x, a) -> dict:
    """Action associativity and unit of x over the monoid a on basis
    triples: (x.a).b == x.(ab) for a right action, whose column x*dA + a
    holds x.a, and a.(b.x) == (ab).x for a left action, whose column
    a*dX + x holds a.x.  Sums are Python integers."""
    dx, da, p = x.dim, a.dim, a.p
    bx, ba = np.eye(dx, dtype=np.int64), np.eye(da, dtype=np.int64)

    def act(v, u) -> np.ndarray:
        """v acted on by u, for v in X and u in A."""
        out = np.zeros(dx, dtype=object)
        for i in np.flatnonzero(v):
            for j in np.flatnonzero(u):
                col = i * da + j if x.side == "right" else j * dx + i
                out += int(v[i]) * int(u[j]) * x.action.a[:, col].astype(object)
        return out % p

    def ab(j, k) -> np.ndarray:
        """b_j b_k for a right action, acting after b_j; b_k b_j for a left."""
        return mul_vec(a, ba[j], ba[k]) if x.side == "right" else mul_vec(a, ba[k], ba[j])

    assoc = all(
        np.array_equal(act(act(bx[i], ba[j]), ba[k]), act(bx[i], ab(j, k)))
        for i in range(dx)
        for j in range(da)
        for k in range(da)
    )
    unit = all(np.array_equal(act(bx[i], unit_elem(a) % p), bx[i]) for i in range(dx))
    return {"action associativity": assoc, "action unit": unit}


def _comodule_oracle(dim: int, coaction: FpMatrix, c, right: bool) -> dict:
    """Coassociativity and counit of a coaction X -> X(x)C (right) or
    X -> C(x)X (left), with the image of each basis vector read as a
    coordinate array T[x, c] (right) or T[c, x] (left)."""
    dc, p = c.dim, c.p

    def image(u) -> np.ndarray:
        col = coaction.a[:, u].astype(object)
        return col.reshape(dim, dc) if right else col.reshape(dc, dim)

    coassoc = counit = True
    for u in range(dim):
        t = image(u)
        lhs = np.zeros((dim, dc, dc) if right else (dc, dc, dim), dtype=object)
        rhs = np.zeros_like(lhs)
        for i, j in zip(*np.nonzero(t)):
            coeff = int(t[i, j])
            if right:  # (theta(x)I).theta and (I(x)delta).theta at (x, c, c')
                lhs[:, :, j] += coeff * image(i)
                rhs[i] += coeff * comul_elem(c, j).astype(object)
            else:  # (delta(x)I).rho and (I(x)rho).rho at (c, c', x)
                lhs[:, :, j] += coeff * comul_elem(c, i).astype(object)
                rhs[i] += coeff * image(j)
        coassoc &= np.array_equal(lhs % p, rhs % p)
        eps = np.array([counit_elem(c, k) for k in range(dc)], dtype=object)
        got = t @ eps if right else eps @ t
        counit &= np.array_equal(got % p, np.eye(dim, dtype=np.int64)[u])
    return {"coaction coassociativity": coassoc, "coaction counit": counit}


def oracle_right_comodule(dim: int, theta: FpMatrix, c) -> dict:
    return _comodule_oracle(dim, theta, c, right=True)


def oracle_left_comodule(dim: int, rho: FpMatrix, c) -> dict:
    return _comodule_oracle(dim, rho, c, right=False)


def oracle_bialgebra(a) -> dict:
    """Diagrams (I)-(IV) in the symmetric vector-space context."""
    d, p = a.dim, a.p
    com = a.comonoid
    ok_i = True
    ok_ii = True
    for i in range(d):
        for j in range(d):
            prod = mul_vec(a.monoid, np.eye(d, dtype=np.int64)[i], np.eye(d, dtype=np.int64)[j])
            lhs = comul_vec(com, prod)
            du, dv = comul_elem(com, i), comul_elem(com, j)
            rhs = np.zeros((d, d), dtype=np.int64)
            for u1 in range(d):
                for u2 in range(d):
                    if not du[u1, u2]:
                        continue
                    for v1 in range(d):
                        for v2 in range(d):
                            if not dv[v1, v2]:
                                continue
                            rhs += (
                                int(du[u1, u2])
                                * int(dv[v1, v2])
                                * np.outer(mul_elem(a.monoid, u1, v1), mul_elem(a.monoid, u2, v2))
                            )
            ok_i &= np.array_equal(lhs, rhs % p)
            eps_prod = sum(int(prod[k]) * counit_elem(com, k) for k in range(d)) % p
            ok_ii &= eps_prod == (counit_elem(com, i) * counit_elem(com, j)) % p
    e = unit_elem(a.monoid)
    ok_iii = np.array_equal(comul_vec(com, e), np.outer(e, e) % p)
    ok_iv = sum(int(e[k]) * counit_elem(com, k) for k in range(d)) % p == 1
    return {
        "comultiplication is multiplicative (I)": ok_i,
        "counit is multiplicative (II)": ok_ii,
        "unit is group-like (III)": ok_iii,
        "counit of unit (IV)": ok_iv,
    }


def oracle_comodule_algebra(b) -> dict:
    """Left comodule and algebra-map axioms of rho: B -> A(x)B, with each
    rho(b_i) read as an element of A(x)B, a (dim A, dim B) coordinate array,
    and A(x)B multiplied factorwise: (a(x)x)(a'(x)x') = aa' (x) xx'."""
    a, alg, p = b.over, b.algebra, b.algebra.p
    da, db = a.dim, alg.dim
    ea, eb = np.eye(da, dtype=np.int64), np.eye(db, dtype=np.int64)

    def rho_vec(u) -> np.ndarray:
        cols = b.rho.a.T.reshape(db, da, db)
        return sum((int(u[k]) * cols[k] for k in range(db)), np.zeros((da, db), dtype=np.int64)) % p

    def tensor_mul(s, t) -> np.ndarray:
        out = np.zeros((da, db), dtype=np.int64)
        for (u1, u2), (v1, v2) in itertools.product(zip(*np.nonzero(s)), zip(*np.nonzero(t))):
            coeff = int(s[u1, u2]) * int(t[v1, v2])
            out += coeff * np.outer(mul_vec(a.monoid, ea[u1], ea[v1]), mul_vec(alg, eb[u2], eb[v2]))
        return out % p

    coassoc = counit = mult = True
    for i in range(db):
        t = rho_vec(eb[i])
        lhs = np.zeros((da, da, db), dtype=np.int64)
        rhs = np.zeros((da, da, db), dtype=np.int64)
        for j, k in zip(*np.nonzero(t)):
            lhs += int(t[j, k]) * comul_elem(a.comonoid, j)[:, :, None] * eb[k]
            rhs[j] += int(t[j, k]) * rho_vec(eb[k])
        coassoc &= np.array_equal(lhs % p, rhs % p)
        counit &= np.array_equal(sum(counit_elem(a.comonoid, j) * t[j] for j in range(da)) % p, eb[i])
        for j in range(db):
            mult &= np.array_equal(rho_vec(mul_vec(alg, eb[i], eb[j])), tensor_mul(t, rho_vec(eb[j])))
    unit = np.array_equal(rho_vec(unit_elem(alg) % p), np.outer(unit_elem(a.monoid), unit_elem(alg)) % p)
    return {
        "coaction coassociativity": coassoc,
        "coaction counit": counit,
        "coaction is multiplicative": mult,
        "coaction preserves the unit": unit,
    }


def oracle_module_comonoid(z, a) -> dict:
    """Module, comonoid and module-morphism axioms of the module comonoid z
    over the bimonoid a, on basis tuples: the left action's through
    oracle_module, the comonoid's through oracle_comonoid, then
    deltaZ(a.z) == sum a1.z1 (x) a2.z2 over delta(a) and deltaZ(z), and
    epsZ(a.z) == eps(a) epsZ(z).  Column i*dZ + k of sigma holds a_i.z_k and
    column k of deltaZ holds deltaZ(z_k) as a (dZ, dZ) coordinate array.
    Sums are Python integers."""
    da, dz, p = a.dim, z.dim, a.p
    sigma, eps_z = z.sigma.a.astype(object), z.epsZ.a[0].astype(object)

    def comul_z(v) -> np.ndarray:
        """deltaZ(v) as a (dZ, dZ) coordinate array."""
        image = np.zeros((dz, dz), dtype=object)
        for k in np.flatnonzero(v):
            image += int(v[k]) * z.deltaZ.a[:, k].astype(object).reshape(dz, dz)
        return image

    out = oracle_module(SimpleNamespace(dim=dz, action=z.sigma, side="left"), a.monoid)
    comonoid = oracle_comonoid(SimpleNamespace(dim=dz, p=p, delta=z.deltaZ, eps=z.epsZ))
    out.update((f"comonoid {name}", ok) for name, ok in comonoid.items())
    comult = counit = True
    for i in range(da):
        da_i = comul_elem(a.comonoid, i)
        for k in range(dz):
            dz_k = z.deltaZ.a[:, k].reshape(dz, dz)
            rhs = np.zeros((dz, dz), dtype=object)
            for i1, i2 in zip(*np.nonzero(da_i)):
                for k1, k2 in zip(*np.nonzero(dz_k)):
                    coeff = int(da_i[i1, i2]) * int(dz_k[k1, k2])
                    rhs += coeff * np.outer(sigma[:, i1 * dz + k1], sigma[:, i2 * dz + k2])
            acted = sigma[:, i * dz + k]
            comult &= np.array_equal(comul_z(acted) % p, rhs % p)
            counit &= int(eps_z @ acted) % p == counit_elem(a.comonoid, i) * int(eps_z[k]) % p
    out["comultiplication is a module morphism"] = comult
    out["counit is a module morphism"] = counit
    return out


def entwine_pairs(ed) -> np.ndarray:
    """lambda0 on basis pairs as W[in1, in2, out1, out2].

    Right side: in = (c, a), out = (a', c'); left side: in = (b, z),
    out = (z', b').  Either way out legs are read off the row index in
    row-major order.
    """
    d1 = ed.comonoid.dim if ed.side == "right" else ed.monoid.dim
    d2 = ed.monoid.dim if ed.side == "right" else ed.comonoid.dim
    o1 = ed.monoid.dim if ed.side == "right" else ed.comonoid.dim
    o2 = ed.comonoid.dim if ed.side == "right" else ed.monoid.dim
    w = np.zeros((d1, d2, o1, o2), dtype=np.int64)
    for i in range(d1):
        for j in range(d2):
            col = np.array(ed.lambda0.a[:, i * d2 + j]).reshape(o1, o2)
            w[i, j] = col
    return w


def oracle_entwining(ed) -> dict:
    """The four mixed-distributive-law axioms evaluated on basis tuples."""
    p = ed.p
    da, dc = ed.monoid.dim, ed.comonoid.dim
    mon, com = ed.monoid, ed.comonoid
    w = entwine_pairs(ed)
    e = unit_elem(mon)

    def psi_right(ci, ai):
        return w[ci, ai]  # (a_out, c_out)

    def psi_left(bi, zi):
        return w[bi, zi]  # (z_out, b_out)

    ok = {}
    if ed.side == "right":
        good = True
        for ci in range(dc):
            for ai in range(da):
                for bi in range(da):
                    prod = mul_elem(mon, ai, bi)
                    lhs = np.zeros((da, dc), dtype=np.int64)
                    for k in range(da):
                        if prod[k]:
                            lhs += int(prod[k]) * psi_right(ci, k)
                    first = psi_right(ci, ai)
                    rhs = np.zeros((da, dc), dtype=np.int64)
                    for a1 in range(da):
                        for c1 in range(dc):
                            if not first[a1, c1]:
                                continue
                            second = psi_right(c1, bi)
                            for a2 in range(da):
                                for c2 in range(dc):
                                    if second[a2, c2]:
                                        rhs += (
                                            int(first[a1, c1])
                                            * int(second[a2, c2])
                                            * np.outer(mul_elem(mon, a1, a2), np.eye(dc, dtype=np.int64)[c2])
                                        )
                    good &= np.array_equal(lhs % p, rhs % p)
        ok["multiplication"] = good

        good = True
        for ci in range(dc):
            got = np.zeros((da, dc), dtype=np.int64)
            for k in range(da):
                if e[k]:
                    got += int(e[k]) * psi_right(ci, k)
            want = np.outer(e, np.eye(dc, dtype=np.int64)[ci])
            good &= np.array_equal(got % p, want % p)
        ok["unit"] = good

        good = True
        for ci in range(dc):
            for ai in range(da):
                out = psi_right(ci, ai)
                lhs = np.zeros((da, dc, dc), dtype=np.int64)
                for a1 in range(da):
                    for c1 in range(dc):
                        if not out[a1, c1]:
                            continue
                        dsplit = comul_elem(com, c1)
                        for x in range(dc):
                            for y in range(dc):
                                lhs[a1, x, y] += int(out[a1, c1]) * int(dsplit[x, y])
                rhs = np.zeros((da, dc, dc), dtype=np.int64)
                dci = comul_elem(com, ci)
                for c1 in range(dc):
                    for c2 in range(dc):
                        if not dci[c1, c2]:
                            continue
                        inner = psi_right(c2, ai)
                        for a1 in range(da):
                            for c2p in range(dc):
                                if not inner[a1, c2p]:
                                    continue
                                outer = psi_right(c1, a1)
                                for a2 in range(da):
                                    for c1p in range(dc):
                                        rhs[a2, c1p, c2p] += (
                                            int(dci[c1, c2]) * int(inner[a1, c2p]) * int(outer[a2, c1p])
                                        )
                good &= np.array_equal(lhs % p, rhs % p)
        ok["comultiplication"] = good

        good = True
        for ci in range(dc):
            for ai in range(da):
                out = psi_right(ci, ai)
                got = np.zeros(da, dtype=np.int64)
                for a1 in range(da):
                    for c1 in range(dc):
                        got[a1] += int(out[a1, c1]) * counit_elem(com, c1)
                want = (counit_elem(com, ci) * np.eye(da, dtype=np.int64)[ai]) % p
                good &= np.array_equal(got % p, want)
        ok["counit"] = good
    else:
        db, dz = da, dc
        good = True
        for bi in range(db):
            for b2i in range(db):
                for zi in range(dz):
                    prod = mul_elem(mon, bi, b2i)
                    lhs = np.zeros((dz, db), dtype=np.int64)
                    for k in range(db):
                        if prod[k]:
                            lhs += int(prod[k]) * psi_left(k, zi)
                    inner = psi_left(b2i, zi)
                    rhs = np.zeros((dz, db), dtype=np.int64)
                    for z1 in range(dz):
                        for b1 in range(db):
                            if not inner[z1, b1]:
                                continue
                            outer = psi_left(bi, z1)
                            for z2 in range(dz):
                                for b2 in range(db):
                                    if outer[z2, b2]:
                                        rhs += (
                                            int(inner[z1, b1])
                                            * int(outer[z2, b2])
                                            * np.outer(np.eye(dz, dtype=np.int64)[z2], mul_elem(mon, b2, b1))
                                        )
                    good &= np.array_equal(lhs % p, rhs % p)
        ok["multiplication"] = good

        good = True
        for zi in range(dz):
            got = np.zeros((dz, db), dtype=np.int64)
            for k in range(db):
                if e[k]:
                    got += int(e[k]) * psi_left(k, zi)
            want = np.outer(np.eye(dz, dtype=np.int64)[zi], e)
            good &= np.array_equal(got % p, want % p)
        ok["unit"] = good

        good = True
        for bi in range(db):
            for zi in range(dz):
                out = psi_left(bi, zi)
                lhs = np.zeros((dz, dz, db), dtype=np.int64)
                for z1 in range(dz):
                    for b1 in range(db):
                        if not out[z1, b1]:
                            continue
                        dsplit = comul_elem(com, z1)
                        for x in range(dz):
                            for y in range(dz):
                                lhs[x, y, b1] += int(out[z1, b1]) * int(dsplit[x, y])
                rhs = np.zeros((dz, dz, db), dtype=np.int64)
                dzi = comul_elem(com, zi)
                for z1 in range(dz):
                    for z2 in range(dz):
                        if not dzi[z1, z2]:
                            continue
                        first = psi_left(bi, z1)
                        for z1p in range(dz):
                            for b1 in range(db):
                                if not first[z1p, b1]:
                                    continue
                                second = psi_left(b1, z2)
                                for z2p in range(dz):
                                    for b2 in range(db):
                                        rhs[z1p, z2p, b2] += (
                                            int(dzi[z1, z2]) * int(first[z1p, b1]) * int(second[z2p, b2])
                                        )
                good &= np.array_equal(lhs % p, rhs % p)
        ok["comultiplication"] = good

        good = True
        for bi in range(db):
            for zi in range(dz):
                out = psi_left(bi, zi)
                got = np.zeros(db, dtype=np.int64)
                for z1 in range(dz):
                    for b1 in range(db):
                        got[b1] += int(out[z1, b1]) * counit_elem(com, z1)
                want = (counit_elem(com, zi) * np.eye(db, dtype=np.int64)[bi]) % p
                good &= np.array_equal(got % p, want)
        ok["counit"] = good
    return ok


def oracle_pentagon(mod, ed) -> bool:
    """theta(h(x (x) a)) == (h (x) I).(I (x) psi).(theta (x) I) on basis pairs,
    summed in Python integers, so exact for every p < 2^31."""
    p = ed.p
    da, dc, dx = ed.monoid.dim, ed.comonoid.dim, mod.dim
    w = entwine_pairs(ed)
    good = True
    for xi in range(dx):
        for ai in range(da):
            acted = np.array(mod.action.a[:, xi * da + ai])
            lhs = np.zeros((dx, dc), dtype=object)
            for k in range(dx):
                if acted[k]:
                    lhs += int(acted[k]) * np.array(mod.coaction.a[:, k]).reshape(dx, dc).astype(object)
            theta_x = np.array(mod.coaction.a[:, xi]).reshape(dx, dc)
            rhs = np.zeros((dx, dc), dtype=object)
            for x1 in range(dx):
                for c1 in range(dc):
                    if not theta_x[x1, c1]:
                        continue
                    ent = w[c1, ai]  # (a_out, c_out)
                    for a1 in range(da):
                        for c2 in range(dc):
                            if not ent[a1, c2]:
                                continue
                            hx = np.array(mod.action.a[:, x1 * da + a1]).astype(object)
                            rhs[:, c2] += int(theta_x[x1, c1]) * int(ent[a1, c2]) * hx
            good &= np.array_equal(lhs % p, rhs % p)
    return good


def oracle_beta(a) -> np.ndarray:
    """The canonical map assembled by basis-pair evaluation: column at
    (x, a) holds the coordinates of x.a1 (x) a2.  Each term is below 2^62
    and the sums are Python integers, so this is exact for every p < 2^31."""
    d, p = a.dim, a.p
    out = np.zeros((d * d, d * d), dtype=np.int64)
    for xi in range(d):
        for ai in range(d):
            dsplit = comul_elem(a.comonoid, ai)
            col = np.zeros((d, d), dtype=object)
            for a1 in range(d):
                for a2 in range(d):
                    if not dsplit[a1, a2]:
                        continue
                    col += int(dsplit[a1, a2]) * np.outer(
                        mul_elem(a.monoid, xi, a1), np.eye(d, dtype=np.int64)[a2]
                    ).astype(object)
            out[:, xi * d + ai] = (col % p).reshape(-1)
    return out


def oracle_beta_prime(a) -> np.ndarray:
    """Column at (a, b) holds the coordinates of a1 (x) a2.b (exact as
    oracle_beta is)."""
    d, p = a.dim, a.p
    out = np.zeros((d * d, d * d), dtype=np.int64)
    for ai in range(d):
        for bi in range(d):
            dsplit = comul_elem(a.comonoid, ai)
            col = np.zeros((d, d), dtype=object)
            for a1 in range(d):
                for a2 in range(d):
                    if not dsplit[a1, a2]:
                        continue
                    col += int(dsplit[a1, a2]) * np.outer(
                        np.eye(d, dtype=np.int64)[a1], mul_elem(a.monoid, a2, bi)
                    ).astype(object)
            out[:, ai * d + bi] = (col % p).reshape(-1)
    return out


def oracle_lambda0(a) -> np.ndarray:
    """The canonical entwining of a bimonoid, C = A: column at (c, a) holds
    the coordinates of a1 (x) c.a2, summed in Python integers."""
    d, p = a.dim, a.p
    out = np.zeros((d * d, d * d), dtype=np.int64)
    for ci in range(d):
        for ai in range(d):
            dsplit = comul_elem(a.comonoid, ai)
            col = np.zeros((d, d), dtype=object)
            for a1 in range(d):
                for a2 in range(d):
                    if dsplit[a1, a2]:
                        col[a1] += int(dsplit[a1, a2]) * mul_elem(a.monoid, ci, a2).astype(object)
            out[:, ci * d + ai] = (col % p).reshape(-1)
    return out


def oracle_can(b, dc: int) -> np.ndarray:
    """The generalized canonical map B(x)C(x)B -> A(x)C(x)B for a comodule
    algebra b and a coalgebra of dimension dc: column at (b, c, b') holds
    the coordinates of b(-1) (x) c (x) b(0).b', summed in Python integers."""
    alg, p = b.algebra, b.algebra.p
    da, db = b.over.dim, alg.dim
    out = np.zeros((da * dc * db, db * dc * db), dtype=np.int64)
    for bi in range(db):
        coaction = np.array(b.rho.a[:, bi]).reshape(da, db)  # b(-1) (x) b(0)
        for ci in range(dc):
            for bj in range(db):
                col = np.zeros((da, dc, db), dtype=object)
                for a1 in range(da):
                    for b0 in range(db):
                        if coaction[a1, b0]:
                            col[a1, ci] += int(coaction[a1, b0]) * mul_elem(alg, b0, bj).astype(object)
                out[:, (bi * dc + ci) * db + bj] = (col % p).reshape(-1)
    return out


def oracle_lifted_action(ed, mod) -> np.ndarray:
    """Lifted action on X (x) C by direct evaluation:
    x (x) c (x) a |-> x.a' (x) c' summed over psi(c (x) a) = a' (x) c'."""
    p = ed.p
    da, dc, dx = ed.monoid.dim, ed.comonoid.dim, mod.dim
    w = entwine_pairs(ed)
    out = np.zeros((dx * dc, dx * dc * da), dtype=np.int64)
    for xi in range(dx):
        for ci in range(dc):
            for ai in range(da):
                ent = w[ci, ai]
                col = np.zeros((dx, dc), dtype=np.int64)
                for a1 in range(da):
                    for c1 in range(dc):
                        if not ent[a1, c1]:
                            continue
                        hx = np.array(mod.action.a[:, xi * da + a1])
                        col += int(ent[a1, c1]) * np.outer(hx, np.eye(dc, dtype=np.int64)[c1])
                out[:, (xi * dc + ci) * da + ai] = (col % p).reshape(-1)
    return out


def oracle_lift_legs(ed, mod) -> dict:
    """The counit and comultiplication legs of the lifted comonad as module
    morphisms, on basis tuples x (x) c (x) a of a right-side entwining:
    (I(x)eps).h' against eps(c) x.a, and (I(x)delta).h' against the lift of
    h' (the action of X(x)C) applied to x (x) delta(c) (x) a."""
    p = ed.p
    da, dc, dx = ed.monoid.dim, ed.comonoid.dim, mod.dim
    w = entwine_pairs(ed)  # w[c, a, a', c'] for psi(c (x) a) = a' (x) c'
    eps = ed.comonoid.eps.a[0]

    def lifted(xi, ci, ai) -> np.ndarray:
        """h'(x (x) c (x) a) as an array over (u, c')."""
        out = np.zeros((dx, dc), dtype=np.int64)
        for a1, c1 in itertools.product(range(da), range(dc)):
            if w[ci, ai, a1, c1]:
                out[:, c1] = (out[:, c1] + int(w[ci, ai, a1, c1]) * mod.action.a[:, xi * da + a1]) % p
        return out

    counit = comult = True
    for xi, ci, ai in itertools.product(range(dx), range(dc), range(da)):
        once = lifted(xi, ci, ai)
        by_eps = np.zeros(dx, dtype=np.int64)
        for c1 in range(dc):
            by_eps = (by_eps + int(eps[c1]) * once[:, c1]) % p
        counit &= np.array_equal(by_eps, int(eps[ci]) * mod.action.a[:, xi * da + ai] % p)
        lhs = np.zeros((dx, dc, dc), dtype=np.int64)
        for c1 in range(dc):
            lhs = (lhs + once[:, c1, None, None] * comul_elem(ed.comonoid, c1)[None]) % p
        rhs = np.zeros((dx, dc, dc), dtype=np.int64)
        for c1, c2 in itertools.product(range(dc), range(dc)):
            coeff = int(comul_elem(ed.comonoid, ci)[c1, c2])
            for a1, h in itertools.product(range(da), range(dc)):
                if coeff and w[c2, ai, a1, h]:
                    # h'((x (x) c1) (x) a1) (x) h
                    scale = coeff * int(w[c2, ai, a1, h]) % p
                    rhs[:, :, h] = (rhs[:, :, h] + scale * lifted(xi, c1, a1)) % p
        comult &= np.array_equal(lhs, rhs)
    return {
        "counit leg is a module morphism": bool(counit),
        "comultiplication leg is a module morphism": bool(comult),
    }


def oracle_rref(m) -> tuple:
    """Reduced row echelon form by the textbook row loop: ``(R, rank,
    pivots)``.  Columns are scanned left to right and the first nonzero
    entry at or below the current row becomes the pivot; every other row is
    cleared with a whole-row update, one row at a time."""
    a = np.array(m.a, dtype=np.int64)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if a[i, c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * fp_inv(int(a[r, c]), m.p)) % m.p
        for i in range(nrows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % m.p
        pivots.append(c)
        r += 1
    return FpMatrix(m.p, a), len(pivots), tuple(pivots)


def oracle_duoidal(ctx, probe_dims=(1, 2)):
    """The duoidal coherence report by the probe-map loop: naturality of
    zeta is tested against every elementary map on each slot, by composing
    with identity-padded Kronecker towers on both sides; the nestings and
    unit squares read zeta afresh at every use.  Kronecker products and
    identities come from numpy, not from the package."""

    def kron(m, n):
        return FpMatrix(m.p, np.kron(m.a, n.a))

    def identity(p, d):
        return FpMatrix(p, np.eye(d, dtype=np.int64))

    r = Report("duoidal context", subject=ctx.tag)
    p, di, dj = ctx.p, ctx.dim_i, ctx.dim_j
    ii, ij = identity(p, di), identity(p, dj)

    r.require_equal(
        "(J, mu, tau) associativity", ctx.mu @ kron(ctx.mu, ij), ctx.mu @ kron(ij, ctx.mu)
    )
    r.require_equal("(J, mu, tau) left unit", ctx.mu @ kron(ctx.tau, ij), ij)
    r.require_equal("(J, mu, tau) right unit", ctx.mu @ kron(ij, ctx.tau), ij)
    r.require_equal(
        "(I, Delta, tau) coassociativity",
        kron(ctx.Delta, ii) @ ctx.Delta,
        kron(ii, ctx.Delta) @ ctx.Delta,
    )
    r.require_equal("(I, Delta, tau) left counit", kron(ctx.tau, ii) @ ctx.Delta, ii)
    r.require_equal("(I, Delta, tau) right counit", kron(ii, ctx.tau) @ ctx.Delta, ii)

    def component(*legs):
        """zeta at probe dimensions, read off its action on the identity."""
        return ctx.zeta(identity(p, prod(legs)), *legs)

    def elementary_maps(d):
        for r_, c in itertools.product(range(d), repeat=2):
            m = np.zeros((d, d), dtype=np.int64)
            m[r_, c] = 1
            yield FpMatrix(p, m)

    dims = tuple(probe_dims)
    nat_ok = True
    nat_note = ""
    for dw, dx, dy, dz in itertools.product(dims, repeat=4):
        slot_dims = (dw, dx, dy, dz)
        z = component(*slot_dims)
        for slot in range(4):
            for f in elementary_maps(slot_dims[slot]):
                legs_in = [identity(p, d) for d in slot_dims]
                legs_in[slot] = f
                src = kron(kron(legs_in[0], legs_in[1]), kron(legs_in[2], legs_in[3]))
                tgt = kron(kron(legs_in[0], legs_in[2]), kron(legs_in[1], legs_in[3]))
                if not (z @ src == tgt @ z):
                    nat_ok = False
                    nat_note = f"dims {slot_dims}, slot {slot}"
                    break
            if not nat_ok:
                break
        if not nat_ok:
            break
    r.add_flag("interchange naturality on probe maps", nat_ok, note=nat_note)

    assoc_ok = True
    assoc_note = ""
    for du, dv, dw, dx, dy, dz in itertools.product(dims, repeat=6):
        # nesting across the first product: ((U*V)o(W*X))o(Y*Z)
        route1 = ctx.zeta(
            kron(component(du, dv, dw, dx), identity(p, dy * dz)), du * dw, dv * dx, dy, dz
        )
        route2 = ctx.zeta(
            kron(identity(p, du * dv), component(dw, dx, dy, dz)), du, dv, dw * dy, dx * dz
        )
        if not route1 == route2:
            assoc_ok = False
            assoc_note = f"first-product nesting at dims {(du, dv, dw, dx, dy, dz)}"
            break
        # nesting across the second product: (U*V*W)o(X*Y*Z)
        route3 = kron(identity(p, du * dx), component(dv, dw, dy, dz)) @ component(
            du, dv * dw, dx, dy * dz
        )
        route4 = kron(component(du, dv, dx, dy), identity(p, dw * dz)) @ component(
            du * dv, dw, dx * dy, dz
        )
        if not route3 == route4:
            assoc_ok = False
            assoc_note = f"second-product nesting at dims {(du, dv, dw, dx, dy, dz)}"
            break
    r.add_flag("interchange associativity nestings", assoc_ok, note=assoc_note)

    unit_ok = True
    unit_note = ""
    for dw, dx in itertools.product(dims, repeat=2):
        iwx = identity(p, dw * dx)
        u1 = ctx.zeta(kron(iwx, ctx.Delta), dw, dx, di, di)
        u2 = ctx.zeta(kron(ctx.Delta, iwx), di, di, dw, dx)
        u3 = kron(iwx, ctx.mu) @ component(dw, dj, dx, dj)
        u4 = kron(ctx.mu, iwx) @ component(dj, dw, dj, dx)
        for name, got in (
            ("Delta right", u1),
            ("Delta left", u2),
            ("mu right", u3),
            ("mu left", u4),
        ):
            if not got == iwx:
                unit_ok = False
                unit_note = f"{name} unit square at dims {(dw, dx)}"
                break
        if not unit_ok:
            break
    r.add_flag("interchange unit squares", unit_ok, note=unit_note)
    return r
