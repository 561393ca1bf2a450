"""Seeded instance generator for the benchmark workloads.

Structures are built from their definitions (a group or monoid product
table, a set of group-like basis elements), not through the engine's own
builders, and each carrier is then rewritten in a random dense basis.  The
seed chooses only those bases and the basis labels; sizes, primes and the
monoid families are fixed by the caller, so the engine's work does not
depend on the seed.

A linear map V1(x)...(x)Vr -> W1(x)...(x)Ws is held as a numpy array of
shape (w1, ..., ws, v1, ..., vr), the row-major leg order the instance
format uses.  A change of basis with matrix P (new basis vectors as columns
in old coordinates) and Q = P^-1 turns it into Q-on-every-output-leg,
P-on-every-input-leg.  Inverses come from the Gauss-Jordan routine below,
not from the engine.
"""

from __future__ import annotations

import json
import random
import string

import numpy as np


def inverse_mod(a: list, p: int):
    """Inverse of a square matrix (list of rows) over F_p, or None."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] % p), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for r in range(n):
            f = aug[r][c] % p
            if r != c and f:
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


class Basis:
    """A seeded random dense basis of an n-dimensional space over F_p."""

    def __init__(self, rng: random.Random, n: int, p: int) -> None:
        while True:
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            inv = inverse_mod(rows, p)
            if inv is not None:
                break
        dtype = np.int64 if n * (p - 1) ** 2 < 2**62 else object
        self.P = np.array(rows, dtype=object).astype(dtype)
        self.Q = np.array(inv, dtype=object).astype(dtype)


def rebase(t: np.ndarray, p: int, outs: list, ins: list) -> np.ndarray:
    """Rewrite map tensor ``t`` with Q of outs[k] on output leg k and P of
    ins[k] on input leg k."""
    big = any(b.P.dtype == object for b in outs + ins)
    t = t.astype(object if big else np.int64)
    for k, b in enumerate(outs):
        t = np.moveaxis(np.tensordot(b.Q, t, axes=([1], [k])), 0, k) % p
    for k, b in enumerate(ins):
        leg = len(outs) + k
        t = np.moveaxis(np.tensordot(t, b.P, axes=([leg], [0])), -1, leg) % p
    return t


def matrix_payload(t: np.ndarray, n_out: int) -> dict:
    rows = int(np.prod(t.shape[:n_out], dtype=np.int64))
    cols = int(np.prod(t.shape[n_out:], dtype=np.int64))
    entries = [int(x) for x in t.reshape(-1)]
    return {"rows": rows, "cols": cols, "entries": entries}


# ---------------------------------------------------------------------------
# structures from their definitions, in the natural basis
# ---------------------------------------------------------------------------

def monoid_tensors(elements: list, product, unit) -> tuple:
    """Monoid algebra of a finite monoid: (m, e), basis = the elements."""
    idx = {x: i for i, x in enumerate(elements)}
    d = len(elements)
    m = np.zeros((d, d, d), dtype=np.int64)
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            m[idx[product(x, y)], i, j] = 1
    e = np.zeros((d,), dtype=np.int64)
    e[idx[unit]] = 1
    return m, e


def grouplike_tensors(d: int) -> tuple:
    """Coalgebra on d group-like basis elements: (delta, eps)."""
    delta = np.zeros((d, d, d), dtype=np.int64)
    for i in range(d):
        delta[i, i, i] = 1
    return delta, np.ones((d,), dtype=np.int64)


def cyclic_group(n: int) -> tuple:
    return list(range(n)), (lambda x, y: (x + y) % n), 0


def chain(length: int) -> tuple:
    """{0 < 1 < ... } under max; 0 is the unit and the top element absorbs."""
    return list(range(length)), max, 0


def cyclic_times_chain(a: int, length: int) -> tuple:
    elements = [(g, l) for g in range(a) for l in range(length)]
    return elements, (lambda x, y: ((x[0] + y[0]) % a, max(x[1], y[1]))), (0, 0)


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def _labels(rng: random.Random, n: int) -> list:
    return ["".join(rng.choice(string.ascii_lowercase) for _ in range(3)) + str(i) for i in range(n)]


def _bimonoid_maps(rng, p, monoid, prefix="", dense=True):
    """Structure maps of the monoid algebra of ``monoid`` (group-like
    comultiplication) in a seeded dense basis, or in the basis of monoid
    elements when ``dense`` is false, plus that basis (None for the
    latter)."""
    m, e = monoid_tensors(*monoid)
    d = len(e)
    delta, eps = grouplike_tensors(d)
    b = Basis(rng, d, p) if dense else None
    if dense:
        m, e = rebase(m, p, [b], [b, b]), rebase(e, p, [b], [])
        delta, eps = rebase(delta, p, [b, b], [b]), rebase(eps, p, [], [b])
    maps = {
        prefix + "m": matrix_payload(m, 1),
        prefix + "e": matrix_payload(e, 1),
        prefix + "delta": matrix_payload(delta, 2),
        prefix + "eps": matrix_payload(eps, 0),
    }
    return d, b, maps


def _bimonoid_role(obj: str, prefix: str = "") -> dict:
    return {"kind": "bimonoid", "object": obj, "m": prefix + "m", "e": prefix + "e",
            "delta": prefix + "delta", "eps": prefix + "eps"}


def monoid_algebra_instance(rng: random.Random, p: int, monoid, description: str,
                            dense: bool = True) -> dict:
    """Bimonoid role A plus the regular Hopf module (action m, coaction delta)."""
    d, _, maps = _bimonoid_maps(rng, p, monoid, dense=dense)
    return {
        "field_p": p,
        "meta": {"description": description, "labels": {"A": _labels(rng, d)}},
        "objects": {"A": d},
        "maps": maps,
        "roles": {
            "A": _bimonoid_role("A"),
            "regular": {"kind": "hopf-module", "object": "A", "over": "A",
                        "action": "m", "coaction": "delta"},
        },
    }


def comodule_algebra_instance(rng: random.Random, p: int, n: int, k: int, trivial: bool) -> dict:
    """A = F_p[Z/n]; B = A coacting by delta (regular) or B = F_p coacting
    through the unit (trivial); C = k group-like elements.  A, B and C each
    get their own seeded dense basis."""
    _, ba, maps = _bimonoid_maps(rng, p, cyclic_group(n), prefix="A_")
    if trivial:
        # B = F_p: m_B = [1], e_B = [1], rho(1) = 1_A (x) 1 is the unit of A
        maps["B_m"] = {"rows": 1, "cols": 1, "entries": [1]}
        maps["B_e"] = {"rows": 1, "cols": 1, "entries": [1]}
        maps["rho"] = maps["A_e"]
        db = 1
    else:
        m, e = monoid_tensors(*cyclic_group(n))
        delta, _ = grouplike_tensors(n)
        bb = Basis(rng, n, p)
        maps["B_m"] = matrix_payload(rebase(m, p, [bb], [bb, bb]), 1)
        maps["B_e"] = matrix_payload(rebase(e, p, [bb], []), 1)
        maps["rho"] = matrix_payload(rebase(delta, p, [ba, bb], [bb]), 2)
        db = n
    cdelta, ceps = grouplike_tensors(k)
    bc = Basis(rng, k, p)
    maps["C_delta"] = matrix_payload(rebase(cdelta, p, [bc, bc], [bc]), 2)
    maps["C_eps"] = matrix_payload(rebase(ceps, p, [], [bc]), 0)
    kind = "trivial coaction" if trivial else "regular comodule algebra"
    return {
        "field_p": p,
        "meta": {
            "description": f"{kind} over F_{p}[Z/{n}] with {k} group-likes in C",
            "labels": {"A": _labels(rng, n), "C": _labels(rng, k)},
        },
        "objects": {"A": n, "B": db, "C": k},
        "maps": maps,
        "roles": {
            "A": _bimonoid_role("A", "A_"),
            "B": {"kind": "comodule-algebra", "object": "B", "m": "B_m", "e": "B_e",
                  "over": "A", "rho": "rho"},
            "C": {"kind": "comonoid", "object": "C", "delta": "C_delta", "eps": "C_eps"},
        },
    }


def relabel(raw: dict, rng: random.Random) -> dict:
    """Replace every label list with seeded labels of the same length."""
    meta = raw.get("meta")
    if isinstance(meta, dict) and isinstance(meta.get("labels"), dict):
        meta["labels"] = {k: _labels(rng, len(v)) for k, v in sorted(meta["labels"].items())}
    return raw


def write_instance(path: str, raw: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, sort_keys=True)
