"""Exact dense linear algebra over prime fields F_p.

Every morphism handled by this package (multiplications, comultiplications,
coactions, entwining base maps, canonical Galois maps) is an :class:`FpMatrix`.
The conventions are fixed once, here, for everything downstream:

* matrices act on column vectors, so ``g @ f`` means "apply f first";
* tensor legs flatten row-major: basis vector ``(i, j)`` of ``V (x) W`` sits at
  index ``i * dim(W) + j``, and :func:`kron` follows the same rule;
* maps are composed along tensor legs by :func:`contract`, one exact product
  of two maps regrouped by their legs, whether the composite acts on the
  rows or on the columns; leg shuffles are applied by :func:`permute_legs`,
  a row gather.  Neither ever multiplies by a dense permutation matrix or an
  identity-padded Kronecker product, which would be far larger than either
  operand, and :func:`kron` only builds data;
* row reduction is deterministic (first nonzero pivot, rows scanned
  top-down), so kernels and inverses are reproducible byte for byte.

Only dense matrices over F_p with ``2 <= p < 2**31``; instance dimensions in
this package stay small enough that nothing smarter is warranted.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import itemgetter
from typing import Optional

import numpy as np

__all__ = [
    "ShapeError",
    "FpMatrix",
    "identity",
    "zeros",
    "kron",
    "permute_legs",
    "contract",
    "swap_matrix",
    "rref",
    "rank",
    "solve",
    "right_inverse",
    "left_inverse",
    "inverse",
    "kernel_basis",
    "fp_inv",
    "is_prime",
]


class ShapeError(ValueError):
    """Shapes or moduli of the operands do not line up."""


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_modulus(p: int) -> None:
    if not isinstance(p, int) or not 2 <= p < 2**31 or not is_prime(p):
        raise ShapeError(f"modulus must be a prime in [2, 2^31), got {p!r}")


def fp_inv(a: int, p: int) -> int:
    """Inverse of ``a`` modulo ``p`` via the extended Euclidean algorithm."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    r0, r1, s0, s1 = p, a, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    return s0 % p


class FpMatrix:
    """Immutable dense matrix over F_p.

    Entries are stored as a read-only int64 numpy array, reduced mod p at
    construction.  All arithmetic stays exact; int64 cannot overflow at the
    dimensions this package handles (products of entries < 2^62).
    """

    __slots__ = ("p", "a")

    def __init__(self, p: int, entries) -> None:
        _check_modulus(p)
        a = np.asarray(entries, dtype=np.int64)
        if a.ndim != 2:
            raise ShapeError(f"expected a 2-d array of entries, got ndim={a.ndim}")
        a = np.mod(a, p)
        a.setflags(write=False)
        self.p = p
        self.a = a

    @classmethod
    def _reduced(cls, p: int, a: np.ndarray) -> "FpMatrix":
        """Wrap a 2-d int64 array already reduced mod a checked prime p,
        without the copy and reduction of the constructor."""
        m = object.__new__(cls)
        a.setflags(write=False)
        m.p = p
        m.a = a
        return m

    # -- construction helpers ------------------------------------------------

    @classmethod
    def column(cls, p: int, entries) -> "FpMatrix":
        return cls(p, np.array(list(entries), dtype=np.int64).reshape(-1, 1))

    @classmethod
    def row(cls, p: int, entries) -> "FpMatrix":
        return cls(p, np.array(list(entries), dtype=np.int64).reshape(1, -1))

    # -- basic queries ---------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple:
        return self.a.shape

    def entry(self, i: int, j: int) -> int:
        return int(self.a[i, j])

    def entries_rowmajor(self) -> list:
        return self.a.reshape(-1).tolist()

    def is_identity(self) -> bool:
        # entries are residues: n nonzeros, all of them 1s on the diagonal
        return (
            self.rows == self.cols
            and np.count_nonzero(self.a) == self.rows
            and bool((self.a.diagonal() == 1).all())
        )

    def is_zero(self) -> bool:
        return not self.a.any()

    # -- arithmetic ------------------------------------------------------------

    def _match(self, other: "FpMatrix") -> None:
        if not isinstance(other, FpMatrix):
            raise TypeError(f"expected FpMatrix, got {type(other).__name__}")
        if self.p != other.p:
            raise ShapeError(f"modulus mismatch: {self.p} vs {other.p}")

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        self._match(other)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        return FpMatrix._reduced(self.p, _product(self.p, self.a, other.a))

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._match(other)
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")
        return FpMatrix(self.p, self.a - other.a)

    def transpose(self) -> "FpMatrix":
        return FpMatrix._reduced(self.p, self.a.T)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.a.tolist()!r})"


def _exact_dtype(p: int, k: int):
    """The dtype in which sums of k products of entries below p are exact:
    float64 (BLAS) up to k*(p-1)^2 < 2^53, int64 below 2^63, else object."""
    bound = k * (p - 1) ** 2
    return np.float64 if bound < 2**53 else np.int64 if bound < 2**63 else object


def _residues(p: int, out: np.ndarray, regroup: Optional[tuple] = None) -> np.ndarray:
    """A product's sums as int64 residues mod p, regrouped on the way: cast,
    then reduced in place (object sums fit int64 only once reduced)."""
    if out.dtype == object:
        out = out % p
    out = out.astype(np.int64, copy=False) if regroup is None else _as_factor(out, regroup, np.int64)
    return np.remainder(out, p, out=out)


def _product(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``a @ b mod p`` for reduced int64 arrays of shapes (r, k), (k, n)."""
    dt = _exact_dtype(p, a.shape[1])
    return _residues(p, np.matmul(a.astype(dt, copy=False), b.astype(dt, copy=False)))


@lru_cache(maxsize=None)
def _parse(spec: str) -> tuple:
    """The (row, column) legs of x, y and the result; the (2+) legs of x and y and their getter."""
    groups = tuple(tuple(g.split("|")) for g in spec.replace("->", ",").split(","))
    letters = "".join(dict.fromkeys("".join(groups[0] + groups[1])))
    return groups, letters, itemgetter(*letters)


def _regroup(dim: dict, legs: str, first: str, second: str) -> tuple:
    """The matrix shape, row legs first and column legs second, of an array
    on legs, and the reshape and axis order taking it there (None if none)."""
    shape = (prod(dim[c] for c in first), prod(dim[c] for c in second))
    axes = tuple(legs.index(c) for c in first + second)
    return shape, None if axes == tuple(range(len(legs))) else (tuple(dim[c] for c in legs), axes)


@lru_cache(maxsize=1024)
def _plan(spec: str, p: int, sizes: tuple) -> tuple:
    """Per spec, p and leg dimensions: each operand's shape and regrouping
    as a matrix factor, the exact dtype, and the product's regrouping."""
    ((xr, xc), (yr, yc), (outr, outc)), letters, _ = _parse(spec)
    dim = dict(zip(letters, sizes))
    xs, ys = xr + xc, yr + yc
    summed = "".join(c for c in xs if c in ys)
    xf, yf = ("".join(c for c in legs if c not in summed) for legs in (xs, ys))
    return (
        _regroup(dim, xs, xr, xc)[0], _regroup(dim, xs, xf, summed),
        _regroup(dim, ys, yr, yc)[0], _regroup(dim, ys, summed, yf),
        _exact_dtype(p, prod(dim[c] for c in summed)), _regroup(dim, xf + yf, outr, outc),
    )


def _as_factor(a: np.ndarray, regroup: tuple, dtype) -> np.ndarray:
    """``a`` regrouped as a C-ordered matrix of ``dtype``, in at most one copy."""
    shape, reorder = regroup
    if reorder is not None:
        a = a.reshape(reorder[0]).transpose(reorder[1])
    return a.astype(dtype, order="C", copy=False).reshape(shape)


def contract(spec: str, x: FpMatrix, y: FpMatrix, dims) -> FpMatrix:
    """Two maps composed along tensor legs by one exact product.

    In ``"u|xi,ij|a->uj|xa"`` each letter is a tensor leg of dimension
    ``dims[letter]``; the groups are the row legs and column legs (split by
    ``|``, flattened row-major) of x, of y and of the result.  Legs of both
    x and y are summed over; every other leg appears once in the result.
    A right multiplication g.(I (x) f) is ``"u|ai,i|b->u|ab"`` on (g, f).
    Operand shapes must match their splits (else ShapeError); each (spec,
    leg dimensions) pair is parsed once per process.
    """
    x._match(y)
    xshape, xg, yshape, yg, dt, outg = _plan(spec, x.p, _parse(spec)[2](dims))
    if x.shape != xshape or y.shape != yshape:
        raise ShapeError(f"{spec!r} at legs {dims} takes {xshape} and {yshape}, not {x.shape} and {y.shape}")
    out = np.matmul(_as_factor(x.a, xg, dt), _as_factor(y.a, yg, dt))
    return FpMatrix._reduced(x.p, _residues(x.p, out, outg))


def identity(p: int, n: int) -> FpMatrix:
    return FpMatrix(p, np.eye(n, dtype=np.int64))


def zeros(p: int, rows: int, cols: int) -> FpMatrix:
    return FpMatrix(p, np.zeros((rows, cols), dtype=np.int64))


def kron(m: FpMatrix, n: FpMatrix) -> FpMatrix:
    """Kronecker product, realizing the tensor product on morphisms.

    Entry at ``(i*n.rows + k, j*n.cols + l)`` is ``m[i,j] * n[k,l]`` (row-major
    block convention, bit-exact contract), computed as one broadcast product:
    entries are below p < 2^31, so each int64 product stays below 2^62.
    """
    m._match(n)
    out = (m.a[:, None, :, None] * n.a[None, :, None, :]).reshape(m.rows * n.rows, m.cols * n.cols)
    np.remainder(out, m.p, out=out)
    return FpMatrix._reduced(m.p, out)


def permute_legs(mat: FpMatrix, dims, perm) -> FpMatrix:
    """``P @ mat`` for the leg permutation P: V_0 (x) ... (x) V_{k-1} ->
    V_perm[0] (x) ... (x) V_perm[k-1], as a row gather.

    The rows of ``mat`` index the tensor product with leg dimensions
    ``dims``; leg ``perm[i]`` of the source becomes leg ``i`` of the result.
    The transposition V1 (x) V2 -> V2 (x) V1 is ``perm = (1, 0)``, and
    ``swap_matrix`` is its dense form.
    """
    if prod(dims) != mat.rows:
        raise ShapeError(f"leg dims {tuple(dims)} do not factor {mat.rows} rows")
    if sorted(perm) != list(range(len(dims))):
        raise ShapeError(f"{tuple(perm)} is not a permutation of {len(dims)} legs")
    idx = np.arange(mat.rows).reshape(dims).transpose(perm).reshape(-1)
    return FpMatrix._reduced(mat.p, mat.a[idx])


def swap_matrix(p: int, d1: int, d2: int) -> FpMatrix:
    """Permutation matrix for the transposition V1 (x) V2 -> V2 (x) V1.

    Reference form only: the engine applies leg shuffles with
    :func:`permute_legs`."""
    s = np.zeros((d1 * d2, d1 * d2), dtype=np.int64)
    for i in range(d1):
        for j in range(d2):
            s[j * d1 + i, i * d2 + j] = 1
    return FpMatrix(p, s)


def rref(m: FpMatrix) -> tuple:
    """Reduced row echelon form.

    Returns ``(R, rank, pivots)`` with pivots as a tuple of column indices.
    Deterministic: columns scanned left to right, the first nonzero entry at
    or below the current row becomes the pivot.

    Each pivot costs array operations only, and residues are taken only
    where they are read (delayed reduction, as in FFLAS/FFPACK).  Rows at
    and below the current row are zero left of the current column, so the
    swap, the scaling and the rank-1 update touch columns ``c:`` alone.
    The pivot column and the pivot row are reduced mod p before they are
    read; the update is not.  Every update subtracts products of two
    residues, each at most (p-1)^2, so after k updates an entry lies in
    [-k(p-1)^2, p), and the active block (columns right of the pivot) is
    reduced only when one more update could leave int64: every 2 updates
    at p = 2^31-1, every 9 at p = 10^9+7, never in practice at small p.
    A searched column is final, so only the columns left unsearched when
    the rows run out are reduced, once, at the end.  The update is one
    in-place rank-1 subtraction over all rows, the pivot row's multiplier
    set to 0, so it allocates no gathered copy of the rows.
    """
    return _rref(m.p, np.array(m.a, dtype=np.int64, order="C"))


def _rref(p: int, a: np.ndarray) -> tuple:
    """rref of the writable C-order int64 array ``a`` of residues mod p,
    reduced in place.  ``k`` counts the updates since the active block was
    last reduced, and while it is 0 every entry is a residue.  It reaches
    at most ``room`` = 2^63 // (p-1)^2, so no entry falls below -2^63.
    Columns left of ``c`` are final: a pivot column is exact once cleared,
    any other was reduced when it was searched, and later updates touch
    only columns right of later pivots."""
    nrows, ncols = a.shape
    room = 2**63 // (p - 1) ** 2
    pivots = []
    r = k = 0
    for c in range(ncols):
        if r == nrows:
            if k:
                np.remainder(a[:, c:], p, out=a[:, c:])
            break
        col = a[:, c]
        if k:
            np.remainder(col, p, out=col)
        nonzero = np.flatnonzero(col)
        i = np.count_nonzero(col[:r])
        if i == nonzero.size:
            continue
        pr = int(nonzero[i])
        if pr != r:
            swap = a[pr, c:].copy()
            a[pr, c:] = a[r, c:]
            a[r, c:] = swap
        row = a[r, c:]
        if k:
            np.remainder(row, p, out=row)
        if row[0] != 1:
            row *= fp_inv(int(row[0]), p)
            np.remainder(row, p, out=row)
        if nonzero.size > 1:
            if k == room:
                np.remainder(a[:, c + 1:], p, out=a[:, c + 1:])
                k = 0
            mult = col.copy()
            mult[r] = 0
            a[:, c:] -= np.outer(mult, row)
            k += 1
        pivots.append(c)
        r += 1
    return FpMatrix._reduced(p, a), len(pivots), tuple(pivots)


def rank(m: FpMatrix) -> int:
    return rref(m)[1]


def _solve(m: FpMatrix, b: FpMatrix) -> tuple:
    """``(rank of m, X)`` from one reduction of [m | b]: X solves ``m @ X == b``
    with free variables zero, or is None when no solution exists.  The pivots
    left of ``m.cols`` are rref(m)'s.  [m | b] is built here and reduced in
    place, and X gets its own array, so no result keeps the reduction alive."""
    m._match(b)
    if m.rows != b.rows:
        raise ShapeError(f"row mismatch: {m.rows} vs {b.rows}")
    return _solve_augmented(m, np.hstack([m.a, b.a]))


def _solve_identity(m: FpMatrix) -> tuple:
    """``_solve(m, I)``, with I written straight into the right half of a
    preallocated [m | I] rather than built as a matrix of its own."""
    aug = np.zeros((m.rows, m.cols + m.rows), dtype=np.int64)
    aug[:, : m.cols] = m.a
    np.fill_diagonal(aug[:, m.cols :], 1)
    return _solve_augmented(m, aug)


def _solve_augmented(m: FpMatrix, aug: np.ndarray) -> tuple:
    """``(rank of m, X)`` from reducing the C-order [m | b] ``aug`` in place."""
    red, _, pivots = _rref(m.p, aug)
    r = sum(1 for c in pivots if c < m.cols)
    if r < len(pivots):
        return r, None
    x = np.zeros((m.cols, aug.shape[1] - m.cols), dtype=np.int64)
    x[list(pivots)] = red.a[:r, m.cols:]
    return r, FpMatrix._reduced(m.p, x)


def solve(m: FpMatrix, b: FpMatrix) -> Optional[FpMatrix]:
    """Particular solution X of ``m @ X == b`` (free variables zero), or None."""
    return _solve(m, b)[1]


def right_inverse(m: FpMatrix) -> Optional[FpMatrix]:
    """N with ``m @ N == I`` when one exists, else None.

    Absence is a value, not an error: it doubles as the split-epimorphism
    test.  For square full-rank m this is the two-sided inverse.
    """
    return _solve_identity(m)[1]


def left_inverse(m: FpMatrix) -> Optional[FpMatrix]:
    """N with ``N @ m == I`` when one exists; the split-monomorphism witness."""
    ri = right_inverse(m.transpose())
    return None if ri is None else ri.transpose()


def inverse(m: FpMatrix) -> Optional[FpMatrix]:
    """Two-sided inverse of a square matrix, or None."""
    if m.rows != m.cols:
        return None
    return right_inverse(m)


def kernel_basis(m: FpMatrix) -> FpMatrix:
    """Basis of ``{v : m v = 0}``, returned as the columns of one matrix.

    Columns are ordered by free-column index, so the result is deterministic
    and directly usable as an inclusion matrix.
    """
    red, rk, pivots = rref(m)
    is_free = np.ones(m.cols, dtype=bool)
    is_free[list(pivots)] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((m.cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[list(pivots)] = (-red.a[:rk, free]) % m.p
    return FpMatrix._reduced(m.p, basis)
