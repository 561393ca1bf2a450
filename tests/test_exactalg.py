import random
import tracemalloc
from itertools import permutations
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import entwine
from entwine.exactalg import (
    FpMatrix,
    ShapeError,
    _solve,
    contract,
    fp_inv,
    identity,
    inverse,
    kernel_basis,
    kron,
    left_inverse,
    permute_legs,
    rank,
    right_inverse,
    rref,
    solve,
    swap_matrix,
    zeros,
)
from entwine.hopfmod import canonical_map_report

from oracles import oracle_rref


def rand_matrix(rng, p, rows, cols):
    return FpMatrix(p, rng.integers(0, p, size=(rows, cols)))


# ---------------------------------------------------------------------------
# scalar arithmetic
# ---------------------------------------------------------------------------

def test_fp_inverse_extended_euclid_matches_exhaustive():
    for p in (2, 3, 5, 7, 31):
        for a in range(1, p):
            inv = fp_inv(a, p)
            assert (a * inv) % p == 1


def test_zero_inverse_and_composite_modulus_rejected():
    with pytest.raises(ZeroDivisionError):
        fp_inv(0, 5)
    with pytest.raises(ShapeError):
        FpMatrix(4, [[1]])


def test_entries_always_reduced():
    m = FpMatrix(3, [[5, -1], [3, 7]])
    assert m.a.tolist() == [[2, 2], [0, 1]]


def test_large_prime_product_reduced_before_int64():
    # the dot product 3*(p-1)^2 exceeds 2^63, so the object-dtype path runs
    p = 2**31 - 1
    prod = FpMatrix.row(p, [p - 1] * 3) @ FpMatrix.column(p, [p - 1] * 3)
    assert prod == FpMatrix(p, [[3]])


# ---------------------------------------------------------------------------
# rref
# ---------------------------------------------------------------------------

def test_rref_identity_trivial():
    r, rk, piv = rref(identity(3, 2))
    assert r == identity(3, 2) and rk == 2 and piv == (0, 1)


def test_rref_dependent_rows_derived():
    # hand row-reduction: row2 = 2*row1 over F_5, so R = [[1,2],[0,0]]
    m = FpMatrix(5, [[1, 2], [2, 4]])
    r, rk, piv = rref(m)
    assert rk == 1 and piv == (0,)
    assert r == FpMatrix(5, [[1, 2], [0, 0]])


def test_rref_zero_trivial():
    r, rk, piv = rref(zeros(2, 3, 3))
    assert rk == 0 and piv == ()


def test_rref_idempotent_on_randoms():
    rng = np.random.default_rng(1423)
    for p in (2, 3, 5):
        for _ in range(20):
            m = rand_matrix(rng, p, rng.integers(1, 6), rng.integers(1, 6))
            r, _, _ = rref(m)
            assert rref(r)[0] == r


# 10^9 + 7 and 2^31 - 1 make rref reduce its active block every 9 and every
# 2 unreduced updates
RREF_PRIMES = (2, 3, 5, 10**9 + 7, 2**31 - 1)


def of_rank(p, k, lower, upper, row_order, col_order) -> FpMatrix:
    """L @ U with L = [I_k; lower] and U = [I_k | upper], rows and columns
    then reordered: a matrix of rank exactly k."""
    left = FpMatrix(p, np.vstack([np.eye(k, dtype=np.int64), lower]))
    right = FpMatrix(p, np.hstack([np.eye(k, dtype=np.int64), upper]))
    return FpMatrix(p, (left @ right).a[np.ix_(row_order, col_order)].reshape(len(row_order), len(col_order)))


@st.composite
def matrices_of_known_rank(draw, primes=RREF_PRIMES, square=False) -> tuple:
    """(M, k): M of rank exactly k from random factors, entries 0, p - 1 or
    any.  Shapes include 0 rows or 0 columns, wide and tall (unless
    ``square``), and k runs over every rank from 0 to full."""
    p = draw(st.sampled_from(primes))
    rows = draw(st.integers(0, 9))
    cols = rows if square else draw(st.integers(0, 9))
    k = draw(st.integers(0, min(rows, cols)))
    entry = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))

    def factor(n, m):
        flat = draw(st.lists(entry, min_size=n * m, max_size=n * m))
        return np.array(flat, dtype=np.int64).reshape(n, m)

    lower, upper = factor(rows - k, k), factor(k, cols - k)
    row_order = draw(st.permutations(range(rows)))
    col_order = draw(st.permutations(range(cols)))
    return of_rank(p, k, lower, upper, row_order, col_order), k


@given(matrices_of_known_rank())
@example((zeros(5, 0, 4), 0))
@example((zeros(5, 4, 0), 0))
@example((zeros(2, 0, 0), 0))
def test_rref_matches_row_loop_oracle(case):
    m, k = case
    got, want = rref(m), oracle_rref(m)
    assert got[1] == want[1] == k
    assert got == want


FILLS = ("dense", "sparse", "top")


@pytest.mark.parametrize("augmented", (False, True), ids=("M", "M|I"))
@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("p", RREF_PRIMES)
def test_large_rref_matches_row_loop_oracle(p, fill, augmented):
    # M of 20 to 40 rows and columns and known rank, alone or as [M | I], from
    # factors that are dense, sparse (about one entry in ten nonzero) or all
    # p - 1.  All p - 1 is the worst case for unreduced growth: each update
    # subtracts (p-1)^2 from the same entries.
    rng = np.random.default_rng([p, FILLS.index(fill), augmented])
    rows, cols = rng.integers(20, 41, 2)
    k = int(rng.integers(rows // 2, min(rows, cols) + 1))

    def factor(n, m):
        if fill == "top":
            return np.full((n, m), p - 1, dtype=np.int64)
        f = rng.integers(0, p, (n, m))
        return f * (rng.random((n, m)) < 0.1) if fill == "sparse" else f

    m = of_rank(p, k, factor(rows - k, k), factor(k, cols - k), rng.permutation(rows), rng.permutation(cols))
    if augmented:
        m, k = FpMatrix(p, np.hstack([m.a, np.eye(rows, dtype=np.int64)])), rows
    got, want = rref(m), oracle_rref(m)
    assert got[1] == want[1] == k
    assert got == want


# ---------------------------------------------------------------------------
# kron
# ---------------------------------------------------------------------------

def test_kron_identity_trivial():
    assert kron(identity(5, 2), identity(5, 3)) == identity(5, 6)


def test_kron_block_rule_derived():
    got = kron(FpMatrix(2, [[1, 1]]), FpMatrix(2, [[1], [1]]))
    assert got == FpMatrix(2, [[1, 1], [1, 1]])


def test_kron_zero_trivial():
    m = FpMatrix(3, [[1, 2], [0, 1]])
    assert kron(zeros(3, 1, 1), m) == zeros(3, 2, 2)


@pytest.mark.parametrize("p", (2, 5, 2**31 - 1))
@pytest.mark.parametrize(
    "shapes", (((0, 3), (2, 2)), ((3, 0), (2, 3)), ((2, 2), (0, 3)), ((1, 1), (1, 1)), ((2, 3), (4, 1)))
)
def test_kron_matches_numpy_bit_for_bit(p, shapes):
    rng = np.random.default_rng(2718)
    m, n = (rand_matrix(rng, p, *shape) for shape in shapes)
    top = FpMatrix(p, np.full(shapes[0], p - 1))  # largest products, (p-1)^2 < 2^62
    for left in (m, top):
        got, want = kron(left, n).a, np.kron(left.a, n.a) % p
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_kron_modulus_mismatch():
    with pytest.raises(ShapeError):
        kron(identity(2, 1), identity(3, 1))


def test_kron_mixed_product_property():
    rng = np.random.default_rng(90125)
    for p in (2, 5):
        for _ in range(15):
            a = rand_matrix(rng, p, 2, 3)
            c = rand_matrix(rng, p, 3, 2)
            b = rand_matrix(rng, p, 2, 2)
            d = rand_matrix(rng, p, 2, 3)
            assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


# ---------------------------------------------------------------------------
# inverses
# ---------------------------------------------------------------------------

def test_split_mono_witness_derived():
    # unit of a 2-dim algebra: counit row retracts it
    e = FpMatrix(3, [[1], [0]])
    assert left_inverse(e) == FpMatrix(3, [[1, 0]])


def test_no_inverse_for_rank_deficient():
    m = FpMatrix(5, [[1, 2], [2, 4]])
    assert right_inverse(m) is None and left_inverse(m) is None


def test_identity_inverse_trivial():
    assert inverse(identity(7, 4)) == identity(7, 4)


def test_right_inverse_exact_on_randoms():
    rng = np.random.default_rng(1999)
    hits = 0
    for _ in range(40):
        p = int(rng.choice([2, 3, 5]))
        m = rand_matrix(rng, p, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        ri = right_inverse(m)
        if ri is not None:
            hits += 1
            assert (m @ ri).is_identity()
        li = left_inverse(m)
        if li is not None:
            assert (li @ m).is_identity()
    assert hits > 0


# ---------------------------------------------------------------------------
# kernels and cokernels
# ---------------------------------------------------------------------------

def test_kernel_injective_trivial():
    assert kernel_basis(identity(3, 3)).cols == 0


def test_kernel_zero_trivial():
    k = kernel_basis(zeros(2, 2, 2))
    assert k == identity(2, 2)


def test_kernel_single_relation_derived():
    # v1 + v2 = 0 over F_2 has the single solution (1, 1)
    k = kernel_basis(FpMatrix(2, [[1, 1]]))
    assert k == FpMatrix(2, [[1], [1]])


def test_rank_nullity_on_randoms():
    rng = np.random.default_rng(424242)
    for _ in range(40):
        p = int(rng.choice([2, 3, 5]))
        m = rand_matrix(rng, p, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        assert rank(m) + kernel_basis(m).cols == m.cols
        assert (m @ kernel_basis(m)).is_zero()


SOLVE_PRIMES = (2, 5, 2**31 - 1)


@st.composite
def systems(draw) -> tuple:
    """(M, k, B): M of known rank k, square or not, and a right-hand side of
    0 to 3 columns, either M @ Y (consistent) or drawn entry by entry."""
    m, k = draw(st.one_of(matrices_of_known_rank(SOLVE_PRIMES), matrices_of_known_rank(SOLVE_PRIMES, True)))
    ncols = draw(st.integers(0, 3))

    def entries(rows):
        flat = draw(st.lists(st.integers(0, m.p - 1), min_size=rows * ncols, max_size=rows * ncols))
        return FpMatrix(m.p, np.array(flat, dtype=np.int64).reshape(rows, ncols))

    return m, k, m @ entries(m.cols) if draw(st.booleans()) else entries(m.rows)


@given(systems())
def test_solve_matches_row_loop_oracle(case):
    # one reduction of [M | B] reads rank(M) and a solution, as the textbook
    # row loop does from rref(M) and rref([M | B])
    m, k, b = case
    r, x = _solve(m, b)
    assert r == oracle_rref(m)[1] == k
    consistent = all(c < m.cols for c in oracle_rref(FpMatrix(m.p, np.hstack([m.a, b.a])))[2])
    assert (x is not None) == consistent
    if consistent:
        assert m @ x == b


@given(matrices_of_known_rank(SOLVE_PRIMES, square=True), st.booleans())
def test_canonical_map_report_matches_row_loop_oracle(case, wide):
    # a square map's verdict and inverse, and the rank of one widened by a
    # zero column
    m, k = case
    if wide:
        m = FpMatrix(m.p, np.hstack([m.a, np.zeros((m.rows, 1), dtype=np.int64)]))
    g = canonical_map_report(m)
    assert g.rank == oracle_rref(m)[1] == k
    assert g.invertible == (not wide and k == m.rows)
    if g.invertible:
        red = oracle_rref(FpMatrix(m.p, np.hstack([m.a, np.eye(m.rows, dtype=np.int64)])))[0]
        assert g.inverse == FpMatrix(m.p, red.a[:, m.cols:])
    else:
        assert g.inverse is None


def test_inverse_reduces_in_place_and_owns_its_entries():
    # [M | I] is reduced where _solve builds it, and the inverse is copied out
    # of it: the peak is I, [M | I] and the copy, four n^2 arrays (5.0 when
    # rref copied [M | I]), and the result keeps n^2 entries, not the 2 n^2 of
    # a view into the reduction
    n, rng = 512, np.random.default_rng(3)
    a = np.zeros((n, n), dtype=np.int64)
    a[np.arange(n), rng.permutation(n)] = rng.integers(1, 5, n)
    m, cells = FpMatrix(5, a), 8 * n * n
    tracemalloc.start()
    try:
        x = inverse(m)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m @ x == identity(5, n)
    assert x.a.base is None
    assert peak <= 4.05 * cells, peak / cells
    assert kept <= 1.05 * cells, kept / cells


def test_dense_inverse_updates_in_place():
    # a dense pivot column is cleared by one in-place subtraction of an outer
    # product over the active block, and I is written straight into [M | I]:
    # the peak is [M | I] and that product, four n^2 arrays
    n = 256
    m, cells = FpMatrix(5, np.random.default_rng(1).integers(0, 5, (n, n))), 8 * n * n
    tracemalloc.start()
    try:
        x = inverse(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x is not None and m @ x == identity(5, n)
    assert peak <= 4.3 * cells, peak / cells


def test_only_exactalg_reduces():
    """Rank, kernels, solutions and inverses are read from exactalg's one
    row reduction; no other module names rref (the package namespace only
    re-exports it)."""
    package = Path(entwine.__file__).parent
    users = sorted(
        path.name
        for path in package.glob("*.py")
        if path.name not in ("exactalg.py", "__init__.py") and "rref" in path.read_text(encoding="utf-8")
    )
    assert users == []


def test_solve_consistency():
    m = FpMatrix(5, [[1, 2], [2, 4]])
    assert solve(m, FpMatrix(5, [[0], [1]])) is None
    x = solve(m, FpMatrix(5, [[1], [2]]))
    assert x is not None and m @ x == FpMatrix(5, [[1], [2]])


def test_swap_matrix_involution_and_action():
    s = swap_matrix(3, 2, 3)
    assert (swap_matrix(3, 3, 2) @ s).is_identity()
    v = zeros(3, 6, 1).a.copy()
    v[1 * 3 + 2] = 1  # basis (i=1, j=2) of V2 (x) V3
    got = s @ FpMatrix(3, v)
    want = zeros(3, 6, 1).a.copy()
    want[2 * 2 + 1] = 1  # lands at (j=2, i=1) of V3 (x) V2
    assert got == FpMatrix(3, want)


def test_zero_dimensional_edges():
    m = zeros(2, 0, 3)
    assert rank(m) == 0 and kernel_basis(m) == identity(2, 3)
    assert kron(zeros(2, 0, 0), identity(2, 2)).shape == (0, 0)


# ---------------------------------------------------------------------------
# tensor legs: gathers and one-leg contractions against the dense forms
# ---------------------------------------------------------------------------

def dense_leg_permutation(p, dims, perm):
    """The matrix of V_0 (x) ... -> V_perm[0] (x) ..., composed from adjacent
    transpositions I (x) swap_matrix (x) I."""
    order, cur = list(range(len(dims))), list(dims)
    mat = identity(p, prod(dims))
    for i, leg in enumerate(perm):
        j = order.index(leg)
        while j > i:
            pad = (identity(p, prod(cur[:j - 1])), identity(p, prod(cur[j + 1:])))
            mat = kron(kron(pad[0], swap_matrix(p, cur[j - 1], cur[j])), pad[1]) @ mat
            order[j - 1], order[j] = order[j], order[j - 1]
            cur[j - 1], cur[j] = cur[j], cur[j - 1]
            j -= 1
    return mat


def dense_leg_map(f, dims, leg):
    """I (x) f (x) I with f on leg ``leg`` of a product with leg dims ``dims``."""
    pre, post = prod(dims[:leg]), prod(dims[leg + 1:])
    return kron(kron(identity(f.p, pre), f), identity(f.p, post))


LEG_CASES = [
    (k, perm, draw) for k in range(1, 5) for perm in permutations(range(k)) for draw in range(2)
]


@pytest.mark.parametrize("k, perm, draw", LEG_CASES)
def test_permute_legs_matches_dense_permutation(k, perm, draw):
    rng = random.Random(f"{perm}-{draw}")
    nrng = np.random.default_rng(rng.randrange(2**32))
    p = rng.choice((2, 5, 7))
    dims = tuple(rng.randint(1, 4) for _ in range(k))
    dense = dense_leg_permutation(p, dims, perm)
    x = rand_matrix(nrng, p, prod(dims), rng.randint(1, 3))
    assert permute_legs(x, dims, perm) == dense @ x
    # columns: y @ P is the transpose of the inverse gather on the permuted legs
    inv = tuple(perm.index(i) for i in range(k))
    y = rand_matrix(nrng, p, rng.randint(1, 3), prod(dims))
    permuted = tuple(dims[i] for i in perm)
    assert permute_legs(y.transpose(), permuted, inv).transpose() == y @ dense


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("p", (5, 2**31 - 1))
def test_contract_matches_identity_padded_kron(k, p):
    # legs "abcd"[:k]; f takes leg `leg` to a leg "z", and "n" is the free
    # side of the operand it is composed with
    rng = random.Random(k)
    nrng = np.random.default_rng(k)
    legs = "abcd"[:k]
    for _ in range(3):
        dims = tuple(rng.randint(1, 4) for _ in range(k))
        for leg in range(k):
            f = rand_matrix(nrng, p, rng.randint(0, 4), dims[leg])
            sizes = dict(zip(legs, dims), z=f.rows)
            moved = legs.replace(legs[leg], "z")
            # rows: (I (x) f (x) I) @ x
            x = rand_matrix(nrng, p, prod(dims), rng.randint(1, 3))
            got = contract(f"z|{legs[leg]},{legs}|n->{moved}|n", f, x, dict(sizes, n=x.cols))
            assert got == dense_leg_map(f, dims, leg) @ x
            # columns: y @ (I (x) f (x) I), the legs of y's columns carrying f's target
            y = rand_matrix(nrng, p, rng.randint(1, 3), prod(sizes[c] for c in moved))
            got = contract(f"n|{moved},z|{legs[leg]}->n|{legs}", y, f, dict(sizes, n=y.rows))
            assert got == y @ dense_leg_map(f, dims, leg)


@pytest.mark.parametrize("p", (5, 2**31 - 1))
@pytest.mark.parametrize(
    "spec",
    (
        "u|xi,ij|a->uj|xa",  # the canonical map's shape
        "xb|jk,jk|yc->xy|bc",  # two summed legs, output legs interleaved
        "a|ij,ie|cx->acx|je",  # regrouped result
        "u|xb,|c->u|xcb",  # no summed leg: an outer product
        "|k,uk|xcb->u|xcb",  # a row vector on one leg
    ),
)
def test_contract_matches_elementwise_sum(spec, p):
    rng = np.random.default_rng(len(spec))
    dim = {c: int(rng.integers(1, 4)) for c in "abcdeijkuxy"}
    (xr, xc), (yr, yc), (outr, outc) = (g.split("|") for g in spec.replace("->", ",").split(","))

    def size(legs):
        return prod(dim[c] for c in legs)

    x = rand_matrix(rng, p, size(xr), size(xc))
    y = rand_matrix(rng, p, size(yr), size(yc))
    # the same contraction in Python integers, by np.einsum on object arrays
    tx = x.a.astype(object).reshape([dim[c] for c in xr + xc])
    ty = y.a.astype(object).reshape([dim[c] for c in yr + yc])
    want = np.einsum(f"{xr + xc},{yr + yc}->{outr + outc}", tx, ty) % p
    assert contract(spec, x, y, dim) == FpMatrix(p, want.reshape(size(outr), size(outc)).astype(np.int64))


def test_leg_primitives_reject_bad_legs():
    x = identity(3, 6)
    with pytest.raises(ShapeError):
        permute_legs(x, (2, 2), (1, 0))
    with pytest.raises(ShapeError):
        permute_legs(x, (2, 3), (0, 0))
    f = identity(3, 3)
    dims = dict(a=2, i=3, b=3)
    contract("a|i,i|b->a|b", FpMatrix(3, np.ones((2, 3))), f, dims)
    # a mis-split operand: 4x4 entries whose legs describe a 2x8 map
    with pytest.raises(ShapeError):
        contract("u|xi,i|j->ux|j", identity(5, 4), identity(5, 2), dict(u=2, x=4, i=2, j=2))
    # a wrong-size operand
    with pytest.raises(ShapeError):
        contract("a|i,i|b->a|b", FpMatrix(3, np.ones((2, 2))), f, dims)
    # a modulus mismatch
    with pytest.raises(ShapeError):
        contract("a|i,i|b->a|b", FpMatrix(5, np.ones((2, 3))), f, dims)


def test_only_exactalg_names_swap_matrix():
    """Leg shuffles go through permute_legs; the dense swap is a reference
    for tests only."""
    package = Path(entwine.__file__).parent
    users = sorted(
        path.name
        for path in package.glob("*.py")
        if path.name != "exactalg.py" and "swap_matrix" in path.read_text(encoding="utf-8")
    )
    assert users == []
