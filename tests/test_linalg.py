import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modequiv.errors import (
    DimensionMismatch,
    InvalidModulus,
    ModulusMismatch,
    NotInvertible,
    NotSquare,
)
from modequiv.linalg import (
    Mat,
    check_prime,
    rand_invertible,
    rand_mat,
    solve,
    tensor_combine,
    _batch_invertible,
    _batch_rank,
    _nullspace,
    _rank,
    _rref,
    inv_mod,
    lex_blocks,
    lex_rows,
)


def test_check_prime_accepts_primes():
    for p in (2, 3, 5, 7, 65537):
        assert check_prime(p) == p


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 15, 2**31 + 1, -3])
def test_check_prime_rejects(bad):
    with pytest.raises(InvalidModulus):
        check_prime(bad)


def test_basis_matrix_delta_rule():
    # e22 * e21 = e21 and e21 * e22 = 0 in 2x2 over F_2
    e21 = Mat.basis(2, 2, 1, 2)
    e22 = Mat.basis(2, 2, 2, 2)
    assert e22 @ e21 == e21
    assert (e21 @ e22).is_zero()


def test_mat_mul_jordan_square():
    j = Mat(3, [[1, 1], [0, 1]])
    assert (j @ j) == Mat(3, [[1, 2], [0, 1]])


def test_mat_mul_shape_and_modulus_errors():
    a = Mat.zeros(2, 3, 2)
    with pytest.raises(DimensionMismatch):
        a @ a
    with pytest.raises(ModulusMismatch):
        a @ Mat.zeros(3, 2, 3)


def test_kernel_basis_identity_empty():
    assert Mat.identity(3, 2).kernel_basis() == []


def test_kernel_basis_equal_rows():
    vecs = Mat(2, [[1, 1], [1, 1]]).kernel_basis()
    assert len(vecs) == 1
    assert vecs[0] == Mat(2, [[1], [1]])


def test_kernel_basis_zero_matrix():
    assert len(Mat.zeros(2, 3, 5).kernel_basis()) == 3


def test_is_invertible_examples():
    assert Mat.identity(4, 7).is_invertible()
    e21 = Mat.basis(2, 2, 1, 2)
    assert not e21.is_invertible()
    assert e21.rank() == 1
    assert Mat(2, [[1, 1], [0, 1]]).is_invertible()
    assert Mat.zeros(0, 0, 3).is_invertible()
    with pytest.raises(NotSquare):
        Mat.zeros(2, 3, 2).is_invertible()


def test_inverse_round_trip():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        m = rand_invertible(4, p, rng)
        assert m @ m.inverse() == Mat.identity(4, p)
    with pytest.raises(NotInvertible):
        Mat.zeros(2, 2, 3).inverse()


def test_immutability():
    m = Mat.identity(2, 3)
    with pytest.raises(AttributeError):
        m.p = 5
    with pytest.raises(ValueError):
        m.a[0, 0] = 2


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
def test_rank_nullity(p, rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rand_mat(rows, cols, p, rng)
    assert a.rank() + len(a.kernel_basis()) == a.cols
    for v in a.kernel_basis():
        assert (a @ v).is_zero()


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 10**6))
def test_mat_mul_associative(p, seed):
    rng = np.random.default_rng(seed)
    dims = rng.integers(1, 6, size=4)
    a = rand_mat(int(dims[0]), int(dims[1]), p, rng)
    b = rand_mat(int(dims[1]), int(dims[2]), p, rng)
    c = rand_mat(int(dims[2]), int(dims[3]), p, rng)
    assert (a @ b) @ c == a @ (b @ c)


def test_invertible_kernel_empty():
    rng = np.random.default_rng(3)
    m = rand_invertible(5, 3, rng)
    assert m.kernel_basis() == []


def test_solve_consistent_and_inconsistent():
    a = Mat(5, [[1, 2], [3, 4]])
    b = Mat(5, [[1], [0]])
    x = solve(a, b)
    assert a @ x == b
    singular = Mat(2, [[1, 1], [1, 1]])
    assert solve(singular, Mat(2, [[1], [0]])) is None


def test_combine_matches_manual_sum():
    stack = np.stack([Mat.basis(2, 1, 1, 5).a, Mat.basis(2, 2, 2, 5).a])
    got = tensor_combine(np.array([2, 3]), stack, 5)
    assert got.tolist() == [[2, 0], [0, 3]]


@pytest.mark.parametrize("p", [5, 2_147_483_647])
@pytest.mark.parametrize("lead, tail", [((), (4,)), ((7,), (3, 3)), ((2, 5), (2, 4))])
def test_combine_matches_tensordot(p, lead, tail):
    # the matmul form against the tensordot it replaced; at p = 2^31 - 1 both
    # sides run in exact object arithmetic
    rng = np.random.default_rng(len(lead) + len(tail))
    d = 3
    coeffs = rng.integers(0, p, size=lead + (d,), dtype=np.int64)
    stack = rng.integers(0, p, size=(d,) + tail, dtype=np.int64)
    expect = np.tensordot(coeffs.astype(object), stack.astype(object), axes=1) % p
    got = tensor_combine(coeffs, stack, p)
    assert got.dtype == np.int64 and got.shape == lead + tail
    assert got.tolist() == np.asarray(expect).tolist()


def test_batch_invertible_agrees_with_scalar_path():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5):
        batch = rng.integers(0, p, size=(64, 4, 4))
        mask = _batch_invertible(batch.astype(np.int64), p)
        for arr, ok in zip(batch, mask):
            assert (_rank(arr, p) == 4) == bool(ok)


def _structured_batch(kind, p):
    """40 matrices in which some column has no pivot at or below the
    diagonal, so the rank loop must swap in a later column."""
    rng = np.random.default_rng(p % 1000 + len(kind))
    if kind == "strictly-upper":
        return np.triu(rng.integers(0, p, size=(40, 4, 4)), k=1)
    if kind == "square-zero":
        # U N U^-1 with N = [[0, D], [0, 0]]: what rank profiles see
        out = []
        while len(out) < 40:
            u = Mat(p, rng.integers(0, p, size=(4, 4)))
            if u.is_invertible():
                nil = np.zeros((4, 4), dtype=np.int64)
                nil[:2, 2:] = np.diag(rng.integers(0, 2, size=2))
                out.append((u @ Mat(p, nil) @ u.inverse()).a)
        return np.array(out)
    shape = {"zero-leading-column": (4, 4), "wide": (3, 6), "tall": (6, 3)}[kind]
    batch = rng.integers(0, p, size=(40, *shape))
    batch[:, :, 0] = 0
    batch[::3, :, 1] = 0
    batch[1::4, -1] = batch[1::4, 0] * 2 % p  # dependent rows
    return batch


@pytest.mark.parametrize("p", [2, 3, 5, 2_147_483_647])
@pytest.mark.parametrize("shape", [
    (3, 3), (5, 2), (2, 5), (1, 1), (4, 4),
    "strictly-upper", "square-zero", "zero-leading-column", "wide", "tall",
])
def test_batch_rank_agrees_with_rank(p, shape):
    if isinstance(shape, str):
        batch = _structured_batch(shape, p).astype(np.int64)
    else:
        rng = np.random.default_rng(p % 1000 + 10 * shape[0] + shape[1])
        batch = rng.integers(0, p, size=(40, *shape), dtype=np.int64)
        batch[0] = 0
        k = min(shape)
        batch[1] = 0
        batch[1, :k, :k] = np.eye(k, dtype=np.int64)  # full rank
        batch[2:10, -1] = batch[2:10, 0]  # repeated rows
        batch[10:14] = np.outer(np.arange(1, shape[0] + 1), np.arange(1, shape[1] + 1)) % p
    assert [int(r) for r in _batch_rank(batch, p)] == [_rank(m, p) for m in batch]


def test_batch_invertible_stops_at_the_first_column_without_a_pivot():
    # every matrix is singular in column 0, so nothing right of it is read:
    # the entries there are not even numbers
    batch = np.full((4, 3, 3), None, dtype=object)
    batch[:, :, 0] = 0
    assert not _batch_invertible(batch, 5).any()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 4099])
@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_lex_blocks_enumerate_in_product_order(p, k):
    size = 4096
    suffixes, prefixes = lex_blocks(k, p, size)
    assert len(suffixes) <= size and suffixes.dtype == np.int64
    limit = 3 * size  # the whole space, or its first rows where p^k is large
    got = []
    for prefix in itertools.islice(prefixes, limit):
        got += [tuple(prefix) + tuple(s) for s in suffixes.tolist()]
    want = itertools.islice(itertools.product(range(p), repeat=k), limit * len(suffixes))
    assert got == list(want)
    if p**k <= limit:
        assert len(got) == p**k
    rows = []
    for block in lex_rows(k, p, 1024):
        assert block.dtype == np.int64 and 1 <= len(block) <= 1024
        rows += map(tuple, block.tolist())
        if len(rows) >= limit:
            break
    assert rows[:limit] == got[:limit]


def test_batch_rank_of_empty_matrices():
    assert list(_batch_rank(np.zeros((3, 0, 4), dtype=np.int64), 5)) == [0, 0, 0]
    assert list(_batch_rank(np.zeros((3, 4, 0), dtype=np.int64), 5)) == [0, 0, 0]


def test_batch_kernels_exact_at_largest_prime():
    # fraction-free elimination multiplies two entries below p, just under 2^62
    p = 2_147_483_647
    rng = np.random.default_rng(5)
    batch = rng.integers(p - 4, p, size=(64, 3, 3), dtype=np.int64)
    batch[::4, 2] = batch[::4, 1]  # singular members
    mask = _batch_invertible(batch, p)
    assert [bool(ok) for ok in mask] == [_rank(m, p) == 3 for m in batch]
    assert not mask[::4].any() and mask.any()
    assert [int(r) for r in _batch_rank(batch, p)] == [_rank(m, p) for m in batch]


def test_large_modulus_product_is_exact():
    p = 2_147_483_647  # largest supported prime
    a = Mat(p, [[p - 1, p - 2], [1, p - 1]])
    sq = a @ a
    expect = [
        [((p - 1) ** 2 + (p - 2)) % p, ((p - 1) * (p - 2) * 2) % p],
        [(p - 1 + p - 1) % p, ((p - 2) + (p - 1) ** 2) % p],
    ]
    assert sq == Mat(p, expect)


def test_large_modulus_combination_is_exact():
    p = 2_147_483_647
    mats = [
        Mat(p, [[p - 1, 0], [0, p - 2]]),
        Mat(p, [[3, p - 1], [1, 0]]),
        Mat(p, [[p - 5, 2], [p - 1, p - 1]]),
    ]
    coeffs = [p - 1, p - 2, 7]
    got = tensor_combine(np.array(coeffs), np.stack([m.a for m in mats]), p)
    expect = [[0, 0], [0, 0]]
    for c, m in zip(coeffs, mats):
        rows = m.to_lists()
        for i in range(2):
            for j in range(2):
                expect[i][j] = (expect[i][j] + c * rows[i][j]) % p
    assert got.tolist() == expect


def test_block_diag_and_power():
    a = Mat(2, [[0, 1], [0, 0]])
    d = Mat.block_diag([a, Mat.identity(1, 2)])
    assert d.shape == (3, 3)
    assert a.power(2).is_zero()
    assert Mat.identity(3, 5).power(7) == Mat.identity(3, 5)


def _rref_reducing_every_pivot(arr, p):
    """Reference elimination: the whole array reduced mod p after every pivot."""
    a = arr.copy() % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * inv_mod(int(a[r, c]), p)) % p
        factors = a[:, c].copy()
        factors[r] = 0
        a -= np.outer(factors, a[r])
        a %= p
        pivots.append(c)
        r += 1
    return a, pivots


def _low_rank(rows, cols, rank, p, rng):
    left = rng.integers(0, p, size=(rows, rank)).astype(object)
    right = rng.integers(0, p, size=(rank, cols)).astype(object)
    return (left @ right % p).astype(np.int64).reshape(rows, cols)


@pytest.mark.parametrize("p", [2, 3, 5, 65537, 2147483647])
def test_rref_matches_reducing_every_pivot(p):
    rng = np.random.default_rng(p % 1000)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 7), (7, 3), (6, 6), (12, 5), (5, 12)]
    cases = []
    for rows, cols in shapes:
        cases.append(np.zeros((rows, cols), dtype=np.int64))
        cases.append(rng.integers(0, p, size=(rows, cols), dtype=np.int64))
        cases.append(rng.integers(-(2**40), 2**40, size=(rows, cols), dtype=np.int64))
        for rank in range(1, min(rows, cols)):
            cases.append(_low_rank(rows, cols, rank, p, rng))
    cases.append(np.eye(6, dtype=np.int64))
    cases.append(rand_invertible(7, p, rng).a)
    for arr in cases:
        red, pivots = _rref(arr, p)
        ref_red, ref_pivots = _rref_reducing_every_pivot(arr, p)
        assert pivots == ref_pivots
        assert red.dtype == np.int64 and np.array_equal(red, ref_red)


def test_rref_reduces_mid_loop_when_room_runs_out():
    # room = 2^62 // (p-1)^2 = 4 here, so eight or more pivots force
    # full reductions inside the elimination loop; the free columns of the
    # 40 x 44 case take 40 updates, which would leave int64 without them
    p = 1073741789
    assert 2**62 // (p - 1) ** 2 == 4
    rng = np.random.default_rng(5)
    shapes = ((10, 10), (12, 9), (9, 14), (40, 44))
    cases = [rng.integers(0, p, size=shape, dtype=np.int64) for shape in shapes]
    cases.append(_low_rank(11, 13, 9, p, rng))
    for arr in cases:
        red, pivots = _rref(arr, p)
        assert len(pivots) >= 8
        ref_red, ref_pivots = _rref_reducing_every_pivot(arr, p)
        assert pivots == ref_pivots and np.array_equal(red, ref_red)


def test_nullspace_is_echelon_normalized():
    p = 5
    arr = np.array([[1, 2, 0, 3, 1], [0, 0, 1, 4, 2]], dtype=np.int64)
    basis = _nullspace(arr, p)
    # free columns 1, 3, 4: identity there, minus the reduced entries at 0, 2
    assert basis.tolist() == [[3, 1, 0, 0, 0], [2, 0, 1, 1, 0], [4, 0, 3, 0, 1]]
    assert not ((arr @ basis.T) % p).any()
    assert _nullspace(np.zeros((0, 3), dtype=np.int64), p).tolist() == np.eye(3).tolist()
    assert _nullspace(np.zeros((2, 0), dtype=np.int64), p).shape == (0, 0)
