"""Exact dense linear algebra over prime fields F_p.

Matrices are immutable numpy int64 arrays with entries reduced to [0, p).
All elimination is plain field arithmetic; there is no pivoting tolerance.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidModulus,
    ModulusMismatch,
    NotInvertible,
    NotSquare,
)

MAX_MODULUS = 2**31


@lru_cache(maxsize=None)
def check_prime(p: int) -> int:
    """Validate a field modulus; returns p for chaining."""
    if not isinstance(p, int) or p < 2 or p > MAX_MODULUS:
        raise InvalidModulus(f"modulus must be a prime in [2, 2^31], got {p!r}")
    if p in (2, 3):
        return p
    if p % 2 == 0 or p % 3 == 0:
        raise InvalidModulus(f"{p} is not prime")
    f = 5
    while f * f <= p:
        if p % f == 0 or p % (f + 2) == 0:
            raise InvalidModulus(f"{p} is not prime")
        f += 6
    return p


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise NotInvertible(f"0 has no inverse mod {p}")
    return pow(a, p - 2, p)


def _as_array(data, p: int) -> np.ndarray:
    a = np.array(data, dtype=np.int64)
    if a.ndim != 2:
        raise DimensionMismatch(f"matrix data must be 2-dimensional, got shape {a.shape}")
    return a % p


def _mul_arrays(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # int64 is safe while inner_dim * (p-1)^2 stays below 2^63
    inner = a.shape[1]
    if inner and (p - 1) * (p - 1) > (2**62) // max(inner, 1):
        return (a.astype(object) @ b.astype(object) % p).astype(np.int64)
    return (a @ b) % p


class Mat:
    """Immutable dense matrix over F_p."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, data):
        check_prime(p)
        arr = data if isinstance(data, np.ndarray) and data.dtype == np.int64 else None
        if arr is None:
            arr = _as_array(data, p)
        else:
            arr = arr % p
        arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- constructors ----------------------------------------------------
    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "Mat":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, n: int, p: int) -> "Mat":
        return cls(p, np.eye(n, dtype=np.int64))

    @classmethod
    def basis(cls, n: int, i: int, j: int, p: int, value: int = 1) -> "Mat":
        """e_{ij}: the n x n matrix with a single entry at 1-based (i, j)."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise DimensionMismatch(f"basis position ({i},{j}) outside {n}x{n}")
        a = np.zeros((n, n), dtype=np.int64)
        a[i - 1, j - 1] = value % p
        return cls(p, a)

    @classmethod
    def block_diag(cls, blocks: Sequence["Mat"]) -> "Mat":
        if not blocks:
            raise DimensionMismatch("block_diag needs at least one block")
        p = blocks[0].p
        for b in blocks:
            if b.p != p:
                raise ModulusMismatch("blocks over different moduli")
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        out = np.zeros((n, m), dtype=np.int64)
        r = c = 0
        for b in blocks:
            out[r : r + b.rows, c : c + b.cols] = b.a
            r += b.rows
            c += b.cols
        return cls(p, out)

    # -- shape -----------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def entries(self) -> tuple[int, ...]:
        return tuple(int(x) for x in self.a.ravel())

    def to_lists(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self.a]

    # -- arithmetic --------------------------------------------------------
    def _check_same_field(self, other: "Mat"):
        if not isinstance(other, Mat):
            raise TypeError(f"expected Mat, got {type(other).__name__}")
        if other.p != self.p:
            raise ModulusMismatch(f"mixed moduli {self.p} and {other.p}")

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return Mat(self.p, _mul_arrays(self.a, other.a, self.p))

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        return Mat(self.p, (self.a + other.a) % self.p)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot subtract {self.shape} and {other.shape}")
        return Mat(self.p, (self.a - other.a) % self.p)

    def __neg__(self) -> "Mat":
        return Mat(self.p, (-self.a) % self.p)

    def __mul__(self, scalar: int) -> "Mat":
        return Mat(self.p, (self.a * (int(scalar) % self.p)) % self.p)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and other.p == self.p
            and other.shape == self.shape
            and bool(np.array_equal(other.a, self.a))
        )

    def __hash__(self):
        return hash((self.p, self.shape, self.a.tobytes()))

    def __repr__(self):
        return f"Mat(p={self.p}, {self.to_lists()})"

    def is_zero(self) -> bool:
        return not self.a.any()

    def power(self, k: int) -> "Mat":
        if self.rows != self.cols:
            raise NotSquare("power of a non-square matrix")
        out = np.eye(self.rows, dtype=np.int64)
        base = self.a.copy()
        while k > 0:
            if k & 1:
                out = _mul_arrays(out, base, self.p)
            base = _mul_arrays(base, base, self.p)
            k >>= 1
        return Mat(self.p, out)

    # -- elimination-backed queries ---------------------------------------
    def rank(self) -> int:
        return _rank(self.a, self.p)

    def is_invertible(self) -> bool:
        if self.rows != self.cols:
            raise NotSquare(f"invertibility of a {self.rows}x{self.cols} matrix")
        return _rank(self.a, self.p) == self.rows

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise NotSquare("inverse of a non-square matrix")
        inv = _inverse(self.a, self.p)
        if inv is None:
            raise NotInvertible("matrix is singular")
        return Mat(self.p, inv)

    def kernel_basis(self) -> list["Mat"]:
        """Basis of the right null space, as column vectors."""
        ns = _nullspace(self.a, self.p)
        return [Mat(self.p, v.reshape(-1, 1)) for v in ns]


# -- elimination internals (plain int64 arrays) -----------------------------


def _rref(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns.

    Reduction mod p is lazy.  Each step reduces only what it reads - the
    column searched for a pivot, which is also the column of factors, and the
    pivot row - and updates only columns >= c, since every row but the
    pivot rows is exactly zero left of c.  The update subtracts a product of
    two residues, at most (p-1)^2, so an entry that starts in [0, p) stays
    in [-k (p-1)^2, p) after k updates: the whole array is reduced before an
    update that would take k past room = 2^62 // (p-1)^2, which keeps every
    entry inside int64 (room is 1 at p = 2^31 - 1, a full reduction every
    step), and once more at the end.  Every value read is reduced first, so
    pivots and the returned array equal those of reducing after every step.
    The work array is column-major, so the pivot column and the block of
    columns >= c that each step updates are contiguous.
    """
    a = np.asfortranarray(arr % p)
    rows, cols = a.shape
    room = 2**62 // (p - 1) ** 2
    pending = 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = a[:, c]
        col %= p
        pr = r
        if not col[r]:
            nz = col[r:].nonzero()[0]
            if not nz.size:
                continue
            pr += int(nz[0])
        pivot_row = a[r, c:]
        if pr != r:
            other = a[pr, c:]
            held = other.copy()
            other[:] = pivot_row
            pivot_row[:] = held
        pivot_row %= p
        lead = int(pivot_row[0])
        if lead != 1:
            pivot_row *= inv_mod(lead, p)
            pivot_row %= p
        factors = col.copy()
        factors[r] = 0
        if pending == room:
            a %= p
            pending = 0
        # transposed, the outer product is column-major like a[:, c:]
        a[:, c:] -= np.multiply.outer(pivot_row, factors).T
        pending += 1
        pivots.append(c)
        r += 1
    a %= p
    return np.ascontiguousarray(a), pivots


def _rank(arr: np.ndarray, p: int) -> int:
    if arr.size == 0:
        return 0
    return len(_rref(arr, p)[1])


def _inverse(arr: np.ndarray, p: int) -> np.ndarray | None:
    n = arr.shape[0]
    aug = np.concatenate([arr.copy() % p, np.eye(n, dtype=np.int64)], axis=1)
    aug, pivots = _rref(aug, p)
    if pivots != list(range(n)):
        return None
    return aug[:, n:]


def _nullspace(arr: np.ndarray, p: int) -> np.ndarray:
    """Basis of {v : arr v = 0} as the rows of a (k, cols) array,
    echelon-normalized: row i is 1 at the i-th free column, 0 at the other
    free columns, and minus the reduced entries at the pivot columns."""
    cols = arr.shape[1]
    red, pivots = _rref(arr, p)
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    free_cols = np.nonzero(free)[0]
    basis = np.zeros((free_cols.size, cols), dtype=np.int64)
    basis[np.arange(free_cols.size), free_cols] = 1
    basis[:, pivots] = (-red[: len(pivots), free_cols].T) % p
    return basis


def _solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of a x = b (b may be a matrix), or None."""
    rows, cols = a.shape
    b = b.reshape(rows, -1) % p
    aug = np.concatenate([a % p, b], axis=1)
    red, pivots = _rref(aug, p)
    if any(pc >= cols for pc in pivots):
        return None
    x = np.zeros((cols, b.shape[1]), dtype=np.int64)
    for r, pc in enumerate(pivots):
        x[pc] = red[r, cols:]
    return x


def solve(a: Mat, b: Mat) -> Mat | None:
    """Solve a @ x = b exactly; None when inconsistent."""
    a._check_same_field(b)
    if a.rows != b.rows:
        raise DimensionMismatch(f"solve with {a.shape} and {b.shape}")
    x = _solve(a.a, b.a, a.p)
    return None if x is None else Mat(a.p, x)


def tensor_combine(coeffs: np.ndarray, stack: np.ndarray, p: int) -> np.ndarray:
    """(..., d) coefficients times a (d, ...) stack, reduced mod p, as one
    (k, d) x (d, l) matrix product; falls back to exact object arithmetic
    when int64 accumulation could overflow."""
    d = stack.shape[0]
    shape = coeffs.shape[:-1] + stack.shape[1:]
    coeffs = coeffs.reshape(math.prod(coeffs.shape[:-1]), d)
    stack = stack.reshape(d, math.prod(stack.shape[1:]))
    if d and (p - 1) * (p - 1) > (2**62) // max(d, 1):
        out = (coeffs.astype(object) @ stack.astype(object) % p).astype(np.int64)
    else:
        out = coeffs @ stack % p
    return out.reshape(shape)


def _batch_invertible(batch: np.ndarray, p: int) -> np.ndarray:
    """Vectorized invertibility over a (B, n, n) batch; returns a bool mask.

    Elimination is fraction-free: a row below the pivot becomes
    pivot * row - entry * pivot_row, which scales it by a unit of F_p, so no
    pivot inverse is needed and every product stays below p^2 < 2^62.
    """
    b, n, _ = batch.shape
    if n == 0:
        return np.ones(b, dtype=bool)
    a = batch.copy()
    alive = np.ones(b, dtype=bool)
    for c in range(n):
        col = a[:, c:, c] != 0
        alive &= col.any(axis=1)
        if not alive.any():
            return alive
        piv = c + np.argmax(col, axis=1)
        swap = np.nonzero(piv != c)[0]
        if swap.size:
            rows_c = a[swap, c, :].copy()
            a[swap, c, :] = a[swap, piv[swap], :]
            a[swap, piv[swap], :] = rows_c
        if c + 1 < n:
            # columns left of c are already zero below the pivot row
            rest = a[:, c, c, None, None] * a[:, c + 1 :, c:]
            rest -= a[:, c + 1 :, c, None] * a[:, None, c, c:]
            rest %= p
            a[:, c + 1 :, c:] = rest
    return alive


def _batch_rank(batch: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a (B, r, c) batch: the fraction-free elimination of
    _batch_invertible with one pivot row per matrix, advanced only where the
    current column has a pivot at or below it."""
    b, rows, cols = batch.shape
    rank = np.zeros(b, dtype=np.int64)
    if rows == 0:
        return rank
    a = batch % p
    row_ids = np.arange(rows)
    for c in range(cols):
        col = (a[:, :, c] != 0) & (row_ids >= rank[:, None])
        has = np.nonzero(col.any(axis=1))[0]
        if not has.size:
            continue
        r = rank[has]
        piv = np.argmax(col[has], axis=1)
        sub = a[has]
        k = np.arange(has.size)
        pivot_row = sub[k, piv, :]
        sub[k, piv, :] = sub[k, r, :]
        sub[k, r, :] = pivot_row
        pv = pivot_row[:, c, None, None]
        f = np.where(row_ids > r[:, None], sub[:, :, c], 0)[:, :, None]
        a[has] = (pv * sub - f * pivot_row[:, None, :]) % p
        rank[has] += 1
    return rank


def inverse_table(p: int) -> np.ndarray:
    """inv_table[v] = v^{-1} mod p for v in [1, p); inv_table[0] = 0."""
    t = np.zeros(p, dtype=np.int64)
    for v in range(1, p):
        t[v] = inv_mod(v, p)
    return t


def rand_mat(rows: int, cols: int, p: int, rng) -> Mat:
    return Mat(p, rng.integers(0, p, size=(rows, cols), dtype=np.int64))


def rand_invertible(n: int, p: int, rng) -> Mat:
    while True:
        m = rand_mat(n, n, p, rng)
        if m.is_invertible():
            return m


def stack_rows(mats: Iterable[Mat]) -> Mat:
    mats = list(mats)
    p = mats[0].p
    return Mat(p, np.concatenate([m.a for m in mats], axis=0))
