"""Modules as validated action-matrix tuples and the core decision procedures.

A module over a presented algebra is one n x n action matrix per generator,
subject to the defining relations.  Hom spaces are intertwiner kernels;
isomorphism testing searches the Hom space exhaustively within a budget and
falls back to seeded random sampling that can only answer Yes or Undecided.
A No is sound by exhaustion or by a Hom-dimension obstruction, checked
after a one-batch exhaustion and a 256-element seeded random burst (before
the burst while numpy.random is not loaded), before any larger search.
Indecomposability searches End(M) for idempotents in the coordinates of its
basis, through End's structure constants.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    DEFAULT_BUDGET,
    DIHEDRAL,
    RSZ,
    TABLE,
    Algebra,
    Automorphism,
    Subalgebra,
    evaluate_poly,
    image_words,
    word_values,
)
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    ModulusMismatch,
    RelationViolated,
    UndecidedError,
    UnsupportedAlgebraKind,
)
from .linalg import (
    Mat,
    _batch_invertible,
    _mul_arrays,
    _nullspace,
    _rref,
    _solve,
    stack_rows,
    tensor_combine,
)

RANDOM_TRIALS = 10**4
_QUICK_RANDOM = 256
# candidates go to _batch_invertible in slices growing from _FIRST_SLICE by
# x4 up to _SLICE_CAP, the size of one enumeration batch
_FIRST_SLICE = 16
_SLICE_CAP = 4096


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    UNDECIDED = "undecided"

    @property
    def is_yes(self):
        return self is Verdict.YES

    @property
    def is_no(self):
        return self is Verdict.NO

    @property
    def is_undecided(self):
        return self is Verdict.UNDECIDED


class Module:
    """An algebra together with one action matrix per generator."""

    __slots__ = ("algebra", "dim", "action", "name")

    def __init__(self, algebra: Algebra, action: Sequence[Mat], name: str = ""):
        action = tuple(action)
        if len(action) != algebra.num_generators:
            raise DimensionMismatch(
                f"{algebra.num_generators} generators need {algebra.num_generators} "
                f"action matrices, got {len(action)}"
            )
        if action:
            n = action[0].rows
            for m in action:
                if m.rows != n or m.cols != n:
                    raise DimensionMismatch("action matrices must be square of equal size")
                if m.p != algebra.p:
                    raise ModulusMismatch("action matrices over a different modulus")
        else:
            n = 0
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dim", n if action else None)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "name", name)
        _check_relations(algebra, action)

    def __setattr__(self, key, value):
        raise AttributeError("Module is immutable")

    def with_dim(self, n: int) -> "Module":
        """Pin the dimension of a generator-free module."""
        if self.action:
            raise DimensionMismatch("dimension is determined by the action matrices")
        return _module_trusted(self.algebra, (), n, self.name)

    def __eq__(self, other):
        return (
            isinstance(other, Module)
            and other.algebra == self.algebra
            and other.dim == self.dim
            and other.action == self.action
        )

    def __hash__(self):
        return hash((self.algebra, self.dim, self.action))

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Module(dim={self.dim},{tag} over {self.algebra!r})"


def _check_relations(a: Algebra, action: tuple[Mat, ...]):
    for rel in a.relations:
        value = evaluate_poly(rel, action)
        if not value.is_zero():
            raise RelationViolated(f"relation {rel!r} does not vanish", relation=rel)


def module_validate(a: Algebra, action: Sequence[Mat], name: str = "") -> Module:
    """Build a module, checking every relation of the algebra."""
    return Module(a, action, name=name)


def _module_trusted(a: Algebra, action: Sequence[Mat], dim: int, name: str = "") -> Module:
    m = Module.__new__(Module)
    object.__setattr__(m, "algebra", a)
    object.__setattr__(m, "dim", dim)
    object.__setattr__(m, "action", tuple(action))
    object.__setattr__(m, "name", name)
    return m


def trivial_module(a: Algebra, d: int, name: str = "") -> Module:
    """Every generator acts as zero on dimension d."""
    if d < 0:
        raise DimensionMismatch(f"dimension must be >= 0, got {d}")
    action = tuple(Mat.zeros(d, d, a.p) for _ in a.generators)
    m = Module(a, action, name=name)
    return m if m.dim is not None else m.with_dim(d)


def direct_sum(m1: Module, m2: Module) -> Module:
    if m1.algebra != m2.algebra:
        raise AlgebraMismatch("direct sum of modules over different algebras")
    action = tuple(
        Mat.block_diag([a1, a2]) for a1, a2 in zip(m1.action, m2.action)
    )
    out = _module_trusted(m1.algebra, action, (m1.dim or 0) + (m2.dim or 0))
    return out


def conjugate(m: Module, p_mat: Mat) -> Module:
    """Base change: each action matrix becomes P A P^{-1}."""
    pinv = p_mat.inverse()
    action = tuple(p_mat @ a @ pinv for a in m.action)
    return _module_trusted(m.algebra, action, m.dim)


@dataclass(frozen=True)
class HomBasis:
    """Basis of the intertwiner space {phi : B_g phi = phi A_g for all g}."""

    source: Module
    target: Module
    basis: tuple[Mat, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def hom_space(m1: Module, m2: Module) -> HomBasis:
    """Intertwiners m1 -> m2, computed as the kernel of the stacked
    linear system on dim(m2) x dim(m1) unknowns: row (g, i, j) and column
    (k, l) hold B_g[i, k] delta_jl - delta_ik A_g[l, j], the entries of
    kron(B_g, I) - kron(I, A_g^T), built for every generator in one
    broadcast."""
    if m1.algebra != m2.algebra:
        raise AlgebraMismatch("hom space of modules over different algebras")
    n1, n2 = m1.dim, m2.dim
    p = m1.algebra.p
    if n1 == 0 or n2 == 0:
        return HomBasis(m1, m2, ())
    g = len(m1.action)
    a_t = np.array([x.a.T for x in m1.action], dtype=np.int64).reshape(g, n1, n1)
    b = np.array([x.a for x in m2.action], dtype=np.int64).reshape(g, n2, n2)
    system = b[:, :, None, :, None] * np.eye(n1, dtype=np.int64)[:, None, :]
    system -= np.eye(n2, dtype=np.int64)[:, None, :, None] * a_t[:, None, :, None, :]
    system %= p
    system = system.reshape(g * n2 * n1, n2 * n1)
    basis = tuple(Mat(p, v.reshape(n2, n1)) for v in _nullspace(system, p))
    return HomBasis(m1, m2, basis)


@dataclass(frozen=True)
class IsoResult:
    """Isomorphism verdict with a verifying witness or a certificate note."""

    verdict: Verdict
    witness: Mat | None = None
    note: str = ""
    hom_dim: int | None = None
    searched: int = 0


# -- invertible element search in a matrix span -----------------------------


def _coefficient_blocks(d: int, p: int, chunk: int = 4096):
    """Split F_p^d in lexicographic order into (suffixes, prefixes): the
    (p^lo, lo) table of the last lo coordinates, lo the largest with
    p^lo <= chunk, and an iterator over the first d - lo coordinates.  Each
    prefix followed by every suffix, in order, enumerates F_p^d."""
    lo = 0
    while lo < d and p ** (lo + 1) <= chunk:
        lo += 1
    suffixes = np.indices((p,) * lo, dtype=np.int64).reshape(lo, p**lo).T
    return suffixes, itertools.product(range(p), repeat=d - lo)


def _chunked_combos(basis: np.ndarray, p: int):
    """Yield (count, combos) per prefix of _coefficient_blocks, in
    lexicographic order: combos(start, stop) gives the combinations of
    `basis` for suffixes start:stop after that prefix, so together they
    enumerate every coefficient vector in order.  A single prefix combines
    only the slices asked for; with more, the suffix combinations are
    computed once and shifted by each prefix."""
    suffixes, prefixes = _coefficient_blocks(basis.shape[0], p)
    hi = basis.shape[0] - suffixes.shape[1]
    if not hi:
        yield len(suffixes), lambda a, b: tensor_combine(suffixes[a:b], basis, p)
        return
    table = tensor_combine(suffixes, basis[hi:], p)
    for prefix in prefixes:
        base = tensor_combine(np.array(prefix, dtype=np.int64), basis[:hi], p)
        yield len(table), lambda a, b: (base + table[a:b]) % p


def _spans_identity(flat: np.ndarray, n: int, p: int) -> bool:
    """Whether the n x n identity is sum_i I[f_i] row_i, f_i the last nonzero
    position of row i.

    A basis from hom_space is echelon-normalized: row j is delta_ij at f_i,
    so the coordinates of any element of the span are its entries at the
    f_i, and this is exactly membership of I in the span.  For any other
    basis a True is still a proof of membership; a False only skips the
    identity shortcut, and the search after it stays exact."""
    eye = np.eye(n, dtype=np.int64).ravel()
    last = flat.shape[1] - 1 - np.argmax(flat[:, ::-1] != 0, axis=1)
    return np.array_equal(tensor_combine(eye[last], flat, p), eye)


def _find_invertible(
    basis: Sequence[Mat],
    p: int,
    budget: int,
    seed: int,
    obstructed: Callable[[], bool] | None = None,
) -> tuple[str, Mat | None, int]:
    """Search span(basis) for an invertible matrix, cheapest evidence first.

    Returns ("yes", witness, searched), ("no", None, searched) with the span
    fully enumerated, ("obstructed", None, 0) when the zero-argument
    callable `obstructed` certifies that no invertible element exists, or
    ("undecided", None, searched).  The order is: the identity, the basis
    elements, a one-batch exhaustion of a span of at most 4096 elements,
    a seeded burst of 256 random elements, the certificate, exhaustion
    within the budget, then RANDOM_TRIALS more random elements; in a process
    that has not loaded numpy.random yet, the certificate comes before the
    burst.  The random stream does not depend on the certificate, and a span
    the certificate obstructs has no invertible element for the burst to
    find, so the order changes no result.

    Candidates are checked in slices that grow from _FIRST_SLICE by x4 up to
    _SLICE_CAP across the whole search, in enumeration order, so a Yes
    found early checks only a few; the witness is the first invertible
    candidate in that order, and searched the number of candidates checked.
    """
    d = len(basis)
    if d == 0:
        return "no", None, 1
    n = basis[0].rows
    if n != basis[0].cols:
        return "no", None, 0
    stack = np.stack([b.a for b in basis])

    # identity in the span is the common fast witness
    if _spans_identity(stack.reshape(d, n * n), n, p):
        return "yes", Mat.identity(n, p), 0

    hit = np.nonzero(_batch_invertible(stack, p))[0]
    if hit.size:
        return "yes", basis[int(hit[0])], 0

    searched = 0
    size = _FIRST_SLICE
    total = p**d

    def first_invertible(count: int, combos) -> Mat | None:
        """The first invertible of the count candidates combos(start, stop)
        enumerates, checked slice by slice."""
        nonlocal searched, size
        start = 0
        while start < count:
            part = combos(start, min(start + size, count))
            start += part.shape[0]
            searched += part.shape[0]
            size = min(4 * size, _SLICE_CAP)
            hit = np.nonzero(_batch_invertible(part, p))[0]
            if hit.size:
                return Mat(p, part[int(hit[0])])
        return None

    def exhaustive() -> tuple[str, Mat | None, int]:
        for count, combos in _chunked_combos(stack, p):
            witness = first_invertible(count, combos)
            if witness is not None:
                return "yes", witness, searched
        return "no", None, total

    if total <= min(4096, budget):
        return exhaustive()

    def certified_no() -> bool:
        return obstructed is not None and obstructed()

    # the burst is cheaper than the certificate's three Hom spaces, but the
    # first import of numpy.random adds about 6 MB of resident memory, which
    # a span the certificate obstructs never needs: until some search has
    # loaded it, the certificate goes first.  Both orders give the same
    # result, since an obstructed span has no invertible element to find.
    burst_first = "numpy.random" in sys.modules
    if not burst_first and certified_no():
        return "obstructed", None, 0

    rng = np.random.default_rng(seed)

    def random_burst(trials: int) -> Mat | None:
        done = 0
        while done < trials:
            take = min(1024, trials - done)
            coeffs = rng.integers(0, p, size=(take, d), dtype=np.int64)
            done += take
            witness = first_invertible(take, lambda a, b: tensor_combine(coeffs[a:b], stack, p))
            if witness is not None:
                return witness
        return None

    witness = random_burst(_QUICK_RANDOM)
    if witness is not None:
        return "yes", witness, searched
    if burst_first and certified_no():
        return "obstructed", None, 0

    if total <= budget:
        return exhaustive()

    witness = random_burst(RANDOM_TRIALS)
    if witness is not None:
        return "yes", witness, searched
    return "undecided", None, searched


def _hom_dims_differ(m1: Module, m2: Module, d: int) -> bool:
    """True when dim End(m1), dim End(m2) or dim Hom(m2, m1) differs from
    d = dim Hom(m1, m2).  An isomorphism u: m1 -> m2 makes phi -> u^-1 phi,
    phi -> phi u^-1 and phi -> u^-1 phi u^-1 linear bijections from
    Hom(m1, m2) onto End(m1), End(m2) and Hom(m2, m1), so any difference
    certifies that there is none."""
    return any(hom_space(a, b).dim != d for a, b in ((m1, m1), (m2, m2), (m2, m1)))


def _iso_from_hom(
    m1: Module, m2: Module, hom: HomBasis, budget: int, seed: int, certify: bool = False
) -> IsoResult:
    """Search hom for an isomorphism; with `certify`, a span too large for one
    batch is checked for a Hom-dimension obstruction once the seeded burst
    has found no witness."""
    if m1.dim == 0:
        return IsoResult(Verdict.YES, witness=Mat.zeros(0, 0, m1.algebra.p), note="empty module")
    obstructed = (lambda: _hom_dims_differ(m1, m2, hom.dim)) if certify else None
    status, witness, searched = _find_invertible(
        hom.basis, m1.algebra.p, budget, seed, obstructed
    )
    if status == "yes":
        _verify_intertwiner(m1, m2, witness)
        return IsoResult(Verdict.YES, witness=witness, hom_dim=hom.dim, searched=searched)
    if status == "no":
        return IsoResult(
            Verdict.NO, note="exhausted intertwiner space", hom_dim=hom.dim, searched=searched
        )
    if status == "obstructed":
        return IsoResult(Verdict.NO, note="hom dimension obstruction", hom_dim=hom.dim)
    return IsoResult(
        Verdict.UNDECIDED,
        note=f"hom space of dim {hom.dim} exceeds budget {budget}",
        hom_dim=hom.dim,
        searched=searched,
    )


def is_isomorphic(
    m1: Module, m2: Module, budget: int = DEFAULT_BUDGET, seed: int = 0
) -> IsoResult:
    """Decide module isomorphism.

    No is certain: the dimensions differ, the whole intertwiner space was
    enumerated without finding an invertible element, or dim Hom(m1, m2),
    dim Hom(m2, m1), dim End(m1) and dim End(m2) are not all equal (checked
    once the space is larger than one batch of 4096, after a seeded burst of
    256 random elements has found no witness, or before the burst while
    numpy.random is not loaded; either way before any larger search).
    When the space exceeds the budget, seeded random sampling can still find
    a witness; otherwise the verdict is Undecided.
    """
    if m1.algebra != m2.algebra:
        raise AlgebraMismatch("isomorphism test for modules over different algebras")
    if m1.dim != m2.dim:
        return IsoResult(Verdict.NO, note="dimension mismatch")
    return _iso_from_hom(m1, m2, hom_space(m1, m2), budget, seed, certify=True)


def _verify_intertwiner(m1: Module, m2: Module, phi: Mat):
    if not phi.is_invertible():
        raise RelationViolated("witness is not invertible")
    for a_g, b_g in zip(m1.action, m2.action):
        if b_g @ phi != phi @ a_g:
            raise RelationViolated("witness does not intertwine the actions")


@dataclass(frozen=True)
class IndecResult:
    verdict: Verdict
    idempotent: Mat | None = None
    note: str = ""


def _fitting_split(e: Mat, n: int) -> tuple[Mat, Mat] | None:
    """Kernel/image bases of e^n when both are proper, else None."""
    power = e.power(n)
    ker = power.kernel_basis()
    k = len(ker)
    if k == 0 or k == n:
        return None
    p = e.p
    ker_mat = np.concatenate([v.a for v in ker], axis=1)
    im_cols, _ = _rref_cols(power.a, p)
    return Mat(p, ker_mat), Mat(p, im_cols)


def _rref_cols(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Column-space basis as the columns of the returned array."""
    red, pivots = _rref(arr.T % p, p)
    return red[: len(pivots)].T.copy(), pivots


def _projection_idempotent(ker: Mat, im: Mat) -> Mat:
    """Projection onto the image along the kernel (Fitting splitting map)."""
    p = ker.p
    n = ker.rows
    basis = np.concatenate([ker.a, im.a], axis=1)
    u = Mat(p, basis)
    uinv = u.inverse()
    diag = np.zeros((n, n), dtype=np.int64)
    for i in range(ker.cols, n):
        diag[i, i] = 1
    return u @ Mat(p, diag) @ uinv


def _in_end(m: Module, e: Mat) -> bool:
    return all(a @ e == e @ a for a in m.action)


def is_indecomposable(m: Module, budget: int = DEFAULT_BUDGET) -> IndecResult:
    """Decide indecomposability via idempotents of the endomorphism algebra.

    A Fitting pre-pass on the End basis cheaply certifies decomposability;
    otherwise the End space is enumerated for nontrivial idempotents within
    the budget (exhaustion proves indecomposability), testing e^2 = e in the
    coordinates of the End basis through its structure constants.
    """
    n = m.dim
    if n is None or n < 1:
        raise DimensionMismatch("indecomposability needs dim >= 1")
    if n == 1:
        return IndecResult(Verdict.YES, note="dimension 1")
    p = m.algebra.p
    end = hom_space(m, m)
    for e in end.basis:
        split = _fitting_split(e, n)
        if split is not None:
            idem = _projection_idempotent(*split)
            if idem @ idem == idem and _in_end(m, idem) and not idem.is_zero():
                return IndecResult(Verdict.NO, idempotent=idem, note="fitting split")
    d = end.dim
    if p**d > budget:
        return IndecResult(
            Verdict.UNDECIDED, note=f"End space of dim {d} exceeds budget {budget}"
        )
    if d == 0:
        return IndecResult(Verdict.YES, note="trivial endomorphism algebra")
    idem = _first_idempotent(np.stack([b.a for b in end.basis]), p)
    if idem is not None:
        return IndecResult(Verdict.NO, idempotent=Mat(p, idem), note="idempotent search")
    return IndecResult(Verdict.YES, note=f"no nontrivial idempotent among {p ** d}")


def _structure_constants(stack: np.ndarray, p: int) -> np.ndarray:
    """gamma[i, j, k] with E_i E_j = sum_k gamma[i, j, k] E_k for the (d, n, n)
    basis stack of an algebra of matrices, from one solve."""
    d, n, _ = stack.shape
    prods = _mul_arrays(stack[:, None], stack[None], p)
    gamma = _solve(stack.reshape(d, n * n).T, prods.reshape(d * d, n * n).T, p)
    if gamma is None:
        raise RelationViolated("End basis is not closed under composition")
    return gamma.T.reshape(d, d, d)


def _first_idempotent(stack: np.ndarray, p: int) -> np.ndarray | None:
    """The first nontrivial idempotent of the algebra span(stack), in the
    lexicographic coefficient order of _coefficient_blocks, or None.

    e = sum_i c_i E_i is idempotent iff Q_k(c) = sum_ij gamma_ijk c_i c_j
    equals c_k for every k.  Writing c = (x, y) with y a suffix of
    _coefficient_blocks and s = sum_j y_j E_j, e^2 - e is
    (x^2 - x) + (xs + sx) + (s^2 - s): the last term is computed once for
    every suffix, and each prefix x adds a term linear in y, so a batch costs
    one (p^lo, lo) x (lo, d) product instead of p^lo n x n products.

    Exactness: once lo >= 1 the suffix table fits one chunk, so p <= 4096 and
    lo <= 12, and the float64 products below have integer terms in [0, p):
    s^2 - s accumulates lo^2 terms below p^3 (< 2^44) less a residue, a
    prefix's linear term lo terms below p^2 (< 2^28), and their sum with a
    residue stays below 2^53 in absolute value, so every float is an exact
    integer.  With lo = 0 the float terms are residues below 2^31.  The
    prefix terms go through tensor_combine, which is exact at every p.
    """
    d, n, _ = stack.shape
    gamma = _structure_constants(stack, p)
    suffixes, prefixes = _coefficient_blocks(d, p)
    lo = suffixes.shape[1]
    hi = d - lo
    # coordinates run down the rows, suffixes along them, so every
    # elementwise step runs over p^lo contiguous entries
    y = suffixes.T.astype(np.float64)
    s_sq = np.zeros((d, y.shape[1]))
    for i in range(lo):
        s_sq += (gamma[hi + i, hi:].T @ y) * y[i]
    s_sq[hi:] -= y
    # xs + sx = sum_{i < hi, j >= hi} x_i y_j (gamma_ij + gamma_ji)
    cross = (gamma[:hi, hi:] + gamma[hi:, :hi].transpose(1, 0, 2)) % p
    eye = np.eye(n, dtype=np.int64)
    for prefix in prefixes:
        x = np.array(prefix, dtype=np.int64)
        x_sq = tensor_combine(x, tensor_combine(x, gamma[:hi, :hi], p), p)
        x_sq[:hi] -= x
        rem = s_sq + tensor_combine(x, cross, p).T.astype(np.float64) @ y
        rem += x_sq[:, None]
        # rem and rint(rem / p) * p are exact integers below 2^53; they are
        # equal iff p divides rem, when the division is exact too
        for idx in np.nonzero((np.rint(rem / p) * p == rem).all(axis=0))[0]:
            cand = tensor_combine(np.concatenate([x, suffixes[idx]]), stack, p)
            if cand.any() and not np.array_equal(cand, eye):
                return cand
    return None


def _restrict_to_invariant(m: Module, cols: Mat) -> Module:
    """Actions on an invariant column-span, in the given basis."""
    p = m.algebra.p
    action = []
    for a in m.action:
        img = a @ cols
        sol = _solve(cols.a, img.a, p)
        if sol is None:
            raise RelationViolated("subspace is not invariant")
        action.append(Mat(p, sol))
    return _module_trusted(m.algebra, action, cols.cols)


def _decompose_with_basis(m: Module, budget: int) -> tuple[list[Module], Mat]:
    res = is_indecomposable(m, budget)
    if res.verdict.is_undecided:
        raise UndecidedError(res.note)
    if res.verdict.is_yes:
        return [m], Mat.identity(m.dim, m.algebra.p)
    idem = res.idempotent
    p = m.algebra.p
    ker = idem.kernel_basis()
    im = (idem - Mat.identity(m.dim, p)).kernel_basis()
    parts: list[Module] = []
    columns: list[np.ndarray] = []
    for vecs in (ker, im):
        basis = Mat(p, np.concatenate([v.a for v in vecs], axis=1))
        sub = _restrict_to_invariant(m, basis)
        sub_parts, sub_basis = _decompose_with_basis(sub, budget)
        parts.extend(sub_parts)
        lifted = basis @ sub_basis
        offset = 0
        for sp in sub_parts:
            columns.append(lifted.a[:, offset : offset + sp.dim])
            offset += sp.dim
    return parts, Mat(p, np.concatenate(columns, axis=1))


def decompose(m: Module, budget: int = DEFAULT_BUDGET) -> list[Module]:
    """Indecomposable summands, found by splitting along idempotents.

    The reassembly is verified: the collected part bases form an invertible
    base change carrying m onto the direct sum of the parts.
    """
    if m.dim == 0:
        return []
    parts, basis = _decompose_with_basis(m, budget)
    total = direct_sum(parts[0], parts[1]) if len(parts) > 1 else parts[0]
    for extra in parts[2:]:
        total = direct_sum(total, extra)
    if sum(part.dim for part in parts) != m.dim or not basis.is_invertible():
        raise RelationViolated("decomposition does not reassemble")
    for a, b in zip(m.action, total.action):
        if a @ basis != basis @ b:
            raise RelationViolated("decomposition does not reassemble")
    for part in parts:
        if not is_indecomposable(part, budget).verdict.is_yes:
            raise RelationViolated("decomposition produced a decomposable part")
    return parts


def socle_dim(m: Module) -> int:
    """Dimension of the joint kernel of the radical-generator actions."""
    if m.algebra.kind not in (RSZ, TABLE, DIHEDRAL):
        raise UnsupportedAlgebraKind(
            f"socle needs known radical generators, not available for {m.algebra.kind}"
        )
    if not m.action:
        return m.dim
    stacked = stack_rows(m.action)
    return m.dim - stacked.rank()


def restrict(m: Module, s: Subalgebra) -> Module:
    """View m over a subalgebra: the i-th restricted generator acts by the
    w_basis[i]-combination of the original action matrices, all mixed in one
    tensor_combine.  The relations are not re-checked: every product of two
    combinations of the square-zero generators' actions is a combination of
    their pairwise products, which vanish on m.  With W = 0 the result has
    no action and keeps m's dimension."""
    if s.parent != m.algebra:
        raise AlgebraMismatch("subalgebra of a different algebra")
    p = m.algebra.p
    stack = np.stack([a.a for a in m.action])
    mixed = tensor_combine(s.w_basis.a, stack, p)
    action = tuple(Mat(p, x) for x in mixed)
    name = f"{m.name}|{s.label()}" if m.name else ""
    return _module_trusted(s.as_algebra, action, m.dim, name=name)


def twist(m: Module, f: Automorphism) -> Module:
    """The module with generator i acting by f's image of generator i
    evaluated on the original action: one tensor_combine of f's
    coefficients with m's action on the algebra's image_words.

    For square-zero algebras the twisted actions are linear combinations of
    the originals, so every product of two of them vanishes automatically and
    the relation check is skipped; every other result is re-validated
    against the relations.
    """
    if f.algebra != m.algebra:
        raise AlgebraMismatch("automorphism of a different algebra")
    a, n, words = m.algebra, m.dim or 0, image_words(m.algebra)
    eye = np.eye(n, dtype=np.int64)
    values = word_values(words, [x.a for x in m.action], eye, lambda x, y: _mul_arrays(x, y, a.p))
    stack = np.array([values[w] for w in words], dtype=np.int64).reshape(len(words), n, n)
    action = tuple(Mat(a.p, x) for x in tensor_combine(f.coefficients, stack, a.p))
    if a.kind == RSZ:
        return _module_trusted(a, action, m.dim, name=m.name)
    return Module(a, action, name=m.name)
