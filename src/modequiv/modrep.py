"""Modules as validated action arrays and the core decision procedures.

A module over a presented algebra is one (g, n, n) array of residues, an
n x n action matrix per generator, subject to the defining relations; every
layer passes that array along, and Mat appears only where a matrix leaves
the package (Module.action, witnesses, idempotents).  Hom spaces are
intertwiner kernels, held as one (k, n2, n1) basis array;
isomorphism testing searches the Hom space exhaustively within a budget and
falls back to sampling a fixed random stream, which can only answer Yes or
Undecided.  A No is sound by exhaustion or by a Hom-dimension obstruction,
checked after the basis, 16 draws and a one-batch exhaustion and before
the rest of a 256-draw burst and any larger search, in every process alike.
Indecomposability searches End(M) for idempotents modulo a square-zero ideal,
through the structure constants, and lifts each one by a linear solve.
"""

from __future__ import annotations

import functools
import random
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
    evaluate_arrays,
    image_words,
    word_stack,
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
    _batch_rank,
    _mul_arrays,
    _nullspace,
    _power_arrays,
    _rank,
    _rref,
    _solve,
    _square_stack,
    lex_blocks,
    lex_rows,
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
    """An algebra together with its action: one read-only int64 array of
    residues of shape (g, n, n), generator i acting by actions[i].  The
    dimension n is read from the shape, so a module without generators keeps
    it too.  `action` gives the matrices as a tuple of Mat, built on access."""

    __slots__ = ("algebra", "actions", "name")

    def __init__(self, algebra: Algebra, action: Sequence[Mat], name: str = ""):
        action = tuple(action)
        if len(action) != algebra.num_generators:
            raise DimensionMismatch(
                f"{algebra.num_generators} generators need {algebra.num_generators} "
                f"action matrices, got {len(action)}"
            )
        actions = _square_stack(action, algebra.p)
        _check_relations(algebra, actions)
        _init(self, algebra, actions, name)

    def __setattr__(self, key, value):
        raise AttributeError("Module is immutable")

    @property
    def dim(self) -> int:
        return self.actions.shape[1]

    @property
    def action(self) -> tuple[Mat, ...]:
        return tuple(Mat(self.algebra.p, a) for a in self.actions)

    def with_dim(self, n: int) -> "Module":
        """Pin the dimension of a module over an algebra without generators."""
        if self.algebra.num_generators:
            raise DimensionMismatch("dimension is determined by the action matrices")
        return _module_trusted(self.algebra, np.zeros((0, n, n), dtype=np.int64), self.name)

    def __eq__(self, other):
        return (
            isinstance(other, Module)
            and other.algebra == self.algebra
            and other.actions.shape == self.actions.shape
            and bool(np.array_equal(other.actions, self.actions))
        )

    def __hash__(self):
        return hash((self.algebra, self.actions.shape, self.actions.tobytes()))

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Module(dim={self.dim},{tag} over {self.algebra!r})"


def _init(m: Module, a: Algebra, actions: np.ndarray, name: str):
    actions.setflags(write=False)
    object.__setattr__(m, "algebra", a)
    object.__setattr__(m, "actions", actions)
    object.__setattr__(m, "name", name)


def _check_relations(a: Algebra, actions: np.ndarray):
    """RelationViolated at the first relation of a not 0 on actions, or on any of a batch."""
    for rel, value in zip(a.relations, evaluate_arrays(a.relations, actions, a.p)):
        if value.any():
            raise RelationViolated(f"relation {rel!r} does not vanish", relation=rel)


def module_validate(a: Algebra, action: Sequence[Mat], name: str = "") -> Module:
    """Build a module, checking every relation of the algebra."""
    return Module(a, action, name=name)


def _module_trusted(a: Algebra, actions: np.ndarray, name: str = "") -> Module:
    """The module with the (g, n, n) residue array actions, unchecked."""
    m = Module.__new__(Module)
    _init(m, a, actions, name)
    return m


def trivial_module(a: Algebra, d: int, name: str = "") -> Module:
    """Every generator acts as zero on dimension d."""
    if d < 0:
        raise DimensionMismatch(f"dimension must be >= 0, got {d}")
    zeros = np.zeros((a.num_generators, d, d), dtype=np.int64)
    _check_relations(a, zeros)
    return _module_trusted(a, zeros, name)


def direct_sum(m1: Module, m2: Module) -> Module:
    if m1.algebra != m2.algebra:
        raise AlgebraMismatch("direct sum of modules over different algebras")
    (g, n1, _), n2 = m1.actions.shape, m2.dim
    actions = np.zeros((g, n1 + n2, n1 + n2), dtype=np.int64)
    actions[:, :n1, :n1] = m1.actions
    actions[:, n1:, n1:] = m2.actions
    return _module_trusted(m1.algebra, actions)


def conjugate(m: Module, p_mat: Mat) -> Module:
    """Base change: each action matrix becomes P A P^{-1}."""
    pinv = p_mat.inverse()
    p = m.algebra.p
    if p_mat.p != p:
        raise ModulusMismatch(f"mixed moduli {p_mat.p} and {p}")
    if p_mat.rows != m.dim:
        raise DimensionMismatch(f"cannot conjugate dimension {m.dim} by {p_mat.shape}")
    return _module_trusted(m.algebra, _mul_arrays(_mul_arrays(p_mat.a, m.actions, p), pinv.a, p))


@dataclass(frozen=True, eq=False)
class HomBasis:
    """Basis of the intertwiner space {phi : B_g phi = phi A_g for all g},
    as one read-only (k, n2, n1) residue array, echelon-normalized."""

    source: Module
    target: Module
    basis: np.ndarray

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
    (g, n1, _), n2, p = m1.actions.shape, m2.dim, m1.algebra.p
    a_t = m1.actions.transpose(0, 2, 1)
    system = m2.actions[:, :, None, :, None] * np.eye(n1, dtype=np.int64)[:, None, :]
    system -= np.eye(n2, dtype=np.int64)[:, None, :, None] * a_t[:, None, :, None, :]
    system %= p
    basis = _nullspace(system.reshape(g * n2 * n1, n2 * n1), p)
    basis = basis.reshape(len(basis), n2, n1)
    basis.setflags(write=False)
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
    stack: np.ndarray,
    p: int,
    budget: int,
    obstructed: Callable[[], bool] | None = None,
) -> tuple[str, Mat | None, int]:
    """Search the span of a (d, n, n) stack for an invertible matrix,
    cheapest evidence first, in one fixed order.

    Returns ("yes", witness, searched), ("no", None, searched) with the span
    fully enumerated, ("obstructed", None, 0) when the zero-argument
    callable `obstructed` certifies that no invertible element exists, or
    ("undecided", None, searched).  The order is: the identity; one batch of
    the basis elements, followed, when the span is not exhausted in one
    batch, by the first _FIRST_SLICE random draws; the one-batch exhaustion
    of a span of at most 4096 elements within the budget; the certificate;
    the rest of the _QUICK_RANDOM-draw burst; exhaustion within the budget;
    RANDOM_TRIALS more draws.  The draws are coefficient vectors from the
    fixed stream random.Random(0), each coordinate eight random bytes read
    as a little-endian integer mod p, so witness and count are the same in
    every process.

    Candidates are checked in slices that grow from _FIRST_SLICE by x4 up to
    _SLICE_CAP across the whole search, in enumeration order, so a Yes
    found early checks only a few; the witness is the first invertible
    candidate in that order, and searched the number of candidates checked
    (0 for a basis element, _FIRST_SLICE for one of the first draws).
    """
    d, n, _ = stack.shape
    if d == 0:
        return "no", None, 1

    # identity in the span is the common fast witness
    if _spans_identity(stack.reshape(d, n * n), n, p):
        return "yes", Mat.identity(n, p), 0

    total = p**d
    searched = 0
    size = _FIRST_SLICE

    def first_invertible(coeffs: np.ndarray) -> Mat | None:
        """The first invertible combination of the stack by a row of coeffs,
        checked slice by slice."""
        nonlocal searched, size
        start = 0
        while start < len(coeffs):
            part = tensor_combine(coeffs[start : start + size], stack, p)
            start += len(part)
            searched += len(part)
            size = min(4 * size, _SLICE_CAP)
            hit = np.nonzero(_batch_invertible(part, p))[0]
            if hit.size:
                return Mat(p, part[int(hit[0])])
        return None

    def exhaustive() -> tuple[str, Mat | None, int]:
        for coeffs in lex_rows(d, p, _SLICE_CAP):
            witness = first_invertible(coeffs)
            if witness is not None:
                return "yes", witness, searched
        return "no", None, total

    if total <= min(_SLICE_CAP, budget):
        hit = np.nonzero(_batch_invertible(stack, p))[0]
        if hit.size:
            return "yes", Mat(p, stack[int(hit[0])]), 0
        return exhaustive()
    stream = random.Random(0)

    def draws(count: int) -> np.ndarray:
        raw = np.frombuffer(stream.randbytes(8 * count * d), dtype="<u8")
        return (raw % p).astype(np.int64).reshape(count, d)

    # the basis and the first draws go to the kernel in one call
    first = np.concatenate([stack, tensor_combine(draws(_FIRST_SLICE), stack, p)])
    hit = np.nonzero(_batch_invertible(first, p))[0]
    if hit.size:
        return "yes", Mat(p, first[int(hit[0])]), 0 if hit[0] < d else _FIRST_SLICE
    if obstructed is not None and obstructed():
        return "obstructed", None, 0
    searched, size = _FIRST_SLICE, 4 * _FIRST_SLICE
    witness = first_invertible(draws(_QUICK_RANDOM - _FIRST_SLICE))
    if witness is not None:
        return "yes", witness, searched
    if total <= budget:
        return exhaustive()
    for start in range(0, RANDOM_TRIALS, 1024):
        witness = first_invertible(draws(min(1024, RANDOM_TRIALS - start)))
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
    m1: Module, m2: Module, hom: HomBasis, budget: int, certify: bool = False
) -> IsoResult:
    """Search hom for an isomorphism; with `certify`, a span too large for one
    batch is checked for a Hom-dimension obstruction once the basis and the
    first draws have found no witness."""
    if m1.dim == 0:
        return IsoResult(Verdict.YES, witness=Mat.zeros(0, 0, m1.algebra.p), note="empty module")
    obstructed = (lambda: _hom_dims_differ(m1, m2, hom.dim)) if certify else None
    status, witness, searched = _find_invertible(hom.basis, m1.algebra.p, budget, obstructed)
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


def is_isomorphic(m1: Module, m2: Module, budget: int = DEFAULT_BUDGET) -> IsoResult:
    """Decide module isomorphism.

    No is certain: the dimensions differ, the whole intertwiner space was
    enumerated without finding an invertible element, or dim Hom(m1, m2),
    dim Hom(m2, m1), dim End(m1) and dim End(m2) are not all equal (checked
    once the space is larger than one batch of 4096, after the basis and the
    first 16 random draws and before the other 240 draws of the burst or any
    larger search).  When the space exceeds the budget, sampling the fixed
    random stream can still find a witness; otherwise the verdict is
    Undecided.  The order and the stream are the same in every process.
    """
    if m1.algebra != m2.algebra:
        raise AlgebraMismatch("isomorphism test for modules over different algebras")
    if m1.dim != m2.dim:
        return IsoResult(Verdict.NO, note="dimension mismatch")
    return _iso_from_hom(m1, m2, hom_space(m1, m2), budget, certify=True)


def _intertwines(m1: Module, m2: Module, phi: Mat) -> bool:
    """B_g phi == phi A_g for every generator g, in one broadcast."""
    p = m1.algebra.p
    if phi.p != p:
        raise ModulusMismatch(f"mixed moduli {phi.p} and {p}")
    if phi.shape != (m2.dim, m1.dim):
        raise DimensionMismatch(f"a {phi.shape} map from dimension {m1.dim} to {m2.dim}")
    left, right = _mul_arrays(m2.actions, phi.a, p), _mul_arrays(phi.a, m1.actions, p)
    return bool(np.array_equal(left, right))


def _verify_intertwiner(m1: Module, m2: Module, phi: Mat):
    if not phi.is_invertible():
        raise RelationViolated("witness is not invertible")
    if not _intertwines(m1, m2, phi):
        raise RelationViolated("witness does not intertwine the actions")


@dataclass(frozen=True)
class IndecResult:
    verdict: Verdict
    idempotent: Mat | None = None
    note: str = ""


def _fitting_idempotent(power: np.ndarray, p: int) -> Mat:
    """The projection onto the image of power = e^n along its kernel
    (Fitting's splitting map) for an n x n residue array of rank strictly
    between 0 and n.  With U = [kernel basis | image basis] it is
    U diag(0, I) U^-1: the image columns of U times the matching rows of U^-1."""
    ker = _nullspace(power, p)
    k = len(ker)
    red, pivots = _rref(power.T, p)
    u = Mat(p, np.concatenate([ker.T, red[: len(pivots)].T], axis=1))
    return Mat(p, _mul_arrays(u.a[:, k:], u.inverse().a[k:], p))


def is_indecomposable(m: Module, budget: int = DEFAULT_BUDGET) -> IndecResult:
    """Decide indecomposability via idempotents of the endomorphism algebra.

    A Fitting pre-pass on the End basis (one batched power e^n and one
    batched rank) cheaply certifies decomposability.
    Otherwise E = End(m), of dimension d, is searched modulo its square-zero
    ideal N of dimension k (_square_zero_ideal): the p^(d - k) classes of
    E/N, which is what the budget counts, are enumerated for idempotents,
    and each nontrivial one is lifted to the idempotents of its coset by one
    linear solve (_first_idempotent).  The cosets of N partition all p^d
    elements of E and each coset is decided exactly, so a search that finds
    nothing proves that none of the p^d elements is a nontrivial idempotent,
    as the Yes note says.  A returned idempotent is re-verified: e^2 = e,
    e is neither 0 nor 1, and e intertwines the action.
    """
    n = m.dim
    if n < 1:
        raise DimensionMismatch("indecomposability needs dim >= 1")
    if n == 1:
        return IndecResult(Verdict.YES, note="dimension 1")
    p = m.algebra.p
    end = hom_space(m, m)
    # e^n for every basis element e in one batch; e splits M iff 0 < rank < n
    powers = _power_arrays(end.basis, n, p)
    ranks = _batch_rank(powers, p)
    for power in powers[(ranks > 0) & (ranks < n)]:
        idem = _fitting_idempotent(power, p)
        if idem @ idem == idem and _intertwines(m, m, idem) and not idem.is_zero():
            return IndecResult(Verdict.NO, idempotent=idem, note="fitting split")
    d = end.dim
    ideal = _square_zero_ideal(end.basis, m.actions, p)
    q = d - len(ideal)
    if p**q > budget:
        return IndecResult(
            Verdict.UNDECIDED,
            note=f"End space of dim {d}, {q} modulo a square-zero ideal, exceeds budget {budget}",
        )
    idem = _first_idempotent(end.basis, ideal, p)
    if idem is None:
        return IndecResult(Verdict.YES, note=f"no nontrivial idempotent among {p ** d}")
    idem = Mat(p, idem)
    trivial = idem.is_zero() or idem == Mat.identity(n, p)
    if trivial or idem @ idem != idem or not _intertwines(m, m, idem):
        raise RelationViolated("idempotent search returned no nontrivial idempotent endomorphism")
    return IndecResult(Verdict.NO, idempotent=idem, note="idempotent search")


def _structure_constants(stack: np.ndarray, p: int) -> np.ndarray:
    """gamma[i, j, k] with E_i E_j = sum_k gamma[i, j, k] E_k for the (d, n, n)
    basis stack of an algebra of matrices, from one solve."""
    d, n, _ = stack.shape
    prods = _mul_arrays(stack[:, None], stack[None], p)
    gamma = _solve(stack.reshape(d, n * n).T, prods.reshape(d * d, n * n).T, p)
    if gamma is None:
        raise RelationViolated("End basis is not closed under composition")
    return gamma.T.reshape(d, d, d)


def _square_zero_ideal(stack: np.ndarray, actions: np.ndarray, p: int) -> np.ndarray:
    """The RREF coordinates (k, d), over the basis stack of E = End(M), of
    N = {x in E : x(M) in R, x(R) = 0}, R = sum_i im A_i for the (g, n, n)
    actions A.

    Every x in E commutes with each A_i, so x(R) is in R.  Hence for x in E
    and z, z' in N, xz and zx map M into R and R to 0, and zz' = 0: N is a
    two-sided ideal with N^2 = 0.  x(M) is in R iff W x = 0, W the left
    annihilator of R, and x(R) = 0 iff x A_i = 0 for every i, so N is one
    nullspace in the d coordinates.  N = 0 when R = 0 or R = M."""
    d, n, _ = stack.shape
    g = len(actions)
    cat = actions.transpose(1, 0, 2).reshape(n, g * n)
    left = _nullspace(cat.T, p)
    conditions = np.concatenate(
        [
            _mul_arrays(left, stack, p).reshape(d, len(left) * n),
            _mul_arrays(stack, cat, p).reshape(d, n * g * n),
        ],
        axis=1,
    )
    coords = _nullspace(conditions.T, p)
    return _rref(coords, p)[0][: len(coords)]


def _first_idempotent(stack: np.ndarray, ideal: np.ndarray, p: int) -> np.ndarray | None:
    """The first nontrivial idempotent of the algebra E = span(stack), in the
    lexicographic order of its coefficients, or None; `ideal` holds the RREF
    coordinates (k, d) of a two-sided ideal N of E with N^2 = 0.

    In the basis of _adapted_basis, the structure constants of the first
    q = d - k elements read modulo N are those of E/N, whose p^q elements
    are enumerated for idempotents (_quotient_idempotents).  The classes of
    0 and 1 are skipped, since an idempotent in N is 0 and one in 1 + N is 1.
    The idempotents in the coset of any other class form an affine subspace
    (_idempotent_coset), and the answer is the least of their least points
    (_lex_least) over every class; with k = 0 the quotient is E in its own
    coordinates and the first class found is the answer.  The cosets of N
    partition E and each is decided exactly, so None means that no element
    of E is a nontrivial idempotent.
    """
    k = len(ideal)
    q = len(stack) - k
    change, gamma = _adapted_basis(stack, ideal, p)
    quotient = gamma[:q, :q, :q]
    eye = np.eye(q, dtype=np.int64)
    best = None
    for u in _quotient_idempotents(quotient, p):
        # u is the class of 1 iff u F_j = F_j modulo N for every j
        if not u.any() or np.array_equal(tensor_combine(u, quotient, p), eye):
            continue
        if not k:
            return tensor_combine(u, stack, p)
        point = _lex_least(*_idempotent_coset(u, gamma, change, p), p)
        if best is None or tuple(point) < tuple(best):
            best = point
    return None if best is None else tensor_combine(best, stack, p)


def _adapted_basis(stack: np.ndarray, ideal: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(change, gamma): the (d, d) coordinates over stack of the unit vectors
    at the non-pivot coordinates of the RREF rows `ideal`, then those rows,
    and the structure constants in that basis.  Its last k elements span N
    and its first d - k a complement; with k = 0, change is the identity."""
    d = len(stack)
    free = np.ones(d, dtype=bool)
    free[np.argmax(ideal != 0, axis=1)] = False
    change = np.concatenate([np.eye(d, dtype=np.int64)[free], ideal])
    return change, _structure_constants(tensor_combine(change, stack, p), p)


def _idempotent_coset(
    u: np.ndarray, gamma: np.ndarray, change: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """(base, directions) in the coordinates of the original basis, such that
    the idempotents of E over the idempotent u of E/N are base +
    span(directions); gamma and change as _adapted_basis gives them.

    With e0 = sum_j u_j F_j, they are e0 + n, n = sum_l t_l F_(q+l) in N,
    where (L_e0 + R_e0 - 1) n = e0 - e0^2: linear in t because N^2 = 0, so
    one solve gives a particular t and one nullspace the directions.  A
    solution exists because N is nilpotent, so idempotents lift."""
    q = len(u)
    k = len(change) - q
    sq = tensor_combine(u, tensor_combine(u, gamma[:q, :q], p), p)
    # coefficient of F_(q+m) in e0 F_(q+l) + F_(q+l) e0, at [l, m]
    both = tensor_combine(u, gamma[:q, q:, q:] + gamma[q:, :q, q:].transpose(1, 0, 2), p)
    system = (both.T - np.eye(k, dtype=np.int64)) % p
    t = _solve(system, -sq[q:] % p, p)
    if t is None:
        raise RelationViolated("an idempotent of E/N does not lift")
    base = tensor_combine(np.concatenate([u, t[:, 0]]), change, p)
    return base, tensor_combine(_nullspace(system, p), change[q:], p)


def _lex_least(base: np.ndarray, directions: np.ndarray, p: int) -> np.ndarray:
    """The lexicographically least point of base + span(directions): base
    reduced to 0 at the pivots of the directions' RREF.  Every point agrees
    with base before the first pivot, the first pivot's coordinate is free
    and least at 0, and so on for each later pivot."""
    red, pivots = _rref(directions, p)
    return (base - tensor_combine(base[pivots], red[: len(pivots)], p)) % p


def _quotient_idempotents(gamma: np.ndarray, p: int):
    """Every c in F_p^q with sum_ij gamma_ijk c_i c_j = c_k for every k, as
    int64 arrays in the lexicographic order of lex_blocks: the idempotents,
    0 and 1 included, of the algebra with structure constants gamma (q, q, q).

    Writing c = (x, y) with y a suffix of lex_blocks and s the element with
    coordinates (0, y), e^2 - e is (x^2 - x) + (xs + sx) + (s^2 - s): the
    last term is computed once for every suffix, and each prefix x adds a
    term linear in y, so a batch costs one (p^lo, lo) x (lo, q) product
    instead of p^lo squarings.

    Exactness: once lo >= 1 the suffix table fits one chunk, so p <= 4096 and
    lo <= 12, and the float64 products below have integer terms in [0, p):
    s^2 - s accumulates lo^2 terms below p^3 (< 2^44) less a residue, a
    prefix's linear term lo terms below p^2 (< 2^28), and their sum with a
    residue stays below 2^53 in absolute value, so every float is an exact
    integer.  With lo = 0 (p > 4096) the float terms are residues below
    2^31, and each block holds one candidate: unlike lex_rows, no range of
    the last coordinate is taken, since the bound needs suffix digits below
    4096.  The prefix terms go through tensor_combine, which is
    exact at every p.
    """
    q = len(gamma)
    suffixes, prefixes = lex_blocks(q, p)
    lo = suffixes.shape[1]
    hi = q - lo
    # coordinates run down the rows, suffixes along them, so every
    # elementwise step runs over p^lo contiguous entries
    y = suffixes.T.astype(np.float64)
    s_sq = np.zeros((q, y.shape[1]))
    for i in range(lo):
        s_sq += (gamma[hi + i, hi:].T @ y) * y[i]
    s_sq[hi:] -= y
    # xs + sx = sum_{i < hi, j >= hi} x_i y_j (gamma_ij + gamma_ji)
    cross = (gamma[:hi, hi:] + gamma[hi:, :hi].transpose(1, 0, 2)) % p
    for prefix in prefixes:
        x = np.array(prefix, dtype=np.int64)
        x_sq = tensor_combine(x, tensor_combine(x, gamma[:hi, :hi], p), p)
        x_sq[:hi] -= x
        rem = s_sq + tensor_combine(x, cross, p).T.astype(np.float64) @ y
        rem += x_sq[:, None]
        # rem and rint(rem / p) * p are exact integers below 2^53; they are
        # equal iff p divides rem, when the division is exact too
        for idx in np.nonzero((np.rint(rem / p) * p == rem).all(axis=0))[0]:
            yield np.concatenate([x, suffixes[idx]])


def _restrict_to_invariant(m: Module, cols: Mat) -> Module:
    """Actions on an invariant column-span, in the given basis: one solve of
    cols x = [A_1 cols | ... | A_g cols]."""
    p = m.algebra.p
    g, (n, k) = len(m.actions), cols.shape
    images = _mul_arrays(m.actions, cols.a, p)
    sol = _solve(cols.a, images.transpose(1, 0, 2).reshape(n, g * k), p)
    if sol is None:
        raise RelationViolated("subspace is not invariant")
    return _module_trusted(m.algebra, sol.reshape(k, g, k).transpose(1, 0, 2).copy())


def _decompose_with_basis(m: Module, budget: int) -> tuple[list[Module], Mat]:
    res = is_indecomposable(m, budget)
    if res.verdict.is_undecided:
        raise UndecidedError(res.note)
    if res.verdict.is_yes:
        return [m], Mat.identity(m.dim, m.algebra.p)
    idem = res.idempotent
    p = m.algebra.p
    parts: list[Module] = []
    columns: list[np.ndarray] = []
    for fixed in (idem, idem - Mat.identity(m.dim, p)):
        basis = Mat(p, _nullspace(fixed.a, p).T)
        sub_parts, sub_basis = _decompose_with_basis(_restrict_to_invariant(m, basis), budget)
        parts.extend(sub_parts)
        columns.append((basis @ sub_basis).a)
    return parts, Mat(p, np.concatenate(columns, axis=1))


def decompose(m: Module, budget: int = DEFAULT_BUDGET) -> list[Module]:
    """Indecomposable summands, found by splitting along idempotents.

    Each part is returned only after is_indecomposable said Yes for it.  The
    reassembly is verified: the collected part bases form an invertible
    base change carrying m onto the direct sum of the parts.
    """
    if m.dim == 0:
        return []
    parts, basis = _decompose_with_basis(m, budget)
    total = functools.reduce(direct_sum, parts)
    if (
        sum(part.dim for part in parts) != m.dim
        or not basis.is_invertible()
        or not _intertwines(total, m, basis)
    ):
        raise RelationViolated("decomposition does not reassemble")
    return parts


def socle_dim(m: Module) -> int:
    """Dimension of the joint kernel of the radical-generator actions."""
    if m.algebra.kind not in (RSZ, TABLE, DIHEDRAL):
        raise UnsupportedAlgebraKind(
            f"socle needs known radical generators, not available for {m.algebra.kind}"
        )
    g, n, _ = m.actions.shape
    return n - _rank(m.actions.reshape(g * n, n), m.algebra.p)


def restrict(m: Module, s: Subalgebra) -> Module:
    """View m over a subalgebra: the i-th restricted generator acts by the
    w_basis[i]-combination of the original action matrices, all mixed in one
    tensor_combine.  The relations are not re-checked: every product of two
    combinations of the square-zero generators' actions is a combination of
    their pairwise products, which vanish on m.  With W = 0 the result has
    no action and keeps m's dimension."""
    if s.parent != m.algebra:
        raise AlgebraMismatch("subalgebra of a different algebra")
    mixed = tensor_combine(s.w_basis.a, m.actions, m.algebra.p)
    name = f"{m.name}|{s.label()}" if m.name else ""
    return _module_trusted(s.as_algebra, mixed, name=name)


def twist(m: Module, f: Automorphism) -> Module:
    """m twisted by f: _twist_arrays on f's coefficient rows, a batch of one."""
    if f.algebra != m.algebra:
        raise AlgebraMismatch("automorphism of a different algebra")
    return _module_trusted(m.algebra, _twist_arrays(m.algebra, m.actions, f.coefficients), m.name)


def _twist_arrays(a: Algebra, actions: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The twist rule: (..., n_gens, W) coefficient rows over image_words(a)
    times the word stack of a (g, n, n) action in one tensor_combine, or of
    a (..., g, n, n) stack, each by its own rows.  rsz twists combine the
    actions linearly and keep the relations; any other batch is re-checked."""
    stack = word_stack(image_words(a), actions, a.p)
    if actions.ndim == 3:
        out = tensor_combine(rows, stack, a.p)
    else:
        n = actions.shape[-1]
        flat = np.moveaxis(stack, 0, -3).reshape(actions.shape[:-3] + (len(stack), n * n))
        out = _mul_arrays(rows, flat, a.p).reshape(rows.shape[:-1] + (n, n))
    if a.kind != RSZ:
        _check_relations(a, out)
    return out
