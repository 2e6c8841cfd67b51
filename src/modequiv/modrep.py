"""Modules as validated action arrays and the core decision procedures.

A module over a presented algebra is one (g, n, n) array of residues, an
n x n action matrix per generator, subject to the defining relations; every
layer passes that array along, and Mat appears only where a matrix leaves
the package (Module.action, witnesses, idempotents).  Hom spaces are
intertwiner kernels, held as one (k, n2, n1) basis array;
isomorphism testing searches the Hom space exhaustively within a budget and
falls back to seeded random sampling that can only answer Yes or Undecided.
A No is sound by exhaustion or by a Hom-dimension obstruction, checked
after a one-batch exhaustion and a 256-element seeded random burst (before
the burst while numpy.random is not loaded), before any larger search.
Indecomposability searches End(M) for idempotents modulo a square-zero ideal,
through the structure constants, and lifts each one by a linear solve.
"""

from __future__ import annotations

import functools
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
    evaluate_arrays,
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
    _rank,
    _rref,
    _solve,
    lex_blocks,
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
        n = action[0].rows if action else 0
        for m in action:
            if m.rows != n or m.cols != n:
                raise DimensionMismatch("action matrices must be square of equal size")
            if m.p != algebra.p:
                raise ModulusMismatch("action matrices over a different modulus")
        actions = np.array([m.a for m in action], dtype=np.int64).reshape(len(action), n, n)
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
    """RelationViolated at the first relation of a that is not 0 on actions."""
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


def _chunked_combos(basis: np.ndarray, p: int):
    """Yield (count, combos) per prefix of lex_blocks, in lexicographic
    order: combos(start, stop) gives the combinations of `basis` for suffixes
    start:stop after that prefix, so together they enumerate every
    coefficient vector in order.  A single prefix combines only the slices
    asked for; with more, the suffix combinations are computed once and
    shifted by each prefix.  Where p > 4096 leaves no suffix, each prefix of
    d - 1 coordinates takes base + t E_last for t in [0, p): exact in int64,
    since t and every entry are below 2^31."""
    d = basis.shape[0]
    suffixes, prefixes = lex_blocks(d, p)
    hi = d - suffixes.shape[1]
    if hi == d:
        _, prefixes = lex_blocks(d - 1, p)
        for prefix in prefixes:
            base = tensor_combine(np.array(prefix, dtype=np.int64), basis[:-1], p)
            yield p, lambda a, b: (base + np.arange(a, b)[:, None, None] * basis[-1]) % p
        return
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
    stack: np.ndarray,
    p: int,
    budget: int,
    seed: int,
    obstructed: Callable[[], bool] | None = None,
) -> tuple[str, Mat | None, int]:
    """Search the span of a (d, n, n) stack for an invertible matrix,
    cheapest evidence first.

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
    d, n, _ = stack.shape
    if d == 0:
        return "no", None, 1

    # identity in the span is the common fast witness
    if _spans_identity(stack.reshape(d, n * n), n, p):
        return "yes", Mat.identity(n, p), 0

    hit = np.nonzero(_batch_invertible(stack, p))[0]
    if hit.size:
        return "yes", Mat(p, stack[int(hit[0])]), 0

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


def _fitting_idempotent(e: np.ndarray, p: int) -> Mat | None:
    """The projection onto the image of e^n along its kernel (Fitting's
    splitting map), e an n x n residue array, or None when that kernel is
    0 or everything.  With U = [kernel basis | image basis] it is
    U diag(0, I) U^-1: the image columns of U times the matching rows of U^-1."""
    n = e.shape[0]
    power = Mat(p, e).power(n).a
    ker = _nullspace(power, p)
    k = len(ker)
    if k in (0, n):
        return None
    red, pivots = _rref(power.T, p)
    u = Mat(p, np.concatenate([ker.T, red[: len(pivots)].T], axis=1))
    return Mat(p, _mul_arrays(u.a[:, k:], u.inverse().a[k:], p))


def is_indecomposable(m: Module, budget: int = DEFAULT_BUDGET) -> IndecResult:
    """Decide indecomposability via idempotents of the endomorphism algebra.

    A Fitting pre-pass on the End basis cheaply certifies decomposability.
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
    for e in end.basis:
        idem = _fitting_idempotent(e, p)
        if idem is not None and idem @ idem == idem and _intertwines(m, m, idem):
            if not idem.is_zero():
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
    2^31, and each block holds one candidate: unlike _chunked_combos, no
    range of the last coordinate is taken, since the bound needs suffix
    digits below 4096.  The prefix terms go through tensor_combine, which is
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

    The reassembly is verified: the collected part bases form an invertible
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
    a, n, words = m.algebra, m.dim, image_words(m.algebra)
    eye = np.eye(n, dtype=np.int64)
    values = word_values(words, m.actions, eye, lambda x, y: _mul_arrays(x, y, a.p))
    stack = np.array([values[w] for w in words], dtype=np.int64).reshape(len(words), n, n)
    actions = tensor_combine(f.coefficients, stack, a.p)
    if a.kind != RSZ:
        _check_relations(a, actions)
    return _module_trusted(a, actions, name=m.name)
