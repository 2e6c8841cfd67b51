"""Presented algebras, their subalgebras and automorphism groups.

Four kinds are supported: radical-square-zero algebras on g generators,
the free algebra on one generator, dihedral-type presentations
k<X,Y>/(X^2, Y^2, (XY)^k X^e1, (YX)^k Y^e2), and explicit multiplication
tables (used for the 7-dimensional semidihedral algebra).
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    AlgebraMismatch,
    BudgetExceeded,
    DimensionMismatch,
    InvalidModulus,
    ModulusMismatch,
    TableInconsistent,
    UnsupportedAlgebraKind,
)
from .linalg import Mat, _batch_invertible, _mul_arrays, _rank, _square_stack, check_prime
from .linalg import lex_blocks, lex_rows, tensor_combine

RSZ = "rsz"
FREE_UNIVARIATE = "free_univariate"
DIHEDRAL = "dihedral"
TABLE = "table"

DEFAULT_BUDGET = 2**20


class NcPoly:
    """Noncommutative polynomial: a sum of (coefficient, word) terms.

    Words are tuples of generator indices; the empty word is the unit.
    Terms are normalized (coefficients reduced mod p, duplicate words merged,
    zero terms dropped) and stored sorted by (length, word).
    """

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: Sequence[tuple[int, Sequence[int]]]):
        check_prime(p)
        acc: dict[tuple[int, ...], int] = {}
        for coeff, word in terms:
            w = tuple(int(i) for i in word)
            acc[w] = (acc.get(w, 0) + int(coeff)) % p
        object.__setattr__(self, "p", p)
        object.__setattr__(
            self,
            "terms",
            tuple(
                (c, w)
                for w, c in sorted(acc.items(), key=lambda kv: (len(kv[0]), kv[0]))
                if c
            ),
        )

    def __setattr__(self, name, value):
        raise AttributeError("NcPoly is immutable")

    @classmethod
    def one(cls, p: int, coeff: int = 1) -> "NcPoly":
        return cls(p, [(coeff, ())])

    @classmethod
    def word(cls, p: int, letters: Sequence[int], coeff: int = 1) -> "NcPoly":
        return cls(p, [(coeff, tuple(letters))])

    def _check(self, other: "NcPoly"):
        if self.p != other.p:
            raise ModulusMismatch(f"mixed moduli {self.p} and {other.p}")

    def __add__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        return NcPoly(self.p, list(self.terms) + list(other.terms))

    def __neg__(self) -> "NcPoly":
        return NcPoly(self.p, [(-c, w) for c, w in self.terms])

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def __mul__(self, other) -> "NcPoly":
        if isinstance(other, int):
            return NcPoly(self.p, [(c * other, w) for c, w in self.terms])
        self._check(other)
        return NcPoly(
            self.p,
            [(c1 * c2, w1 + w2) for c1, w1 in self.terms for c2, w2 in other.terms],
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, NcPoly) and other.p == self.p and other.terms == self.terms

    def __hash__(self):
        return hash((self.p, self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def max_generator(self) -> int:
        """Largest generator index appearing, or -1 for constants."""
        return max((max(w) for _, w in self.terms if w), default=-1)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for c, w in self.terms:
            word = "*".join(f"g{i}" for i in w) if w else "1"
            bits.append(f"{c}*{word}" if c != 1 or not w else word)
        return " + ".join(bits)


def word_values(words, gens, unit, mul) -> dict:
    """The value of each word and of its prefixes, keyed by word: () is unit,
    (i,) is gens[i], and each longer prefix is mul(shorter prefix, letter)."""
    values = {(): unit, **{(i,): g for i, g in enumerate(gens)}}
    for w in words:
        for k in range(2, len(w) + 1):
            if w[:k] not in values:
                values[w[:k]] = mul(values[w[: k - 1]], gens[w[k - 1]])
    return values


def word_stack(words, actions: np.ndarray, p: int) -> np.ndarray:
    """The (W, ..., n, n) values of the words with generator i acting by
    actions[..., i, :, :], a (..., g, n, n) residue array; the empty word is
    the identity, and every word prefix is multiplied out once."""
    n, batch = actions.shape[-1], actions.shape[:-3]
    gens, unit = actions, np.eye(n, dtype=np.int64)
    if batch:
        gens, unit = np.moveaxis(actions, -3, 0), np.broadcast_to(unit, batch + (n, n))
    values = word_values(words, gens, unit, lambda x, y: _mul_arrays(x, y, p))
    return np.array([values[w] for w in words], np.int64).reshape((len(words),) + batch + (n, n))


def evaluate_arrays(polys: Sequence[NcPoly], actions: np.ndarray, p: int) -> np.ndarray:
    """The (len(polys), ..., n, n) values of the polys on a (..., g, n, n)
    action array: their coefficients times word_stack, in one tensor_combine."""
    words = list(dict.fromkeys(w for poly in polys for _, w in poly.terms))
    coeffs = np.zeros((len(polys), len(words)), dtype=np.int64)
    for r, poly in enumerate(polys):
        for c, w in poly.terms:
            coeffs[r, words.index(w)] = c % p
    return tensor_combine(coeffs, word_stack(words, actions, p), p)


def evaluate_poly(poly: NcPoly, assignment: Sequence[Mat]) -> Mat:
    """Evaluate at one square matrix per generator; the empty word is the identity."""
    if poly.max_generator >= len(assignment):
        raise DimensionMismatch(
            f"poly uses generator {poly.max_generator}, only {len(assignment)} matrices given"
        )
    p = assignment[0].p if assignment else poly.p
    return Mat(p, evaluate_arrays((poly,), _square_stack(assignment, p), p)[0])


class Algebra:
    """A presented associative unital algebra over F_p, tagged by kind."""

    __slots__ = (
        "p",
        "kind",
        "generators",
        "relations",
        "dihedral_k",
        "dihedral_eps",
        "basis_labels",
        "basis_words",
        "unit_index",
        "radical_basis",
        "table",
    )

    def __init__(
        self,
        p: int,
        kind: str,
        generators: tuple[str, ...],
        relations: tuple[NcPoly, ...],
        dihedral_k: int | None = None,
        dihedral_eps: tuple[int, int] | None = None,
        basis_labels: tuple[str, ...] | None = None,
        basis_words: tuple[tuple[int, ...], ...] | None = None,
        unit_index: int | None = None,
        radical_basis: tuple[int, ...] | None = None,
        table: np.ndarray | None = None,
    ):
        check_prime(p)
        for slot, value in (
            ("p", p),
            ("kind", kind),
            ("generators", tuple(generators)),
            ("relations", tuple(relations)),
            ("dihedral_k", dihedral_k),
            ("dihedral_eps", dihedral_eps),
            ("basis_labels", basis_labels),
            ("basis_words", basis_words),
            ("unit_index", unit_index),
            ("radical_basis", radical_basis),
            ("table", table),
        ):
            object.__setattr__(self, slot, value)
        if table is not None:
            table.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("Algebra is immutable")

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def dim(self) -> int | None:
        """Vector space dimension where it is materialized."""
        if self.kind == RSZ:
            return self.num_generators + 1
        if self.kind == TABLE:
            return len(self.basis_labels)
        return None

    def key(self):
        table_key = self.table.tobytes() if self.table is not None else None
        return (
            self.p,
            self.kind,
            self.generators,
            self.relations,
            self.dihedral_k,
            self.dihedral_eps,
            self.basis_words,
            self.unit_index,
            self.radical_basis,
            table_key,
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Algebra) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.kind == RSZ:
            return f"Algebra(rsz, g={self.num_generators}, p={self.p})"
        if self.kind == DIHEDRAL:
            k, (e1, e2) = self.dihedral_k, self.dihedral_eps
            return f"Algebra(dihedral, k={k}, eps=({e1},{e2}), p={self.p})"
        return f"Algebra({self.kind}, p={self.p})"

    # -- element arithmetic for table algebras ---------------------------
    def table_mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Products of elements given as basis coefficient vectors, batched
        over leading axes: sum_ij u_i v_j T_ijk as the product of u with the
        table, then of v with that."""
        d, p = len(self.basis_labels), self.p
        left = _mul_arrays(u % p, self.table.reshape(d, d * d), p)
        left = left.reshape(left.shape[:-1] + (d, d))
        return _mul_arrays((v % p)[..., None, :], left, p)[..., 0, :]

    def _word_values(self, words, gen_elements) -> dict:
        """word_values with generator i mapped to gen_elements[i], an element
        vector or a (..., d) batch of them."""
        gens = np.asarray(gen_elements, dtype=np.int64) % self.p
        unit = np.zeros(gens.shape[1:] if gens.ndim > 1 else len(self.basis_labels), np.int64)
        unit[..., self.unit_index] = 1
        return word_values(words, gens, unit, self.table_mul)

    def element_of_poly(self, poly: NcPoly, gen_elements) -> np.ndarray:
        """Evaluate a poly with generator i mapped to gen_elements[i], an
        element vector or a (..., d) batch of them."""
        values = self._word_values([w for _, w in poly.terms], gen_elements)
        out = np.zeros(values[()].shape, dtype=np.int64)
        for c, w in poly.terms:
            out = (out + c * values[w]) % self.p
        return out


def _rsz_relations(g: int, p: int) -> tuple[NcPoly, ...]:
    return tuple(NcPoly.word(p, (i, j)) for i in range(g) for j in range(g))


_RSZ_NAMES = ("X", "Y", "Z")


def _rsz_generator_names(g: int) -> tuple[str, ...]:
    if g <= len(_RSZ_NAMES):
        return _RSZ_NAMES[:g]
    return tuple(f"X{i + 1}" for i in range(g))


@lru_cache(maxsize=128)
def _make_rsz(g: int, p: int) -> Algebra:
    return Algebra(p, RSZ, _rsz_generator_names(g), _rsz_relations(g, p))


def make_rsz_algebra(g: int, p: int) -> Algebra:
    """k<X_1..X_g> with every degree-2 word zero; dimension g + 1."""
    check_prime(p)
    if g < 1:
        raise InvalidModulus(f"generator count must be >= 1, got {g}")
    return _make_rsz(g, p)


def make_free_univariate(p: int) -> Algebra:
    """k[X]: one generator, no relations; any square matrix is a module."""
    return Algebra(p, FREE_UNIVARIATE, ("X",), ())


def make_dihedral_algebra(k: int, eps1: int, eps2: int, p: int) -> Algebra:
    """k<X,Y>/(X^2, Y^2, (XY)^k X^e1, (YX)^k Y^e2), presentation only."""
    check_prime(p)
    if k < 1 or eps1 not in (0, 1) or eps2 not in (0, 1):
        raise InvalidModulus(f"need k >= 1 and eps in {{0,1}}, got k={k}, eps=({eps1},{eps2})")
    xy = (0, 1) * k
    yx = (1, 0) * k
    relations = (
        NcPoly.word(p, (0, 0)),
        NcPoly.word(p, (1, 1)),
        NcPoly.word(p, xy + (0,) * eps1),
        NcPoly.word(p, yx + (1,) * eps2),
    )
    return Algebra(
        p, DIHEDRAL, ("X", "Y"), relations, dihedral_k=k, dihedral_eps=(eps1, eps2)
    )


# -- semidihedral table ------------------------------------------------------

_SD_BASIS_WORDS: tuple[tuple[int, ...], ...] = (
    (),
    (0,),
    (1,),
    (0, 1),
    (1, 0),
    (0, 1, 0),
    (1, 0, 1),
)
_SD_LABELS = ("1", "x", "y", "xy", "yx", "xyx", "yxy")


def _sd_reduce(word: tuple[int, ...]) -> tuple[int, ...] | None:
    """Normal form of a word under xx -> 0, yy -> xyx, xyxy -> 0, yxyx -> 0.

    Returns the reduced word or None when it rewrites to zero.  The yy rule
    strictly decreases the y-count, so this terminates; the two length-4
    kill rules complete the system (the survivors are the 7 basis words).
    """
    w = list(word)
    while True:
        changed = False
        for i in range(len(w) - 1):
            if w[i] == 0 and w[i + 1] == 0:
                return None
            if w[i] == 1 and w[i + 1] == 1:
                w[i : i + 2] = [0, 1, 0]
                changed = True
                break
        if changed:
            continue
        for i in range(len(w) - 3):
            if tuple(w[i : i + 4]) in ((0, 1, 0, 1), (1, 0, 1, 0)):
                return None
        break
    return tuple(w)


def make_semidihedral_algebra(p: int) -> Algebra:
    """The 7-dimensional table algebra with relations x^2, y^3, y^2 - xyx."""
    check_prime(p)
    d = len(_SD_BASIS_WORDS)
    index = {w: i for i, w in enumerate(_SD_BASIS_WORDS)}
    table = np.zeros((d, d, d), dtype=np.int64)
    for i, wi in enumerate(_SD_BASIS_WORDS):
        for j, wj in enumerate(_SD_BASIS_WORDS):
            red = _sd_reduce(wi + wj)
            if red is None:
                continue
            if red not in index:
                raise TableInconsistent(f"word {wi + wj} reduced to non-basis word {red}")
            table[i, j, index[red]] = 1
    relations = (
        NcPoly.word(p, (0, 0)),
        NcPoly.word(p, (1, 1, 1)),
        NcPoly.word(p, (1, 1)) - NcPoly.word(p, (0, 1, 0)),
    )
    alg = Algebra(
        p,
        TABLE,
        ("x", "y"),
        relations,
        basis_labels=_SD_LABELS,
        basis_words=_SD_BASIS_WORDS,
        unit_index=0,
        radical_basis=tuple(range(1, d)),
        table=table,
    )
    algebra_validate(alg)
    return alg


def algebra_validate(a: Algebra) -> Algebra:
    """Certify a table algebra: two-sided unit, associativity on all basis
    triples, and the listed relations evaluating to zero."""
    if a.kind != TABLE:
        raise UnsupportedAlgebraKind(f"algebra_validate needs a table algebra, got {a.kind}")
    d = len(a.basis_labels)
    t = a.table % a.p
    u = a.unit_index
    eye = np.eye(d, dtype=np.int64)
    if not np.array_equal(t[u], eye) or not np.array_equal(t[:, u, :], eye):
        raise TableInconsistent("unit is not two-sided")
    # (b_i b_j) b_k and b_i (b_j b_k), indexed [i, j, k, l]
    left = _mul_arrays(t.reshape(d * d, d), t.reshape(d, d * d), a.p).reshape(d, d, d, d)
    right = _mul_arrays(t.reshape(d * d, d), t, a.p).reshape(d, d, d, d)
    if not np.array_equal(left, right):
        bad = np.argwhere((left != right).any(axis=3))[0]
        raise TableInconsistent(
            f"associativity fails on basis triple {tuple(int(x) for x in bad)}"
        )
    gens = eye[_generator_positions(a)]
    for rel in a.relations:
        if a.element_of_poly(rel, gens).any():
            raise TableInconsistent(f"relation {rel!r} does not vanish in the table")
    return a


# -- subalgebras of radical-square-zero algebras -----------------------------


@dataclass(frozen=True)
class Subalgebra:
    """A unital subalgebra k*1 + W of an rsz algebra, W a radical subspace.

    w_basis rows express the subalgebra generators in the parent generators;
    enumeration produces reduced-echelon bases, but any independent basis is
    accepted (restriction verdicts must not depend on the choice).
    """

    parent: Algebra
    w_basis: Mat
    as_algebra: Algebra = field(compare=False)

    @property
    def dim_w(self) -> int:
        return self.w_basis.rows

    @classmethod
    def from_basis(cls, parent: Algebra, vectors: Mat) -> "Subalgebra":
        if parent.kind != RSZ:
            raise UnsupportedAlgebraKind("subalgebras are only materialized for rsz algebras")
        if vectors.p != parent.p:
            raise ModulusMismatch("basis over a different modulus")
        if vectors.cols != parent.num_generators:
            raise DimensionMismatch(
                f"basis vectors have length {vectors.cols}, parent has "
                f"{parent.num_generators} generators"
            )
        if _rank(vectors.a, vectors.p) != vectors.rows:
            raise DimensionMismatch("basis vectors are dependent")
        return cls(parent, vectors, _make_rsz(vectors.rows, parent.p))

    def label(self) -> str:
        rows = self.w_basis.to_lists()
        return "W<" + "; ".join(",".join(str(x) for x in r) for r in rows) + ">"


def enumerate_proper_subalgebras(a: Algebra, scope: str = "all") -> list[Subalgebra]:
    """Proper unital subalgebras of an rsz algebra: one per subspace W < rad.

    scope="all" yields every proper subspace including W = 0; scope="maximal"
    only the hyperplanes of the radical.  Order is deterministic: dimension
    ascending, then lexicographic echelon form.  Each (algebra, scope) lattice
    is built once; a call returns a fresh list of its immutable Subalgebras.
    """
    if a.kind != RSZ:
        raise UnsupportedAlgebraKind(
            f"subalgebra enumeration is only supported for rsz algebras, got {a.kind}"
        )
    if scope not in ("all", "maximal"):
        raise ValueError(f"scope must be 'all' or 'maximal', got {scope!r}")
    return list(_subalgebra_lattice(a, scope))


@lru_cache(maxsize=128)
def _subalgebra_lattice(a: Algebra, scope: str) -> tuple[Subalgebra, ...]:
    """The subalgebras of enumerate_proper_subalgebras: per dimension k and
    pivot set, one (p^f, k, g) array of echelon bases whose f free cells run
    over F_p^f in lexicographic order."""
    g, p = a.num_generators, a.p
    out = []
    for k in range(g) if scope == "all" else [g - 1]:
        for pivots in itertools.combinations(range(g), k):
            free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, g) if c not in pivots]
            values, _ = lex_blocks(len(free), p, p ** len(free))
            bases = np.zeros((len(values), k, g), dtype=np.int64)
            bases[:, range(k), pivots] = 1
            rows, cols = np.array(free, dtype=np.int64).reshape(-1, 2).T
            bases[:, rows, cols] = values
            out.extend(Subalgebra(a, Mat(p, basis), _make_rsz(k, p)) for basis in bases)
    return tuple(out)


# -- automorphisms -----------------------------------------------------------


def image_words(a: Algebra) -> tuple[tuple[int, ...], ...]:
    """The words generator images combine: the generators (rsz, dihedral),
    1 and X (k[X]), or the basis words (table)."""
    if a.kind == TABLE:
        return a.basis_words
    if a.kind == FREE_UNIVARIATE:
        return ((), (0,))
    return tuple((i,) for i in range(a.num_generators))


def _generator_positions(a: Algebra) -> list[int]:
    """The position of each generator's word (i,) in image_words(a)."""
    words = image_words(a)
    for i in range(a.num_generators):
        if (i,) not in words:
            raise TableInconsistent(f"generator {i} is not a basis word")
    return [words.index((i,)) for i in range(a.num_generators)]


def _coefficient_rows(a: Algebra, payloads: np.ndarray) -> np.ndarray:
    """The (..., n_gens, W) generator images over the W words of
    image_words(a) of a batch of payloads laid out as in a group's payload
    array; for rsz and table algebras they are the payloads themselves."""
    if a.kind == FREE_UNIVARIATE:
        return payloads[..., None, ::-1]  # X -> aX + b over the words (1, X)
    if a.kind == DIHEDRAL:
        # X -> X, Y -> aY, or with the swap X -> Y, Y -> aX
        eye = np.eye(2, dtype=np.int64)
        rows = np.where(payloads[..., 0, None, None], eye[::-1], eye)
        rows[..., 1, :] *= payloads[..., 1, None]
        return rows
    return payloads


@dataclass(frozen=True)
class Automorphism:
    """An algebra automorphism, stored as its kind-specific canonical form.

    payload is the generator-mixing matrix for rsz, (a, b) for X -> aX + b,
    (swap, a) for dihedral scalings, and the tuple of generator-image
    coefficient vectors for table algebras; everything else is derived.
    """

    algebra: Algebra
    payload: tuple

    @property
    def coefficients(self) -> np.ndarray:
        """(n_gens, W) array: row i holds generator i's image over the W
        words of image_words(algebra)."""
        a = self.algebra
        rows = _coefficient_rows(a, np.array(self.payload, dtype=np.int64))
        return rows.reshape(a.num_generators, len(image_words(a))) % a.p

    def describe(self) -> str:
        kind = self.algebra.kind
        if kind == RSZ:
            return f"gen-matrix {list(self.payload)}"
        if kind == FREE_UNIVARIATE:
            a, b = self.payload
            return f"X -> {a}X + {b}"
        if kind == DIHEDRAL:
            swap, a = self.payload
            return ("swap, " if swap else "") + f"Y -> {a}Y"
        return f"gen-images {list(self.payload)}"


def _from_payload(a: Algebra, row) -> Automorphism:
    """The automorphism whose payload is row (reduced mod p), laid out as
    in a group's payload array."""
    row = np.asarray(row, dtype=np.int64) % a.p
    v = row.tolist()
    if a.kind == DIHEDRAL:
        return Automorphism(a, (bool(v[0]), v[1]))
    return Automorphism(a, tuple(map(tuple, v)) if row.ndim == 2 else tuple(v))


@dataclass(frozen=True, eq=False)
class AutomorphismGroup(Sequence):
    """The automorphisms of an algebra in enumeration order, held as one
    read-only int64 payload array: (G, g, g) for rsz, (G, 2) for free and
    dihedral, (G, n_gens, d) generator images for table algebras.  An item
    is built when it is accessed; a slice is a group over a view."""

    algebra: Algebra
    payloads: np.ndarray

    def __len__(self) -> int:
        return len(self.payloads)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return AutomorphismGroup(self.algebra, self.payloads[i])
        return _from_payload(self.algebra, self.payloads[operator.index(i)])


def _induced(a: Algebra, gens: np.ndarray) -> np.ndarray:
    """The basis maps induced by (n_gens, ..., d) generator images, as
    (..., d, d) arrays with column j the image of basis word j."""
    values = a._word_values(a.basis_words, gens)
    return np.stack([values[w] for w in a.basis_words], axis=-1)


def _table_automorphisms(a: Algebra, gens: np.ndarray) -> np.ndarray:
    """The automorphisms among a (n_gens, B, d) batch of generator images,
    as a (K, n_gens, d) payload array: those on which every relation
    vanishes and whose induced basis map is invertible."""
    for rel in a.relations:
        gens = gens[:, ~a.element_of_poly(rel, gens).any(axis=-1)]
    return gens[:, _batch_invertible(_induced(a, gens), a.p)].swapaxes(0, 1)


def _check_budget(a: Algebra, budget: int):
    """Refuse a group whose candidate space exceeds the budget: p^(g^2)
    matrices (none for g = 0), p(p-1) affine maps, 2(p-1) dihedral scalings
    and swaps, or p^(radical dim * g) table generator images."""
    p, g = a.p, a.num_generators
    if a.kind == RSZ:
        space = p ** (g * g) if g else 0
    elif a.kind == TABLE:
        space = p ** (len(a.radical_basis) * g)
    else:
        space = p * (p - 1) if a.kind == FREE_UNIVARIATE else 2 * (p - 1)
    if space > budget:
        name = f"GL({g},{p})" if a.kind == RSZ else f"{a.kind} automorphism"
        raise BudgetExceeded(f"{name} candidate space {space} exceeds budget {budget}")


def enumerate_automorphisms(a: Algebra, budget: int = DEFAULT_BUDGET) -> AutomorphismGroup:
    """The automorphisms used by the decision procedures, in deterministic order.

    rsz: all of GL(g, p) (every invertible generator-mixing matrix).
    free univariate: all X -> aX + b with a != 0.
    dihedral: the scalings f_a plus, when eps1 = eps2, the X<->Y swap composed
    with each scaling (the structurally verified families; not the full group).
    table: all generator images in the radical span that satisfy the relations
    and induce an invertible basis map.  The budget is checked against the
    candidate space on every call; the group is built and cached once per
    algebra, whatever the budget.
    """
    _check_budget(a, budget)
    return _automorphism_group(a)


@lru_cache(maxsize=128)
def _automorphism_group(a: Algebra) -> AutomorphismGroup:
    # candidates come in blocks of at most 1024 rows: a table product holds d^2
    # entries per candidate, and blocks of 4096 raised the peak RSS of a cold
    # semidihedral build at p = 2 by 3 MB
    p = a.p
    if a.kind == RSZ:
        # GL(g, p) in lexicographic order of the entries
        g = a.num_generators
        batches = (digits.reshape(len(digits), g, g) for digits in lex_rows(g * g, p, 1024))
        payloads = np.concatenate([m[_batch_invertible(m, p)] for m in batches])
    elif a.kind == FREE_UNIVARIATE:
        coeff, shift = np.divmod(np.arange(p * (p - 1), dtype=np.int64), p)
        payloads = np.stack([coeff + 1, shift], axis=1)
    elif a.kind == DIHEDRAL:
        n_swaps = 2 if a.dihedral_eps[0] == a.dihedral_eps[1] else 1
        swap, scale = np.divmod(np.arange(n_swaps * (p - 1), dtype=np.int64), p - 1)
        payloads = np.stack([swap, scale + 1], axis=1)
    elif a.kind == TABLE:
        n_rad, n_gens, d = len(a.radical_basis), a.num_generators, len(a.basis_labels)
        found = []
        for digits in lex_rows(n_gens * n_rad, p, 1024):
            # digit g * n_rad + r: coefficient of radical element r in generator g's image
            images = digits.reshape(len(digits), n_gens, n_rad).swapaxes(0, 1)
            gens = np.zeros((n_gens, len(digits), d), dtype=np.int64)
            gens[..., list(a.radical_basis)] = images
            found.append(_table_automorphisms(a, gens))
        payloads = np.concatenate(found)
    else:
        raise UnsupportedAlgebraKind(a.kind)
    payloads.setflags(write=False)
    return AutomorphismGroup(a, payloads)


# misses of the per-algebra cache are builds of a group
enumerate_automorphisms.cache_info = _automorphism_group.cache_info


def _substitution(a: Algebra, coefficients: np.ndarray) -> np.ndarray:
    """S_f for a (..., n_gens, W) batch of coefficient rows: the (..., W, W)
    arrays whose row w is f's image of word w of image_words(a).  f maps the
    element with coordinates v over those words to v S_f."""
    if a.kind == TABLE:
        return _induced(a, np.moveaxis(coefficients, -2, 0)).swapaxes(-1, -2)
    if a.kind == FREE_UNIVARIATE:
        unit = np.broadcast_to(np.eye(1, 2, dtype=np.int64), coefficients.shape)  # f(1) = 1
        return np.concatenate([unit, coefficients], axis=-2)
    return coefficients


def _compose_rows(a: Algebra, f_rows: np.ndarray, g_rows: np.ndarray) -> np.ndarray:
    """compose's rule on (..., n_gens, W) coefficient rows, broadcast over
    the leading axes: g's rows times S_f."""
    return _mul_arrays(g_rows, _substitution(a, f_rows), a.p)


def _from_coefficients(a: Algebra, rows: np.ndarray, what: str) -> Automorphism:
    """The automorphism with (n_gens, W) residue rows, the inverse of
    Automorphism.coefficients; raises UnsupportedAlgebraKind, naming `what`,
    where dihedral rows leave the implemented families."""
    if a.kind == FREE_UNIVARIATE:
        return _from_payload(a, rows[0, ::-1])
    if a.kind == DIHEDRAL:
        payload = np.array([rows[0, 1], rows[1].sum()])  # (swap, scale) inside the families
        if not np.array_equal(_coefficient_rows(a, payload), rows):
            raise UnsupportedAlgebraKind(
                f"{what} leaves the implemented dihedral automorphism families"
            )
        return _from_payload(a, payload)
    return _from_payload(a, rows)


def identity_automorphism(a: Algebra) -> Automorphism:
    """The automorphism whose images are the generator words themselves."""
    eye = np.eye(len(image_words(a)), dtype=np.int64)
    return _from_coefficients(a, eye[_generator_positions(a)], "identity")


def compose(f: Automorphism, g: Automorphism) -> Automorphism:
    """The automorphism whose twist equals twisting by f and then by g.

    Its image of generator i is g's image polynomial with every generator
    replaced by f's image, i.e. twist(twist(m, f), g) == twist(m, compose(f, g)):
    g's coefficient rows times S_f, whose row w is f(w).
    """
    if f.algebra != g.algebra:
        raise AlgebraMismatch("automorphisms over different algebras")
    a = f.algebra
    return _from_coefficients(a, _compose_rows(a, f.coefficients, g.coefficients), "composite")


def _inverse_rows(a: Algebra, rows: np.ndarray) -> np.ndarray:
    """f^-1's coefficient rows from f's: S_f^-1 is f^-1 on the span of the
    image words, and its rows at the generator words are f^-1's images."""
    return Mat(a.p, _substitution(a, rows)).inverse().a[_generator_positions(a)]


def inverse(f: Automorphism) -> Automorphism:
    """The automorphism undoing f, with _inverse_rows."""
    return _from_coefficients(f.algebra, _inverse_rows(f.algebra, f.coefficients), "inverse")
