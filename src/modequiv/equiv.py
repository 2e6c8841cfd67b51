"""Restriction- and twist-based equivalence relations on modules.

All relations reduce to the modrep decision procedures: the restriction
relations quantify over enumerated proper subalgebras, the twisted relations
over enumerated algebra automorphisms.  Verdicts are three-valued; Undecided
never converts to Yes or No, and a universal relation reports No with the
first failing item in enumeration order.

Three facts about restriction settle much of the restriction relations
without a search:

- The rank profile of restrict(m, s) at c is m's profile at c^T W, W the
  rows of s's basis, so every restriction's profile is read from one table
  of m's ranks per call (_rank_table, read at _profile_index).  Unequal
  profiles certify non-isomorphism.
- An isomorphism of the restrictions to W is one of the restrictions to
  every U inside W, since U's generators are combinations of W's.
- A restriction to a line is one square-zero matrix, determined up to
  similarity by its size and rank (_EQUAL_RANK, _SPLIT_LINE).

Each is exact, so where one decides a subalgebra, is_isomorphic (or
is_indecomposable) would have said the same or, beyond the budget,
Undecided.  So a relation may give Yes or No where deciding every
subalgebra with is_isomorphic would give Undecided: r_isomorphic over "all"
is Yes once every maximal subalgebra is, even where a smaller one's larger
Hom space exceeds the budget.  Wherever a witness leaves the call, it is
is_isomorphic's (or is_indecomposable's).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .algebra import (
    DEFAULT_BUDGET,
    DIHEDRAL,
    RSZ,
    Algebra,
    Automorphism,
    AutomorphismGroup,
    _coefficient_rows,
    _substitution,
    compose,
    enumerate_automorphisms,
    enumerate_proper_subalgebras,
    inverse,
)
from .errors import AlgebraMismatch, UndecidedError, UnsupportedAlgebraKind
from .linalg import Mat, _batch_rank, _mul_arrays, lex_blocks, lex_rows, tensor_combine
from .modrep import (
    Module,
    IndecResult,
    IsoResult,
    Verdict,
    _intertwines,
    _iso_from_hom,
    hom_space,
    is_indecomposable,
    is_isomorphic,
    restrict,
    twist,
)


@dataclass(frozen=True)
class EquivVerdict:
    """Outcome of one equivalence decision.

    witness holds the first failing subalgebra for universal relations, or
    the (automorphism, intertwiner) pair for an existential Yes; checked is
    the number of enumerated items examined.  An Undecided holds the first
    undecided item as its witness and that item's reason as its note.
    """

    verdict: Verdict
    witness: object = None
    note: str = ""
    checked: int = 0

    @property
    def is_yes(self):
        return self.verdict.is_yes

    @property
    def is_no(self):
        return self.verdict.is_no


@dataclass(frozen=True)
class Partition:
    """Disjoint classes over labeled items; representatives are least-index."""

    items: tuple[str, ...]
    classes: tuple[tuple[str, ...], ...]

    @property
    def representatives(self) -> tuple[str, ...]:
        return tuple(cls[0] for cls in self.classes)

    def __len__(self):
        return len(self.classes)


def _partition_from_pairs(labels: Sequence[str], same) -> Partition:
    """Group labels by the equivalence `same(rep, i) -> bool`, comparing each
    label only with the representative of every earlier class, in order."""
    classes: list[list[int]] = []
    for i in range(len(labels)):
        cls = next((c for c in classes if same(c[0], i)), None)
        if cls is None:
            classes.append([i])
        else:
            cls.append(i)
    return Partition(
        tuple(labels),
        tuple(tuple(labels[i] for i in cls) for cls in classes),
    )


def _scan(items, decide, stop: Verdict, found: EquivVerdict, default: EquivVerdict, total: int):
    """The three-valued quantifier behind every relation here.

    Decides the (index, item) pairs in order, by decide(index, item).  The
    first whose verdict is `stop` gives `found` with witness (index, item,
    result) and checked = index + 1; failing that, the first Undecided gives
    Undecided with that witness and its result's note, the reason; failing
    that, `default`.  Both carry checked = total.
    """
    undecided = None
    for idx, item in items:
        res = decide(idx, item)
        if res.verdict is stop:
            return replace(found, witness=(idx, item, res), checked=idx + 1)
        if res.verdict.is_undecided and undecided is None:
            undecided = (idx, item, res)
    if undecided is not None:
        note = undecided[2].note
        return EquivVerdict(Verdict.UNDECIDED, witness=undecided, note=note, checked=total)
    return replace(default, checked=total)


def _require_rsz(m: Module):
    if m.algebra.kind != RSZ:
        raise UnsupportedAlgebraKind(
            f"restriction relations are only decided for rsz algebras, got {m.algebra.kind}"
        )


def _same_algebra(m1: Module, m2: Module):
    if m1.algebra != m2.algebra:
        raise AlgebraMismatch("modules over different algebras")


def _every_subalgebra(
    m: Module, scope: str, decide, stop: Verdict, note: str
) -> EquivVerdict:
    """A universal relation: No at the first enumerated proper subalgebra in
    scope that decide(index, subalgebra) gives the verdict `stop`, else as
    _scan."""
    _require_rsz(m)
    subs = enumerate_proper_subalgebras(m.algebra, scope)
    return _scan(
        enumerate(subs),
        decide,
        stop,
        EquivVerdict(Verdict.NO, note=note),
        EquivVerdict(Verdict.YES),
        len(subs),
    )


# A square-zero n x n matrix of rank r has Jordan blocks J2^r + J1^(n - 2r),
# so its size and rank determine it up to similarity, and it has n - r
# blocks.  Over a line W, restrict(m, W) is one such matrix, and its rank
# profile is (0, r, ..., r).  Restrictions of equal dimension to a line with
# equal profiles are isomorphic: _EQUAL_RANK is that Yes.  A restriction to a
# line with n - r > 1 decomposes: _SPLIT_LINE is that No.  Neither has a
# witness, so each is used only where no witness leaves the call.
_EQUAL_RANK = IsoResult(Verdict.YES, note="square-zero matrices of equal size and rank")
_SPLIT_LINE = IndecResult(Verdict.NO, note="square-zero matrix of more than one Jordan block")


def _profile_reader(scope: str, *mods: Module):
    """read(i): the rank profiles of restrict(m, s) for each m of mods at the
    i-th subalgebra s in scope, as a tuple, or None where s has none.  Each
    is its module's _rank_table read at _profile_index; the tables are
    ranked at the first s that has a profile, so a call that reads none
    ranks nothing."""
    positions = _profile_index(mods[0].algebra, scope)
    tables = functools.cache(lambda: [_rank_table(m) for m in mods])
    return lambda i: None if positions[i] is None else tuple(t[positions[i]] for t in tables())


def _agree(profiles: tuple | None) -> bool | None:
    """Whether a pair of rank profiles is equal, or None where there is none.
    Unequal profiles certify non-isomorphism, since a base change keeps
    every rank."""
    return None if profiles is None else bool(np.array_equal(*profiles))


def _equal_lines(s, m1: Module, m2: Module, profiles: tuple | None) -> bool:
    """Whether restrict(m1, s) and restrict(m2, s) are lines of equal size
    and rank (_EQUAL_RANK), given their profiles from _profile_reader."""
    return s.dim_w == 1 and m1.dim == m2.dim and bool(_agree(profiles))


def r_isomorphic(
    m1: Module,
    m2: Module,
    scope: str = "all",
    budget: int = DEFAULT_BUDGET,
) -> EquivVerdict:
    """Yes iff the restrictions to every enumerated proper subalgebra in
    scope are isomorphic.

    Restrictions to a line are compared by rank (_EQUAL_RANK).  Over scope
    "all" the maximal subalgebras are decided first: every proper U lies in
    some maximal W, and an isomorphism of the restrictions to W intertwines
    every combination of W's generators, so it is an isomorphism of the
    restrictions to U too.  If every maximal W is a Yes, so is the relation,
    with every subalgebra checked.  This may be a Yes where a scan of every
    subalgebra meets an Undecided at a smaller U, whose larger Hom space
    exceeds the budget.  If some maximal W has unequal rank profiles, or is
    not a Yes, the ordered scan runs, reusing the maximal results, so its No
    or Undecided witness is that of a scan of every subalgebra.
    """
    _same_algebra(m1, m2)
    _require_rsz(m1)
    subs = enumerate_proper_subalgebras(m1.algebra, scope)
    read = _profile_reader(scope, m1, m2)

    @functools.cache
    def decide(i: int) -> IsoResult:
        s = subs[i]
        if _equal_lines(s, m1, m2, read(i)):
            return _EQUAL_RANK
        return is_isomorphic(restrict(m1, s), restrict(m2, s), budget)

    if scope == "all":
        top = m1.algebra.num_generators - 1
        maximal = [i for i, s in enumerate(subs) if s.dim_w == top]
        if all(_agree(read(i)) is not False for i in maximal) and all(
            decide(i).verdict.is_yes for i in maximal
        ):
            return EquivVerdict(Verdict.YES, checked=len(subs))
    return _every_subalgebra(m1, scope, lambda i, _: decide(i), Verdict.NO, "restriction differs")


def r_distinct(
    m1: Module,
    m2: Module,
    scope: str = "all",
    budget: int = DEFAULT_BUDGET,
) -> EquivVerdict:
    """Yes iff the restrictions are non-isomorphic at every enumerated
    subalgebra in scope.

    Unequal rank profiles are a No without a search.  The relation stops
    only on a Yes, and every Yes comes from is_isomorphic with its witness.
    The verdict may be a Yes where is_isomorphic at every subalgebra would
    give an Undecided, beyond the budget, at a subalgebra whose profiles
    differ: those restrictions are certainly not isomorphic.
    """
    _same_algebra(m1, m2)
    _require_rsz(m1)
    read = _profile_reader(scope, m1, m2)

    def decide(i: int, s) -> IsoResult:
        if _agree(read(i)) is False:
            return IsoResult(Verdict.NO, note="rank profiles differ")
        return is_isomorphic(restrict(m1, s), restrict(m2, s), budget)

    return _every_subalgebra(m1, scope, decide, Verdict.YES, "restrictions isomorphic")


def r_decomposable(m: Module, budget: int = DEFAULT_BUDGET) -> EquivVerdict:
    """Yes iff the restriction to every maximal proper subalgebra decomposes.

    A restriction to a line is one square-zero matrix of rank r, read from
    its profile (0, r, ..., r), with m.dim - r Jordan blocks; where that is
    more than one it decomposes (_SPLIT_LINE).  Every other restriction goes
    to is_indecomposable, so every Yes witness of a restriction is its
    result.  A line so settled is No even where is_indecomposable would be
    Undecided beyond the budget."""
    _require_rsz(m)
    read = _profile_reader("maximal", m)

    def decide(i: int, s) -> IndecResult:
        profiles = read(i) if s.dim_w == 1 else None
        if profiles is not None and m.dim - profiles[0][1] > 1:
            return _SPLIT_LINE
        return is_indecomposable(restrict(m, s), budget)

    return _every_subalgebra(m, "maximal", decide, Verdict.YES, "restriction stays indecomposable")


def restriction_function(
    m: Module,
    scope: str = "all",
    budget: int = DEFAULT_BUDGET,
) -> Partition:
    """Partition of the enumerated subalgebras by isomorphism class of the
    restriction of m; labels are s{index} in enumeration order.

    Each restriction is keyed by its dimension of W and, where rank profiles
    are compared, by its profile c -> rank(sum_i c_i A_i): a base change
    keeps every such rank, so restrictions with unequal keys are
    non-isomorphic without a search.  Restrictions to lines with equal keys
    are isomorphic (_EQUAL_RANK), and is_isomorphic runs only on equal keys
    of larger W, on restrictions built when first compared.  So no
    comparison of two lines raises UndecidedError, even where their Hom
    space is beyond the budget."""
    _require_rsz(m)
    subs = enumerate_proper_subalgebras(m.algebra, scope)
    profiles = list(map(_profile_reader(scope, m), range(len(subs))))
    labels = [f"s{i}" for i in range(len(subs))]
    keys = [(s.dim_w, b"" if r is None else r[0].tobytes()) for s, r in zip(subs, profiles)]
    restricted = functools.cache(lambda i: restrict(m, subs[i]))

    def same(i: int, j: int) -> bool:
        if keys[i] != keys[j]:
            return False
        if subs[i].dim_w == 1 and profiles[i] is not None:
            return True  # _EQUAL_RANK
        res = is_isomorphic(restricted(i), restricted(j), budget)
        if res.verdict.is_undecided:
            raise UndecidedError(f"restriction comparison {labels[i]} vs {labels[j]} undecided")
        return res.verdict.is_yes

    return _partition_from_pairs(labels, same)


# Rank profiles are compared while F_p^g has at most this many points (g the
# number of generators, dim W for a restriction), a module's table of ranks
# is computed in batches of at most this many points, and the automorphisms
# are scanned in chunks whose (K, p^g, g) image arrays stay near
# _PROFILE_CELLS entries: larger chunks were no faster and raised the peak
# memory of a process by megabytes.
_PROFILE_POINTS = 1024
_PROFILE_CELLS = 2**15


def _profiled(a: Algebra) -> bool:
    """Whether rank profiles are compared over a: an rsz algebra with
    g >= 1 generators and p^g <= _PROFILE_POINTS."""
    g = a.num_generators
    return a.kind == RSZ and g > 0 and a.p**g <= _PROFILE_POINTS


def _lex_batches(g: int, p: int) -> Iterator[np.ndarray]:
    """F_p^g in lexicographic order as arrays of at most _PROFILE_POINTS
    points: consecutive lex_rows blocks, stacked while they fit."""
    batch: list[np.ndarray] = []
    for rows in lex_rows(g, p, _PROFILE_POINTS):
        if batch and sum(map(len, batch)) + len(rows) > _PROFILE_POINTS:
            yield np.concatenate(batch)
            batch = []
        batch.append(rows)
    yield np.concatenate(batch)


def _rank_table(m: Module) -> np.ndarray:
    """m's rank profile: rank(sum_i c_i A_i) at every c of F_p^g in
    lexicographic order, A_i the action of generator i, ranked one
    _lex_batches batch at a time."""
    p = m.algebra.p
    batches = _lex_batches(m.algebra.num_generators, p)
    return np.concatenate([_batch_rank(tensor_combine(c, m.actions, p), p) for c in batches])


def _lex_positions(points: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """The positions in F_p^g, in lexicographic order, of c^T X for every
    row c of points, X a (k, g) matrix or a stack of them: a module's
    _rank_table read there is its profile restricted (X = W) or twisted
    (X = F) at the points c."""
    powers = p ** np.arange(x.shape[-1] - 1, -1, -1, dtype=np.int64)
    return _mul_arrays(points, x, p) @ powers


@functools.lru_cache(maxsize=128)
def _profile_index(a: Algebra, scope: str) -> tuple[np.ndarray | None, ...]:
    """For each subalgebra s of enumerate_proper_subalgebras(a, scope), the
    _lex_positions of c^T W for c in F_p^dim W in lexicographic order, W the
    rows of s's basis, or None where s has no profile: restrict(m, s) lets
    its generator i act by sum_j W_ij A_j, so its profile is m's _rank_table
    read there.  Built once per (algebra, scope), like the lattice, one
    product per dimension of W."""
    subs = enumerate_proper_subalgebras(a, scope)
    positions: list[np.ndarray | None] = [None] * len(subs)
    for k in {s.dim_w for s in subs if _profiled(s.as_algebra)}:
        idx = [i for i, s in enumerate(subs) if s.dim_w == k]
        bases = np.stack([subs[i].w_basis.a for i in idx])
        found = _lex_positions(lex_blocks(k, a.p, a.p**k)[0], bases, a.p)
        found.setflags(write=False)
        for i, pos in zip(idx, found):
            positions[i] = pos
    return tuple(positions)


def _twisted_profiles(table: np.ndarray, autos: AutomorphismGroup) -> Iterator[np.ndarray]:
    """Rank profiles of twist(m, f) for every f of an rsz group, from m's
    _rank_table, as (K, p^g) chunks in enumeration order.

    twist(m, f) lets generator i act by sum_j f_ij A_j, so at c it has the
    rank of sum_j (c^T F)_j A_j: m's table read at c^T F.
    """
    mats, g, p = autos.payloads, autos.algebra.num_generators, autos.algebra.p
    points = lex_blocks(g, p, p**g)[0]
    chunk = max(1, _PROFILE_CELLS // points.size)
    for start in range(0, len(mats), chunk):
        yield table[_lex_positions(points, mats[start : start + chunk], p)]


def _profiles(m1: Module, m2: Module) -> tuple | None:
    """The _rank_table of m1 and of m2, or None where rank profiles are not
    compared."""
    if not _profiled(m1.algebra):
        return None
    return _rank_table(m1), _rank_table(m2)


def _profile_survivors(profiles: tuple | None, autos: AutomorphismGroup) -> Iterator[int]:
    """Indices, in enumeration order, of the automorphisms f for which the
    rank profile of twist(m2, f) equals that of m1, given _profiles(m1, m2),
    or every index where rank profiles are not compared.  Chunks are
    scanned as they are consumed."""
    if profiles is None:
        yield from range(len(autos))
        return
    r1, r2 = profiles
    start = 0
    for tw in _twisted_profiles(r2, autos):
        yield from (start + np.nonzero((tw == r1).all(axis=1))[0]).tolist()
        start += len(tw)


def t_isomorphic(m1: Module, m2: Module, budget: int = DEFAULT_BUDGET) -> EquivVerdict:
    """Yes with witness (f, phi) iff some enumerated automorphism f makes
    m1 isomorphic to twist(m2, f).

    A No is certified per automorphism without a search: by a dimension
    mismatch, by the rank profile c -> rank(sum_i c_i A_i) on F_p^g (rsz
    algebras; an isomorphism m1 -> twist(m2, f) forces r1(c) = r2(c^T F) for
    every c), or by dim Hom(m1, twist) != dim End(m1) (composing with an
    isomorphism is a linear bijection onto End).  Only the survivors, in
    enumeration order, go through the full witness search.
    """
    _same_algebra(m1, m2)
    return _twist_scan(m1, m2, _profiles(m1, m2), budget)


def _twist_scan(m1: Module, m2: Module, profiles: tuple | None, budget: int) -> EquivVerdict:
    """t_isomorphic given _profiles(m1, m2).  End(m1) is built only once an
    automorphism survives the profile test."""
    autos = enumerate_automorphisms(m1.algebra, budget)
    if m1.dim != m2.dim:
        return EquivVerdict(Verdict.NO, note="all automorphisms exhausted", checked=len(autos))
    end_dim = functools.cache(lambda: hom_space(m1, m1).dim)

    def decide(_, f: Automorphism) -> IsoResult:
        twisted = twist(m2, f)
        hom = hom_space(m1, twisted)
        if hom.dim != end_dim():
            return IsoResult(Verdict.NO)
        return _iso_from_hom(m1, twisted, hom, budget)

    res = _scan(
        ((idx, autos[idx]) for idx in _profile_survivors(profiles, autos)),
        decide,
        Verdict.YES,
        EquivVerdict(Verdict.YES),
        EquivVerdict(Verdict.NO, note="all automorphisms exhausted"),
        len(autos),
    )
    if res.is_yes:
        _, f, iso = res.witness
        return replace(res, witness=(f, iso.witness))
    return res


def verify_twisted_witness(m1: Module, m2: Module, f: Automorphism, phi: Mat) -> bool:
    """Re-check a (f, phi) witness: phi invertible and intertwining
    m1 -> twist(m2, f)."""
    if not phi.is_invertible():
        return False
    return _intertwines(m1, twist(m2, f), phi)


@dataclass(frozen=True)
class TOrbitResult:
    """Partition of the given modules under twisted isomorphism, plus the
    orbit closure data: iso-class representatives of all twists of the base
    module, and whether each matched some given module."""

    partition: Partition
    orbit_reps: tuple[Module, ...] = ()
    closed: bool | None = None
    unmatched_reps: tuple[int, ...] = ()


def t_orbit(
    m: Module,
    candidates: Sequence[Module],
    budget: int = DEFAULT_BUDGET,
    closure: bool = True,
) -> TOrbitResult:
    """Group {m} + candidates by t_isomorphic and check orbit closure.

    The partition is built greedily against class representatives and every
    intra-class pair is then re-verified with a composed witness, so each
    pair inside a class carries a directly checked (f, phi).  closure=False
    skips the twist-enumeration closure check (for large orbits).

    The closure pass takes one twist of m per isomorphism class of its
    twists.  By orbit-stabiliser these classes are the cosets of the
    stabiliser of m's class, in compose's convention (_twist_class_firsts),
    so the search costs one is_isomorphic per profile survivor of (m, m)
    rather than a comparison of every twist with every representative.
    Each representative is then matched against the candidates; over rsz
    algebras is_isomorphic runs only on equal rank profiles, since unequal
    profiles certify non-isomorphism.
    """
    mods = [m, *candidates]
    for other in mods[1:]:
        _same_algebra(m, other)
    labels = [f"M{i}" for i in range(len(mods))]
    by_label = dict(zip(labels, mods))
    witnesses: dict[str, tuple[Automorphism, Mat]] = {}

    def same_class(rep: int, i: int) -> bool:
        res = t_isomorphic(mods[rep], mods[i], budget)
        if res.verdict.is_undecided:
            raise UndecidedError(f"t-comparison {labels[rep]} vs {labels[i]} undecided")
        if res.verdict.is_yes:
            witnesses[labels[i]] = res.witness
        return res.verdict.is_yes

    partition = _partition_from_pairs(labels, same_class)
    for cls in partition.classes:
        for a, b in itertools.combinations(cls[1:], 2):
            fa, phia = witnesses[a]
            fb, phib = witnesses[b]
            # phi_x : m_rep -> twist(m_x, f_x); untwisting by f_a gives
            # phib phia^{-1} : m_a -> twist(m_b, f_b then f_a^{-1})
            try:
                h = compose(fb, inverse(fa))
            except UnsupportedAlgebraKind:
                # dihedral witnesses need not invert inside the family;
                # fall back to a direct comparison
                if not t_isomorphic(by_label[a], by_label[b], budget).verdict.is_yes:
                    raise UndecidedError(f"pair {a} vs {b} not re-verified")
                continue
            if not verify_twisted_witness(by_label[a], by_label[b], h, phib @ phia.inverse()):
                raise UndecidedError(f"composed witness for {a} vs {b} failed")

    if not closure:
        return TOrbitResult(partition)

    def same(a: Module, b: Module) -> bool:
        res = is_isomorphic(a, b, budget)
        if res.verdict.is_undecided:
            raise UndecidedError("orbit closure comparison undecided")
        return res.verdict.is_yes

    autos = enumerate_automorphisms(m.algebra, budget)
    reps = [twist(m, autos[i]) for i in _twist_class_firsts(m, autos, same)]
    profiled = _profiled(m.algebra)

    def profile(x: Module) -> bytes:
        return _rank_table(x).tobytes() if profiled else b""

    cand_profiles = [profile(cand) for cand in mods]
    unmatched = []
    for k, rep in enumerate(reps):
        prof = profile(rep)
        if not any(cp == prof and same(cand, rep) for cand, cp in zip(mods, cand_profiles)):
            unmatched.append(k)
    return TOrbitResult(
        partition,
        orbit_reps=tuple(reps),
        closed=not unmatched,
        unmatched_reps=tuple(unmatched),
    )


def _twist_class_firsts(m: Module, autos: AutomorphismGroup, same) -> list[int]:
    """The index of the first automorphism of each isomorphism class of
    twists of m, in enumeration order; same(a, b) decides a ~ b, where ~
    is isomorphism.

    Stab(m) = {h : twist(m, h) ~ m} is decided on the profile survivors of
    (m, m); a profile mismatch certifies that h is not in it.  compose(h, f)
    twists by h and then by f, and twisting keeps isomorphism, so
    twist(m, compose(h, f)) ~ twist(m, f) iff h is in Stab(m).  Hence
    twist(m, f') ~ twist(m, f) iff f' = compose(h, f) for some h in Stab(m)
    (h = compose(f', f^-1)): the classes are the cosets {compose(h, f) : h in
    Stab(m)}.  Each automorphism not yet in a class starts one and marks its
    coset by compose's rule, its coefficient rows times S_h for all h in
    Stab(m) in one product, looked up on the group's coefficient rows (for
    rsz, the payloads themselves).  The dihedral families are not closed
    under compose, so there every twist is compared with the first twists
    of the earlier classes.
    """
    if m.algebra.kind == DIHEDRAL:
        reps, firsts = [], []
        for i, f in enumerate(autos):
            tw = twist(m, f)
            if not any(same(r, tw) for r in reps):
                reps.append(tw)
                firsts.append(i)
        return firsts
    stab = [h for h in _profile_survivors(_profiles(m, m), autos) if same(m, twist(m, autos[h]))]
    if len(stab) == len(autos):
        return [0]
    a = autos.algebra
    rows = _coefficient_rows(a, autos.payloads)
    index = {row: i for i, row in enumerate(map(tuple, rows.reshape(len(autos), -1).tolist()))}
    subs = _substitution(a, rows[stab])
    in_class = np.zeros(len(autos), dtype=bool)
    firsts = []
    for i in range(len(autos)):
        if in_class[i]:
            continue
        firsts.append(i)
        coset = _mul_arrays(rows[i], subs, a.p)
        in_class[[index[tuple(row)] for row in coset.reshape(len(stab), -1).tolist()]] = True
    return firsts


def rt_isomorphic(m1: Module, m2: Module, budget: int = DEFAULT_BUDGET) -> EquivVerdict:
    """Yes iff the restrictions to every maximal proper subalgebra are
    twisted-isomorphic (over the subalgebra's automorphisms).

    Twisting by the identity changes nothing, so isomorphic restrictions at
    W are twisted-isomorphic there: when their rank profiles agree and they
    are lines (_EQUAL_RANK) or is_isomorphic says Yes, W passes without a
    twist scan.  Any other W runs t_isomorphic's scan.  Where W passes so,
    the identity would have been a Yes of that scan too, and a scan never
    stops the quantifier on a Yes, so the verdict, checked count, witness
    and note are those of a scan at every W.  The restrictions' rank
    profiles are read from one table per module, as for r_isomorphic
    (_profile_reader), and passed on to the scan.  A line of equal rank
    passes even where its scan would be Undecided beyond the budget, since
    its restrictions are isomorphic.
    """
    _same_algebra(m1, m2)
    _require_rsz(m1)
    read = _profile_reader("maximal", m1, m2)

    def decide(i: int, s) -> IsoResult | EquivVerdict:
        profiles = read(i)
        if _equal_lines(s, m1, m2, profiles):
            return _EQUAL_RANK
        r1, r2 = restrict(m1, s), restrict(m2, s)
        if _agree(profiles) is not False:
            res = is_isomorphic(r1, r2, budget)
            if res.verdict.is_yes:
                return res
        return _twist_scan(r1, r2, profiles, budget)

    return _every_subalgebra(m1, "maximal", decide, Verdict.NO, "restrictions not twist-equivalent")
