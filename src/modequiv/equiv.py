"""Restriction- and twist-based equivalence relations on modules.

All relations reduce to the modrep decision procedures: the restriction
relations quantify over enumerated proper subalgebras, the twisted relations
over enumerated algebra automorphisms.  Verdicts are three-valued; Undecided
never converts to Yes or No, and a universal relation reports No with the
first failing item in enumeration order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .algebra import (
    DEFAULT_BUDGET,
    RSZ,
    Algebra,
    Automorphism,
    automorphism_matrices,
    compose,
    enumerate_automorphisms,
    enumerate_proper_subalgebras,
    inverse,
)
from .errors import AlgebraMismatch, UndecidedError, UnsupportedAlgebraKind
from .linalg import Mat, _batch_rank, tensor_combine
from .modrep import (
    Module,
    IsoResult,
    Verdict,
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
    the number of enumerated items examined.
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

    Decides the (index, item) pairs in order.  The first whose verdict is
    `stop` gives `found` with witness (index, item, result) and
    checked = index + 1; failing that, the first Undecided gives Undecided
    with that witness; failing that, `default`.  Both carry checked = total.
    """
    undecided = None
    for idx, item in items:
        res = decide(item)
        if res.verdict is stop:
            return replace(found, witness=(idx, item, res), checked=idx + 1)
        if res.verdict.is_undecided and undecided is None:
            undecided = (idx, item, res)
    if undecided is not None:
        return EquivVerdict(Verdict.UNDECIDED, witness=undecided, checked=total)
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
    scope that decide gives the verdict `stop`, else as _scan."""
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


def r_isomorphic(
    m1: Module,
    m2: Module,
    scope: str = "all",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> EquivVerdict:
    """Yes iff the restrictions to every enumerated proper subalgebra in
    scope are isomorphic."""
    _same_algebra(m1, m2)
    return _every_subalgebra(
        m1,
        scope,
        lambda s: is_isomorphic(restrict(m1, s), restrict(m2, s), budget, seed),
        Verdict.NO,
        "restriction differs",
    )


def r_distinct(
    m1: Module,
    m2: Module,
    scope: str = "all",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> EquivVerdict:
    """Yes iff the restrictions are non-isomorphic at every enumerated
    subalgebra in scope."""
    _same_algebra(m1, m2)
    return _every_subalgebra(
        m1,
        scope,
        lambda s: is_isomorphic(restrict(m1, s), restrict(m2, s), budget, seed),
        Verdict.YES,
        "restrictions isomorphic",
    )


def r_decomposable(
    m: Module, budget: int = DEFAULT_BUDGET, seed: int = 0
) -> EquivVerdict:
    """Yes iff the restriction to every maximal proper subalgebra decomposes."""
    return _every_subalgebra(
        m,
        "maximal",
        lambda s: is_indecomposable(restrict(m, s), budget),
        Verdict.YES,
        "restriction stays indecomposable",
    )


def restriction_function(
    m: Module,
    scope: str = "all",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> Partition:
    """Partition of the enumerated subalgebras by isomorphism class of the
    restriction of m; labels are s{index} in enumeration order.

    Each restriction is keyed by its algebra and, where rank profiles are
    compared, by its profile c -> rank(sum_i c_i A_i): a base change keeps
    every such rank, so restrictions with unequal keys are non-isomorphic
    without a search, and is_isomorphic runs only on equal keys."""
    _require_rsz(m)
    subs = enumerate_proper_subalgebras(m.algebra, scope)
    restrictions = [restrict(m, s) for s in subs]
    labels = [f"s{i}" for i in range(len(subs))]

    def key(r: Module) -> tuple:
        points = _profile_points(r.algebra)
        if points is None:
            return (r.algebra,)
        return r.algebra, _rank_profile(r, points).tobytes()

    keys = [key(r) for r in restrictions]

    def same(i: int, j: int) -> bool:
        if keys[i] != keys[j]:
            return False
        res = is_isomorphic(restrictions[i], restrictions[j], budget, seed)
        if res.verdict.is_undecided:
            raise UndecidedError(f"restriction comparison {labels[i]} vs {labels[j]} undecided")
        return res.verdict.is_yes

    return _partition_from_pairs(labels, same)


# Rank profiles are compared while F_p^g has at most this many points, and
# the automorphisms are scanned in chunks whose (K, p^g, g) image arrays stay
# near _PROFILE_CELLS entries: larger chunks were no faster and raised the
# peak memory of a process by megabytes.
_PROFILE_POINTS = 1024
_PROFILE_CELLS = 2**15


def _profile_points(a: Algebra) -> np.ndarray | None:
    """Every c in F_p^g in lexicographic order, or None where rank profiles
    are not compared (non-rsz algebras, no generators, too many points)."""
    g, p = a.num_generators, a.p
    if a.kind != RSZ or g == 0 or p**g > _PROFILE_POINTS:
        return None
    return np.array(list(itertools.product(range(p), repeat=g)), dtype=np.int64)


def _rank_profile(m: Module, points: np.ndarray) -> np.ndarray:
    """rank(sum_i c_i A_i) at every point c, A_i the action of generator i."""
    p = m.algebra.p
    stack = np.stack([x.a for x in m.action])
    return _batch_rank(tensor_combine(points, stack, p), p)


def _twisted_profiles(
    profile: np.ndarray, points: np.ndarray, a: Algebra, budget: int
) -> Iterator[np.ndarray]:
    """Rank profiles of twist(m, f) for every enumerated f, from m's profile,
    as (K, p^g) chunks in enumeration order.

    twist(m, f) lets generator i act by sum_j f_ij A_j, so at c it has the
    rank of sum_j (c^T F)_j A_j: m's profile read at c^T F.
    """
    mats = automorphism_matrices(a, budget)
    powers = a.p ** np.arange(points.shape[1] - 1, -1, -1, dtype=np.int64)
    chunk = max(1, _PROFILE_CELLS // points.size)
    for start in range(0, len(mats), chunk):
        images = np.matmul(points, mats[start : start + chunk]) % a.p
        yield profile[images @ powers]


def _profile_survivors(m1: Module, m2: Module, n_autos: int, budget: int) -> Iterator[int]:
    """Indices, in enumeration order, of the automorphisms f for which the
    rank profile of twist(m2, f) equals that of m1, or every index where rank
    profiles are not compared.  Chunks are scanned as they are consumed."""
    points = _profile_points(m1.algebra)
    if points is None:
        yield from range(n_autos)
        return
    r1 = _rank_profile(m1, points)
    start = 0
    for tw in _twisted_profiles(_rank_profile(m2, points), points, m1.algebra, budget):
        yield from (start + np.nonzero((tw == r1).all(axis=1))[0]).tolist()
        start += len(tw)


def t_isomorphic(
    m1: Module, m2: Module, budget: int = DEFAULT_BUDGET, seed: int = 0
) -> EquivVerdict:
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
    autos = enumerate_automorphisms(m1.algebra, budget)
    if m1.dim != m2.dim:
        return EquivVerdict(Verdict.NO, note="all automorphisms exhausted", checked=len(autos))
    end_dim = hom_space(m1, m1).dim

    def decide(f: Automorphism) -> IsoResult:
        twisted = twist(m2, f)
        hom = hom_space(m1, twisted)
        if hom.dim != end_dim:
            return IsoResult(Verdict.NO)
        return _iso_from_hom(m1, twisted, hom, budget, seed)

    res = _scan(
        ((idx, autos[idx]) for idx in _profile_survivors(m1, m2, len(autos), budget)),
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
    twisted = twist(m2, f)
    return all(b @ phi == phi @ a for a, b in zip(m1.action, twisted.action))


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
    seed: int = 0,
    closure: bool = True,
) -> TOrbitResult:
    """Group {m} + candidates by t_isomorphic and check orbit closure.

    The partition is built greedily against class representatives and every
    intra-class pair is then re-verified with a composed witness, so each
    pair inside a class carries a directly checked (f, phi).  closure=False
    skips the twist-enumeration closure check (for large orbits).  In the
    closure pass over rsz algebras, the rank profile of twist(m, f) is m's
    profile read through f, and is_isomorphic runs only against
    representatives and candidates of equal profile; unequal profiles
    certify non-isomorphism.
    """
    mods = [m, *candidates]
    for other in mods[1:]:
        _same_algebra(m, other)
    labels = [f"M{i}" for i in range(len(mods))]
    by_label = dict(zip(labels, mods))
    witnesses: dict[str, tuple[Automorphism, Mat]] = {}

    def same_class(rep: int, i: int) -> bool:
        res = t_isomorphic(mods[rep], mods[i], budget, seed)
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
                if not t_isomorphic(by_label[a], by_label[b], budget, seed).verdict.is_yes:
                    raise UndecidedError(f"pair {a} vs {b} not re-verified")
                continue
            if not verify_twisted_witness(by_label[a], by_label[b], h, phib @ phia.inverse()):
                raise UndecidedError(f"composed witness for {a} vs {b} failed")

    if not closure:
        return TOrbitResult(partition)

    autos = enumerate_automorphisms(m.algebra, budget)
    points = _profile_points(m.algebra)
    if points is None:
        none = np.zeros(0, dtype=np.int64)
        twisted_profiles = itertools.repeat(none)
        cand_profiles = [none] * len(mods)
    else:
        chunks = _twisted_profiles(_rank_profile(m, points), points, m.algebra, budget)
        twisted_profiles = itertools.chain.from_iterable(chunks)
        cand_profiles = [_rank_profile(cand, points) for cand in mods]

    def same(a: Module, b: Module) -> bool:
        res = is_isomorphic(a, b, budget, seed)
        if res.verdict.is_undecided:
            raise UndecidedError("orbit closure comparison undecided")
        return res.verdict.is_yes

    reps: list[Module] = []
    rep_profiles: list[np.ndarray] = []
    rep_matched: list[bool] = []
    for f, prof in zip(autos, twisted_profiles):
        tw = twist(m, f)
        if any(
            np.array_equal(rp, prof) and same(r, tw) for r, rp in zip(reps, rep_profiles)
        ):
            continue
        reps.append(tw)
        rep_profiles.append(prof)
        rep_matched.append(
            any(
                np.array_equal(cp, prof) and same(cand, tw)
                for cand, cp in zip(mods, cand_profiles)
            )
        )
    unmatched = tuple(i for i, ok in enumerate(rep_matched) if not ok)
    return TOrbitResult(
        partition,
        orbit_reps=tuple(reps),
        closed=not unmatched,
        unmatched_reps=unmatched,
    )


def rt_isomorphic(
    m1: Module, m2: Module, budget: int = DEFAULT_BUDGET, seed: int = 0
) -> EquivVerdict:
    """Yes iff the restrictions to every maximal proper subalgebra are
    twisted-isomorphic (over the subalgebra's automorphisms)."""
    _same_algebra(m1, m2)
    return _every_subalgebra(
        m1,
        "maximal",
        lambda s: t_isomorphic(restrict(m1, s), restrict(m2, s), budget, seed),
        Verdict.NO,
        "restrictions not twist-equivalent",
    )
