"""Restriction- and twist-based equivalence relations on modules.

All relations reduce to the modrep decision procedures: the restriction
relations quantify over enumerated proper subalgebras, the twisted relations
over enumerated algebra automorphisms.  Verdicts are three-valued; Undecided
never converts to Yes or No, and a universal relation reports No with the
first failing item in enumeration order.
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
    compose,
    enumerate_automorphisms,
    enumerate_proper_subalgebras,
    inverse,
)
from .errors import AlgebraMismatch, UndecidedError, UnsupportedAlgebraKind
from .linalg import Mat, _batch_rank, _mul_arrays, lex_blocks, tensor_combine
from .modrep import (
    Module,
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
) -> EquivVerdict:
    """Yes iff the restrictions to every enumerated proper subalgebra in
    scope are isomorphic."""
    _same_algebra(m1, m2)
    return _every_subalgebra(
        m1,
        scope,
        lambda s: is_isomorphic(restrict(m1, s), restrict(m2, s), budget),
        Verdict.NO,
        "restriction differs",
    )


def r_distinct(
    m1: Module,
    m2: Module,
    scope: str = "all",
    budget: int = DEFAULT_BUDGET,
) -> EquivVerdict:
    """Yes iff the restrictions are non-isomorphic at every enumerated
    subalgebra in scope."""
    _same_algebra(m1, m2)
    return _every_subalgebra(
        m1,
        scope,
        lambda s: is_isomorphic(restrict(m1, s), restrict(m2, s), budget),
        Verdict.YES,
        "restrictions isomorphic",
    )


def r_decomposable(m: Module, budget: int = DEFAULT_BUDGET) -> EquivVerdict:
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
        res = is_isomorphic(restrictions[i], restrictions[j], budget)
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
    """Every c in F_p^g in lexicographic order (one lex_blocks table), or None
    where rank profiles are not compared (non-rsz, g = 0, too many points)."""
    g, p = a.num_generators, a.p
    if a.kind != RSZ or g == 0 or p**g > _PROFILE_POINTS:
        return None
    return lex_blocks(g, p, _PROFILE_POINTS)[0]


def _rank_profile(m: Module, points: np.ndarray) -> np.ndarray:
    """rank(sum_i c_i A_i) at every point c, A_i the action of generator i."""
    p = m.algebra.p
    return _batch_rank(tensor_combine(points, m.actions, p), p)


def _twisted_profiles(
    profile: np.ndarray, points: np.ndarray, autos: AutomorphismGroup
) -> Iterator[np.ndarray]:
    """Rank profiles of twist(m, f) for every f of an rsz group, from m's
    profile, as (K, p^g) chunks in enumeration order.

    twist(m, f) lets generator i act by sum_j f_ij A_j, so at c it has the
    rank of sum_j (c^T F)_j A_j: m's profile read at c^T F.
    """
    mats, p = autos.payloads, autos.algebra.p
    powers = p ** np.arange(points.shape[1] - 1, -1, -1, dtype=np.int64)
    chunk = max(1, _PROFILE_CELLS // points.size)
    for start in range(0, len(mats), chunk):
        images = _mul_arrays(points, mats[start : start + chunk], p)
        yield profile[images @ powers]


def _profiles(m1: Module, m2: Module) -> tuple | None:
    """(points, profile of m1, profile of m2), or None where rank profiles
    are not compared."""
    points = _profile_points(m1.algebra)
    if points is None:
        return None
    return points, _rank_profile(m1, points), _rank_profile(m2, points)


def _profile_survivors(profiles: tuple | None, autos: AutomorphismGroup) -> Iterator[int]:
    """Indices, in enumeration order, of the automorphisms f for which the
    rank profile of twist(m2, f) equals that of m1, given _profiles(m1, m2),
    or every index where rank profiles are not compared.  Chunks are
    scanned as they are consumed."""
    if profiles is None:
        yield from range(len(autos))
        return
    points, r1, r2 = profiles
    start = 0
    for tw in _twisted_profiles(r2, points, autos):
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

    def decide(f: Automorphism) -> IsoResult:
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
    points = _profile_points(m.algebra)

    def profile(x: Module) -> bytes:
        return b"" if points is None else _rank_profile(x, points).tobytes()

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
    coset through a payload lookup.  The dihedral families are not closed
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
    a, payloads = autos.algebra, autos.payloads
    index = {row: i for i, row in enumerate(map(tuple, payloads.reshape(len(autos), -1).tolist()))}
    members = payloads[stab] if a.kind == RSZ else [autos[h] for h in stab]
    in_class = np.zeros(len(autos), dtype=bool)
    firsts = []
    for i in range(len(autos)):
        if in_class[i]:
            continue
        firsts.append(i)
        if a.kind == RSZ:
            # compose(h, f) has the mixing matrix F H
            coset = _mul_arrays(payloads[i], members, a.p)
        else:
            coset = np.array([compose(h, autos[i]).payload for h in members])
        in_class[[index[tuple(row)] for row in coset.reshape(len(stab), -1).tolist()]] = True
    return firsts


def rt_isomorphic(m1: Module, m2: Module, budget: int = DEFAULT_BUDGET) -> EquivVerdict:
    """Yes iff the restrictions to every maximal proper subalgebra are
    twisted-isomorphic (over the subalgebra's automorphisms).

    Twisting by the identity changes nothing, so isomorphic restrictions at
    W are twisted-isomorphic there: when their rank profiles agree and
    is_isomorphic says Yes, W passes without a twist scan.  Any other W runs
    t_isomorphic's scan.  Where is_isomorphic says Yes, the identity would
    have been a Yes of that scan too, and a scan never stops the quantifier
    on a Yes, so the verdict, checked count, witness and note are those of
    a scan at every W.  Each restriction's rank profile is computed once.
    """
    _same_algebra(m1, m2)

    def decide(s) -> IsoResult | EquivVerdict:
        r1, r2 = restrict(m1, s), restrict(m2, s)
        profiles = _profiles(r1, r2)
        if profiles is None or np.array_equal(profiles[1], profiles[2]):
            res = is_isomorphic(r1, r2, budget)
            if res.verdict.is_yes:
                return res
        return _twist_scan(r1, r2, profiles, budget)

    return _every_subalgebra(m1, "maximal", decide, Verdict.NO, "restrictions not twist-equivalent")
