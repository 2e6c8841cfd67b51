"""Restriction- and twist-based equivalence relations on modules.

All relations reduce to the modrep decision procedures: the restriction
relations quantify over enumerated proper subalgebras, the twisted relations
over enumerated algebra automorphisms.  Verdicts are three-valued; Undecided
never converts to Yes or No, and a universal relation reports No with the
first failing item in enumeration order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .algebra import (
    DEFAULT_BUDGET,
    RSZ,
    Algebra,
    Automorphism,
    Subalgebra,
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

    def class_of(self, label: str) -> tuple[str, ...]:
        for cls in self.classes:
            if label in cls:
                return cls
        raise KeyError(label)

    def __len__(self):
        return len(self.classes)


def _partition_from_pairs(labels: Sequence[str], same) -> Partition:
    """Group labels by the pairwise oracle `same(i, j) -> bool`, comparing
    every pair inside a prospective class."""
    classes: list[list[int]] = []
    for i in range(len(labels)):
        placed = False
        for cls in classes:
            if all(same(j, i) for j in cls):
                cls.append(i)
                placed = True
                break
        if placed:
            continue
        classes.append([i])
    return Partition(
        tuple(labels),
        tuple(tuple(labels[i] for i in cls) for cls in classes),
    )


def _require_rsz(m: Module):
    if m.algebra.kind != RSZ:
        raise UnsupportedAlgebraKind(
            f"restriction relations are only decided for rsz algebras, got {m.algebra.kind}"
        )


def _same_algebra(m1: Module, m2: Module):
    if m1.algebra != m2.algebra:
        raise AlgebraMismatch("modules over different algebras")


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
    _require_rsz(m1)
    subs = enumerate_proper_subalgebras(m1.algebra, scope)
    undecided = None
    for idx, s in enumerate(subs):
        res = is_isomorphic(restrict(m1, s), restrict(m2, s), budget, seed)
        if res.verdict.is_no:
            return EquivVerdict(
                Verdict.NO, witness=(idx, s, res), note="restriction differs", checked=idx + 1
            )
        if res.verdict.is_undecided and undecided is None:
            undecided = (idx, s, res)
    if undecided is not None:
        return EquivVerdict(Verdict.UNDECIDED, witness=undecided, checked=len(subs))
    return EquivVerdict(Verdict.YES, checked=len(subs))


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
    _require_rsz(m1)
    subs = enumerate_proper_subalgebras(m1.algebra, scope)
    undecided = None
    for idx, s in enumerate(subs):
        res = is_isomorphic(restrict(m1, s), restrict(m2, s), budget, seed)
        if res.verdict.is_yes:
            return EquivVerdict(
                Verdict.NO,
                witness=(idx, s, res),
                note="restrictions isomorphic",
                checked=idx + 1,
            )
        if res.verdict.is_undecided and undecided is None:
            undecided = (idx, s, res)
    if undecided is not None:
        return EquivVerdict(Verdict.UNDECIDED, witness=undecided, checked=len(subs))
    return EquivVerdict(Verdict.YES, checked=len(subs))


def r_decomposable(
    m: Module, budget: int = DEFAULT_BUDGET, seed: int = 0
) -> EquivVerdict:
    """Yes iff the restriction to every maximal proper subalgebra decomposes."""
    _require_rsz(m)
    subs = enumerate_proper_subalgebras(m.algebra, "maximal")
    undecided = None
    for idx, s in enumerate(subs):
        res = is_indecomposable(restrict(m, s), budget)
        if res.verdict.is_yes:
            return EquivVerdict(
                Verdict.NO,
                witness=(idx, s, res),
                note="restriction stays indecomposable",
                checked=idx + 1,
            )
        if res.verdict.is_undecided and undecided is None:
            undecided = (idx, s, res)
    if undecided is not None:
        return EquivVerdict(Verdict.UNDECIDED, witness=undecided, checked=len(subs))
    return EquivVerdict(Verdict.YES, checked=len(subs))


def restriction_function(
    m: Module,
    scope: str = "all",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> Partition:
    """Partition of the enumerated subalgebras by isomorphism class of the
    restriction of m; labels are s{index} in enumeration order."""
    _require_rsz(m)
    subs = enumerate_proper_subalgebras(m.algebra, scope)
    restrictions = [restrict(m, s) for s in subs]
    labels = [f"s{i}" for i in range(len(subs))]

    def same(i: int, j: int) -> bool:
        a, b = restrictions[i], restrictions[j]
        if a.algebra != b.algebra:
            return False
        res = is_isomorphic(a, b, budget, seed)
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
    undecided = None
    end_dim = hom_space(m1, m1).dim
    for idx in _profile_survivors(m1, m2, len(autos), budget):
        f = autos[idx]
        twisted = twist(m2, f)
        hom = hom_space(m1, twisted)
        if hom.dim != end_dim:
            continue
        res = _iso_from_hom(m1, twisted, hom, budget, seed)
        if res.verdict.is_yes:
            return EquivVerdict(
                Verdict.YES, witness=(f, res.witness), checked=idx + 1
            )
        if res.verdict.is_undecided and undecided is None:
            undecided = (idx, f, res)
    if undecided is not None:
        return EquivVerdict(Verdict.UNDECIDED, witness=undecided, checked=len(autos))
    return EquivVerdict(Verdict.NO, note="all automorphisms exhausted", checked=len(autos))


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
    witnesses: dict[tuple[int, int], tuple[Automorphism, Mat]] = {}

    classes: list[list[int]] = []
    for i, mod in enumerate(mods):
        placed = False
        for cls in classes:
            rep = cls[0]
            res = t_isomorphic(mods[rep], mod, budget, seed)
            if res.verdict.is_undecided:
                raise UndecidedError(f"t-comparison {labels[rep]} vs {labels[i]} undecided")
            if res.verdict.is_yes:
                witnesses[(rep, i)] = res.witness
                cls.append(i)
                placed = True
                break
        if not placed:
            classes.append([i])

    for cls in classes:
        rep = cls[0]
        for a_pos in range(1, len(cls)):
            for b_pos in range(a_pos + 1, len(cls)):
                ia, ib = cls[a_pos], cls[b_pos]
                fa, phia = witnesses[(rep, ia)]
                fb, phib = witnesses[(rep, ib)]
                # phi_x : m_rep -> twist(m_x, f_x); untwisting by f_a gives
                # phib phia^{-1} : m_a -> twist(m_b, f_b then f_a^{-1})
                try:
                    h = compose(fb, inverse(fa))
                except UnsupportedAlgebraKind:
                    # dihedral witnesses need not invert inside the family;
                    # fall back to a direct comparison
                    res = t_isomorphic(mods[ia], mods[ib], budget, seed)
                    if not res.verdict.is_yes:
                        raise UndecidedError(
                            f"pair {labels[ia]} vs {labels[ib]} not re-verified"
                        )
                    continue
                psi = phib @ phia.inverse()
                if not verify_twisted_witness(mods[ia], mods[ib], h, psi):
                    raise UndecidedError(
                        f"composed witness for {labels[ia]} vs {labels[ib]} failed"
                    )

    partition = Partition(
        tuple(labels), tuple(tuple(labels[i] for i in cls) for cls in classes)
    )
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
    _require_rsz(m1)
    subs = enumerate_proper_subalgebras(m1.algebra, "maximal")
    undecided = None
    for idx, s in enumerate(subs):
        res = t_isomorphic(restrict(m1, s), restrict(m2, s), budget, seed)
        if res.verdict.is_no:
            return EquivVerdict(
                Verdict.NO,
                witness=(idx, s, res),
                note="restrictions not twist-equivalent",
                checked=idx + 1,
            )
        if res.verdict.is_undecided and undecided is None:
            undecided = (idx, s, res)
    if undecided is not None:
        return EquivVerdict(Verdict.UNDECIDED, witness=undecided, checked=len(subs))
    return EquivVerdict(Verdict.YES, checked=len(subs))
