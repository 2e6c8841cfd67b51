import itertools

import numpy as np
import pytest

from modequiv import equiv
from modequiv.algebra import (
    DEFAULT_BUDGET,
    enumerate_automorphisms,
    enumerate_proper_subalgebras,
    make_rsz_algebra,
)
from modequiv.equiv import (
    _profile_points,
    _rank_profile,
    _twisted_profiles,
    r_decomposable,
    r_distinct,
    r_isomorphic,
    restriction_function,
    rt_isomorphic,
    t_isomorphic,
    t_orbit,
    verify_twisted_witness,
)
from modequiv.errors import UnsupportedAlgebraKind
from modequiv.families import INFINITY, c2, fixture, jordan, k_module
from modequiv.linalg import Mat, rand_invertible
from modequiv.modrep import (
    Verdict,
    conjugate,
    direct_sum,
    hom_space,
    is_isomorphic,
    module_validate,
    restrict,
    trivial_module,
    twist,
)


# -- r_isomorphic -------------------------------------------------------------


def test_tame_pair_r_isomorphic_all_scopes():
    for p in (2, 3):
        _, (m1, m2) = fixture("tame3", p)
        assert is_isomorphic(m1, m2).verdict.is_no
        res = r_isomorphic(m1, m2, "all")
        assert res.verdict.is_yes
        assert res.checked == p + 2


def test_wild_pair_r_isomorphic_but_not_isomorphic():
    _, (m1, m2) = fixture("wild6", 2)
    assert is_isomorphic(m1, m2).verdict.is_no
    res = r_isomorphic(m1, m2, "all")
    assert res.verdict.is_yes and res.checked == 15


def test_r_isomorphic_dimension_mismatch_fails_everywhere():
    alg, (m1, _) = fixture("tame3", 2)
    padded = direct_sum(m1, trivial_module(alg, 1))
    res = r_isomorphic(m1, padded, "maximal")
    assert res.verdict.is_no
    assert res.witness[0] == 0  # first subalgebra already fails


def test_r_relations_reject_non_rsz():
    m = jordan(0, 2, 2)
    with pytest.raises(UnsupportedAlgebraKind):
        r_isomorphic(m, m)


# -- r_distinct ---------------------------------------------------------------


def test_rdist_fixture_verdicts():
    for p in (2, 3):
        _, (m1, m2) = fixture("rdist4", p)
        assert r_distinct(m1, m2, "maximal").verdict.is_yes
        res = r_distinct(m1, m2, "all")
        assert res.verdict.is_no
        assert res.witness[1].dim_w == 0


def test_r_distinct_fails_on_equal_modules():
    _, (m1, _) = fixture("rdist4", 2)
    assert r_distinct(m1, m1, "maximal").verdict.is_no


# -- r_decomposable -----------------------------------------------------------


def test_trivial_module_r_decomposable():
    alg = make_rsz_algebra(3, 2)
    assert r_decomposable(trivial_module(alg, 2)).verdict.is_yes


def test_c2_not_r_decomposable():
    res = r_decomposable(c2(1, 1, 3))
    assert res.verdict.is_no


def test_one_three_shape_is_indecomposable_and_r_decomposable():
    # x=e21, y=e31, z=e41: one generator of the top sent onto three socle lines
    from modequiv.modrep import is_indecomposable

    for p in (2, 3):
        alg = make_rsz_algebra(3, p)
        m = module_validate(
            alg,
            [Mat.basis(4, 2, 1, p), Mat.basis(4, 3, 1, p), Mat.basis(4, 4, 1, p)],
        )
        assert is_indecomposable(m).verdict.is_yes
        assert r_decomposable(m).verdict.is_yes


def test_printed_rdec4_restriction_defect_is_stable():
    """The rdec4 fixture is indecomposable but its span(Y,Z) restriction is
    a two-generator pencil module with local End, so R-decomposability fails
    there, over every field."""
    from modequiv.modrep import is_indecomposable

    for p in (2, 3):
        _, (m,) = fixture("rdec4", p)
        assert is_indecomposable(m).verdict.is_yes
        res = r_decomposable(m)
        assert res.verdict.is_no
        # the witness subalgebra is span(Y, Z) in echelon form
        witness = res.witness[1]
        yz = restrict(m, witness)
        assert is_indecomposable(yz).verdict.is_yes


# -- restriction_function -------------------------------------------------------


def test_restriction_function_tame_single_class():
    _, (m1, _) = fixture("tame3", 2)
    part = restriction_function(m1, "maximal")
    assert len(part) == 1
    assert len(part.items) == 3


def test_restriction_function_separates_rdist_pair():
    _, (m1, m2) = fixture("rdist4", 2)
    p1 = restriction_function(m1, "maximal")
    p2 = restriction_function(m2, "maximal")
    assert p1.classes != p2.classes
    # frozen from the computation: M1 glues s1~s4 while M2 keeps them apart
    assert ("s1", "s4") in p1.classes
    assert ("s1",) in p2.classes
    subs = enumerate_proper_subalgebras(m1.algebra, "maximal")
    for s in subs:
        assert is_isomorphic(restrict(m1, s), restrict(m2, s)).verdict.is_no


def test_restriction_function_trivial_module():
    alg = make_rsz_algebra(2, 3)
    assert len(restriction_function(trivial_module(alg, 3), "maximal")) == 1
    # at scope=all the W=0 restriction lives over a different subalgebra
    # (radical dimension 0), which forces its own class
    part = restriction_function(trivial_module(alg, 3), "all")
    assert len(part) == 2
    assert part.classes[0] == ("s0",)


def test_restriction_function_labels_stable():
    _, (m1, _) = fixture("wild6", 2)
    part = restriction_function(m1, "maximal")
    assert part.items == tuple(f"s{i}" for i in range(7))
    assert part.representatives[0] == "s0"


def _all_pairs_partition(m, scope):
    """Classes of the restrictions of m from a comparison of every pair,
    checked to form an equivalence relation; labels as restriction_function's.
    Unequal Hom dimensions among the pair certify non-isomorphism."""
    rs = [restrict(m, s) for s in enumerate_proper_subalgebras(m.algebra, scope)]

    def iso(a, b):
        if a.algebra != b.algebra:
            return False
        if len({hom_space(x, y).dim for x in (a, b) for y in (a, b)}) > 1:
            return False
        res = is_isomorphic(a, b)
        assert not res.verdict.is_undecided
        return res.verdict.is_yes

    same = {(i, j): iso(rs[i], rs[j]) for i, j in itertools.combinations(range(len(rs)), 2)}
    classes = []
    for i in range(len(rs)):
        if any(i in cls for cls in classes):
            continue
        cls = (i, *(j for j in range(i + 1, len(rs)) if same[i, j]))
        assert all(same[j, k] for j, k in itertools.combinations(cls, 2))
        classes.append(cls)
    return tuple(tuple(f"s{j}" for j in cls) for cls in classes)


# every rsz fixture module, scope and field p = 2, 3: restriction_function
# decides every comparison it makes on all of them
_DECIDED_RESTRICTIONS = [
    (name, idx, scope, p)
    for name, count in (("tame3", 2), ("rdec4", 1), ("rdist4", 2), ("wild6", 2), ("rnott6", 2))
    for idx in range(count)
    for scope in ("all", "maximal")
    for p in (2, 3)
]


@pytest.mark.parametrize("name, idx, scope, p", _DECIDED_RESTRICTIONS)
def test_restriction_function_matches_all_pairs_partition(name, idx, scope, p):
    m = fixture(name, p)[1][idx]
    assert restriction_function(m, scope).classes == _all_pairs_partition(m, scope)


# restriction_function raised UndecidedError on these before is_isomorphic
# checked Hom dimensions: each has a pair of restrictions with dim Hom(R1, R2)
# != dim End(R1) and a Hom space too large to exhaust
@pytest.mark.parametrize("name, scope, p", [
    ("wild6", "all", 2),
    ("rnott6", "all", 3),
    ("wild6", "maximal", 5),
])
def test_restriction_function_certifies_by_hom_dimension(name, scope, p):
    m = fixture(name, p)[1][0]
    assert restriction_function(m, scope).classes == _all_pairs_partition(m, scope)


def test_restriction_function_compares_only_equal_rank_profiles(monkeypatch):
    compared = []

    def checked(a, b, *args):
        points = _profile_points(a.algebra)
        if points is not None and a.action:
            assert np.array_equal(_rank_profile(a, points), _rank_profile(b, points))
        compared.append((a, b))
        return is_isomorphic(a, b, *args)

    monkeypatch.setattr(equiv, "is_isomorphic", checked)
    for name in ("tame3", "wild6", "rdec4", "rdist4", "rnott6"):
        for m in fixture(name, 2)[1]:
            restriction_function(m, "all")
    assert compared


@pytest.mark.parametrize("name", ["tame3", "wild6", "rdec4", "rdist4", "rnott6"])
def test_restriction_function_classes_survive_a_base_change(name):
    p = 5
    m = fixture(name, p)[1][0]
    m = conjugate(m, rand_invertible(m.dim, p, np.random.default_rng(len(name))))
    assert restriction_function(m, "maximal").classes == _all_pairs_partition(m, "maximal")


# -- the three-valued scan shared by the quantified relations -------------------


def test_r_isomorphic_undecided_keeps_first_undecided_witness():
    # once undecided within budget 2, now settled: subalgebra 0 (W = 0) is a
    # Yes, and subalgebra 1 a No certified by Hom dimension, which ends the
    # scan; the first-Undecided rule stays pinned by the r_decomposable case
    _, (m1, m2) = fixture("rdist4", 2)
    res = r_isomorphic(m1, m2, "all", budget=2)
    assert res.verdict is Verdict.NO
    assert res.checked == 2 and res.witness[0] == 1
    assert res.witness[2].note == "hom dimension obstruction"


def test_r_decomposable_undecided_keeps_first_undecided_witness():
    _, (m1, _) = fixture("wild6", 2)
    res = r_decomposable(m1, budget=2)
    assert res.verdict is Verdict.UNDECIDED
    assert res.checked == 7 and res.witness[0] == 1


def test_r_distinct_stops_at_first_isomorphic_restriction():
    _, (m1, m2) = fixture("rdist4", 2)
    res = r_distinct(m1, m2, "all")
    assert res.verdict is Verdict.NO
    assert res.checked == 1 and res.witness[0] == 0


def test_no_after_undecided_wins(monkeypatch):
    from modequiv.modrep import IsoResult

    verdicts = iter([Verdict.UNDECIDED, Verdict.NO])
    monkeypatch.setattr(equiv, "is_isomorphic", lambda *a: IsoResult(next(verdicts)))
    _, (m1, m2) = fixture("tame3", 2)
    res = r_isomorphic(m1, m2, "all")
    assert res.verdict is Verdict.NO
    assert res.witness[0] == 1 and res.witness[2].verdict is Verdict.NO
    assert res.checked == 2
    assert res.note == "restriction differs"


# -- t_isomorphic ---------------------------------------------------------------


def test_c2_family_twists_to_basepoint():
    base = c2(1, 1, 3)
    for a, b in itertools.product(range(1, 3), repeat=2):
        res = t_isomorphic(c2(a, b, 3), base)
        assert res.verdict.is_yes
        f, phi = res.witness
        assert verify_twisted_witness(c2(a, b, 3), base, f, phi)


def test_c2_diagonal_witness_at_p5():
    # GL(3,5) enumeration exceeds the default budget, so exhibit the diagonal
    # twist (X, Y, Z) -> (X, aY, bZ) directly and verify it as a witness
    from modequiv.algebra import _rsz_automorphism
    from modequiv.errors import BudgetExceeded

    alg = make_rsz_algebra(3, 5)
    base = c2(1, 1, 5)
    for a, b in itertools.product(range(1, 5), repeat=2):
        f = _rsz_automorphism(alg, Mat(5, [[1, 0, 0], [0, a, 0], [0, 0, b]]))
        target = c2(a, b, 5)
        res = is_isomorphic(target, twist(base, f))
        assert res.verdict.is_yes
        assert verify_twisted_witness(target, base, f, res.witness)
    with pytest.raises(BudgetExceeded):
        t_isomorphic(c2(2, 2, 5), base)


def test_dimension_filter_agrees_with_full_search():
    # t_isomorphic skips automorphisms with dim Hom(m1, twist) != dim End(m1);
    # cross-check that the full search refuses exactly those twists
    from modequiv.modrep import hom_space, twist as twist_op

    _, (m1, m2) = fixture("tame3", 2)
    end_dim = hom_space(m1, m1).dim
    for f in enumerate_automorphisms(m1.algebra):
        twisted = twist_op(m2, f)
        full = is_isomorphic(m1, twisted)
        if hom_space(m1, twisted).dim != end_dim:
            assert full.verdict.is_no
        assert full.verdict in (Verdict.YES, Verdict.NO)


def test_rnott_pair_not_twist_isomorphic():
    _, (m1, m2) = fixture("rnott6", 2)
    res = t_isomorphic(m1, m2)
    assert res.verdict.is_no
    assert res.checked == 168


def test_semidihedral_endpoints_not_twist_isomorphic():
    _, (m1, m2) = fixture("semidih2", 2)
    res = t_isomorphic(m1, m2)
    assert res.verdict.is_no
    assert res.checked == 64


def test_t_isomorphic_conjugation_coarseness():
    rng = np.random.default_rng(23)
    _, (m1, _) = fixture("tame3", 2)
    conj = conjugate(m1, rand_invertible(3, 2, rng))
    res = t_isomorphic(m1, conj)
    assert res.verdict.is_yes


def test_t_iso_reflexive_symmetric_transitive_on_k_family():
    p = 2
    fam = [k_module(lam, 1, p) for lam in range(p)] + [k_module(INFINITY, 1, p)]
    for m in fam:
        assert t_isomorphic(m, m).verdict.is_yes
    for m1, m2 in itertools.combinations(fam, 2):
        assert t_isomorphic(m1, m2).verdict == t_isomorphic(m2, m1).verdict
    # all in one class, so transitivity reduces to everything being yes
    for m1, m2 in itertools.combinations(fam, 2):
        assert t_isomorphic(m1, m2).verdict.is_yes


def test_t_isomorphic_dimension_mismatch_exhausts_without_search():
    _, (m1, _) = fixture("tame3", 2)
    padded = direct_sum(m1, trivial_module(m1.algebra, 1))
    res = t_isomorphic(m1, padded)
    assert res.verdict.is_no
    assert res.note == "all automorphisms exhausted"
    assert res.checked == len(enumerate_automorphisms(m1.algebra))


def test_t_isomorphic_empty_modules_yes_at_first_automorphism():
    alg = make_rsz_algebra(2, 3)
    empty = trivial_module(alg, 0)
    res = t_isomorphic(empty, empty)
    assert res.verdict.is_yes and res.checked == 1
    f, phi = res.witness
    assert f == enumerate_automorphisms(alg)[0]
    assert phi.shape == (0, 0)


# -- rank profiles ----------------------------------------------------------------


def _random_rsz_module(alg, top: int, bottom: int, rng):
    """Generators map a `top`-dimensional space into a `bottom`-dimensional
    one and kill the latter, so every product of two of them vanishes; the
    result is seen through a random base change."""
    p, g = alg.p, alg.num_generators
    n = top + bottom
    action = []
    for _ in range(g):
        a = np.zeros((n, n), dtype=np.int64)
        a[top:, :top] = rng.integers(0, p, size=(bottom, top))
        action.append(Mat(p, a))
    return conjugate(module_validate(alg, action), rand_invertible(n, p, rng))


def _reference_t_isomorphic(m1, m2):
    """The unfiltered search: one full isomorphism test per automorphism."""
    autos = enumerate_automorphisms(m1.algebra)
    for idx, f in enumerate(autos):
        res = is_isomorphic(m1, twist(m2, f))
        assert not res.verdict.is_undecided
        if res.verdict.is_yes:
            return Verdict.YES, idx + 1, f.payload, res.witness
    return Verdict.NO, len(autos), None, None


def _summary(res):
    if res.verdict.is_yes:
        f, phi = res.witness
        return res.verdict, res.checked, f.payload, phi
    return res.verdict, res.checked, None, None


# (p, g) pairs with enumerable groups; the unfiltered No search over all of
# GL(3,3) takes seconds, so g = 3 runs at p = 3 on twisted conjugates only
PROFILE_CASES = [(2, 2, True), (3, 2, True), (5, 2, True), (2, 3, True), (3, 3, False)]


@pytest.mark.parametrize("p,g,with_no", PROFILE_CASES)
def test_profile_filter_matches_unfiltered_search(p, g, with_no):
    rng = np.random.default_rng(1000 * p + g)
    alg = make_rsz_algebra(g, p)
    autos = enumerate_automorphisms(alg)
    saw = set()
    for top, bottom in ((1, 2), (2, 1), (2, 2)):
        m1 = _random_rsz_module(alg, top, bottom, rng)
        h = autos[int(rng.integers(len(autos)))]
        conj = conjugate(twist(m1, h), rand_invertible(m1.dim, p, rng))
        pairs = [(m1, conj)]
        if with_no:
            pairs.append((m1, _random_rsz_module(alg, top, bottom, rng)))
        for a, b in pairs:
            got = t_isomorphic(a, b)
            assert _summary(got) == _reference_t_isomorphic(a, b)
            assert got.note == ("" if got.verdict.is_yes else "all automorphisms exhausted")
            saw.add(got.verdict)
    assert Verdict.YES in saw
    if with_no:
        assert Verdict.NO in saw


@pytest.mark.parametrize("p,g", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)])
def test_rank_profile_invariant_under_base_change_and_read_through_twists(p, g):
    rng = np.random.default_rng(7 * p + g)
    alg = make_rsz_algebra(g, p)
    points = _profile_points(alg)
    autos = enumerate_automorphisms(alg)
    m = _random_rsz_module(alg, 2, 2, rng)
    profile = _rank_profile(m, points)
    conj = conjugate(m, rand_invertible(m.dim, p, rng))
    assert np.array_equal(_rank_profile(conj, points), profile)
    twisted = np.concatenate(list(_twisted_profiles(profile, points, alg, DEFAULT_BUDGET)))
    assert twisted.shape == (len(autos), p**g)
    for k in rng.choice(len(autos), size=min(len(autos), 40), replace=False):
        assert np.array_equal(_rank_profile(twist(m, autos[k]), points), twisted[k])


def _reference_closure(m, mods):
    """Orbit closure with a full isomorphism test for every comparison."""
    reps, matched = [], []
    for f in enumerate_automorphisms(m.algebra):
        tw = twist(m, f)
        if any(is_isomorphic(r, tw).verdict.is_yes for r in reps):
            continue
        reps.append(tw)
        matched.append(any(is_isomorphic(c, tw).verdict.is_yes for c in mods))
    return reps, matched


@pytest.mark.parametrize("p", [2, 3])
def test_orbit_closure_matches_unfiltered_closure(p):
    rng = np.random.default_rng(31 + p)
    alg = make_rsz_algebra(2, p)
    families = [
        [k_module(lam, 2, p) for lam in range(p)] + [k_module(INFINITY, 2, p)],
        [_random_rsz_module(alg, 1, 2, rng) for _ in range(3)],
    ]
    for fam in families:
        res = t_orbit(fam[0], fam[1:])
        reps, matched = _reference_closure(fam[0], fam)
        assert res.orbit_reps == tuple(reps)
        assert res.unmatched_reps == tuple(i for i, ok in enumerate(matched) if not ok)
        assert res.closed == all(matched)


# -- t_orbit --------------------------------------------------------------------


def test_jordan_orbit_closed_single_class():
    for p in (2, 3):
        fam = [jordan(lam, 2, p) for lam in range(p)]
        res = t_orbit(fam[0], fam[1:])
        assert len(res.partition) == 1
        assert res.closed
        assert res.unmatched_reps == ()


def test_k_orbit_single_class_p3():
    fam = [k_module(lam, 2, 3) for lam in range(3)] + [k_module(INFINITY, 2, 3)]
    res = t_orbit(fam[0], fam[1:])
    assert len(res.partition) == 1


def test_tame_pair_two_t_classes():
    _, (m1, m2) = fixture("tame3", 2)
    res = t_orbit(m1, [m2], closure=False)
    assert len(res.partition) == 2
    assert res.partition.classes == (("M0",), ("M1",))


def test_t_orbit_partition_invariants():
    fam = [jordan(lam, 2, 3) for lam in range(3)]
    res = t_orbit(fam[0], fam[1:], closure=False)
    part = res.partition
    assert part.items == ("M0", "M1", "M2")
    seen = [label for cls in part.classes for label in cls]
    assert sorted(seen) == sorted(part.items)
    assert part.representatives == tuple(cls[0] for cls in part.classes)


# -- rt_isomorphic ----------------------------------------------------------------


def test_rt_isomorphic_tame_and_wild_pairs():
    _, (m1, m2) = fixture("tame3", 2)
    assert rt_isomorphic(m1, m2).verdict.is_yes
    _, (w1, w2) = fixture("wild6", 2)
    assert rt_isomorphic(w1, w2).verdict.is_yes


def test_rt_isomorphic_dimension_mismatch():
    alg, (m1, _) = fixture("tame3", 2)
    padded = direct_sum(m1, trivial_module(alg, 1))
    assert rt_isomorphic(m1, padded).verdict.is_no


def test_riso_implies_rtiso_on_fixture():
    _, (m1, m2) = fixture("rnott6", 2)
    assert rt_isomorphic(m1, m2).verdict.is_yes


# -- independence of the two relations -------------------------------------------


def test_t_iso_does_not_imply_r_iso():
    # K(0,1) and K(inf,1) are swap-twist-isomorphic but restrict differently
    # on span(X): rank 1 against rank 0
    from modequiv.algebra import Subalgebra

    alg = make_rsz_algebra(2, 2)
    k0, kinf = k_module(0, 1, 2), k_module(INFINITY, 1, 2)
    assert t_isomorphic(k0, kinf).verdict.is_yes
    res = r_isomorphic(k0, kinf, "all")
    assert res.verdict.is_no
    span_x = Subalgebra.from_basis(alg, Mat(2, [[1, 0]]))
    assert restrict(k0, span_x).action[0].rank() == 1
    assert restrict(kinf, span_x).action[0].rank() == 0


def test_r_iso_does_not_imply_t_iso():
    _, (m1, m2) = fixture("rnott6", 2)
    assert r_isomorphic(m1, m2, "all").verdict.is_yes
    assert t_isomorphic(m1, m2).verdict.is_no


def test_equivalence_laws_on_decided_fixture_verdicts():
    _, tame = fixture("tame3", 2)
    _, wild = fixture("wild6", 2)
    mods = tame
    for m in mods:
        assert r_isomorphic(m, m, "maximal").verdict.is_yes
        assert t_isomorphic(m, m).verdict.is_yes
    for m1, m2 in itertools.permutations(mods, 2):
        assert r_isomorphic(m1, m2, "maximal").verdict == r_isomorphic(m2, m1, "maximal").verdict
        assert t_isomorphic(m1, m2).verdict == t_isomorphic(m2, m1).verdict
    # transitivity across the wild R-class
    w1, w2 = wild
    conj = conjugate(w1, rand_invertible(6, 2, np.random.default_rng(3)))
    assert r_isomorphic(w1, conj, "maximal").verdict.is_yes
    assert r_isomorphic(w1, w2, "maximal").verdict.is_yes
    assert r_isomorphic(conj, w2, "maximal").verdict.is_yes
