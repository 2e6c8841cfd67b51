import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modequiv import equiv
from modequiv.algebra import (
    DEFAULT_BUDGET,
    enumerate_automorphisms,
    enumerate_proper_subalgebras,
    make_rsz_algebra,
)
from modequiv.equiv import (
    EquivVerdict,
    _profiled,
    _rank_table,
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
from modequiv.errors import UndecidedError, UnsupportedAlgebraKind
from modequiv.families import INFINITY, band_module, c2, c3, fixture, jordan, k_module
from modequiv.linalg import Mat, _mul_arrays, lex_blocks, rand_invertible
from modequiv.modrep import (
    IndecResult,
    Verdict,
    conjugate,
    direct_sum,
    hom_space,
    is_indecomposable,
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


# A restriction to a line is one square-zero n x n matrix of rank r, with
# Jordan blocks J2^r + J1^(n - 2r): it is indecomposable iff n - r = 1.
# r_decomposable settles the decomposable lines by rank and must agree with
# a reference that runs is_indecomposable at every maximal subalgebra.


def _ref_r_decomposable(m):
    return _ref_quantify(
        m, "maximal", lambda s: is_indecomposable(restrict(m, s)),
        Verdict.YES, "restriction stays indecomposable",
    )


def _count_is_indecomposable(monkeypatch):
    """The results of every is_indecomposable call r_decomposable makes."""
    results = []

    def counted(*args):
        results.append(is_indecomposable(*args))
        return results[-1]

    monkeypatch.setattr(equiv, "is_indecomposable", counted)
    return results


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 6),
    rank=st.integers(0, 3),
    c=st.integers(0, 4),
    seed=st.integers(0, 10**6),
)
def test_square_zero_line_is_indecomposable_iff_one_jordan_block(p, n, rank, c, seed):
    rng, r = np.random.default_rng(seed), min(rank, n // 2)
    a = np.zeros((n, n), dtype=np.int64)
    a[np.arange(r) + r, np.arange(r)] = 1
    line = module_validate(make_rsz_algebra(1, p), [Mat(p, a)])
    line = conjugate(line, rand_invertible(n, p, rng))
    assert is_indecomposable(line).verdict is (Verdict.YES if n - r == 1 else Verdict.NO)
    # over two generators acting by A and cA every line acts by a multiple of A
    x = line.action[0]
    m = module_validate(make_rsz_algebra(2, p), [x, x * (c % p)])
    assert r_decomposable(m) == _ref_r_decomposable(m)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_r_decomposable_settles_tame3_lines_by_rank(monkeypatch, p):
    mods = fixture("tame3", p)[1]
    want = [_ref_r_decomposable(m) for m in mods]
    results = _count_is_indecomposable(monkeypatch)
    assert [r_decomposable(m) for m in mods] == want
    assert results == []


@pytest.mark.parametrize("p", [2, 3, 5])
def test_r_decomposable_witness_at_an_indecomposable_line_is_its_result(monkeypatch, p):
    # K(0,1) has dimension 2 and its line span(X) acts with rank 1: one
    # Jordan block J2, so that restriction is indecomposable
    m = k_module(0, 1, p)
    want = _ref_r_decomposable(m)
    results = _count_is_indecomposable(monkeypatch)
    res = r_decomposable(m)
    assert res == want
    assert res.verdict.is_no and res.witness[1].dim_w == 1
    assert isinstance(res.witness[2], IndecResult) and res.witness[2] is results[-1]
    assert res.witness[2].verdict.is_yes


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
        if _profiled(a.algebra) and a.action:
            assert np.array_equal(_rank_table(a), _rank_table(b))
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
    # every plane of wild6 runs is_isomorphic at scope maximal (tame3's
    # lines are decided by rank and never reach it): a No after an earlier
    # Undecided wins, with the witness at the No
    from modequiv.modrep import IsoResult

    verdicts = iter([Verdict.UNDECIDED, Verdict.NO])
    monkeypatch.setattr(equiv, "is_isomorphic", lambda *a: IsoResult(next(verdicts)))
    _, (m1, m2) = fixture("wild6", 2)
    res = r_isomorphic(m1, m2, "maximal")
    assert res.verdict is Verdict.NO
    assert res.witness[0] == 1 and res.witness[2].verdict is Verdict.NO
    assert res.checked == 2
    assert res.note == "restriction differs"


# -- the relations against per-subalgebra references ------------------------------
#
# The references decide every subalgebra in enumeration order from its own
# restrictions, with is_isomorphic at each: no profile is read from the
# parent module, no line is settled by rank, and "all" has no first pass
# over the maximal subalgebras.  The relations must agree with them exactly.


def _ref_quantify(m, scope, decide, stop, note):
    """No (with note) at the first subalgebra that decide(s) gives `stop`,
    else Undecided at the first Undecided, else Yes; witness (index, s,
    result)."""
    subs = enumerate_proper_subalgebras(m.algebra, scope)
    undecided = None
    for i, s in enumerate(subs):
        res = decide(s)
        if res.verdict is stop:
            return EquivVerdict(Verdict.NO, witness=(i, s, res), note=note, checked=i + 1)
        if res.verdict.is_undecided and undecided is None:
            undecided = (i, s, res)
    if undecided is not None:
        return EquivVerdict(Verdict.UNDECIDED, witness=undecided, checked=len(subs))
    return EquivVerdict(Verdict.YES, checked=len(subs))


def _ref_r_isomorphic(m1, m2, scope):
    return _ref_quantify(
        m1, scope, lambda s: is_isomorphic(restrict(m1, s), restrict(m2, s)),
        Verdict.NO, "restriction differs",
    )


def _ref_r_distinct(m1, m2, scope):
    return _ref_quantify(
        m1, scope, lambda s: is_isomorphic(restrict(m1, s), restrict(m2, s)),
        Verdict.YES, "restrictions isomorphic",
    )


def _ref_restriction_function(m, scope):
    """Classes keyed by each restriction's own rank profile, with
    is_isomorphic on every pair of equal keys."""
    restrictions = [restrict(m, s) for s in enumerate_proper_subalgebras(m.algebra, scope)]
    labels = [f"s{i}" for i in range(len(restrictions))]

    def key(r):
        return (r.algebra, _rank_table(r).tobytes()) if _profiled(r.algebra) else (r.algebra,)

    keys = [key(r) for r in restrictions]

    def same(i, j):
        if keys[i] != keys[j]:
            return False
        res = is_isomorphic(restrictions[i], restrictions[j])
        if res.verdict.is_undecided:
            raise UndecidedError(f"restriction comparison {labels[i]} vs {labels[j]} undecided")
        return res.verdict.is_yes

    return equiv._partition_from_pairs(labels, same)


def _ref_rt_isomorphic(m1, m2):
    """is_isomorphic on equal profiles of the restrictions, the twist scan
    where it is not a Yes."""

    def decide(s):
        r1, r2 = restrict(m1, s), restrict(m2, s)
        profiles = equiv._profiles(r1, r2)
        if profiles is None or np.array_equal(*profiles):
            res = is_isomorphic(r1, r2)
            if res.verdict.is_yes:
                return res
        return equiv._twist_scan(r1, r2, profiles, DEFAULT_BUDGET)

    return _ref_quantify(m1, "maximal", decide, Verdict.NO, "restrictions not twist-equivalent")


def _outcome(fn, *args):
    """fn's result, or the message of the UndecidedError it raised."""
    try:
        return fn(*args)
    except UndecidedError as exc:
        return str(exc)


_RSZ_FIXTURES = ("tame3", "wild6", "rdist4", "rnott6", "rdec4")


@pytest.mark.parametrize("conjugated", [False, True])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", _RSZ_FIXTURES)
def test_relations_match_per_subalgebra_references(name, p, conjugated):
    # equal verdict, note and checked, and an equal witness: its index,
    # subalgebra and inner result (verdict, note, witness, searched)
    mods = fixture(name, p)[1]
    if conjugated:
        rng = np.random.default_rng(100 * p + len(name))
        mods = [conjugate(m, rand_invertible(m.dim, p, rng)) for m in mods]
    m1, m2 = mods if len(mods) == 2 else (mods[0], mods[0])
    for scope in ("maximal", "all"):
        assert r_isomorphic(m1, m2, scope) == _ref_r_isomorphic(m1, m2, scope)
        assert r_distinct(m1, m2, scope) == _ref_r_distinct(m1, m2, scope)
        for m in mods:
            got = _outcome(restriction_function, m, scope)
            assert got == _outcome(_ref_restriction_function, m, scope)
    assert rt_isomorphic(m1, m2) == _ref_rt_isomorphic(m1, m2)


def test_r_isomorphic_first_pass_past_a_yes_plane_with_equal_profiles():
    # K(0,1)+K(1,2) and K(0,2)+K(1,1) at p = 3 with X acting as 0: every
    # plane has equal rank profiles, and the first that is not isomorphic is
    # not the first plane, so the first pass decides planes past a Yes
    alg = make_rsz_algebra(3, 3)

    def lift(m):
        return module_validate(alg, [Mat.zeros(m.dim, m.dim, 3), *m.action])

    m1 = lift(direct_sum(k_module(0, 1, 3), k_module(1, 2, 3)))
    m2 = lift(direct_sum(k_module(0, 2, 3), k_module(1, 1, 3)))
    read = equiv._profile_reader("maximal", m1, m2)
    assert all(equiv._agree(read(i)) for i in range(13))
    for scope, first_plane in (("maximal", 0), ("all", 14)):
        res = r_isomorphic(m1, m2, scope)
        assert res == _ref_r_isomorphic(m1, m2, scope)
        assert res.verdict.is_no and res.witness[1].dim_w == 2 and res.witness[0] > first_plane


@pytest.mark.parametrize("p", [2, 3, 5, 11])
@pytest.mark.parametrize("name", _RSZ_FIXTURES)
def test_profiles_read_from_the_parent_equal_the_restrictions_own(name, p):
    # at p = 11, F_p^3 has 1331 points, more than one rank table holds; each
    # plane needs 121 of them and keeps its profile
    for m in fixture(name, p)[1]:
        for scope in ("all", "maximal"):
            subs = enumerate_proper_subalgebras(m.algebra, scope)
            assert len(equiv._profile_index(m.algebra, scope)) == len(subs)
            read = equiv._profile_reader(scope, m)
            for i, s in enumerate(subs):
                prof = read(i)
                assert (prof is None) == (not _profiled(s.as_algebra)) == (s.dim_w == 0)
                if prof is not None:
                    assert np.array_equal(prof[0], _rank_table(restrict(m, s)))


def _gathered_index(a, scope):
    """The index before one rank table: the distinct points c^T W that the
    subalgebras' profiles need, gathered with np.unique, and each
    subalgebra's positions among them (None where it has no profile)."""
    subs = enumerate_proper_subalgebras(a, scope)
    images = []
    for s in subs:
        k = s.dim_w
        if k == 0 or a.p**k > equiv._PROFILE_POINTS:
            images.append(None)
        else:
            images.append(_mul_arrays(lex_blocks(k, a.p, a.p**k)[0], s.w_basis.a, a.p))
    kept = [x for x in images if x is not None]
    if not kept:
        return np.zeros((0, a.num_generators), dtype=np.int64), [None] * len(subs)
    points, inverse = np.unique(np.concatenate(kept), axis=0, return_inverse=True)
    inverse, positions, start = inverse.reshape(-1), [], 0
    for x in images:
        positions.append(None if x is None else inverse[start : start + len(x)])
        start += 0 if x is None else len(x)
    return points, positions


@pytest.mark.parametrize("scope", ["all", "maximal"])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_profile_index_equals_the_gathered_index(g, p, scope):
    # the gathered points are F_p^g in lexicographic order (every c lies in
    # some profiled subalgebra, and np.unique sorts), so their positions are
    # the lexicographic ones of _profile_index
    if (g, p, scope) == (4, 11, "all"):
        pytest.skip("the reference gather over 19155 subalgebras takes seconds")
    a = make_rsz_algebra(g, p)
    points, gathered = _gathered_index(a, scope)
    index = equiv._profile_index(a, scope)
    if len(points):
        assert np.array_equal(points, lex_blocks(g, p, p**g)[0])
    assert len(index) == len(gathered)
    for got, want in zip(index, gathered):
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)


def test_restriction_function_past_one_rank_table():
    m = fixture("wild6", 11)[1][0]
    assert restriction_function(m, "maximal") == _ref_restriction_function(m, "maximal")


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 6),
    ranks=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    seed=st.integers(0, 10**6),
)
def test_square_zero_matrices_are_isomorphic_iff_of_equal_rank(p, n, ranks, seed):
    # the rule that decides restrictions to a line without a search
    alg, rng = make_rsz_algebra(1, p), np.random.default_rng(seed)
    r1, r2 = (min(r, n // 2) for r in ranks)

    def square_zero(rank):
        a = np.zeros((n, n), dtype=np.int64)
        a[np.arange(rank) + rank, np.arange(rank)] = 1
        m = module_validate(alg, [Mat(p, a)])
        return conjugate(m, rand_invertible(n, p, rng))

    res = is_isomorphic(square_zero(r1), square_zero(r2))
    assert res.verdict is (Verdict.YES if r1 == r2 else Verdict.NO)


def _count_is_isomorphic(monkeypatch):
    calls = []

    def counted(a, b, *args):
        calls.append(a.algebra.num_generators)
        return is_isomorphic(a, b, *args)

    monkeypatch.setattr(equiv, "is_isomorphic", counted)
    return calls


def test_r_isomorphic_over_all_is_decided_on_the_planes(monkeypatch):
    calls = _count_is_isomorphic(monkeypatch)
    _, (m1, m2) = fixture("wild6", 3)
    res = r_isomorphic(m1, m2, "all")
    assert res.verdict.is_yes and res.checked == 27
    assert calls == [2] * 13


def test_r_distinct_needs_no_search_where_profiles_differ(monkeypatch):
    calls = _count_is_isomorphic(monkeypatch)
    _, (m1, m2) = fixture("rdist4", 3)
    assert r_distinct(m1, m2, "maximal").verdict.is_yes
    assert calls == []


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
    from modequiv.algebra import Automorphism
    from modequiv.errors import BudgetExceeded

    alg = make_rsz_algebra(3, 5)
    base = c2(1, 1, 5)
    for a, b in itertools.product(range(1, 5), repeat=2):
        f = Automorphism(alg, ((1, 0, 0), (0, a, 0), (0, 0, b)))
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
    autos = enumerate_automorphisms(alg)
    m = _random_rsz_module(alg, 2, 2, rng)
    profile = _rank_table(m)
    conj = conjugate(m, rand_invertible(m.dim, p, rng))
    assert np.array_equal(_rank_table(conj), profile)
    twisted = np.concatenate(list(_twisted_profiles(profile, autos)))
    assert twisted.shape == (len(autos), p**g)
    for k in rng.choice(len(autos), size=min(len(autos), 40), replace=False):
        assert np.array_equal(_rank_table(twist(m, autos[k])), twisted[k])


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_rank_table_equals_the_rank_at_every_point(p, g):
    m = _random_rsz_module(make_rsz_algebra(g, p), 2, 2, np.random.default_rng(11 * p + g))
    want = [
        Mat(p, sum(c * a for c, a in zip(point, m.actions))).rank()
        for point in itertools.product(range(p), repeat=g)
    ]
    assert _rank_table(m).tolist() == want


def test_rank_table_stacks_lex_blocks_into_few_batches(monkeypatch):
    # lex_rows gives F_11^3 as 11 blocks of 121 points; stacked up to 1024
    # points they are two batches
    m = _random_rsz_module(make_rsz_algebra(3, 11), 2, 2, np.random.default_rng(0))
    calls, rank = [], equiv._batch_rank

    def counted(batch, p):
        calls.append(len(batch))
        return rank(batch, p)

    monkeypatch.setattr(equiv, "_batch_rank", counted)
    assert len(_rank_table(m)) == 11**3
    assert calls == [968, 363]


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
    """The stabiliser-coset closure against comparing every twist: rsz
    (batched cosets), k[X] and table (composed cosets) and dihedral (the
    comparison loop, as the families are not closed under compose)."""
    rng = np.random.default_rng(31 + p)
    alg = make_rsz_algebra(2, p)
    families = [
        [k_module(lam, 2, p) for lam in range(p)] + [k_module(INFINITY, 2, p)],
        [_random_rsz_module(alg, 1, 2, rng) for _ in range(3)],
        [k_module(lam, 1, p) for lam in range(p)] + [k_module(INFINITY, 1, p)],
        [jordan(lam, 2, p) for lam in range(p)],
        fixture("semidih2", p)[1],
        fixture("band4", p)[1] + [band_module(p - 1, p)],
    ]
    if p == 2:
        families += [fixture("rdist4", p)[1], fixture("rdec4", p)[1]]
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
    # isomorphic restrictions decide every plane without GL(2,37), which
    # exceeds the budget
    _, (w1, w2) = fixture("wild6", 37)
    assert rt_isomorphic(w1, w2).verdict.is_yes


def test_rt_isomorphic_dimension_mismatch():
    alg, (m1, _) = fixture("tame3", 2)
    padded = direct_sum(m1, trivial_module(alg, 1))
    assert rt_isomorphic(m1, padded).verdict.is_no


def test_riso_implies_rtiso_on_fixture():
    _, (m1, m2) = fixture("rnott6", 2)
    assert rt_isomorphic(m1, m2).verdict.is_yes


def _reference_rt_isomorphic(m1, m2):
    """rt_isomorphic with the twist scan of t_isomorphic at every plane."""
    return _ref_quantify(
        m1,
        "maximal",
        lambda s: t_isomorphic(restrict(m1, s), restrict(m2, s)),
        Verdict.NO,
        "restrictions not twist-equivalent",
    )


def _rt_summary(res):
    return res.verdict, res.checked, res.note, None if res.witness is None else res.witness[0]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", ["tame3", "wild6", "rnott6", "rdist4"])
def test_rt_isomorphic_matches_twist_scan_at_every_plane(name, p):
    _, (m1, m2) = fixture(name, p)
    assert _rt_summary(rt_isomorphic(m1, m2)) == _rt_summary(_reference_rt_isomorphic(m1, m2))


def _lifted_pencil_pair():
    """K(0,1)+K(1,2) and K(0,2)+K(1,1) at p = 3, with Z acting as 0."""
    alg = make_rsz_algebra(3, 3)

    def lift(m):
        return module_validate(alg, [*m.action, Mat.zeros(m.dim, m.dim, 3)])

    return (
        lift(direct_sum(k_module(0, 1, 3), k_module(1, 2, 3))),
        lift(direct_sum(k_module(0, 2, 3), k_module(1, 1, 3))),
    )


# pairs whose restrictions at `plane` are not isomorphic but twisted-isomorphic:
# c3 at plane 2 (with unequal rank profiles; plane 3 fails even up to twist),
# the lifted pencils at plane 0 (with equal rank profiles; a twist exchanging
# the pencil points 0 and 1 carries one to the other)
FALLBACK_CASES = {
    "c3": (lambda: (c3(1, 1, 1, 3), c3(2, 2, 1, 3)), 2, False, Verdict.NO, 4),
    "lifted-pencils": (_lifted_pencil_pair, 0, True, Verdict.YES, 13),
}


@pytest.mark.parametrize("case", FALLBACK_CASES)
def test_rt_isomorphic_falls_back_to_the_twist_scan(case):
    pair, plane, equal_profiles, verdict, checked = FALLBACK_CASES[case]
    m1, m2 = pair()
    s = enumerate_proper_subalgebras(m1.algebra, "maximal")[plane]
    r1, r2 = restrict(m1, s), restrict(m2, s)
    prof1, prof2 = equiv._profiles(r1, r2)
    assert np.array_equal(prof1, prof2) == equal_profiles
    assert is_isomorphic(r1, r2).verdict.is_no and t_isomorphic(r1, r2).verdict.is_yes
    got = rt_isomorphic(m1, m2)
    assert _rt_summary(got) == _rt_summary(_reference_rt_isomorphic(m1, m2))
    assert (got.verdict, got.checked) == (verdict, checked)


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
