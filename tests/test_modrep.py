import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modequiv.algebra import (
    Automorphism,
    NcPoly,
    Subalgebra,
    enumerate_automorphisms,
    enumerate_proper_subalgebras,
    evaluate_poly,
    make_dihedral_algebra,
    make_free_univariate,
    make_rsz_algebra,
    make_semidihedral_algebra,
)
from modequiv.errors import (
    AlgebraMismatch,
    RelationViolated,
    UnsupportedAlgebraKind,
)
from modequiv.families import FIXTURE_NAMES, INFINITY, band_module, c2, c3, fixture, jordan, k_module
from modequiv import modrep
from modequiv.linalg import Mat, _batch_invertible, _nullspace, _solve, rand_invertible, tensor_combine
from modequiv.modrep import (
    Verdict,
    _find_invertible,
    _adapted_basis,
    _first_idempotent,
    _spans_identity,
    _square_zero_ideal,
    conjugate,
    decompose,
    direct_sum,
    hom_space,
    is_indecomposable,
    is_isomorphic,
    module_validate,
    restrict,
    socle_dim,
    trivial_module,
    twist,
)


def e(n, i, j, p, v=1):
    return Mat.basis(n, i, j, p, value=v)


# -- validation ---------------------------------------------------------------


def test_validate_rdec_triple():
    alg = make_rsz_algebra(3, 2)
    m = module_validate(alg, [e(4, 3, 1, 2), e(4, 3, 2, 2), e(4, 3, 1, 2) + e(4, 4, 2, 2)])
    assert m.dim == 4


def test_validate_rejects_idempotent():
    alg = make_rsz_algebra(2, 2)
    with pytest.raises(RelationViolated):
        module_validate(alg, [e(2, 1, 1, 2), Mat.zeros(2, 2, 2)])


def test_validate_semidihedral_fixture():
    alg = make_semidihedral_algebra(2)
    m = module_validate(alg, [Mat.zeros(2, 2, 2), e(2, 2, 1, 2)])
    assert m.dim == 2


def test_trivial_module():
    alg = make_rsz_algebra(2, 2)
    t1 = trivial_module(alg, 1)
    assert t1.dim == 1 and all(a.is_zero() for a in t1.action)
    assert trivial_module(alg, 0).dim == 0
    assert trivial_module(make_rsz_algebra(3, 2), 4).dim == 4


def test_direct_sum_block_structure():
    alg = make_rsz_algebra(2, 2)
    t1 = trivial_module(alg, 1)
    assert direct_sum(t1, t1).action == trivial_module(alg, 2).action
    m1, m2 = fixture("tame3", 2)[1]
    s = direct_sum(m1, m2)
    assert s.dim == 6
    assert direct_sum(m1, trivial_module(alg, 0)).action == m1.action
    with pytest.raises(AlgebraMismatch):
        direct_sum(m1, trivial_module(make_rsz_algebra(3, 2), 1))


# -- hom spaces ---------------------------------------------------------------


def test_end_of_nilpotent_jordan_block():
    m = jordan(0, 2, 2)
    assert hom_space(m, m).dim == 2


def test_hom_trivial_modules():
    alg = make_rsz_algebra(2, 3)
    t1 = trivial_module(alg, 1)
    assert hom_space(t1, t1).dim == 1


def test_end_of_c2_is_lower_triangular():
    from modequiv.families import c2

    m = c2(1, 1, 3)
    end = hom_space(m, m)
    assert end.dim == 2
    for b in end.basis:
        assert b[0, 1] == 0
        assert b[0, 0] == b[1, 1]


def test_hom_basis_intertwines():
    m1, m2 = fixture("wild6", 2)[1]
    hom = hom_space(m1, m2)
    for phi in hom.basis:
        phi = Mat(2, phi)
        for a, b in zip(m1.action, m2.action):
            assert b @ phi == phi @ a


# -- isomorphism --------------------------------------------------------------


def test_wild_pair_not_isomorphic():
    m1, m2 = fixture("wild6", 2)[1]
    res = is_isomorphic(m1, m2)
    assert res.verdict.is_no
    assert res.note == "exhausted intertwiner space"


def test_conjugation_yields_yes_with_verified_witness():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        m = fixture("tame3", p)[1][0]
        pm = rand_invertible(m.dim, p, rng)
        res = is_isomorphic(m, conjugate(m, pm))
        assert res.verdict.is_yes
        phi = res.witness
        assert phi.is_invertible()
        for a, b in zip(m.action, conjugate(m, pm).action):
            assert b @ phi == phi @ a


def test_distinct_jordan_blocks_not_isomorphic():
    res = is_isomorphic(jordan(0, 2, 3), jordan(1, 2, 3))
    assert res.verdict.is_no


def test_dimension_mismatch_is_immediate_no():
    alg = make_rsz_algebra(2, 2)
    res = is_isomorphic(trivial_module(alg, 1), trivial_module(alg, 2))
    assert res.verdict.is_no and res.note == "dimension mismatch"


def test_is_isomorphic_requires_same_algebra():
    with pytest.raises(AlgebraMismatch):
        is_isomorphic(trivial_module(make_rsz_algebra(2, 2), 1),
                      trivial_module(make_rsz_algebra(3, 2), 1))


def test_undecided_when_budget_blocks_exhaustion():
    # non-isomorphic pair with all four Hom dimensions equal (11): a unit
    # budget forbids the exhaustive sweep, and random sampling can only say
    # yes or undecided
    m1, m2 = fixture("wild6", 2)[1]
    res = is_isomorphic(m1, m2, budget=1, seed=0)
    assert res.verdict is Verdict.UNDECIDED
    assert res.searched >= 10**4
    full = is_isomorphic(m1, m2)
    assert full.verdict.is_no and full.searched == 2**11 == 2**full.hom_dim


# -- the Hom-dimension certificate --------------------------------------------


def _four_hom_dims(m1, m2):
    return [hom_space(a, b).dim for a, b in ((m1, m2), (m2, m1), (m1, m1), (m2, m2))]


def test_hom_dimension_obstruction_under_unit_budget():
    m1, m2 = fixture("tame3", 5)[1]
    assert len(set(_four_hom_dims(m1, m2))) > 1
    res = is_isomorphic(m1, m2, budget=1)
    assert res.verdict.is_no
    assert res.note == "hom dimension obstruction" and res.searched == 0


def test_hom_dimension_obstruction_at_large_prime():
    # dim Hom = 1 against dim End = 2: No without searching p candidates
    p = 1048583
    m1, m2 = c2(1, 1, p), c2(2, 3, p)
    hom, _, end, _ = _four_hom_dims(m1, m2)
    assert hom == 1 and end == 2
    res = is_isomorphic(m1, m2)
    assert res.verdict.is_no
    assert res.note == "hom dimension obstruction" and res.searched == 0


@pytest.mark.parametrize("make", [
    lambda p: fixture("tame3", p)[1],
    lambda p: (direct_sum(jordan(1, 2, p), jordan(1, 1, p)), jordan(1, 3, p)),
])
def test_hom_dimension_obstruction_at_65537(make):
    res = is_isomorphic(*make(65537))
    assert res.verdict.is_no and res.note == "hom dimension obstruction"


def test_small_span_is_exhausted_before_the_certificate():
    # the obstruction holds, but one batch exhausts 2^4 candidates first
    m1, m2 = fixture("tame3", 2)[1]
    assert len(set(_four_hom_dims(m1, m2))) > 1
    res = is_isomorphic(m1, m2)
    assert res.note == "exhausted intertwiner space" and res.searched == 2**4


def _random_square_zero_module(alg, top, bottom, rng):
    p, n = alg.p, top + bottom
    action = []
    for _ in range(alg.num_generators):
        a = np.zeros((n, n), dtype=np.int64)
        a[top:, :top] = rng.integers(0, p, size=(bottom, top))
        action.append(Mat(p, a))
    return conjugate(module_validate(alg, action), rand_invertible(n, p, rng))


def _exhaustive_isomorphic(m1, m2):
    """Reference: some element of span Hom(m1, m2) is invertible, found by
    enumerating every coefficient vector."""
    p = m1.algebra.p
    stack = hom_space(m1, m2).basis
    d = stack.shape[0]
    coeffs = np.array(list(itertools.product(range(p), repeat=d)), dtype=np.int64)
    for lo in range(0, len(coeffs), 4096):
        batch = np.tensordot(coeffs[lo : lo + 4096], stack, axes=1) % p
        if _batch_invertible(batch, p).any():
            return True
    return False


@pytest.mark.parametrize("p", [2, 3, 5])
def test_iso_verdicts_match_exhaustive_search(p):
    alg = make_rsz_algebra(2, p)
    rng = np.random.default_rng(40 + p)
    shapes = [(1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]
    seen = {"yes": 0, "certified": 0, "exhausted": 0}
    for _ in range(24):
        top, bottom = shapes[int(rng.integers(len(shapes)))]
        m1 = _random_square_zero_module(alg, top, bottom, rng)
        if rng.integers(3) == 0:
            m2 = conjugate(m1, rand_invertible(m1.dim, p, rng))
        else:
            m2 = _random_square_zero_module(alg, top, bottom, rng)
        dims = _four_hom_dims(m1, m2)
        if p ** dims[0] > 5**7:
            continue
        expect = _exhaustive_isomorphic(m1, m2)
        assert not (expect and len(set(dims)) > 1)
        res = is_isomorphic(m1, m2)
        assert res.verdict is (Verdict.YES if expect else Verdict.NO)
        forced = is_isomorphic(m1, m2, budget=1)
        if len(set(dims)) > 1:
            assert forced.verdict.is_no
            seen["certified"] += 1
        elif expect:
            assert forced.verdict in (Verdict.YES, Verdict.UNDECIDED)
            seen["yes"] += 1
        else:
            assert forced.verdict.is_undecided
            seen["exhausted"] += 1
    assert seen["yes"] and seen["certified"]


# -- the order of the invertible-element search ---------------------------------


def _singular_basis(p, n, d, seed, shared=0):
    """d random n x n matrices: the last `shared` have row 0 zeroed, so the
    first p^shared combinations in lexicographic order are singular, and
    every other matrix i has row i mod n zeroed.  No basis element is
    invertible, so the search must go past its fast paths."""
    rng = np.random.default_rng(seed)
    stack = np.zeros((d, n, n), dtype=np.int64)
    for i in range(d):
        stack[i] = rng.integers(0, p, size=(n, n))
        stack[i, 0 if i >= d - shared else i % n] = 0
    assert not _spans_identity(stack.reshape(d, n * n), n, p)
    return stack


def _slice_end(index):
    """End of the slice, in the 16, 64, 256, ... growth of one search, that
    holds candidate `index` of a single batch."""
    end, size = 0, 16
    while end <= index:
        end += size
        size = min(4 * size, 4096)
    return end


@pytest.mark.parametrize("p, n, d, shared", [
    (2, 3, 5, 0), (2, 4, 8, 0), (2, 4, 12, 8), (3, 3, 4, 0), (3, 3, 7, 5), (5, 3, 3, 0),
    (5, 4, 5, 3),
])
def test_small_span_witness_is_the_first_invertible_element(p, n, d, shared):
    stack = _singular_basis(p, n, d, seed=10 * p + d, shared=shared)
    coeffs = np.array(list(itertools.product(range(p), repeat=d)), dtype=np.int64)
    ok = _batch_invertible(np.tensordot(coeffs, stack, axes=1) % p, p)
    assert ok.any()
    first = int(np.argmax(ok))
    assert first >= p**shared
    status, witness, searched = _find_invertible(stack, p, 2**20, seed=0)
    assert status == "yes"
    assert np.array_equal(witness.a, np.tensordot(coeffs[first], stack, axes=1) % p)
    assert searched == min(_slice_end(first), p**d)


@pytest.mark.parametrize("p, n, d", [(2, 4, 13), (3, 3, 8), (5, 3, 6), (65537, 3, 2)])
@pytest.mark.parametrize("seed", [0, 7])
def test_large_span_witness_is_the_first_invertible_random_draw(p, n, d, seed):
    stack = _singular_basis(p, n, d, seed=p + d)
    coeffs = np.random.default_rng(seed).integers(0, p, (256, d))
    draws = np.tensordot(coeffs, stack, axes=1) % p
    first = next(i for i, x in enumerate(draws) if Mat(p, x).is_invertible())
    status, witness, searched = _find_invertible(stack, p, 2**20, seed)
    assert status == "yes"
    assert np.array_equal(witness.a, draws[first])
    assert searched == _slice_end(first)


@pytest.mark.parametrize("p, d", [(2, 5), (2, 13), (3, 8), (5, 6), (65537, 1)])
def test_no_exhaustion_reports_the_whole_span(p, d, monkeypatch):
    # row 0 vanishes in every element of the span
    stack = _singular_basis(p, 3, d, seed=d, shared=d)
    calls = []
    monkeypatch.setattr(
        modrep, "_batch_invertible", lambda b, q: calls.append(len(b)) or _batch_invertible(b, q)
    )
    assert _find_invertible(stack, p, 2**20, seed=0) == ("no", None, p**d)
    if p > 4096:
        # above p = 4096 the last coordinate is checked in slices growing to
        # 4096, not one candidate a call: one basis check, three slices of the
        # 256-element burst, then 1024 and sixteen slices of at most 4096
        assert len(calls) <= 21 and max(calls) == 4096


def _iso_and_hom_calls(monkeypatch, m1, m2):
    calls = []
    monkeypatch.setattr(modrep, "hom_space", lambda *a: calls.append(a) or hom_space(*a))
    return is_isomorphic(m1, m2), len(calls)


def test_burst_yes_builds_no_certificate(monkeypatch):
    # Hom(m, conjugate) has dim 13, so 3^13 candidates: too many for one
    # batch, and the seeded burst finds the witness before the three Hom
    # spaces of the dimension certificate are asked for.  In a process
    # without numpy.random the certificate goes first, with the same result.
    p = 3
    m = direct_sum(*fixture("tame3", p)[1])
    m2 = conjugate(m, rand_invertible(m.dim, p, np.random.default_rng(0)))
    res, calls = _iso_and_hom_calls(monkeypatch, m, m2)
    assert res.verdict.is_yes and p**res.hom_dim > 4096 and res.searched > 0
    assert calls == 1
    monkeypatch.delitem(sys.modules, "numpy.random")
    assert _iso_and_hom_calls(monkeypatch, m, m2) == (res, 4)


def test_obstruction_before_numpy_random_is_loaded(monkeypatch):
    # an obstructed span draws nothing while numpy.random is not loaded
    def no_draws(*args):
        raise AssertionError("random burst on an obstructed span")

    p = 1048583
    m1, m2 = c2(1, 1, p), c2(2, 3, p)
    np.random.default_rng(0)
    loaded = _iso_and_hom_calls(monkeypatch, m1, m2)
    monkeypatch.delitem(sys.modules, "numpy.random")
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    assert _iso_and_hom_calls(monkeypatch, m1, m2) == loaded
    assert loaded[0].note == "hom dimension obstruction"


# -- indecomposability and decomposition --------------------------------------


def test_rdec_module_indecomposable():
    for p in (2, 3):
        m = fixture("rdec4", p)[1][0]
        assert is_indecomposable(m).verdict.is_yes


def test_trivial2_decomposes_with_witness():
    alg = make_rsz_algebra(2, 2)
    res = is_indecomposable(trivial_module(alg, 2))
    assert res.verdict.is_no
    idem = res.idempotent
    assert idem @ idem == idem
    assert not idem.is_zero() and idem != Mat.identity(2, 2)


def test_jordan_blocks_indecomposable():
    for p in (2, 3):
        for n in (1, 2, 3, 4):
            assert is_indecomposable(jordan(1, n, p)).verdict.is_yes


def test_k_modules_indecomposable_small():
    for p in (2, 3):
        for n in (1, 2):
            for lam in list(range(p)) + [INFINITY]:
                assert is_indecomposable(k_module(lam, n, p)).verdict.is_yes


def _reference_first_idempotent(stack, p):
    """The per-candidate loop: square every element of span(stack) as a
    matrix, in lexicographic coefficient order, and return the first
    idempotent other than 0 and 1."""
    d, n, _ = stack.shape
    eye = np.eye(n, dtype=np.int64)
    weights = p ** np.arange(d - 1, -1, -1, dtype=np.int64)
    for lo in range(0, p**d, 4096):
        index = np.arange(lo, min(lo + 4096, p**d), dtype=np.int64)
        batch = np.tensordot(index[:, None] // weights % p, stack, axes=1) % p
        idem = (np.matmul(batch, batch) % p == batch).all(axis=(1, 2))
        for cand in batch[idem]:
            if cand.any() and not np.array_equal(cand, eye):
                return cand
    return None


def _end_stack(m):
    return hom_space(m, m).basis


def _no_ideal(stack):
    return np.zeros((0, len(stack)), dtype=np.int64)


def _quotient_search(m):
    """_first_idempotent on End(m) modulo the square-zero ideal of m's action."""
    stack, p = _end_stack(m), m.algebra.p
    return _first_idempotent(stack, _square_zero_ideal(stack, m.actions, p), p)


def _assert_same_first_idempotent(m, want):
    got = _quotient_search(m)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, want)


class _LiftLog:
    """Records every _lex_least call of the searches run under it."""

    def __init__(self, monkeypatch):
        self.calls = []
        self.reached = {"k = 0": 0, "least point is not the base": 0, "not the first class": 0}
        original = modrep._lex_least

        def logged(base, directions, p):
            point = original(base, directions, p)
            self.calls.append((base, directions, point))
            return point

        monkeypatch.setattr(modrep, "_lex_least", logged)

    def search(self, m):
        """The quotient search on End(m), counting the cases it reached."""
        self.calls.clear()
        stack, p = _end_stack(m), m.algebra.p
        ideal = _square_zero_ideal(stack, m.actions, p)
        got = _first_idempotent(stack, ideal, p)
        self.reached["k = 0"] += not len(ideal)
        self.reached["least point is not the base"] += any(
            len(directions) and not np.array_equal(point, base)
            for base, directions, point in self.calls
        )
        first = tensor_combine(self.calls[0][2], stack, p) if self.calls else None
        self.reached["not the first class"] += len(self.calls) > 1 and not np.array_equal(got, first)
        return got


def _assert_matches_reference_with_conjugates(m, log, rng):
    """The quotient search on m and on 3 seeded conjugates of m equals the
    matrix loop.  Where m has no nontrivial idempotent, neither has any
    conjugate, whose End algebra is isomorphic to m's.  Returns whether m
    has one."""
    p = m.algebra.p
    want = _reference_first_idempotent(_end_stack(m), p)
    found = want is not None
    for i in range(4):
        if i:
            m = conjugate(m, rand_invertible(m.dim, p, rng))
            if want is not None:
                want = _reference_first_idempotent(_end_stack(m), p)
        got = log.search(m)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)
    return found


def _family_modules(p):
    yield from (k_module(lam, n, p) for lam in (0, 1, INFINITY) for n in (1, 2, 3))
    yield from (jordan(lam, n, p) for lam in range(p) for n in (2, 3, 4))
    yield from (c2(a, b, p) for a in range(1, p) for b in range(1, p))
    yield from (c3(a, b, g, p) for a in range(1, p) for b in range(1, p) for g in range(1, p))
    yield band_module(1, p)
    for name in FIXTURE_NAMES:
        yield from fixture(name, p)[1]


@pytest.mark.parametrize("p", [2, 3])
def test_coordinate_search_matches_matrix_loop_on_families(p, monkeypatch):
    log, rng = _LiftLog(monkeypatch), np.random.default_rng(p)
    checked = 0
    for m in _family_modules(p):
        d = hom_space(m, m).dim
        if m.dim > 1 and p**d <= 2**20:
            _assert_matches_reference_with_conjugates(m, log, rng)
            checked += 1
    assert checked >= 20
    assert log.reached["k = 0"]
    if p == 3:
        assert log.reached["least point is not the base"]
        assert log.reached["not the first class"]


@pytest.mark.parametrize("p", [2, 3])
def test_coordinate_search_matches_matrix_loop_on_direct_sums(p, monkeypatch):
    log = _LiftLog(monkeypatch)
    alg = make_rsz_algebra(2, p)
    rng = np.random.default_rng(60 + p)
    found = 0
    for shapes in [((1, 1), (0, 1)), ((1, 1), (1, 1)), ((1, 2), (1, 0)), ((2, 1), (1, 1))]:
        parts = [_random_square_zero_module(alg, top, bottom, rng) for top, bottom in shapes]
        m = direct_sum(*parts)
        if p ** hom_space(m, m).dim <= 2**20:
            found += _assert_matches_reference_with_conjugates(m, log, rng)
    assert found
    if p == 3:
        assert log.reached["least point is not the base"]
        assert log.reached["not the first class"]


@pytest.mark.parametrize(
    "m",
    [
        trivial_module(make_rsz_algebra(2, 2), 2),
        trivial_module(make_rsz_algebra(2, 3), 3),
        direct_sum(jordan(1, 2, 3), jordan(2, 2, 3)),
    ],
)
def test_quotient_search_without_an_ideal_returns_the_first_idempotent(m):
    # zero actions (R = 0) and an invertible X (R = M) leave N = 0
    stack, p = _end_stack(m), m.algebra.p
    assert not len(_square_zero_ideal(stack, m.actions, p))
    want = _reference_first_idempotent(stack, p)
    assert want is not None
    _assert_same_first_idempotent(m, want)


def test_coordinate_search_on_largest_budgeted_end_space():
    # End(K(0,2) + K(1,2)) at p = 2 has dimension 20: the full 2^20 budget
    m = direct_sum(k_module(0, 2, 2), k_module(1, 2, 2))
    assert hom_space(m, m).dim == 20
    want = _reference_first_idempotent(_end_stack(m), 2)
    assert want is not None
    _assert_same_first_idempotent(m, want)


@pytest.mark.parametrize("p, n", [(2, 6), (3, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coordinate_search_needs_both_prefix_and_suffix(p, n, seed):
    # the algebra F_p E_11 + F_p I + R, R the strictly upper triangular
    # matrices, in the basis E_11 + r, I, then a random basis of R: the last
    # p^lo-sized block of basis elements lies in F_p I + R, which holds no
    # nontrivial idempotent, so the first one needs a nonzero prefix, and it
    # is E_11 + r' with r' found through the noncommuting products E_11 R
    rng = np.random.default_rng(seed)
    upper = np.stack([e(n, i, j, p).a for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    rebased = np.tensordot(rand_invertible(len(upper), p, rng).a, upper, axes=1) % p
    r = np.tensordot(rng.integers(0, p, size=len(upper)), upper, axes=1)
    stack = np.stack([(e(n, 1, 1, p).a + r) % p, np.eye(n, dtype=np.int64), *rebased])
    got = _first_idempotent(stack, _no_ideal(stack), p)
    assert np.array_equal(got, _reference_first_idempotent(stack, p))
    assert got[0, 0] == 1


def test_coordinate_search_with_single_candidate_batches():
    # at p = 67 > 4096^(1/2) the search takes one suffix coordinate; at
    # p = 4099 > 4096 every batch holds one candidate
    diag = np.stack([np.diag([1, 0]), np.diag([0, 1])]).astype(np.int64)
    got = _first_idempotent(diag, _no_ideal(diag), 67)
    assert np.array_equal(got, _reference_first_idempotent(diag, 67))
    assert np.array_equal(got, np.diag([0, 1]))
    eye = np.eye(2, dtype=np.int64)[None]
    assert _first_idempotent(eye, _no_ideal(eye), 4099) is None


def test_structure_constants_reject_a_span_not_closed_under_products():
    # E_12 E_21 = E_11 lies outside span(E_12, E_21)
    stack = np.stack([e(2, 1, 2, 3).a, e(2, 2, 1, 3).a])
    with pytest.raises(RelationViolated):
        _first_idempotent(stack, _no_ideal(stack), 3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_square_zero_ideal_is_a_two_sided_ideal_with_zero_square(p):
    # in the adapted basis N is spanned by the last k elements: every product
    # with one factor in N has no coordinate outside N, and N N = 0
    nonzero = 0
    for m in _family_modules(p):
        stack = _end_stack(m)
        ideal = _square_zero_ideal(stack, m.actions, p)
        q = len(stack) - len(ideal)
        _, gamma = _adapted_basis(stack, ideal, p)
        assert not gamma[:, q:, :q].any() and not gamma[q:, :, :q].any()
        assert not gamma[q:, q:].any()
        assert q >= 1
        nonzero += len(ideal) > 0
    assert nonzero >= 10


@pytest.mark.parametrize(
    "p, verdict, note",
    [
        # 5^12 End elements, 5^3 classes modulo the square-zero ideal
        (5, Verdict.YES, "no nontrivial idempotent among 244140625"),
        (65537, Verdict.UNDECIDED, "End space of dim 12, 3 modulo a square-zero ideal, exceeds"),
    ],
)
def test_k03_budget_counts_quotient_classes(p, verdict, note):
    res = is_indecomposable(k_module(0, 3, p))
    assert res.verdict is verdict
    assert res.note.startswith(note)


@pytest.mark.parametrize(
    "p, seed",
    [(3, s) for s in (145, 173, 180, 441, 462, 513, 578, 629, 743, 777, 916, 923)]
    + [(5, s) for s in (5, 7, 84, 105, 109, 110)],
)
def test_split_sum_without_fitting_split_decomposes(p, seed):
    # under these base changes no End basis element gives a Fitting split,
    # and the 20-dimensional End space exceeds the budget: only the quotient
    # search finds the idempotent
    m = direct_sum(k_module(0, 2, p), k_module(1, 2, p))
    m = conjugate(m, rand_invertible(8, p, np.random.default_rng(seed)))
    res = is_indecomposable(m)
    assert res.verdict.is_no
    assert res.note == "idempotent search"
    idem = res.idempotent
    assert idem @ idem == idem and modrep._intertwines(m, m, idem)
    assert not idem.is_zero() and idem != Mat.identity(8, p)


@pytest.mark.parametrize(
    "bad",
    [
        lambda n, p: 2 * np.eye(n, dtype=np.int64),  # an endomorphism, not idempotent
        lambda n, p: np.diag([1] + [0] * (n - 1)).astype(np.int64),  # idempotent, not an endomorphism
        lambda n, p: np.eye(n, dtype=np.int64),  # a trivial idempotent
    ],
)
def test_idempotent_search_result_is_reverified(bad, monkeypatch):
    m = k_module(0, 3, 3)
    monkeypatch.setattr(modrep, "_first_idempotent", lambda stack, ideal, p: bad(m.dim, p))
    with pytest.raises(RelationViolated):
        is_indecomposable(m)


def test_decompose_trivial():
    alg = make_rsz_algebra(2, 3)
    parts = decompose(trivial_module(alg, 3))
    assert [part.dim for part in parts] == [1, 1, 1]


def test_decompose_indecomposable_returns_self():
    m = fixture("rdec4", 2)[1][0]
    parts = decompose(m)
    assert len(parts) == 1 and parts[0].action == m.action


def test_decompose_tame_restrictions():
    alg, (m1, m2) = fixture("tame3", 2)
    for m in (m1, m2):
        for s in enumerate_proper_subalgebras(alg, "maximal"):
            parts = decompose(restrict(m, s))
            assert sorted(part.dim for part in parts) == [1, 2]


def test_decompose_direct_sum_reassembles():
    m1, m2 = fixture("tame3", 3)[1]
    s = direct_sum(m1, m2)
    parts = decompose(s)
    assert sum(part.dim for part in parts) == 6
    total = parts[0]
    for part in parts[1:]:
        total = direct_sum(total, part)
    assert is_isomorphic(s, total).verdict.is_yes


# -- socle --------------------------------------------------------------------


def test_socle_dims_of_tame_fixtures():
    for p in (2, 3, 5):
        m1, m2 = fixture("tame3", p)[1]
        assert socle_dim(m1) == 1
        assert socle_dim(m2) == 2


def test_socle_of_trivial():
    alg = make_rsz_algebra(2, 2)
    assert socle_dim(trivial_module(alg, 4)) == 4


def test_socle_additive_over_sums():
    m1, m2 = fixture("tame3", 2)[1]
    assert socle_dim(direct_sum(m1, m2)) == socle_dim(m1) + socle_dim(m2)


def test_socle_rejects_free_univariate():
    with pytest.raises(UnsupportedAlgebraKind):
        socle_dim(jordan(0, 2, 2))


# -- restriction --------------------------------------------------------------


def test_restrict_to_zero_forgets_everything():
    alg, (m1, _) = fixture("tame3", 2)
    w0 = next(s for s in enumerate_proper_subalgebras(alg, "all") if s.dim_w == 0)
    r = restrict(m1, w0)
    assert r.dim == 3 and r.action == ()


def test_restrict_to_span_x():
    alg, (m1, _) = fixture("tame3", 2)
    s = Subalgebra.from_basis(alg, Mat(2, [[1, 0]]))
    r = restrict(m1, s)
    assert r.action == (e(3, 3, 1, 2),)
    assert r.algebra.num_generators == 1


def test_restrict_coefficient_selection():
    alg, (m1, _) = fixture("wild6", 2)
    s = Subalgebra.from_basis(alg, Mat(2, [[0, 1, 0], [0, 0, 1]]))
    r = restrict(m1, s)
    assert r.action == (e(6, 4, 2, 2), e(6, 5, 3, 2))


def test_restrict_checks_parent():
    alg3 = make_rsz_algebra(3, 2)
    s = enumerate_proper_subalgebras(alg3, "maximal")[0]
    with pytest.raises(AlgebraMismatch):
        restrict(fixture("tame3", 2)[1][0], s)


# -- twisting -----------------------------------------------------------------


def test_twist_by_identity_is_identity():
    from modequiv.algebra import identity_automorphism

    for name in ("tame3", "wild6", "semidih2"):
        alg, mods = fixture(name, 2)
        f = identity_automorphism(alg)
        for m in mods:
            assert twist(m, f).action == m.action


def test_twist_jordan_matches_affine_parameter():
    for p in (3, 5):
        alg = make_free_univariate(p)
        for f in enumerate_automorphisms(alg):
            a, b = f.payload
            for lam in range(p):
                lhs = twist(jordan(lam, 3, p), f)
                assert lhs.action[0] == a * jordan(lam, 3, p).action[0] + b * Mat.identity(3, p)
                rhs = jordan((a * lam + b) % p, 3, p)
                assert is_isomorphic(lhs, rhs).verdict.is_yes


def test_twist_k_swap_exchanges_zero_and_infinity():
    alg = make_rsz_algebra(2, 2)
    swap = next(f for f in enumerate_automorphisms(alg) if f.payload == ((0, 1), (1, 0)))
    for n in (1, 2):
        assert is_isomorphic(k_module(0, n, 2), twist(k_module(INFINITY, n, 2), swap)).verdict.is_yes


def test_twist_group_action_law():
    from modequiv.algebra import compose

    alg, (m1, _) = fixture("tame3", 2)
    autos = enumerate_automorphisms(alg)
    for f in autos:
        for g in autos:
            assert twist(twist(m1, f), g).action == twist(m1, compose(f, g)).action


def test_twist_preserves_end_dim():
    alg, (m1, m2) = fixture("wild6", 2)
    d1 = hom_space(m1, m1).dim
    for f in enumerate_automorphisms(alg):
        assert hom_space(twist(m1, f), twist(m1, f)).dim == d1


def _reference_images(f):
    """Per-generator image polynomials of an automorphism, derived from its
    payload: the images twist evaluated before it combined payloads."""
    a, p = f.algebra, f.algebra.p
    if a.kind == "rsz":
        return tuple(NcPoly(p, [(c, (j,)) for j, c in enumerate(row)]) for row in f.payload)
    if a.kind == "free_univariate":
        coeff, shift = f.payload
        return (NcPoly(p, [(coeff, (0,)), (shift, ())]),)
    if a.kind == "dihedral":
        swap, scale = f.payload
        if swap:
            return (NcPoly.word(p, (1,)), NcPoly.word(p, (0,), scale))
        return (NcPoly.word(p, (0,)), NcPoly.word(p, (1,), scale))
    return tuple(
        NcPoly(p, [(c, a.basis_words[i]) for i, c in enumerate(v) if c]) for v in f.payload
    )


def _left_regular(alg):
    """A table algebra acting on itself by left multiplication, so every
    basis word acts by a distinct matrix."""
    t = alg.table
    return module_validate(alg, [Mat(alg.p, t[j].T) for j in _generator_indices(alg)])


def _generator_indices(alg):
    return [alg.basis_words.index((i,)) for i in range(alg.num_generators)]


def _twist_cases():
    sd = make_semidihedral_algebra(2)
    yield sd, [_left_regular(sd), *fixture("semidih2", 2)[1]]
    yield make_dihedral_algebra(1, 1, 1, 3), [
        band_module(1, 3),
        direct_sum(band_module(2, 3), band_module(1, 3)),
    ]
    for p in (3, 5):
        rng = np.random.default_rng(p)
        yield make_free_univariate(p), [
            jordan(1, 3, p),
            module_validate(make_free_univariate(p), [Mat(p, rng.integers(0, p, (4, 4)))]),
        ]
    yield make_rsz_algebra(2, 3), [k_module(1, 2, 3), k_module(INFINITY, 1, 3)]
    yield make_rsz_algebra(3, 2), list(fixture("wild6", 2)[1])


def test_twist_table_algebra_and_validation():
    """Twisting combines the payload with the action on each image word; it
    must agree with evaluating every image polynomial, for every kind."""
    for alg, mods in _twist_cases():
        for f in enumerate_automorphisms(alg):
            images = _reference_images(f)
            for m in mods:
                t = twist(m, f)
                assert t.dim == m.dim and t.name == m.name
                assert t.action == tuple(evaluate_poly(img, m.action) for img in images)
    # x -> x + y breaks x^2 = 0 on the regular module: a hand-built payload
    # that is not an automorphism is refused by the relation check
    sd = make_semidihedral_algebra(2)
    bad = Automorphism(sd, ((0, 1, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0)))
    with pytest.raises(RelationViolated):
        twist(_left_regular(sd), bad)


def test_twist_of_generator_free_module_keeps_its_dimension():
    from modequiv.equiv import rt_isomorphic

    zero = enumerate_proper_subalgebras(make_rsz_algebra(2, 3), "all")[0]
    m = restrict(k_module(0, 1, 3), zero)
    f = enumerate_automorphisms(zero.as_algebra)[0]
    assert twist(m, f).dim == m.dim == 2
    rsz1 = make_rsz_algebra(1, 3)
    assert rt_isomorphic(trivial_module(rsz1, 2), trivial_module(rsz1, 2)).verdict.is_yes


def test_twist_preserves_indecomposability_verdicts():
    alg, (m1, _) = fixture("tame3", 2)
    base = is_indecomposable(m1).verdict
    for f in enumerate_automorphisms(alg):
        assert is_indecomposable(twist(m1, f)).verdict == base
    alg2 = make_rsz_algebra(2, 2)
    dec = direct_sum(trivial_module(alg2, 1), k_module(0, 1, 2))
    for f in enumerate_automorphisms(alg2):
        assert is_indecomposable(twist(dec, f)).verdict.is_no


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), p=st.sampled_from([2, 3]))
def test_hom_additivity_random(seed, p):
    rng = np.random.default_rng(seed)
    mods = fixture("tame3", p)[1] + [
        k_module(0, 1, p),
        trivial_module(make_rsz_algebra(2, p), 2),
    ]
    m1 = mods[int(rng.integers(0, len(mods)))]
    m2 = mods[int(rng.integers(0, len(mods)))]
    target = mods[int(rng.integers(0, len(mods)))]
    assert (
        hom_space(direct_sum(m1, m2), target).dim
        == hom_space(m1, target).dim + hom_space(m2, target).dim
    )


def test_restriction_basis_independence():
    rng = np.random.default_rng(17)
    alg, (m1, m2) = fixture("wild6", 2)
    subs = [s for s in enumerate_proper_subalgebras(alg, "all") if s.dim_w > 0]
    for _ in range(30):
        s = subs[int(rng.integers(0, len(subs)))]
        change = rand_invertible(s.dim_w, 2, rng)
        rebased = Subalgebra.from_basis(alg, change @ s.w_basis)
        v1 = is_isomorphic(restrict(m1, s), restrict(m2, s)).verdict
        v2 = is_isomorphic(restrict(m1, rebased), restrict(m2, rebased)).verdict
        assert v1 == v2


# -- the Hom system and the identity fast path --------------------------------


def _square_zero_module(alg, top, bottom, rng):
    """Generators act by random maps from the top block into the bottom one,
    so every product of two actions vanishes."""
    p = alg.p
    n = top + bottom
    action = []
    for _ in alg.generators:
        a = np.zeros((n, n), dtype=np.int64)
        a[top:, :top] = rng.integers(0, p, size=(bottom, top))
        action.append(Mat(p, a))
    return module_validate(alg, action)


def _kron_hom_basis(m1, m2):
    p = m1.algebra.p
    n1, n2 = m1.dim, m2.dim
    eye1 = np.eye(n1, dtype=np.int64)
    eye2 = np.eye(n2, dtype=np.int64)
    blocks = [
        (np.kron(b.a, eye1) - np.kron(eye2, a.a.T)) % p
        for a, b in zip(m1.action, m2.action)
    ]
    return [v.reshape(n2, n1) for v in _nullspace(np.concatenate(blocks), p)]


@pytest.mark.parametrize("p", [2, 3, 5, 2147483647])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_hom_space_matches_kron_system(p, g):
    rng = np.random.default_rng(g * 31 + p % 97)
    alg = make_rsz_algebra(g, p)
    for _ in range(8):
        t1, t2 = (int(x) for x in rng.integers(1, 4, size=2))
        b1, b2 = (int(x) for x in rng.integers(0, 4, size=2))
        if t1 + b1 == t2 + b2:
            b2 += 1
        m1 = _square_zero_module(alg, t1, b1, rng)
        m2 = conjugate(_square_zero_module(alg, t2, b2, rng), rand_invertible(t2 + b2, p, rng))
        for src, dst in ((m1, m2), (m2, m1)):
            got = hom_space(src, dst).basis
            want = _kron_hom_basis(src, dst)
            assert len(got) == len(want) > 0
            assert all(np.array_equal(x, y) for x, y in zip(got, want))


def _fixture_hom_stacks(p):
    """(stack, n) for End and equal-dimension Hom bases of the rsz fixtures."""
    out = []
    for name in FIXTURE_NAMES:
        alg, mods = fixture(name, p)
        if alg.kind != "rsz":
            continue
        for s in enumerate_proper_subalgebras(alg, "all"):
            rs = [restrict(m, s) for m in mods]
            for src, dst in itertools.product(rs, repeat=2):
                basis = hom_space(src, dst).basis
                if len(basis):
                    out.append((basis, src.dim))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_identity_fast_path_agrees_with_solve(p):
    seen = set()
    for stack, n in _fixture_hom_stacks(p):
        d = stack.shape[0]
        flat = stack.reshape(d, n * n)
        eye = np.eye(n, dtype=np.int64).reshape(n * n, 1)
        expect = _solve(flat.T, eye, p) is not None
        seen.add(expect)
        assert _spans_identity(flat, n, p) == expect
    assert seen == {True, False}


def _restrict_by_coefficient_sums(m, s):
    """Reference restriction: one Mat sum per coefficient, relations re-checked."""
    p = m.algebra.p
    action = []
    for row in s.w_basis.a:
        acc = Mat.zeros(m.dim, m.dim, p)
        for c, a in zip(row, m.action):
            acc = acc + int(c) * a
        action.append(acc)
    out = module_validate(s.as_algebra, action, name=f"{m.name}|{s.label()}" if m.name else "")
    return out if action else out.with_dim(m.dim)


@pytest.mark.parametrize("p", [2, 3])
def test_restrict_equals_coefficient_sums_on_every_fixture(p):
    for name in FIXTURE_NAMES:
        alg, mods = fixture(name, p)
        if alg.kind != "rsz":
            continue
        for s in enumerate_proper_subalgebras(alg, "all"):
            for m in mods:
                got, want = restrict(m, s), _restrict_by_coefficient_sums(m, s)
                assert got == want
                assert (got.name, got.dim, got.algebra) == (want.name, want.dim, want.algebra)
