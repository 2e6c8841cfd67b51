import itertools
import random

import numpy as np
import pytest

from modequiv.algebra import (
    DEFAULT_BUDGET,
    DIHEDRAL,
    FREE_UNIVARIATE,
    RSZ,
    Automorphism,
    NcPoly,
    Subalgebra,
    algebra_validate,
    compose,
    enumerate_automorphisms,
    enumerate_proper_subalgebras,
    evaluate_poly,
    identity_automorphism,
    inverse,
    make_dihedral_algebra,
    make_free_univariate,
    make_rsz_algebra,
    make_semidihedral_algebra,
    _induced,
    _table_automorphisms,
)
from modequiv.errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidModulus,
    TableInconsistent,
    UnsupportedAlgebraKind,
)
from modequiv.linalg import Mat, _mul_arrays, inv_mod


def gaussian_subspace_count(g, k, p):
    """Number of k-dimensional subspaces of F_p^g (independent oracle)."""
    num = den = 1
    for i in range(k):
        num *= p**g - p**i
        den *= p**k - p**i
    return num // den


def gl_order(g, p):
    return int(np.prod([p**g - p**i for i in range(g)]))


# -- constructors -------------------------------------------------------------


def test_rsz_relations_two_generators():
    a = make_rsz_algebra(2, 2)
    words = {rel.terms[0][1] for rel in a.relations}
    assert words == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert a.dim() == 3


def test_rsz_three_generators():
    a = make_rsz_algebra(3, 2)
    assert len(a.relations) == 9
    assert a.dim() == 4


def test_rsz_single_generator():
    a = make_rsz_algebra(1, 3)
    assert a.dim() == 2
    assert [rel.terms[0][1] for rel in a.relations] == [(0, 0)]


def test_rsz_rejects_bad_input():
    with pytest.raises(InvalidModulus):
        make_rsz_algebra(0, 2)
    with pytest.raises(InvalidModulus):
        make_rsz_algebra(2, 4)


def test_free_univariate_accepts_any_matrix():
    from modequiv.modrep import module_validate

    for p in (2, 5):
        a = make_free_univariate(p)
        rng = np.random.default_rng(1)
        m = module_validate(a, [Mat(p, rng.integers(0, p, size=(3, 3)))])
        assert m.dim == 3


def test_dihedral_relations():
    a = make_dihedral_algebra(1, 1, 1, 5)
    words = [rel.terms[0][1] for rel in a.relations]
    assert words == [(0, 0), (1, 1), (0, 1, 0), (1, 0, 1)]


def test_dihedral_band_pair_validates():
    from modequiv.modrep import module_validate

    a = make_dihedral_algebra(1, 1, 1, 2)
    x = Mat.basis(4, 2, 1, 2) + Mat.basis(4, 4, 3, 2)
    y = Mat.basis(4, 2, 3, 2) + Mat.basis(4, 4, 1, 2)
    assert module_validate(a, [x, y]).dim == 4


def test_dihedral_rejects_idempotent_action():
    from modequiv.errors import RelationViolated
    from modequiv.modrep import module_validate

    a = make_dihedral_algebra(1, 1, 1, 2)
    with pytest.raises(RelationViolated):
        module_validate(a, [Mat.basis(2, 1, 1, 2), Mat.zeros(2, 2, 2)])


# -- semidihedral table -------------------------------------------------------


def test_semidihedral_products():
    a = make_semidihedral_algebra(2)
    labels = a.basis_labels
    yy = a.table[labels.index("y"), labels.index("y")]
    assert list(yy) == [0, 0, 0, 0, 0, 1, 0]  # y*y = xyx
    xy_sq = a.table[labels.index("xy"), labels.index("xy")]
    assert not xy_sq.any()  # (xy)^2 = xyxy = 0


def test_semidihedral_associative_any_field():
    for p in (2, 3, 5):
        algebra_validate(make_semidihedral_algebra(p))


def test_table_mul_exact_at_modulus_ceiling():
    p = 2_147_483_647
    a = make_semidihedral_algebra(p)
    u = np.zeros(7, dtype=np.int64)
    u[1], u[2] = p - 1, p - 2  # (p-1)x + (p-2)y
    got = list(a.table_mul(u, u))
    xy = (p - 1) * (p - 2) % p
    assert got == [0, 0, 0, xy, xy, (p - 2) ** 2 % p, 0]
    # an (N, d) batch equals its rows' products, exact on the object path at
    # 2^31 - 1 and on the int64 path at 3
    for p in (2_147_483_647, 3):
        a = make_semidihedral_algebra(p)
        u, v = np.random.default_rng(p % 97).integers(0, p, size=(2, 40, 7))
        rows = [
            np.einsum("i,j,ijk->k", x.astype(object), y.astype(object), a.table.astype(object)) % p
            for x, y in zip(u, v)
        ]
        assert [list(a.table_mul(x, y)) for x, y in zip(u, v)] == [list(r) for r in rows]
        assert a.table_mul(u, v).tolist() == [list(r) for r in rows]


def test_associativity_check_exact_at_modulus_ceiling():
    """A base change of the semidihedral table at p = 2^31 - 1 has structure
    constants near p, whose products overflow int64 if summed there."""
    p = 2_147_483_647
    a = make_semidihedral_algebra(p)
    change = np.eye(7, dtype=np.int64)
    change[1:, 1:] = np.random.default_rng(3).integers(0, p, size=(6, 6))
    change_inv = Mat(p, change).inverse().a.astype(object)
    table = np.einsum(
        "ia,jb,abc,ck->ijk", change.astype(object), change.astype(object),
        a.table.astype(object), change_inv,
    ) % p
    from modequiv.algebra import Algebra, TABLE

    rebased = Algebra(
        p,
        TABLE,
        a.generators,
        (),
        basis_labels=a.basis_labels,
        basis_words=a.basis_words,
        unit_index=0,
        radical_basis=a.radical_basis,
        table=table.astype(np.int64),
    )
    assert algebra_validate(rebased) is rebased


def test_algebra_validate_rejects_corrupt_table():
    a = make_semidihedral_algebra(2)
    table = a.table.copy()
    table[1, 2] = 0
    table[1, 2, 0] = 1  # redefine x*y as the unit
    from modequiv.algebra import Algebra, TABLE

    bad = Algebra(
        2,
        TABLE,
        a.generators,
        a.relations,
        basis_labels=a.basis_labels,
        basis_words=a.basis_words,
        unit_index=a.unit_index,
        radical_basis=a.radical_basis,
        table=table,
    )
    with pytest.raises(TableInconsistent):
        algebra_validate(bad)


# -- evaluate_poly ------------------------------------------------------------


def test_evaluate_square_on_nilpotent():
    poly = NcPoly.word(2, (0, 0))
    assert evaluate_poly(poly, [Mat.basis(2, 2, 1, 2)]).is_zero()


def test_evaluate_semidihedral_relation_on_fixture():
    # y^2 - xyx at (x=e21, y=0)
    poly = NcPoly.word(2, (1, 1)) - NcPoly.word(2, (0, 1, 0))
    assert evaluate_poly(poly, [Mat.basis(2, 2, 1, 2), Mat.zeros(2, 2, 2)]).is_zero()


def test_evaluate_block_lower_triangular_product():
    x = Mat.basis(6, 4, 1, 2) + Mat.basis(6, 5, 2, 2) + Mat.basis(6, 6, 3, 2)
    y = Mat.basis(6, 4, 2, 2)
    assert evaluate_poly(NcPoly.word(2, (0, 1)), [x, y]).is_zero()


def test_evaluate_missing_generator_errors():
    with pytest.raises(DimensionMismatch):
        evaluate_poly(NcPoly.word(2, (0, 1)), [Mat.zeros(2, 2, 2)])


def test_empty_word_is_identity():
    assert evaluate_poly(NcPoly.one(3), [Mat.zeros(2, 2, 3)]) == Mat.identity(2, 3)


# -- subalgebra enumeration ---------------------------------------------------


def test_subalgebra_counts_rsz3_p2():
    a = make_rsz_algebra(3, 2)
    assert len(enumerate_proper_subalgebras(a, "maximal")) == 7
    assert len(enumerate_proper_subalgebras(a, "all")) == 15


def test_subalgebra_counts_match_gaussian_binomials():
    for g, p in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5)]:
        a = make_rsz_algebra(g, p)
        expect_all = sum(gaussian_subspace_count(g, k, p) for k in range(g))
        assert len(enumerate_proper_subalgebras(a, "all")) == expect_all
        assert len(enumerate_proper_subalgebras(a, "maximal")) == gaussian_subspace_count(
            g, g - 1, p
        )


def test_subalgebra_count_rsz2_p3():
    # proper subspaces of F_3^2: W=0 plus four lines
    assert len(enumerate_proper_subalgebras(make_rsz_algebra(2, 3), "all")) == 5


def test_maximal_subset_of_all():
    a = make_rsz_algebra(3, 2)
    all_labels = {s.label() for s in enumerate_proper_subalgebras(a, "all")}
    for s in enumerate_proper_subalgebras(a, "maximal"):
        assert s.label() in all_labels
        assert s.dim_w == 2


def test_subalgebra_bases_unique_and_echelon():
    a = make_rsz_algebra(3, 3)
    seen = set()
    for s in enumerate_proper_subalgebras(a, "all"):
        key = s.w_basis.entries()
        assert key not in seen
        seen.add(key)
        assert s.as_algebra.num_generators == s.dim_w


def _reference_echelon_bases(g, k, p):
    """The k-dimensional subspaces of F_p^g as reduced-echelon bases, built
    cell by cell: pivot columns, then free entries, both lexicographic."""
    if k == 0:
        return [[]]
    bases = []
    for pivots in itertools.combinations(range(g), k):
        free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, g) if c not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            m = np.zeros((k, g), dtype=np.int64)
            for r, c in zip(range(k), pivots):
                m[r, c] = 1
            for (r, c), v in zip(free, values):
                m[r, c] = v
            bases.append(m.tolist())
    return bases


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_subalgebra_order_matches_the_per_cell_loop(g, p):
    a = make_rsz_algebra(g, p)
    for scope, dims in (("all", range(g)), ("maximal", [g - 1])):
        subs = enumerate_proper_subalgebras(a, scope)
        assert [s.w_basis.to_lists() for s in subs] == [
            basis for k in dims for basis in _reference_echelon_bases(g, k, p)
        ]
        assert all(s.as_algebra == make_rsz_algebra(s.dim_w, p) for s in subs if s.dim_w)


def test_subalgebra_lattice_is_built_once_and_returned_fresh():
    a = make_rsz_algebra(2, 5)
    first = enumerate_proper_subalgebras(a, "all")
    labels = [s.label() for s in first]
    first.clear()
    again = enumerate_proper_subalgebras(a, "all")
    assert [s.label() for s in again] == labels
    assert again is not enumerate_proper_subalgebras(a, "all")
    # the same Subalgebra objects, not rebuilt
    assert all(x is y for x, y in zip(again, enumerate_proper_subalgebras(a, "all")))


def test_subalgebra_enumeration_rejects_other_kinds():
    with pytest.raises(UnsupportedAlgebraKind):
        enumerate_proper_subalgebras(make_free_univariate(2))


def test_subalgebra_from_dependent_basis_rejected():
    a = make_rsz_algebra(3, 2)
    with pytest.raises(DimensionMismatch):
        Subalgebra.from_basis(a, Mat(2, [[1, 0, 0], [1, 0, 0]]))


# -- automorphism enumeration -------------------------------------------------


def test_gl_counts():
    assert len(enumerate_automorphisms(make_rsz_algebra(3, 2))) == gl_order(3, 2) == 168
    assert len(enumerate_automorphisms(make_rsz_algebra(2, 3))) == gl_order(2, 3)


def test_free_univariate_affine_count():
    assert len(enumerate_automorphisms(make_free_univariate(3))) == 6
    assert len(enumerate_automorphisms(make_free_univariate(5))) == 20


def test_dihedral_families():
    sym = enumerate_automorphisms(make_dihedral_algebra(1, 1, 1, 5))
    assert len(sym) == 8  # 4 scalings + 4 swapped scalings
    asym = enumerate_automorphisms(make_dihedral_algebra(1, 1, 0, 5))
    assert len(asym) == 4  # swap not allowed when the eps differ


def test_budget_exceeded_paths():
    with pytest.raises(BudgetExceeded):
        enumerate_automorphisms(make_rsz_algebra(3, 5), budget=1000)
    with pytest.raises(BudgetExceeded):
        enumerate_automorphisms(make_semidihedral_algebra(5))


def test_group_cached_once_per_algebra_whatever_the_budget():
    a = make_rsz_algebra(2, 3)
    group = enumerate_automorphisms(a)
    misses = enumerate_automorphisms.cache_info().misses
    assert enumerate_automorphisms(a, DEFAULT_BUDGET) is group
    assert enumerate_automorphisms(a, budget=3**4) is group
    assert enumerate_automorphisms(make_rsz_algebra(2, 3), 2**30) is group
    assert enumerate_automorphisms.cache_info().misses == misses
    # one read-only (G, g, g) array holds the group, in enumeration order
    assert group.payloads.shape == (48, 2, 2) and group.payloads.dtype == np.int64
    assert not group.payloads.flags.writeable
    with pytest.raises(ValueError):
        group.payloads[0, 0, 0] = 2
    assert [f.payload for f in group] == [tuple(map(tuple, m)) for m in group.payloads.tolist()]
    # a fresh algebra builds once more
    enumerate_automorphisms(make_rsz_algebra(2, 7))
    assert enumerate_automorphisms.cache_info().misses == misses + 1


def _listed_group(a):
    """The group as the tuple of Automorphism objects that enumeration
    returned before groups were arrays, built from each kind's definition."""
    p = a.p
    if a.kind == "rsz":
        g = a.num_generators
        mats = (np.reshape(v, (g, g)) for v in itertools.product(range(p), repeat=g * g))
        payloads = [tuple(map(tuple, m.tolist())) for m in mats if Mat(p, m).rank() == g]
    elif a.kind == "free_univariate":
        payloads = [(c, s) for c in range(1, p) for s in range(p)]
    elif a.kind == "dihedral":
        swaps = (False, True) if a.dihedral_eps[0] == a.dihedral_eps[1] else (False,)
        payloads = [(swap, s) for swap in swaps for s in range(1, p)]
    else:
        payloads = [images for images, _ in _table_group_one_candidate_at_a_time(a)]
    return tuple(Automorphism(a, payload) for payload in payloads)


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_rsz_algebra(3, 2),
        lambda: make_free_univariate(5),
        lambda: make_dihedral_algebra(1, 1, 1, 5),
        lambda: make_dihedral_algebra(1, 0, 1, 3),
        lambda: make_semidihedral_algebra(2),
    ],
)
def test_group_indexing_and_slicing_match_the_listed_group(make):
    a = make()
    group = enumerate_automorphisms(a)
    listed = _listed_group(a)
    assert len(group) == len(listed) == len(group.payloads)
    assert [repr(f.payload) for f in group] == [repr(f.payload) for f in listed]
    for i in (0, 1, len(group) - 1, -1, -len(group), np.int64(1), np.intp(-2)):
        assert group[i] == listed[i]
        assert repr(group[i].payload) == repr(listed[i].payload)
    for sl in (slice(None, None, 3), slice(1, -1), slice(None, None, -5), slice(len(group), None)):
        part = group[sl]
        assert tuple(part) == listed[sl] and len(part) == len(listed[sl])
        assert not part.payloads.flags.writeable
    assert group.index(listed[1]) == 1 and listed[-1] in group
    with pytest.raises(IndexError):
        group[len(group)]
    with pytest.raises(TypeError):
        group[1.0]


def test_budget_checked_on_every_call_at_the_candidate_space():
    rsz = make_rsz_algebra(2, 3)
    group = enumerate_automorphisms(rsz)
    with pytest.raises(BudgetExceeded, match=r"^GL\(2,3\) candidate space 81 exceeds budget 80$"):
        enumerate_automorphisms(rsz, budget=80)
    # a refused call leaves the cached array as it was
    assert enumerate_automorphisms(rsz, budget=81).payloads is group.payloads
    sd = make_semidihedral_algebra(2)
    assert len(enumerate_automorphisms(sd, budget=2**12)) == 64
    with pytest.raises(
        BudgetExceeded, match="^table automorphism candidate space 4096 exceeds budget 4095$"
    ):
        enumerate_automorphisms(sd, budget=4095)
    # the generator-free algebra of the zero subalgebra has no candidate space
    zero = enumerate_proper_subalgebras(rsz, "all")[0].as_algebra
    assert len(enumerate_automorphisms(zero, budget=0)) == 1


@pytest.mark.parametrize(
    "make, budget, space",
    [
        (lambda: make_free_univariate(65537), DEFAULT_BUDGET, 65537 * 65536),
        (lambda: make_free_univariate(2**31 - 1), DEFAULT_BUDGET, (2**31 - 1) * (2**31 - 2)),
        (lambda: make_dihedral_algebra(1, 1, 1, 65537), 2 * 65536 - 1, 2 * 65536),
        (lambda: make_dihedral_algebra(1, 1, 0, 2**31 - 1), DEFAULT_BUDGET, 2 * (2**31 - 2)),
    ],
)
def test_free_and_dihedral_budget_refused_before_any_build(make, budget, space):
    a = make()
    misses = enumerate_automorphisms.cache_info().misses
    with pytest.raises(BudgetExceeded, match=f"candidate space {space} exceeds budget {budget}$"):
        enumerate_automorphisms(a, budget)
    assert enumerate_automorphisms.cache_info().misses == misses


def test_semidihedral_automorphism_shape_and_count():
    """Cross-check the brute-force search against the solved parametrization:
    f(x) = a1 x + a3(xy - yx) + a5 xyx + a6 yxy, f(y) = a1^2 y + c3(xy - yx)
    + c5 xyx + c6 yxy, with a1 != 0."""
    for p in (2, 3):
        a = make_semidihedral_algebra(p)
        found = {f.payload for f in enumerate_automorphisms(a, budget=2**21)}
        expected = set()
        for a1 in range(1, p):
            for a3, a5, a6, c3, c5, c6 in itertools.product(range(p), repeat=6):
                xv = (0, a1, 0, a3, (-a3) % p, a5, a6)
                yv = (0, 0, (a1 * a1) % p, c3, (-c3) % p, c5, c6)
                expected.add((xv, yv))
        assert found == expected
        assert len(found) == (p - 1) * p**6


def _table_group_one_candidate_at_a_time(a):
    """The table group as a loop over single candidates in itertools.product
    order: einsum products word by word, a relation check, then the rank of
    the induced basis map."""
    p, d, n_gens, n_rad = a.p, len(a.basis_labels), len(a.generators), len(a.radical_basis)
    unit = np.zeros(d, dtype=np.int64)
    unit[a.unit_index] = 1

    def value(word, gens):
        out = unit
        for letter in word:
            out = np.einsum("i,j,ijk->k", out, gens[letter], a.table) % p
        return out

    group = []
    for coeffs in itertools.product(range(p), repeat=n_gens * n_rad):
        gens = np.zeros((n_gens, d), dtype=np.int64)
        gens[:, list(a.radical_basis)] = np.reshape(coeffs, (n_gens, n_rad))
        if any(
            (sum(c * value(w, gens) for c, w in rel.terms) % p).any() for rel in a.relations
        ):
            continue
        induced = np.stack([value(w, gens) for w in a.basis_words], axis=1)
        if Mat(p, induced).rank() == d:
            group.append((tuple(map(tuple, gens.tolist())), induced.tolist()))
    return group


def test_table_group_matches_one_candidate_at_a_time():
    a = make_semidihedral_algebra(2)
    found = [
        (f.payload, _induced(a, np.array(f.payload)).tolist()) for f in enumerate_automorphisms(a)
    ]
    assert found == _table_group_one_candidate_at_a_time(a)


def test_semidihedral_automorphisms_fix_unit_and_radical():
    a = make_semidihedral_algebra(2)
    for f in enumerate_automorphisms(a):
        ind = _induced(a, np.array(f.payload))
        assert ind[:, a.unit_index].tolist() == [1, 0, 0, 0, 0, 0, 0]
        for j in a.radical_basis:
            assert ind[a.unit_index, j] == 0


def test_group_closure_at_p2():
    for alg in (
        make_rsz_algebra(2, 2),
        make_free_univariate(2),
        make_dihedral_algebra(1, 1, 1, 2),
        make_semidihedral_algebra(2),
    ):
        autos = enumerate_automorphisms(alg)
        payloads = {f.payload for f in autos}
        for f, g in itertools.product(autos, repeat=2):
            assert compose(f, g).payload in payloads
            assert inverse(f).payload in payloads


def test_compose_and_inverse_for_rsz():
    alg = make_rsz_algebra(3, 2)
    autos = enumerate_automorphisms(alg)
    ident = identity_automorphism(alg)
    for f in autos[:20]:
        assert compose(f, inverse(f)).payload == ident.payload
        assert compose(inverse(f), f).payload == ident.payload


def test_free_compose_inverse():
    alg = make_free_univariate(5)
    for f in enumerate_automorphisms(alg):
        assert compose(f, inverse(f)).payload == (1, 0)


def test_table_automorphism_rejects_relation_breakers():
    a = make_semidihedral_algebra(2)
    # image with a y-coefficient in f(x) cannot satisfy x^2 = 0
    xv = np.zeros(7, dtype=np.int64)
    xv[1] = 1
    xv[2] = 1
    yv = np.zeros(7, dtype=np.int64)
    yv[2] = 1
    # the enumeration filter keeps the identity images and drops the breaker
    identity = np.eye(7, dtype=np.int64)[[1, 2]]
    found = _table_automorphisms(a, np.stack([np.stack([xv, yv]), identity], axis=1))
    assert found.tolist() == [identity.tolist()]


# -- compose, inverse and identity against the per-kind formulas --------------


def _reference_compose(f, g):
    """The payload of compose(f, g) by the per-kind formulas, or None where a
    dihedral composite leaves the implemented families."""
    a = f.algebra
    p = a.p
    if a.kind == RSZ:
        return tuple(map(tuple, _mul_arrays(g.coefficients, f.coefficients, p).tolist()))
    if a.kind == FREE_UNIVARIATE:
        (af, bf), (ag, bg) = f.payload, g.payload
        return (af * ag % p, (ag * bf + bg) % p)
    if a.kind == DIHEDRAL:
        (sf, af), (sg, ag) = f.payload, g.payload
        if not sg:
            return (sf, af * ag % p)
        return (not sf, ag) if af % p == 1 else None
    # g's image of a generator combines basis words; f sends word j to column j
    induced = _induced(a, np.array(f.payload))
    return tuple(map(tuple, _mul_arrays(g.coefficients, induced.T, p).tolist()))


def _table_generator_columns(a):
    return [a.basis_words.index((i,)) for i in range(a.num_generators)]


def _reference_inverse(f):
    """The payload of inverse(f) by the per-kind formulas, or None where a
    dihedral inverse leaves the implemented families."""
    a = f.algebra
    p = a.p
    if a.kind == RSZ:
        return tuple(map(tuple, Mat(p, f.coefficients).inverse().to_lists()))
    if a.kind == FREE_UNIVARIATE:
        coeff, shift = f.payload
        ci = inv_mod(coeff, p)
        return (ci, -ci * shift % p)
    if a.kind == DIHEDRAL:
        swap, scale = f.payload
        if not swap:
            return (False, inv_mod(scale, p))
        return f.payload if scale % p == 1 else None
    induced = Mat(p, _induced(a, np.array(f.payload)))
    gens = induced.inverse().a[:, _table_generator_columns(a)].T
    return tuple(map(tuple, gens.tolist()))


def _reference_identity(a):
    if a.kind == RSZ:
        return tuple(map(tuple, np.eye(a.num_generators, dtype=int).tolist()))
    if a.kind == FREE_UNIVARIATE:
        return (1, 0)
    if a.kind == DIHEDRAL:
        return (False, 1)
    eye = np.eye(len(a.basis_labels), dtype=int)
    return tuple(map(tuple, eye[_table_generator_columns(a)].tolist()))


def _payload_or_none(op, *autos):
    try:
        return op(*autos).payload
    except UnsupportedAlgebraKind:
        return None


SUBSTITUTION_CASES = (
    (lambda p: make_rsz_algebra(2, p), 2),
    (lambda p: make_rsz_algebra(2, p), 3),
    (lambda p: make_rsz_algebra(3, p), 2),
    (lambda p: make_rsz_algebra(3, p), 3),
    # the algebra of the W = 0 subalgebra, on no generators
    (lambda p: enumerate_proper_subalgebras(make_rsz_algebra(2, p))[0].as_algebra, 3),
    (make_free_univariate, 2),
    (make_free_univariate, 5),
    (lambda p: make_dihedral_algebra(1, 1, 1, p), 2),
    (lambda p: make_dihedral_algebra(1, 1, 1, p), 3),
    (make_semidihedral_algebra, 2),
    (make_semidihedral_algebra, 3),
)


@pytest.mark.parametrize(
    "make,p",
    SUBSTITUTION_CASES,
    ids=["rsz2-2", "rsz2-3", "rsz3-2", "rsz3-3", "rsz0-3", "free-2", "free-5", "dih-2", "dih-3",
         "semidih-2", "semidih-3"],
)
def test_substitution_rule_matches_the_per_kind_formulas(make, p):
    a = make(p)
    autos = enumerate_automorphisms(a)
    n = len(autos)
    if p == 2 or n * n <= 500:
        pairs = list(itertools.product(range(n), repeat=2))
    else:
        draw = random.Random(0)
        pairs = [(draw.randrange(n), draw.randrange(n)) for _ in range(500)]
    assert identity_automorphism(a).payload == _reference_identity(a)
    for i, j in pairs:
        f, g = autos[i], autos[j]
        assert _payload_or_none(compose, f, g) == _reference_compose(f, g)
    for i in sorted({i for pair in pairs for i in pair}):
        assert _payload_or_none(inverse, autos[i]) == _reference_inverse(autos[i])


def test_dihedral_results_outside_the_families_are_refused():
    a = make_dihedral_algebra(1, 1, 1, 3)
    scale2, swap2 = Automorphism(a, (False, 2)), Automorphism(a, (True, 2))
    swap1 = Automorphism(a, (True, 1))
    leaves = " leaves the implemented dihedral automorphism families$"
    with pytest.raises(UnsupportedAlgebraKind, match="^composite" + leaves):
        compose(scale2, swap1)
    with pytest.raises(UnsupportedAlgebraKind, match="^inverse" + leaves):
        inverse(swap2)
