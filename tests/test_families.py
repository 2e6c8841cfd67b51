import itertools

import pytest

from modequiv.algebra import make_dihedral_algebra
from modequiv.errors import (
    ParameterOutOfDomain,
    RelationViolated,
    UnknownFixture,
)
from modequiv.families import (
    FIXTURE_NAMES,
    INFINITY,
    b_blowup,
    band_module,
    c2,
    c3,
    fixture,
    jordan,
    jordan_block,
    k_module,
)
from modequiv.linalg import Mat
from modequiv.modrep import is_isomorphic, socle_dim


def test_jordan_convention_lower():
    assert jordan(0, 1, 2).action[0] == Mat.zeros(1, 1, 2)
    assert jordan(1, 2, 3).action[0] == Mat(3, [[1, 0], [1, 1]])


def test_jordan_block_rejects_empty():
    with pytest.raises(ParameterOutOfDomain):
        jordan_block(0, 0, 2)


def test_k_module_endpoints():
    m0 = k_module(0, 1, 2)
    assert m0.action == (Mat.basis(2, 2, 1, 2), Mat.zeros(2, 2, 2))
    minf = k_module(INFINITY, 1, 2)
    assert minf.action == (Mat.zeros(2, 2, 2), Mat.basis(2, 2, 1, 2))


def test_k_module_block_layout():
    m = k_module(1, 2, 3)
    assert m.dim == 4
    x, y = m.action
    assert (x @ y).is_zero() and (y @ x).is_zero()
    assert x.a[2, 0] == 1 and x.a[3, 1] == 1
    assert y.a[2, 0] == 1 and y.a[3, 0] == 1 and y.a[3, 1] == 1


def test_family_members_validate_across_fields():
    for p in (2, 3, 5):
        for lam in range(p):
            for n in (1, 2):
                assert jordan(lam, n, p).dim == n
                assert k_module(lam, n, p).dim == 2 * n
        assert k_module(INFINITY, 2, p).dim == 4
        for lam in range(1, p):
            assert band_module(lam, p).dim == 4
        for params in itertools.product(range(1, p), repeat=2):
            assert c2(*params, p).dim == 2
        for params in itertools.product(range(1, p), repeat=3):
            assert c3(*params, p).dim == 5


def test_c_family_domain_errors():
    with pytest.raises(ParameterOutOfDomain):
        c2(0, 1, 3)
    with pytest.raises(ParameterOutOfDomain):
        c2(1, 3, 3)  # 3 = 0 mod 3
    with pytest.raises(ParameterOutOfDomain):
        c3(1, 1, 0, 3)
    with pytest.raises(ParameterOutOfDomain):
        band_module(0, 5)


def test_c2_members_indecomposable():
    from modequiv.modrep import is_indecomposable

    for params in itertools.product((1, 2), repeat=2):
        assert is_indecomposable(c2(*params, 3)).verdict.is_yes


def test_c_family_distinct_parameters_non_isomorphic():
    pairs = list(itertools.product((1, 2), repeat=2))
    mods = {pq: c2(*pq, 3) for pq in pairs}
    for a, b in itertools.combinations(pairs, 2):
        assert is_isomorphic(mods[a], mods[b]).verdict.is_no
    triples = list(itertools.product((1, 2), repeat=3))
    cmods = {t: c3(*t, 3) for t in triples}
    for a, b in itertools.combinations(triples, 2):
        assert is_isomorphic(cmods[a], cmods[b]).verdict.is_no


def test_band_modules_differ_across_parameters():
    for p in (3, 5):
        for l1, l2 in itertools.combinations(range(1, p), 2):
            assert is_isomorphic(band_module(l1, p), band_module(l2, p)).verdict.is_no


def test_blowup_single_copy_is_identity():
    m = band_module(1, 5)
    alg = m.algebra
    out = b_blowup(m.action[0], m.action[1], 1, alg)
    assert out.action == m.action


def test_blowup_m2_violates_square_relation():
    m = band_module(1, 5)
    with pytest.raises(RelationViolated):
        b_blowup(m.action[0], m.action[1], 2, m.algebra)


def test_blowup_block_shape_on_valid_input():
    # by with zero last row and column anticommutes with the corner glue, so
    # the m=2 blow-up passes the relations and exposes the block layout
    alg = make_dihedral_algebra(1, 1, 1, 3)
    bx = Mat.basis(2, 2, 1, 3)
    by = Mat.zeros(2, 2, 3)
    out = b_blowup(bx, by, 2, alg)
    assert out.dim == 4
    x, y = out.action
    assert x == Mat.block_diag([bx, bx])
    assert y.a[3, 1] == 1  # corner glue e_nn of the subdiagonal block
    assert y.a[2, 0] == 0 and y.a[2, 1] == 0


def test_blowup_rejects_m3_idempotent_glue():
    # the sub-subdiagonal of Y^2 is e_nn * e_nn = e_nn, so m >= 3 cannot
    # satisfy Y^2 = 0 regardless of the band pair
    alg = make_dihedral_algebra(1, 1, 1, 3)
    with pytest.raises(RelationViolated):
        b_blowup(Mat.basis(2, 2, 1, 3), Mat.zeros(2, 2, 3), 3, alg)


def test_blowup_rejects_bad_multiplicity():
    m = band_module(1, 5)
    with pytest.raises(ParameterOutOfDomain):
        b_blowup(m.action[0], m.action[1], 0, m.algebra)


def test_fixture_names_and_unknown():
    assert set(FIXTURE_NAMES) == {
        "tame3",
        "wild6",
        "rdec4",
        "rdist4",
        "rnott6",
        "semidih2",
        "band4",
    }
    with pytest.raises(UnknownFixture):
        fixture("nope", 2)


def test_fixture_matrices_as_printed():
    _, (m1, m2) = fixture("wild6", 2)
    x = Mat.basis(6, 4, 1, 2) + Mat.basis(6, 5, 2, 2) + Mat.basis(6, 6, 3, 2)
    y = Mat.basis(6, 4, 2, 2)
    z = Mat.basis(6, 5, 3, 2)
    assert m1.action == (x, y, z)
    assert m2.action == (x, z, y)

    _, (r1, r2) = fixture("rnott6", 2)
    assert r1.action[0] == Mat.basis(6, 5, 1, 2) + Mat.basis(6, 4, 2, 2)
    assert r1.action[1] == Mat.basis(6, 6, 1, 2) + Mat.basis(6, 5, 3, 2)
    assert r1.action[2] == (
        Mat.basis(6, 5, 2, 2) + Mat.basis(6, 4, 3, 2) + Mat.basis(6, 6, 3, 2)
    )
    assert r2.action[2] == (
        Mat.basis(6, 4, 1, 2) + Mat.basis(6, 6, 2, 2) + Mat.basis(6, 6, 3, 2)
    )
    assert (r1.action[0], r1.action[1]) == (r2.action[0], r2.action[1])


def test_tame_fixture_certificates():
    from modequiv.modrep import is_indecomposable

    for p in (2, 3, 5):
        _, (m1, m2) = fixture("tame3", p)
        assert (m1.dim, m2.dim) == (3, 3)
        assert (socle_dim(m1), socle_dim(m2)) == (1, 2)
        assert is_indecomposable(m1).verdict.is_yes
        assert is_indecomposable(m2).verdict.is_yes


def test_semidih_fixture_pair():
    _, (m1, m2) = fixture("semidih2", 2)
    assert m1.action == (Mat.basis(2, 2, 1, 2), Mat.zeros(2, 2, 2))
    assert m2.action == (Mat.zeros(2, 2, 2), Mat.basis(2, 2, 1, 2))


def test_band_twist_scaling_law():
    from modequiv.algebra import enumerate_automorphisms
    from modequiv.modrep import twist

    p = 5
    autos = {f.payload: f for f in enumerate_automorphisms(make_dihedral_algebra(1, 1, 1, p))}
    for lam in range(1, p):
        for a in range(1, p):
            f = autos[(False, a)]
            lhs = twist(band_module(lam, p), f)
            rhs = band_module((a * a * lam) % p, p)
            assert is_isomorphic(lhs, rhs).verdict.is_yes

