"""The module layer against a per-generator Mat reference.

Modules hold their action as one (g, n, n) array and Hom bases as one
(k, n2, n1) array, and every operation below is a broadcast over that
stack.  The references here compute the same results one generator and one
Mat at a time, as the module layer did when a module was a tuple of Mat; the
array path must give equal action tuples, Hom bases and dimensions, on every
fixture and family module at p = 2 and 3 and on their generator-free
restrictions to W = 0.  The last tests pin the error classes of bad input,
which the array path checks itself instead of leaving them to Mat.
"""

import itertools

import numpy as np
import pytest

from modequiv.algebra import (
    DIHEDRAL,
    RSZ,
    TABLE,
    Automorphism,
    NcPoly,
    _coefficient_rows,
    enumerate_automorphisms,
    enumerate_proper_subalgebras,
    evaluate_poly,
    image_words,
    make_dihedral_algebra,
    make_rsz_algebra,
    make_semidihedral_algebra,
    word_values,
)
from modequiv.equiv import verify_twisted_witness
from modequiv.errors import DimensionMismatch, ModulusMismatch, RelationViolated
from modequiv.families import (
    FIXTURE_NAMES,
    INFINITY,
    band_module,
    c2,
    c3,
    fixture,
    jordan,
    k_module,
)
from modequiv.linalg import Mat, _nullspace, rand_invertible
from modequiv.modrep import (
    _twist_arrays,
    conjugate,
    direct_sum,
    hom_space,
    module_validate,
    restrict,
    socle_dim,
    twist,
)

# -- per-generator references ---------------------------------------------------


def _ref_poly(poly, mats, n, p):
    out = Mat.zeros(n, n, p)
    values = word_values([w for _, w in poly.terms], mats, Mat.identity(n, p), Mat.__matmul__)
    for c, w in poly.terms:
        out = out + c * values[w]
    return out


def _ref_direct_sum(m1, m2):
    return tuple(Mat.block_diag([a, b]) for a, b in zip(m1.action, m2.action)), m1.dim + m2.dim


def _ref_conjugate(m, pm):
    pinv = pm.inverse()
    return tuple(pm @ a @ pinv for a in m.action)


def _ref_restrict(m, s):
    p = m.algebra.p
    action = []
    for row in s.w_basis.a:
        acc = Mat.zeros(m.dim, m.dim, p)
        for c, a in zip(row, m.action):
            acc = acc + int(c) * a
        action.append(acc)
    return tuple(action)


def _ref_twist(m, f):
    a, n, p = m.algebra, m.dim, m.algebra.p
    words = image_words(a)
    values = word_values(words, m.action, Mat.identity(n, p), Mat.__matmul__)
    action = []
    for row in f.coefficients:
        acc = Mat.zeros(n, n, p)
        for c, w in zip(row, words):
            acc = acc + int(c) * values[w]
        action.append(acc)
    for rel in a.relations:
        if not _ref_poly(rel, action, n, p).is_zero():
            raise RelationViolated(f"relation {rel!r} does not vanish")
    return tuple(action)


def _ref_socle_dim(m):
    if not m.action:
        return m.dim
    return m.dim - Mat(m.algebra.p, np.concatenate([a.a for a in m.action])).rank()


def _ref_hom_basis(m1, m2):
    p, n1, n2 = m1.algebra.p, m1.dim, m2.dim
    if n1 == 0 or n2 == 0:
        return []
    eye1, eye2 = np.eye(n1, dtype=np.int64), np.eye(n2, dtype=np.int64)
    blocks = [np.zeros((0, n2 * n1), dtype=np.int64)]
    for a, b in zip(m1.action, m2.action):
        blocks.append((np.kron(b.a, eye1) - np.kron(eye2, a.a.T)) % p)
    return [Mat(p, v.reshape(n2, n1)) for v in _nullspace(np.concatenate(blocks), p)]


# -- the modules ---------------------------------------------------------------------


def _family_modules(p):
    mods = [m for name in FIXTURE_NAMES for m in fixture(name, p)[1]]
    mods += [jordan(lam, n, p) for lam in range(p) for n in (1, 2, 3)]
    mods += [k_module(lam, n, p) for lam in (*range(p), INFINITY) for n in (1, 2)]
    mods += [band_module(lam, p) for lam in range(1, p)]
    units = range(1, p)
    mods += [c2(a, b, p) for a, b in itertools.product(units, repeat=2)]
    mods += [c3(a, b, c, p) for a, b, c in itertools.product(units, repeat=3)]
    return mods


def _generator_free(mods):
    """The restrictions of the rsz modules to W = 0."""
    out = []
    for m in mods:
        if m.algebra.kind == RSZ:
            zero = enumerate_proper_subalgebras(m.algebra, "all")[0]
            assert zero.dim_w == 0
            out.append(restrict(m, zero))
    return out


def _by_algebra(mods):
    groups = {}
    for m in mods:
        groups.setdefault(m.algebra, []).append(m)
    return groups


def _sample(group, rng, k=6):
    """The indices of the first and last automorphisms and of k more drawn
    from the seed."""
    picks = {0, len(group) - 1, *(int(i) for i in rng.integers(0, len(group), size=k))}
    return sorted(picks)


def _assert_module(got, want_action, want_dim):
    assert got.dim == want_dim
    assert got.actions.shape == (len(want_action), want_dim, want_dim)
    assert got.action == want_action


@pytest.mark.parametrize("p", [2, 3])
def test_array_layer_matches_the_mat_reference(p):
    rng = np.random.default_rng(p)
    mods = _family_modules(p)
    free = _generator_free(mods)
    for m in mods + free:
        pm = rand_invertible(m.dim, p, rng)
        _assert_module(conjugate(m, pm), _ref_conjugate(m, pm), m.dim)
        if m.algebra.kind in (RSZ, TABLE, DIHEDRAL):
            assert socle_dim(m) == _ref_socle_dim(m)
        # the batched twist rule: m by the whole group, and a stack of
        # modules each by its own rows, against one twist at a time
        autos = enumerate_automorphisms(m.algebra)
        rows = _coefficient_rows(m.algebra, autos.payloads)
        whole = _twist_arrays(m.algebra, m.actions, rows)
        picks = _sample(autos, rng)
        for i in picks:
            tw = twist(m, autos[i])
            _assert_module(tw, _ref_twist(m, autos[i]), m.dim)
            assert np.array_equal(whole[i], tw.actions)
        pairwise = _twist_arrays(m.algebra, whole[picks], rows[picks[::-1]])
        for k, (i, j) in enumerate(zip(picks, picks[::-1])):
            assert np.array_equal(pairwise[k], twist(twist(m, autos[i]), autos[j]).actions)
        if m.algebra.kind == RSZ and m.algebra.num_generators:
            for s in enumerate_proper_subalgebras(m.algebra, "all"):
                _assert_module(restrict(m, s), _ref_restrict(m, s), m.dim)
        for rel in m.algebra.relations:
            assert evaluate_poly(rel, m.action) == _ref_poly(rel, m.action, m.dim, p)
    for group in _by_algebra(mods + free).values():
        for m1, m2 in itertools.product(group, repeat=2):
            _assert_module(direct_sum(m1, m2), *_ref_direct_sum(m1, m2))
            hom = hom_space(m1, m2)
            assert hom.basis.shape == (hom.dim, m2.dim, m1.dim)
            assert [Mat(p, b) for b in hom.basis] == _ref_hom_basis(m1, m2)


@pytest.mark.parametrize("p", [2, 5, 2147483647])
def test_evaluate_poly_matches_the_mat_reference(p):
    # the relations vanish on every module above; random words on random
    # matrices also see the order of each product
    rng = np.random.default_rng(p % 97)
    mats = [Mat(p, rng.integers(0, p, (3, 3))) for _ in range(3)]
    words = [w for k in range(4) for w in itertools.product(range(3), repeat=k)]
    for _ in range(20):
        picks = rng.choice(len(words), size=4, replace=False)
        poly = NcPoly(p, [(int(rng.integers(1, p)), words[i]) for i in picks])
        assert evaluate_poly(poly, mats) == _ref_poly(poly, mats, 3, p)


def test_relations_are_checked_on_the_twisted_array():
    # x -> x + y breaks x^2 = 0 on the left regular module of the semidihedral
    # algebra, in the reference and in the array path alike
    for p in (2, 3):
        sd = make_semidihedral_algebra(p)
        regular = module_validate(
            sd, [Mat(p, sd.table[sd.basis_words.index((i,))].T) for i in range(sd.num_generators)]
        )
        bad = Automorphism(sd, ((0, 1, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0)))
        with pytest.raises(RelationViolated):
            _ref_twist(regular, bad)
        with pytest.raises(RelationViolated):
            twist(regular, bad)
        # the regular module tells every basis word of a twist's rows apart, and
        # at p = 3 the sign of f(x)'s xy - yx part; in a batch the bad rows come
        # last, after rows that all pass
        autos = enumerate_automorphisms(sd)
        rows = _coefficient_rows(sd, autos.payloads)
        with_bad = np.concatenate([rows, bad.coefficients[None]])
        whole = _twist_arrays(sd, regular.actions, rows)
        for i in _sample(autos, np.random.default_rng(0)):
            assert tuple(Mat(p, x) for x in whole[i]) == _ref_twist(regular, autos[i])
        with pytest.raises(RelationViolated):
            _twist_arrays(sd, regular.actions, with_bad)
        _twist_arrays(sd, whole, rows[::-1])
        with pytest.raises(RelationViolated):
            _twist_arrays(sd, np.concatenate([whole, regular.actions[None]]), with_bad)


# -- error classes of bad input ---------------------------------------------------


def test_bad_action_matrices_raise_dimension_or_modulus_mismatch():
    alg = make_rsz_algebra(2, 3)
    with pytest.raises(DimensionMismatch):
        module_validate(alg, [Mat.zeros(2, 2, 3), Mat.zeros(3, 3, 3)])
    with pytest.raises(DimensionMismatch):
        module_validate(alg, [Mat.zeros(2, 3, 3), Mat.zeros(2, 3, 3)])
    with pytest.raises(DimensionMismatch):
        module_validate(alg, [Mat.zeros(2, 2, 3)])
    with pytest.raises(ModulusMismatch):
        module_validate(alg, [Mat.zeros(2, 2, 5), Mat.zeros(2, 2, 5)])


def test_bad_base_change_raises_dimension_or_modulus_mismatch():
    m = fixture("tame3", 3)[1][0]
    with pytest.raises(DimensionMismatch):
        conjugate(m, Mat.identity(2, 3))
    with pytest.raises(ModulusMismatch):
        conjugate(m, Mat.identity(3, 5))


def test_bad_twisted_witness_raises_dimension_or_modulus_mismatch():
    alg, (m1, m2) = fixture("tame3", 3)
    f = enumerate_automorphisms(alg)[0]
    with pytest.raises(DimensionMismatch):
        verify_twisted_witness(m1, m2, f, Mat.identity(2, 3))
    with pytest.raises(ModulusMismatch):
        verify_twisted_witness(m1, m2, f, Mat.identity(3, 5))


@pytest.mark.parametrize(
    "alg",
    [make_rsz_algebra(2, 3), make_dihedral_algebra(1, 1, 1, 3), make_semidihedral_algebra(3)],
    ids=["rsz", "dihedral", "table"],
)
def test_broken_relation_raises_relation_violated(alg):
    # the first generator acting invertibly breaks X^2 = 0 in each kind
    action = [Mat.identity(2, 3)] + [Mat.zeros(2, 2, 3)] * (alg.num_generators - 1)
    with pytest.raises(RelationViolated):
        module_validate(alg, action)
