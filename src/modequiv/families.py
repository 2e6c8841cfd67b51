"""Parametric module families and named fixture modules.

The one-parameter families: Jordan blocks J(lambda, n) over k[X], the
two-generator family K(lambda, n) with lambda in F_p plus a point at
infinity, band modules over dihedral-type algebras with their m-fold
blow-up, and the C-families over the three-generator wild algebra.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    Algebra,
    make_dihedral_algebra,
    make_free_univariate,
    make_rsz_algebra,
    make_semidihedral_algebra,
)
from .errors import ParameterOutOfDomain, UnknownFixture
from .linalg import Mat
from .modrep import Module, module_validate


class _Infinity:
    """The extra parameter point for the K family."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INFINITY = _Infinity()


def jordan_block(lam: int, n: int, p: int) -> Mat:
    """n x n block with lam on the diagonal and ones on the subdiagonal.

    The lower convention is fixed project-wide; every claim about the family
    is invariant under conjugation, so the choice is free.
    """
    if n < 1:
        raise ParameterOutOfDomain(f"block size must be >= 1, got {n}")
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        a[i, i] = lam % p
        if i + 1 < n:
            a[i + 1, i] = 1
    return Mat(p, a)


def jordan(lam: int, n: int, p: int) -> Module:
    """The k[X]-module where X acts by a single Jordan block."""
    alg = make_free_univariate(p)
    return module_validate(alg, [jordan_block(lam, n, p)], name=f"J({lam},{n})")


def k_module(lam, n: int, p: int) -> Module:
    """Dimension-2n module over the two-generator square-zero algebra.

    Finite lam: X acts by the identity block in the lower-left quadrant and
    Y by J(lam, n) there.  lam = INFINITY: X acts by J(0, n), Y by the
    identity block.
    """
    if n < 1:
        raise ParameterOutOfDomain(f"block size must be >= 1, got {n}")
    alg = make_rsz_algebra(2, p)
    zero = np.zeros((n, n), dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    if lam is INFINITY:
        xblk, yblk = jordan_block(0, n, p).a, eye
    else:
        xblk, yblk = eye, jordan_block(int(lam), n, p).a
    x = Mat(p, np.block([[zero, zero], [xblk, zero]]))
    y = Mat(p, np.block([[zero, zero], [yblk, zero]]))
    return module_validate(alg, [x, y], name=f"K({lam},{n})")


def b_blowup(bx: Mat, by: Mat, m: int, algebra: Algebra) -> Module:
    """m-fold blow-up of a band pair: X becomes m diagonal copies of bx,
    Y becomes block lower-bidiagonal with by on the diagonal and the corner
    unit e_nn as glue below it.

    The glued matrices need not satisfy the relations for every input; the
    output is re-validated and RelationViolated is raised instead of
    emitting an invalid module.
    """
    if m < 1:
        raise ParameterOutOfDomain(f"multiplicity must be >= 1, got {m}")
    base = module_validate(algebra, [bx, by])
    if m == 1:
        return base
    n = bx.rows
    p = bx.p
    x = Mat.block_diag([bx] * m)
    ya = np.zeros((n * m, n * m), dtype=np.int64)
    glue = Mat.basis(n, n, n, p).a
    for i in range(m):
        ya[i * n : (i + 1) * n, i * n : (i + 1) * n] = by.a
        if i > 0:
            ya[i * n : (i + 1) * n, (i - 1) * n : i * n] = glue
    return module_validate(algebra, [x, Mat(p, ya)], name=f"blowup(m={m})")


def band_module(lam: int, p: int) -> Module:
    """The validated dimension-4 band fixture over the dihedral algebra with
    k = 1, eps = (1, 1): X = e21 + e43, Y = e23 + lam*e41."""
    if lam % p == 0:
        raise ParameterOutOfDomain("band parameter must be nonzero")
    alg = make_dihedral_algebra(1, 1, 1, p)
    bx = Mat.basis(4, 2, 1, p) + Mat.basis(4, 4, 3, p)
    by = Mat.basis(4, 2, 3, p) + Mat.basis(4, 4, 1, p, value=lam)
    return module_validate(alg, [bx, by], name=f"B({lam})")


def c2(alpha: int, beta: int, p: int) -> Module:
    """Dimension-2 member of the two-parameter family over rsz(3)."""
    if alpha % p == 0 or beta % p == 0:
        raise ParameterOutOfDomain("c2 parameters must be nonzero")
    alg = make_rsz_algebra(3, p)
    x = Mat.basis(2, 2, 1, p)
    y = Mat.basis(2, 2, 1, p, value=alpha)
    z = Mat.basis(2, 2, 1, p, value=beta)
    return module_validate(alg, [x, y, z], name=f"C({alpha},{beta})")


def c3(alpha: int, beta: int, gamma: int, p: int) -> Module:
    """Dimension-5 member of the three-parameter family over rsz(3)."""
    if alpha % p == 0 or beta % p == 0 or gamma % p == 0:
        raise ParameterOutOfDomain("c3 parameters must be nonzero")
    alg = make_rsz_algebra(3, p)
    x = Mat.basis(5, 4, 1, p) + Mat.basis(5, 3, 2, p)
    y = Mat.basis(5, 5, 1, p) + Mat.basis(5, 4, 2, p)
    z = (
        Mat.basis(5, 3, 2, p, value=alpha)
        + Mat.basis(5, 4, 1, p, value=beta)
        + Mat.basis(5, 5, 1, p, value=gamma)
        + Mat.basis(5, 4, 2, p, value=gamma)
    )
    return module_validate(alg, [x, y, z], name=f"C({alpha},{beta},{gamma})")


def _e(n, i, j, p, v=1):
    return Mat.basis(n, i, j, p, value=v)


def _fixture_tame3(p):
    alg = make_rsz_algebra(2, p)
    m1 = module_validate(alg, [_e(3, 3, 1, p), _e(3, 3, 2, p)], name="M1")
    m2 = module_validate(alg, [_e(3, 2, 1, p), _e(3, 3, 1, p)], name="M2")
    return alg, [m1, m2]


def _fixture_wild6(p):
    alg = make_rsz_algebra(3, p)
    x = _e(6, 4, 1, p) + _e(6, 5, 2, p) + _e(6, 6, 3, p)
    y = _e(6, 4, 2, p)
    z = _e(6, 5, 3, p)
    m1 = module_validate(alg, [x, y, z], name="M1")
    m2 = module_validate(alg, [x, z, y], name="M2")
    return alg, [m1, m2]


def _fixture_rdec4(p):
    alg = make_rsz_algebra(3, p)
    m = module_validate(
        alg,
        [_e(4, 3, 1, p), _e(4, 3, 2, p), _e(4, 3, 1, p) + _e(4, 4, 2, p)],
        name="M",
    )
    return alg, [m]


def _fixture_rdist4(p):
    alg = make_rsz_algebra(3, p)
    m1 = module_validate(
        alg,
        [Mat.zeros(4, 4, p), _e(4, 4, 1, p), _e(4, 3, 1, p) + _e(4, 4, 2, p)],
        name="M1",
    )
    m2 = module_validate(
        alg,
        [_e(4, 4, 1, p), _e(4, 3, 1, p) + _e(4, 4, 2, p), _e(4, 4, 2, p)],
        name="M2",
    )
    return alg, [m1, m2]


def _fixture_rnott6(p):
    alg = make_rsz_algebra(3, p)
    x = _e(6, 5, 1, p) + _e(6, 4, 2, p)
    y = _e(6, 6, 1, p) + _e(6, 5, 3, p)
    z1 = _e(6, 5, 2, p) + _e(6, 4, 3, p) + _e(6, 6, 3, p)
    z2 = _e(6, 4, 1, p) + _e(6, 6, 2, p) + _e(6, 6, 3, p)
    m1 = module_validate(alg, [x, y, z1], name="M1")
    m2 = module_validate(alg, [x, y, z2], name="M2")
    return alg, [m1, m2]


def _fixture_semidih2(p):
    alg = make_semidihedral_algebra(p)
    m1 = module_validate(alg, [_e(2, 2, 1, p), Mat.zeros(2, 2, p)], name="M1")
    m2 = module_validate(alg, [Mat.zeros(2, 2, p), _e(2, 2, 1, p)], name="M2")
    return alg, [m1, m2]


def _fixture_band4(p):
    m = band_module(1, p)
    return m.algebra, [m]


_FIXTURES = {
    "tame3": _fixture_tame3,
    "wild6": _fixture_wild6,
    "rdec4": _fixture_rdec4,
    "rdist4": _fixture_rdist4,
    "rnott6": _fixture_rnott6,
    "semidih2": _fixture_semidih2,
    "band4": _fixture_band4,
}

FIXTURE_NAMES = tuple(sorted(_FIXTURES))


def fixture(name: str, p: int) -> tuple[Algebra, list[Module]]:
    """A validated algebra plus its named fixture modules."""
    try:
        build = _FIXTURES[name]
    except KeyError:
        raise UnknownFixture(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        ) from None
    return build(p)
