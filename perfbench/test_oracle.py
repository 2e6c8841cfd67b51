"""The benchmark's oracle on hand-worked cases.

A wrong checker would pass every output, so the oracle is tested against
answers worked out by hand.  Run with `python3 perfbench/test_oracle.py`
(or pytest on this file).
"""

import itertools
import random

import oracle as orc
from workloads import subspaces


def test_ranks_of_known_matrices():
    assert orc.rank([[1, 2], [2, 4]], 5) == 1
    assert orc.rank([[1, 2], [3, 4]], 5) == 2  # det = -2, a unit mod 5
    assert orc.rank([[1, 2], [3, 4]], 2) == 1  # det = -2 = 0 mod 2
    assert orc.rank([[0, 0], [0, 0]], 3) == 0
    assert orc.rank(orc.identity(3), 7) == 3
    assert orc.rank([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2) == 2  # rows sum to 0 mod 2
    assert orc.rank([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 3) == 3


def test_kernel_and_inverse():
    assert orc.kernel([[1, 1]], 2, 2) == [[1, 1]]
    assert orc.kernel([[1, 2, 0]], 3, 3) == [[1, 1, 0], [0, 0, 1]]
    a = [[2, 1], [1, 1]]
    assert orc.mat_mul(a, orc.inverse(a, 5), 5) == orc.identity(2)
    assert orc.inverse(a, 5) == [[1, 4], [4, 2]]


def test_gl_order_by_counting():
    count = sum(
        orc.is_invertible([list(e[:2]), list(e[2:])], 3)
        for e in itertools.product(range(3), repeat=4)
    )
    assert count == orc.gl_order(2, 3) == 48
    assert orc.gl_order(3, 3) == 11232
    assert orc.gl_order(3, 2) == 168


def test_subalgebra_counts():
    assert orc.gaussian_binomial(3, 1, 2) == 7
    assert orc.gaussian_binomial(3, 2, 3) == 13
    assert orc.proper_subalgebra_count(3, 2, "all") == 1 + 7 + 7
    assert orc.proper_subalgebra_count(2, 3, "all") == 1 + 4
    assert subspaces(2, 1, 2) == [[[1, 0]], [[1, 1]], [[0, 1]]]
    assert len(subspaces(3, 2, 5)) == orc.gaussian_binomial(3, 2, 5) == 31


def test_conjugate_pair_is_isomorphic():
    p = 3
    a = [[[0, 0], [1, 0]]]
    pmat = [[1, 1], [0, 1]]
    b = orc.conjugate(a, pmat, p)
    assert b == [[[1, 2], [1, 2]]]  # P A P^-1 worked by hand
    assert orc.is_isomorphism(a, b, pmat, p)
    assert not orc.is_isomorphism(a, b, orc.identity(2), p)
    assert orc.dim_obstruction(a, b, p) is None
    x = orc.find_isomorphism(a, b, p, random.Random(0))
    assert x is not None and orc.is_isomorphism(a, b, x, p)


def test_non_isomorphic_pair_has_obstruction():
    p = 2
    nilpotent = [[[0, 0], [1, 0]]]
    zero = [[[0, 0], [0, 0]]]
    # End(nilpotent) = span(I, N) has dim 2, End(zero) is all of M_2
    assert orc.hom_dim(nilpotent, nilpotent, p) == 2
    assert orc.hom_dim(zero, zero, p) == 4
    assert orc.dim_obstruction(nilpotent, zero, p) is not None
    assert orc.find_isomorphism(nilpotent, zero, p, random.Random(0)) is None


def test_twist_and_idempotent():
    action = [[[1]], [[2]]]
    assert orc.twisted_action(action, [[0, 1], [1, 0]], 5) == [[[2]], [[1]]]
    assert orc.twisted_action(action, [[1, 1], [0, 1]], 5) == [[[3]], [[2]]]
    zero2 = [[[0, 0], [0, 0]]]
    assert orc.is_nontrivial_idempotent(zero2, [[1, 0], [0, 0]], 3)
    assert not orc.is_nontrivial_idempotent(zero2, orc.identity(2), 3)
    assert not orc.is_nontrivial_idempotent([[[0, 0], [1, 0]]], [[1, 0], [0, 0]], 3)


def test_square_classes():
    assert [a for a in range(1, 7) if orc.is_square(a, 7)] == [1, 2, 4]
    assert orc.is_square(1, 3) and not orc.is_square(2, 3)


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} oracle tests passed")
