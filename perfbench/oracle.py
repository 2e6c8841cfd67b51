"""Independent F_p oracle for checking modequiv's outputs.

Pure Python on lists of ints, sharing no code with the program: matrix
product, rank, kernel and inverse by plain Gauss-Jordan elimination, plus the
module-level checks built on them (intertwiner spaces, witness checks,
twisted actions) and the counting formulas the answers must agree with.
Matrices are lists of rows; a module is its list of action matrices.
"""

from __future__ import annotations

import random


def mat_mul(a, b, p):
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _rref(a, p):
    m = [[x % p for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a, p):
    return len(_rref(a, p)[1]) if a and a[0] else 0


def is_invertible(a, p):
    return len(a) == (len(a[0]) if a else 0) and rank(a, p) == len(a)


def kernel(a, cols, p):
    """Basis of {v in F_p^cols : a v = 0}."""
    if not a:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    red, pivots = _rref(a, p)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc] % p
        basis.append(v)
    return basis


def inverse(a, p):
    n = len(a)
    red, pivots = _rref([row + e for row, e in zip(a, identity(n))], p)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def random_invertible(n, p, rng: random.Random):
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if is_invertible(m, p):
            return m


def conjugate(action, pmat, p):
    """Each action matrix A becomes P A P^{-1}."""
    pinv = inverse(pmat, p)
    return [mat_mul(mat_mul(pmat, a, p), pinv, p) for a in action]


def direct_sum(act1, act2):
    n1, n2 = len(act1[0]), len(act2[0])
    return [
        [row + [0] * n2 for row in a] + [[0] * n1 + row for row in b]
        for a, b in zip(act1, act2)
    ]


def hom_basis(src, dst, p):
    """Intertwiners X (n2 x n1) with B_g X = X A_g for every generator g."""
    n1, n2 = len(src[0]), len(dst[0])
    system = []
    for a, b in zip(src, dst):
        for r in range(n2):
            for c in range(n1):
                row = [0] * (n2 * n1)
                for k in range(n2):
                    row[k * n1 + c] += b[r][k]
                for k in range(n1):
                    row[r * n1 + k] -= a[k][c]
                system.append([x % p for x in row])
    vecs = kernel(system, n1 * n2, p)
    return [[v[r * n1 : (r + 1) * n1] for r in range(n2)] for v in vecs]


def hom_dim(src, dst, p):
    return len(hom_basis(src, dst, p))


def intertwines(src, dst, x, p):
    return all(mat_mul(b, x, p) == mat_mul(x, a, p) for a, b in zip(src, dst))


def is_isomorphism(src, dst, x, p):
    return is_invertible(x, p) and intertwines(src, dst, x, p)


def dim_obstruction(m1, m2, p):
    """The four dimensions an isomorphism forces equal, or None when they agree.

    m1 ~ m2 implies dim Hom(m1, m2) = dim Hom(m2, m1) = dim End(m1) = dim End(m2).
    """
    dims = (
        hom_dim(m1, m2, p),
        hom_dim(m2, m1, p),
        hom_dim(m1, m1, p),
        hom_dim(m2, m2, p),
    )
    return None if len(set(dims)) == 1 else dims


def find_isomorphism(m1, m2, p, rng: random.Random, tries=200):
    """An invertible intertwiner found by random sampling of Hom(m1, m2), or None."""
    basis = hom_basis(m1, m2, p)
    if not basis:
        return None
    n2, n1 = len(basis[0]), len(basis[0][0])
    for _ in range(tries):
        coeffs = [rng.randrange(p) for _ in basis]
        x = [
            [sum(c * b[i][j] for c, b in zip(coeffs, basis)) % p for j in range(n1)]
            for i in range(n2)
        ]
        if is_invertible(x, p):
            return x
    return None


def twisted_action(action, fmat, p):
    """Twist of a square-zero module: generator i acts by sum_j f_ij B_j."""
    n = len(action[0])
    return [
        [
            [sum(f_ij * b[r][c] for f_ij, b in zip(frow, action)) % p for c in range(n)]
            for r in range(n)
        ]
        for frow in fmat
    ]


def is_nontrivial_idempotent(action, e, p):
    n = len(e)
    return (
        mat_mul(e, e, p) == e
        and any(any(row) for row in e)
        and e != identity(n)
        and all(mat_mul(a, e, p) == mat_mul(e, a, p) for a in action)
    )


def gl_order(g, p):
    """|GL(g, p)| = prod_{i<g} (p^g - p^i)."""
    out = 1
    for i in range(g):
        out *= p**g - p**i
    return out


def gaussian_binomial(n, k, p):
    """Number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def proper_subalgebra_count(g, p, scope):
    """Proper unital subalgebras of the rsz algebra on g generators: one per
    proper subspace of the radical, or per hyperplane for scope "maximal"."""
    if scope == "maximal":
        return gaussian_binomial(g, g - 1, p)
    return sum(gaussian_binomial(g, k, p) for k in range(g))


def is_square(a, p):
    """Whether a is a nonzero square mod an odd prime p (Euler's criterion)."""
    return pow(a % p, (p - 1) // 2, p) == 1
