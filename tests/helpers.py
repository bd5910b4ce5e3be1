"""Shared fixtures for the test suite.

The coboundary oracle here is deliberately independent of the production
code path: it evaluates the alternating double sum over basis tuples
directly, term by term, instead of expanding an antiderivation.  Both
routes must agree on every input or one of them is wrong.
"""

import random
from fractions import Fraction
from itertools import combinations

from liecoh.exterior import ExteriorForm, basis
from liecoh.lie_algebra import (
    LieAlgebra,
    abelian,
    aff_r,
    change_basis,
    diamond,
    direct_sum,
    heisenberg,
)
from liecoh.linalg import gaussian_row
from liecoh.scalars import ONE, ZERO, Scalar


def eval_monomial(key, l, ms):
    # value of the dual monomial `key` on the tuple (e_l, e_{ms[0]}, ...),
    # up to the permutation sign needed to sort l into place
    if l in ms:
        return 0
    if tuple(sorted((l,) + ms)) != key:
        return 0
    before = sum(1 for m in ms if m < l)
    return -1 if before % 2 else 1


def oracle_coboundary(g: LieAlgebra, w: ExteriorForm) -> ExteriorForm:
    """Coboundary computed by the defining double sum, nothing shared
    with apply_coboundary."""
    n, k = g.dim, w.degree
    result = {}
    for J in combinations(range(n), k + 1):
        value = ZERO
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                vec = g.brackets.get((J[a], J[b]), {})
                if not vec:
                    continue
                ms = tuple(x for t, x in enumerate(J) if t not in (a, b))
                outer = -1 if (a + b) % 2 else 1
                for key, coeff in w.terms.items():
                    for l, c in vec.items():
                        s = eval_monomial(key, l, ms)
                        if s:
                            value = value + coeff * c * (outer * s)
        if value:
            result[J] = value
    return ExteriorForm(n, k + 1, result)


def kunneth(a, b):
    """The Betti vector of a direct sum from its factors' vectors, by the
    Kunneth formula c_k = sum_i a_i b_{k-i}."""
    return tuple(
        sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        for k in range(len(a) + len(b) - 1)
    )


def covector(dim, index):
    """The dual basis one-form e_index*."""
    return ExteriorForm(dim, 1, {(index,): ONE})


def random_scalar(rng, allow_zero=True, complex_rate=0.25):
    while True:
        re = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
        im = 0
        if rng.random() < complex_rate:
            im = Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
        s = Scalar(re, im)
        if s or allow_zero:
            return s


def random_form(rng, dim, degree, complex_rate=0.25):
    keys = basis(dim, degree)
    terms = {}
    for key in keys:
        if rng.random() < 0.5:
            terms[key] = random_scalar(rng, complex_rate=complex_rate)
    return ExteriorForm(dim, degree, terms)


def span_row(form, monomials):
    """A form as a Gaussian-integer row {position: (re, im)} over an
    explicit monomial list, the row shape SpanBuilder takes."""
    return gaussian_row(
        {monomials.index(key): value for key, value in form.terms.items()}, len(monomials)
    )


def matmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum((a[i][t] * b[t][j] for t in range(m)), Scalar(0)) for j in range(p)]
        for i in range(n)
    ]


def random_invertible(rng, n):
    """P*L*U*D with unit triangular L, U and nonzero diagonal D.
    Invertible by construction."""
    L = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    U = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i > j and rng.random() < 0.5:
                L[i][j] = random_scalar(rng)
            if i < j and rng.random() < 0.5:
                U[i][j] = random_scalar(rng)
    D = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        D[i][i] = random_scalar(rng, allow_zero=False)
    perm = list(range(n))
    rng.shuffle(perm)
    P = [[ONE if perm[i] == j else ZERO for j in range(n)] for i in range(n)]
    return matmul(matmul(P, L), matmul(U, D))


def random_algebra(rng, max_dim=6):
    """A random algebra of dimension <= max_dim, drawn from the built-in
    families, direct sums of them, and random changes of basis.  Always
    satisfies Jacobi because every ingredient does."""
    pool = [
        aff_r(),
        abelian(rng.randint(1, 3)),
        heisenberg(1),
        heisenberg(2),
        diamond([Fraction(rng.randint(1, 3))])[0],
    ]
    g = rng.choice(pool)
    if g.dim + 1 <= max_dim and rng.random() < 0.5:
        other = rng.choice([aff_r(), abelian(rng.randint(1, 2))])
        if g.dim + other.dim <= max_dim:
            g = direct_sum(g, other)
    if rng.random() < 0.6:
        S = random_invertible(rng, g.dim)
        g = change_basis(g, S)
    return g
