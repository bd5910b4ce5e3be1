"""Acceptance checks.

Every check prints one ``criterion NN PASS/FAIL`` line (run pytest with
``-s`` to see them) and every comparison is exact: integer equality for
Betti numbers and ranks, term-by-term equality for forms.  The random
sweeps are seeded, so failures reproduce.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from liecoh.closed_forms import (
    betti_aff_ext,
    betti_heisenberg,
    betti_heisenberg_ext,
    diamond_b2,
    lambda_classes,
)
from liecoh.cochain import (
    apply_coboundary,
    betti_profile,
    coboundary_basis,
    cocycle_basis,
    cohomology_representatives,
)
from liecoh.exterior import ExteriorForm, basis, contract_basis, wedge
from liecoh.lie_algebra import abelian, aff_r, diamond, direct_sum, heisenberg
from liecoh.linalg import SpanBuilder
from liecoh.quadratic import coboundary_via_poisson
from liecoh.scalars import Scalar

from helpers import covector, kunneth, random_algebra, random_form, span_row

SEED = 20260821


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL {text}")
        raise
    print(f"criterion {num:02d} PASS {text}")


def _nonzero_scalar(rng) -> Scalar:
    while True:
        re = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
        im = Fraction(0)
        if rng.random() < 0.3:
            im = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        value = Scalar(re, im)
        if value:
            return value


@pytest.fixture(scope="module")
def diamond_sweep():
    """50 seeded diamond algebras with nonzero parameters, n <= 4,
    together with their full engine profiles."""
    rng = random.Random(SEED)
    cases = []
    for _ in range(50):
        n = rng.randint(1, 4)
        lams = [_nonzero_scalar(rng) for _ in range(n)]
        algebra, _ = diamond(lams)
        cases.append((lams, betti_profile(algebra)))
    return cases


def _diamond_duals(n):
    dim = 2 * n + 2
    alpha = covector(dim, 0)
    beta = covector(dim, n + 1)
    alphas = [covector(dim, i) for i in range(1, n + 1)]
    betas = [covector(dim, n + 1 + i) for i in range(1, n + 1)]
    return alpha, beta, alphas, betas


def test_criterion_01_affine_line_profile():
    with criterion(1, "affine line profile is (1, 1, 0)"):
        assert betti_profile(aff_r()).b == (1, 1, 0)


def test_criterion_02_affine_plus_abelian_binomial_row():
    with criterion(2, "affine line + abelian matches C(n-1, k) for n = 3..10"):
        for n in range(3, 11):
            algebra = direct_sum(aff_r(), abelian(n - 2))
            b = betti_profile(algebra).b
            assert b == tuple(comb(n - 1, k) for k in range(n + 1))
            assert b == tuple(betti_aff_ext(n, k) for k in range(n + 1))


def test_criterion_03_heisenberg_profiles():
    with criterion(3, "Heisenberg profiles match the binomial-difference formula"):
        frozen = {1: (1, 2, 2, 1), 2: (1, 4, 5, 5, 4, 1)}
        for m in (1, 2, 3):
            b = betti_profile(heisenberg(m)).b
            assert b == tuple(betti_heisenberg(m, k) for k in range(2 * m + 2))
            if m in frozen:
                assert b == frozen[m]


def test_criterion_04_heisenberg_extensions_three_ways():
    with criterion(
        4, "Heisenberg + abelian: engine = closed formula = convolution"
    ):
        for m, n in ((1, 5), (1, 6), (2, 7), (2, 8), (3, 9), (3, 10)):
            h = heisenberg(m)
            a = abelian(n - 2 * m - 1)
            engine = betti_profile(direct_sum(h, a))
            formula = tuple(betti_heisenberg_ext(m, n, k) for k in range(n + 1))
            convolved = kunneth(betti_profile(h).b, betti_profile(a).b)
            assert engine.b == formula
            assert engine.b == convolved
        assert betti_heisenberg_ext(2, 7, 3) == 19


def test_criterion_05_smallest_diamond_has_no_second_cohomology():
    with criterion(5, "4-dimensional diamond: b_2 = 0 and no representatives"):
        algebra, _ = diamond([1])
        assert betti_profile(algebra).b[2] == 0
        assert cohomology_representatives(algebra, 2) == []


def test_criterion_06_diamond_b2_class_count(diamond_sweep):
    with criterion(
        6, "50 seeded diamonds: engine b_2 equals sum of squared class sizes - 1"
    ):
        assert len(diamond_sweep) == 50
        for lams, profile in diamond_sweep:
            expected = diamond_b2(lambda_classes(lams))
            assert profile.b[2] == expected
        # special shapes: all parameters +-c, and all +-distinct
        for n in (1, 2, 3, 4):
            same = [Scalar(3) if k % 2 == 0 else Scalar(-3) for k in range(n)]
            algebra, _ = diamond(same)
            assert betti_profile(algebra).b[2] == n * n - 1
            distinct = [Scalar(k + 1) for k in range(n)]
            algebra, _ = diamond(distinct)
            assert betti_profile(algebra).b[2] == n - 1


def test_criterion_07_poisson_route_equals_matrix_route():
    with criterion(
        7, "coboundary via super-Poisson bracket = antiderivation on all monomials"
    ):
        grids = [
            [Scalar(1)],
            [Scalar(2), Scalar(-1)],
            [Scalar(Fraction(1, 2)), Scalar(0, 1)],
            [Scalar(1), Scalar(0)],
            [Scalar(1), Scalar(2), Scalar(3)],
            [Scalar(0, 1), Scalar(0, -1), Scalar(Fraction(1, 3))],
        ]
        for lams in grids:
            algebra, structure = diamond(lams)
            dim = algebra.dim
            for k in range(1, dim + 1):
                for key in basis(dim, k):
                    w = ExteriorForm(dim, k, {key: 1})
                    assert coboundary_via_poisson(structure, w) == apply_coboundary(
                        algebra, w
                    )


def test_criterion_08_closed_and_exact_two_form_structure():
    with criterion(
        8, "diamond 2-forms: exact = contractions of the invariant 3-form, "
        "closed = the documented span"
    ):
        cases = [
            [Scalar(1)],
            [Scalar(1), Scalar(-1)],
            [Scalar(0, 1), Scalar(0, -1)],
            [Scalar(2), Scalar(2), Scalar(1)],
            [Scalar(1), Scalar(-1), Scalar(3)],
        ]
        for lams in cases:
            n = len(lams)
            algebra, structure = diamond(lams)
            dim = algebra.dim
            monomials = basis(dim, 2)
            three = structure.three_form()

            exact = coboundary_basis(algebra, 2)
            assert len(exact) == 2 * n + 1
            contraction_span = SpanBuilder()
            for index in range(dim):
                contraction_span.add(span_row(contract_basis(three, index), monomials))
            assert contraction_span.rank == 2 * n + 1
            exact_span = SpanBuilder()
            for w in exact:
                exact_span.add(span_row(w, monomials))
                assert contraction_span.contains(span_row(w, monomials))
            for index in range(dim):
                assert exact_span.contains(
                    span_row(contract_basis(three, index), monomials)
                )

            _, beta, alphas, betas = _diamond_duals(n)
            omega = ExteriorForm.zero(dim, 2)
            for lam, a, b in zip(lams, alphas, betas):
                omega = omega + lam * wedge(a, b)
            candidates = [wedge(beta, a) for a in alphas]
            candidates += [wedge(beta, b) for b in betas]
            candidates.append(omega)
            for i in range(n):
                for j in range(n):
                    if i < j and not (lams[i] + lams[j]):
                        candidates.append(wedge(alphas[i], alphas[j]))
                        candidates.append(wedge(betas[i], betas[j]))
                    if lams[i] == lams[j]:
                        candidates.append(wedge(alphas[i], betas[j]))
            candidate_span = SpanBuilder()
            for w in candidates:
                candidate_span.add(span_row(w, monomials))
            closed = cocycle_basis(algebra, 2)
            closed_span = SpanBuilder()
            for w in closed:
                closed_span.add(span_row(w, monomials))
                assert candidate_span.contains(span_row(w, monomials))
            for w in candidates:
                assert closed_span.contains(span_row(w, monomials))
            assert candidate_span.rank == closed_span.rank == len(closed)


def test_criterion_09_property_suite():
    with criterion(
        9, "d squared = 0, b_0 = 1, Euler = 0, rank-nullity on family and "
        "100 random algebras"
    ):
        constructed = [
            aff_r(),
            abelian(0),
            abelian(1),
            abelian(3),
            heisenberg(1),
            heisenberg(2),
            heisenberg(3),
            direct_sum(aff_r(), abelian(3)),
            direct_sum(heisenberg(1), abelian(2)),
            diamond([1])[0],
            diamond([Scalar(1), Scalar(0)])[0],
            diamond([Scalar(0, 1), Scalar(2)])[0],
        ]
        rng = random.Random(SEED + 9)
        algebras = constructed + [random_algebra(rng, max_dim=6) for _ in range(100)]
        for g in algebras:
            n = g.dim
            profile = betti_profile(g)
            assert profile.b[0] == 1
            if n >= 1:
                assert sum((-1) ** k * bk for k, bk in enumerate(profile.b)) == 0
            for k in range(n + 1):
                closed = cocycle_basis(g, k)
                assert len(closed) == profile.kernels[k]
                assert len(closed) + profile.ranks[k] == comb(n, k)
                w = random_form(rng, n, k)
                assert apply_coboundary(g, apply_coboundary(g, w)).is_zero()


def test_criterion_10_poincare_duality(diamond_sweep):
    with criterion(
        10, "profiles of Heisenberg-family and diamond inputs are palindromes"
    ):
        profiles = [betti_profile(heisenberg(m)).b for m in (1, 2, 3)]
        for m, n in ((1, 5), (1, 6), (2, 7), (2, 8), (3, 9), (3, 10)):
            algebra = direct_sum(heisenberg(m), abelian(n - 2 * m - 1))
            profiles.append(betti_profile(algebra).b)
        profiles.extend(profile.b for _, profile in diamond_sweep)
        for b in profiles:
            assert b == tuple(reversed(b))
