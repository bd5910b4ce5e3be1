import random
from fractions import Fraction

import pytest

from liecoh.cochain import (
    apply_coboundary,
    betti_profile,
    coboundary_basis,
    cocycle_basis,
    cohomology_representatives,
)
from liecoh.errors import (
    Degenerate,
    DegreeZero,
    DimensionMismatch,
    NotInvariant,
    NotSymmetric,
)
from liecoh.exterior import ExteriorForm, basis, contract_basis, wedge
from liecoh.lie_algebra import abelian, aff_r, diamond, direct_sum, heisenberg
from liecoh.linalg import SpanBuilder
from liecoh.quadratic import (
    associated_three_form,
    coboundary_via_poisson,
    super_poisson,
    validate,
)
from liecoh.scalars import ONE, ZERO, Scalar

from helpers import covector, matmul, random_form, random_scalar, span_row


def _random_lambdas(rng, n, allow_complex=True):
    out = []
    for _ in range(n):
        re = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        im = 0
        if allow_complex and rng.random() < 0.3:
            im = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        value = Scalar(re, im)
        if not value:
            value = Scalar(1)
        out.append(value)
    return out


def _duals(n):
    # dual one-forms of the diamond basis (X_0..X_n, Y_0..Y_n)
    dim = 2 * n + 2
    alpha = covector(dim, 0)
    beta = covector(dim, n + 1)
    alphas = [covector(dim, i) for i in range(1, n + 1)]
    betas = [covector(dim, n + 1 + i) for i in range(1, n + 1)]
    return alpha, beta, alphas, betas


def test_validate_rejects_bad_forms():
    g = abelian(2)
    with pytest.raises(DimensionMismatch):
        validate(g, [[ONE, ZERO]])
    with pytest.raises(NotSymmetric):
        validate(g, [[ONE, ONE], [ZERO, ONE]])
    with pytest.raises(Degenerate):
        validate(g, [[ONE, ONE], [ONE, ONE]])
    i = Scalar(0, 1)
    with pytest.raises(Degenerate):
        validate(g, [[ONE, i], [i, Scalar(-1)]])


def test_validate_reports_invariance_failure():
    # the identity form is not invariant on the affine line
    with pytest.raises(NotInvariant) as exc:
        validate(aff_r(), [[ONE, ZERO], [ZERO, ONE]])
    assert exc.value.triple == (1, 0, 1)
    assert exc.value.left == Scalar(-1)
    assert exc.value.right == ONE


def _first_failure_of_every_triple(algebra, form):
    # reference: B([e_i,e_j], e_k) against B(e_i, [e_j,e_k]) on every
    # triple with j < k, densely, in the order j, k, i
    n = algebra.dim
    for j in range(n):
        for k in range(j + 1, n):
            vector_jk = algebra.brackets.get((j, k), {})
            for i in range(n):
                # [e_i, e_j] by antisymmetry from the pairs stored with i < j
                if i < j:
                    vector_ij = algebra.brackets.get((i, j), {})
                else:
                    vector_ij = {l: -c for l, c in algebra.brackets.get((j, i), {}).items()}
                left = ZERO
                for l, c in vector_ij.items():
                    left = left + c * form[l][k]
                right = ZERO
                for l, c in vector_jk.items():
                    right = right + form[i][l] * c
                if left != right:
                    return (i, j, k), left, right
    return None


def test_invariance_failure_matches_the_dense_check_on_perturbed_forms():
    rng = random.Random(3131)
    outcomes = {"invariant": 0, "not invariant": 0}
    for _ in range(60):
        g, structure = diamond(_random_lambdas(rng, rng.randint(1, 3)))
        if rng.random() < 0.3:
            # a summand carrying the identity form: invariant on the
            # abelian line, not on heisenberg(1)
            g = direct_sum(g, heisenberg(1) if rng.random() < 0.5 else abelian(1))
        n = g.dim
        form = [[ZERO] * n for _ in range(n)]
        for i, row in enumerate(structure.form):
            form[i][: len(row)] = list(row)
        for p in range(structure.algebra.dim, n):
            form[p][p] = ONE
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            a, b = rng.randrange(n), rng.randrange(n)
            form[a][b] = form[b][a] = form[a][b] + random_scalar(rng, allow_zero=False)
        expected = _first_failure_of_every_triple(g, form)
        try:
            validate(g, form)
        except Degenerate:
            continue
        except NotInvariant as err:
            assert (err.triple, err.left, err.right) == expected
            outcomes["not invariant"] += 1
        else:
            assert expected is None
            outcomes["invariant"] += 1
    assert min(outcomes.values()) >= 5, outcomes


def test_validate_abelian_any_symmetric_invertible():
    g = abelian(2)
    structure = validate(g, [[ONE, Scalar(2)], [Scalar(2), ONE]])
    prod = matmul([list(r) for r in structure.form], [list(r) for r in structure.sharp])
    assert prod == [[ONE, ZERO], [ZERO, ONE]]


def test_sharp_examples():
    g = abelian(2)
    s1 = validate(g, [[ONE, ZERO], [ZERO, ONE]])
    assert s1.sharp == ((ONE, ZERO), (ZERO, ONE))
    s2 = validate(g, [[Scalar(2), ZERO], [ZERO, Scalar(2)]])
    half = Scalar(Fraction(1, 2))
    assert s2.sharp == ((half, ZERO), (ZERO, half))


def test_diamond_sharp_swaps_pairs():
    _, structure = diamond([1, 3])
    n = 2
    dim = 6
    for i in range(n + 1):
        assert structure.sharp[i][n + 1 + i] == ONE
        assert structure.sharp[n + 1 + i][i] == ONE
    zero_count = sum(
        1
        for i in range(dim)
        for j in range(dim)
        if not structure.sharp[i][j]
    )
    assert zero_count == dim * dim - 2 * (n + 1)


def test_metric_dual_basis_property():
    # B(Y_i, e_j) = delta_ij for every structure
    structures = [
        validate(abelian(2), [[ONE, Scalar(2)], [Scalar(2), ONE]]),
        diamond([1])[1],
        diamond([Fraction(1, 2), Scalar(0, 1)])[1],
    ]
    for structure in structures:
        n = structure.algebra.dim
        for i in range(n):
            # Y_i is column i of sharp
            row = [
                sum((structure.sharp[l][i] * structure.form[l][j] for l in range(n)), ZERO)
                for j in range(n)
            ]
            assert row == [ONE if j == i else ZERO for j in range(n)]


def test_three_form_abelian_is_zero():
    structure = validate(abelian(3), [[ONE if i == j else ZERO for j in range(3)] for i in range(3)])
    assert associated_three_form(structure).is_zero()


def test_three_form_diamond():
    lams = [Scalar(2), Scalar(Fraction(-1, 3))]
    g, structure = diamond(lams)
    n = 2
    w = structure.three_form()
    # B([X_i, Y_0], Y_i) = -lam_i, everything else zero
    expected = {(i, n + 1, n + 1 + i): -lam for i, lam in enumerate(lams, start=1)}
    assert w.terms == expected
    # same thing written with wedges: sum of lam_i beta ^ alpha_i ^ beta_i
    _, beta, alphas, betas = _duals(n)
    rebuilt = ExteriorForm.zero(2 * n + 2, 3)
    for lam, a, b in zip(lams, alphas, betas):
        rebuilt = rebuilt + lam * wedge(beta, wedge(a, b))
    assert w == rebuilt


def test_super_poisson_degree_errors():
    _, structure = diamond([1])
    one = covector(4, 0)
    scalar_form = ExteriorForm(4, 0, {(): ONE})
    with pytest.raises(DegreeZero):
        super_poisson(structure, scalar_form, one)
    with pytest.raises(DegreeZero):
        super_poisson(structure, one, scalar_form)
    with pytest.raises(DimensionMismatch):
        super_poisson(structure, one, covector(6, 0))


def test_super_poisson_identities_on_random_diamonds():
    rng = random.Random(616)
    for _ in range(12):
        n = rng.randint(1, 3)
        lams = _random_lambdas(rng, n)
        g, structure = diamond(lams)
        dim = 2 * n + 2
        alpha, beta, alphas, betas = _duals(n)
        I = structure.three_form()
        omega = ExteriorForm.zero(dim, 2)
        for lam, a, b in zip(lams, alphas, betas):
            omega = omega + lam * wedge(a, b)

        # {I, alpha ^ beta} = I
        assert super_poisson(structure, I, wedge(alpha, beta)) == I
        for i in range(n):
            li = lams[i]
            # {I, alpha ^ alpha_i} = alpha_i ^ omega - lam_i alpha ^ beta ^ alpha_i
            lhs = super_poisson(structure, I, wedge(alpha, alphas[i]))
            rhs = wedge(alphas[i], omega) - li * wedge(alpha, wedge(beta, alphas[i]))
            assert lhs == rhs
            # {I, alpha ^ beta_i} = beta_i ^ omega + lam_i alpha ^ beta ^ beta_i
            lhs = super_poisson(structure, I, wedge(alpha, betas[i]))
            rhs = wedge(betas[i], omega) + li * wedge(alpha, wedge(beta, betas[i]))
            assert lhs == rhs
            for j in range(n):
                lj = lams[j]
                # {I, alpha_i ^ beta_j} = (lam_i - lam_j) beta ^ alpha_i ^ beta_j
                lhs = super_poisson(structure, I, wedge(alphas[i], betas[j]))
                assert lhs == (li - lj) * wedge(beta, wedge(alphas[i], betas[j]))
                if i < j:
                    # {I, alpha_i ^ alpha_j} = (lam_i + lam_j) beta ^ alpha_i ^ alpha_j
                    lhs = super_poisson(structure, I, wedge(alphas[i], alphas[j]))
                    assert lhs == (li + lj) * wedge(beta, wedge(alphas[i], alphas[j]))
                    # {I, beta_i ^ beta_j} = -(lam_i + lam_j) beta ^ beta_i ^ beta_j
                    lhs = super_poisson(structure, I, wedge(betas[i], betas[j]))
                    assert lhs == -(li + lj) * wedge(beta, wedge(betas[i], betas[j]))


def test_super_poisson_graded_symmetry():
    # {a, b} = (-1)**(deg a * deg b) {b, a} for one-forms up: checked on
    # the degree combinations that matter here
    rng = random.Random(717)
    for _ in range(10):
        n = rng.randint(1, 2)
        _, structure = diamond(_random_lambdas(rng, n))
        dim = 2 * n + 2
        for (p, q) in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
            a = random_form(rng, dim, p)
            b = random_form(rng, dim, q)
            left = super_poisson(structure, a, b)
            right = super_poisson(structure, b, a)
            if (p * q) % 2 == 0:
                right = -right
            assert left == right


def test_poisson_route_matches_matrix_route_exhaustive():
    cases = [
        [Scalar(1)],
        [Scalar(2), Scalar(-1)],
        [Scalar(1), Scalar(0)],  # one decoupled abelian pair
        [Scalar(Fraction(1, 2)), Scalar(0, 1), Scalar(-3)],
    ]
    for lams in cases:
        g, structure = diamond(lams)
        dim = g.dim
        for k in range(dim + 1):
            for key in basis(dim, k):
                w = ExteriorForm(dim, k, {key: 1})
                assert coboundary_via_poisson(structure, w) == apply_coboundary(g, w)


def test_poisson_route_matches_matrix_route_random():
    rng = random.Random(818)
    for _ in range(10):
        n = rng.randint(1, 3)
        g, structure = diamond(_random_lambdas(rng, n))
        for k in range(g.dim + 1):
            w = random_form(rng, g.dim, k)
            assert coboundary_via_poisson(structure, w) == apply_coboundary(g, w)


def test_poisson_route_degree_zero():
    _, structure = diamond([1])
    w = ExteriorForm(4, 0, {(): Scalar(5)})
    out = coboundary_via_poisson(structure, w)
    assert out.is_zero() and out.degree == 1


def test_diamond_coboundary_of_alpha_wedge_beta():
    # d(alpha ^ beta) = -{I, alpha ^ beta} = -I
    g, structure = diamond([1, 2])
    n = 2
    alpha, beta, _, _ = _duals(n)
    I = structure.three_form()
    assert apply_coboundary(g, wedge(alpha, beta)) == -I
    assert coboundary_via_poisson(structure, wedge(alpha, beta)) == -I


def test_exact_two_forms_are_contractions_of_three_form():
    # with every parameter nonzero, the exact 2-forms are exactly the
    # contractions of the three-form, a space of dimension 2n + 1
    rng = random.Random(919)
    for _ in range(6):
        n = rng.randint(1, 3)
        g, structure = diamond(_random_lambdas(rng, n))
        dim = g.dim
        I = structure.three_form()
        monomials = basis(dim, 2)
        contraction_span = SpanBuilder()
        for index in range(dim):
            contraction_span.add(span_row(contract_basis(I, index), monomials))
        exact_span = SpanBuilder()
        exact = coboundary_basis(g, 2)
        for w in exact:
            exact_span.add(span_row(w, monomials))
        assert len(exact) == 2 * n + 1
        assert contraction_span.rank == 2 * n + 1
        for w in exact:
            assert contraction_span.contains(span_row(w, monomials))
        for index in range(dim):
            assert exact_span.contains(
                span_row(contract_basis(I, index), monomials)
            )


def test_closed_two_forms_structure():
    cases = [
        [Scalar(1)],
        [Scalar(1), Scalar(-1)],
        [Scalar(2), Scalar(2), Scalar(1)],
        [Scalar(1), Scalar(-1), Scalar(3)],
        [Scalar(0, 1), Scalar(0, -1)],
    ]
    for lams in cases:
        n = len(lams)
        g, structure = diamond(lams)
        dim = g.dim
        _, beta, alphas, betas = _duals(n)
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
        monomials = basis(dim, 2)
        candidate_span = SpanBuilder()
        for w in candidates:
            assert apply_coboundary(g, w).is_zero()
            candidate_span.add(span_row(w, monomials))
        closed_span = SpanBuilder()
        closed = cocycle_basis(g, 2)
        for w in closed:
            closed_span.add(span_row(w, monomials))
            assert candidate_span.contains(span_row(w, monomials))
        for w in candidates:
            assert closed_span.contains(span_row(w, monomials))
        assert candidate_span.rank == closed_span.rank


def test_second_cohomology_of_smallest_diamond_vanishes():
    g, _ = diamond([1])
    assert betti_profile(g).b[2] == 0
    assert cohomology_representatives(g, 2) == []
