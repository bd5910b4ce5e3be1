import random
from fractions import Fraction
from itertools import combinations

import pytest

from liecoh.cochain import betti
from liecoh.errors import (
    DimensionMismatch,
    DuplicatePair,
    IndexOutOfRange,
    JacobiViolation,
)
from liecoh.lie_algebra import (
    LieAlgebra,
    abelian,
    aff_r,
    algebra_from_json,
    algebra_to_json,
    change_basis,
    diamond,
    diamond_algebra,
    direct_sum,
    heisenberg,
)
from liecoh.scalars import ONE, ZERO, Scalar

from helpers import matmul, random_algebra, random_invertible, random_scalar


def test_aff_brackets():
    g = aff_r()
    assert g.dim == 2
    assert g.brackets == {(0, 1): {1: ONE}}
    assert g.labels == ("X", "Y")


def test_heisenberg_brackets():
    g = heisenberg(2)
    assert g.dim == 5
    # [X_i, X_{m+i}] = Z, everything else zero, so Z central
    assert g.brackets == {(1, 3): {0: ONE}, (2, 4): {0: ONE}}
    assert g.labels[0] == "Z"


def test_jacobi_violation_reported():
    # [e0,e1] = e2 and [e0,e2] = e0 fail Jacobi on the triple (0,1,2):
    # the cyclic sum is -e2
    with pytest.raises(JacobiViolation) as exc:
        LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    assert exc.value.triple == (0, 1, 2)
    assert exc.value.residual == [ZERO, ZERO, -ONE]
    assert "(0, 1, 2)" in str(exc.value)


def _cyclic_sum_violation(dim, table):
    """The first basis triple whose [[x,y],z] + [[y,z],x] + [[z,x],y] is
    nonzero, bracketed straight from the raw ``table``, or None."""

    def br(x, y):
        # [x, y] of dense coefficient vectors, bilinear in the table
        out = [ZERO] * dim
        for (i, j), vector in table.items():
            factor = x[i] * y[j] - x[j] * y[i]
            if factor:
                for l, c in vector.items():
                    out[l] = out[l] + factor * c
        return out

    e = [[ONE if a == b else ZERO for b in range(dim)] for a in range(dim)]
    for i, j, k in combinations(range(dim), 3):
        terms = br(br(e[i], e[j]), e[k]), br(br(e[j], e[k]), e[i]), br(br(e[k], e[i]), e[j])
        residual = [x + y + z for x, y, z in zip(*terms)]
        if any(residual):
            return JacobiViolation((i, j, k), residual)
    return None


def _report(violation):
    return None if violation is None else (violation.triple, violation.residual, str(violation))


def test_jacobi_check_agrees_with_cyclic_sum_of_brackets():
    # random sparse Gaussian-rational tables, most of them not Lie
    # algebras, and change_basis images under dense matrices, which
    # always are
    rng = random.Random(2024)
    cases = []
    for _ in range(300):
        dim = rng.randint(1, 7)
        cases.append((dim, {
            (i, j): {l: random_scalar(rng) for l in range(dim) if rng.random() < 0.4}
            for i, j in combinations(range(dim), 2)
            if rng.random() < 0.6
        }))
    for base in (heisenberg(3), diamond([1, Scalar(0, 1)])[0], direct_sum(aff_r(), heisenberg(1))):
        for _ in range(2):
            S = matmul(random_invertible(rng, base.dim), random_invertible(rng, base.dim))
            image = change_basis(base, S)
            cases.append((image.dim, image.brackets))
    expected = [_cyclic_sum_violation(dim, table) for dim, table in cases]
    assert sum(want is not None for want in expected) > len(cases) // 2
    for (dim, table), want in zip(cases, expected):
        try:
            LieAlgebra(dim, table)
            got = None
        except JacobiViolation as err:
            got = err
        assert _report(got) == _report(want), (dim, table)


def test_structure_constant_input_errors():
    with pytest.raises(IndexOutOfRange):
        LieAlgebra(2, {(0, 2): {1: 1}})
    with pytest.raises(IndexOutOfRange):
        LieAlgebra(2, {(1, 0): {1: 1}})
    with pytest.raises(IndexOutOfRange):
        LieAlgebra(2, {(0, 1): {2: 1}})
    with pytest.raises(DimensionMismatch):
        LieAlgebra(-1, {})
    with pytest.raises(DimensionMismatch):
        LieAlgebra(2, {}, labels=("X",))
    # zero coefficients are dropped, and a pair that is all zeros with them
    assert LieAlgebra(2, {(0, 1): {0: 0, 1: 1}}).brackets == {(0, 1): {1: ONE}}
    assert LieAlgebra(2, {(0, 1): {1: 0}}).brackets == {}


def test_abelian_and_direct_sum_identity():
    g = heisenberg(1)
    assert direct_sum(g, abelian(0)).brackets == g.brackets
    assert direct_sum(abelian(0), g).brackets == g.brackets
    assert abelian(3).brackets == {}
    with pytest.raises(DimensionMismatch):
        abelian(-1)
    with pytest.raises(DimensionMismatch):
        heisenberg(0)


def test_direct_sum_shifts_and_commutes_blocks():
    s = direct_sum(aff_r(), heisenberg(1))
    assert s.dim == 5
    # heisenberg(1) shifted by 2, and no cross terms
    assert s.brackets == {(0, 1): {1: ONE}, (3, 4): {2: ONE}}
    assert betti(s, 1) == betti(aff_r(), 1) + betti(heisenberg(1), 1)


def test_diamond_brackets():
    g, structure = diamond([Fraction(2), Fraction(3)])
    n = 2
    assert g.dim == 6
    assert g.labels == ("X0", "X1", "X2", "Y0", "Y1", "Y2")
    expected = {}
    for i, lam in ((1, Scalar(2)), (2, Scalar(3))):
        expected[(i, n + 1)] = {i: -lam}  # [Y0, Xi] = lam Xi
        expected[(n + 1, n + 1 + i)] = {n + 1 + i: -lam}  # [Y0, Yi] = -lam Yi
        expected[(i, n + 1 + i)] = {0: lam}  # [Xi, Yi] = lam X0
    # X0 central
    assert g.brackets == expected
    # b_1 = n - dim [g, g]: only Y0 is outside the derived ideal
    assert betti(g, 1) == 1
    assert structure.algebra is g


def test_diamond_zero_parameters_abelian():
    g, _ = diamond([0, 0])
    assert g.dim == 6
    assert g.brackets == {}
    assert betti(g, 1) == 6


def test_diamond_algebra_builds_no_form(monkeypatch):
    from liecoh import quadratic

    lam = [Fraction(2), Scalar(0, -1), 0]
    g, _ = diamond(lam)

    def refuse(*args):
        raise AssertionError("diamond_algebra validated a form")

    monkeypatch.setattr(quadratic, "validate", refuse)
    assert diamond_algebra(lam) == g


def test_derived_ideal_examples():
    # dim [g, g] = n - b_1, since H^1(g) is the dual of g / [g, g]
    assert aff_r().dim - betti(aff_r(), 1) == 1
    assert abelian(4).dim - betti(abelian(4), 1) == 0
    assert heisenberg(3).dim - betti(heisenberg(3), 1) == 1


def test_change_basis_scaling():
    # rescale Y by 2 in aff: [X, Y'] = [X, 2Y] = 2Y = Y' still, but in the
    # new coordinates [f0, f1] = f1 since f1 = 2 e1
    g = aff_r()
    S = [[ONE, ZERO], [ZERO, Scalar(2)]]
    h = change_basis(g, S)
    assert h.brackets == {(0, 1): {1: ONE}}
    # swap X and Y instead: [f0, f1] = [Y, X] = -Y = -f0
    T = [[ZERO, ONE], [ONE, ZERO]]
    h2 = change_basis(g, T)
    assert h2.brackets == {(0, 1): {0: -ONE}}


def test_change_basis_refuses_a_matrix_of_the_wrong_size():
    # heisenberg(1) has dimension 3: an invertible 4 x 4 matrix must not be
    # read through its top-left block, nor a 2 x 2 one run off its end
    g = heisenberg(1)
    for size in (4, 2):
        S = [[ONE if p == q else ZERO for q in range(size)] for p in range(size)]
        with pytest.raises(DimensionMismatch):
            change_basis(g, S)
    # a ragged matrix with three rows is refused too
    with pytest.raises(DimensionMismatch):
        change_basis(g, [[ONE, ZERO, ZERO], [ZERO, ONE], [ZERO, ZERO, ONE]])


def test_change_basis_preserves_invariants():
    rng = random.Random(13)
    for base in (aff_r(), heisenberg(1), heisenberg(2), diamond([1])[0]):
        for _ in range(5):
            S = random_invertible(rng, base.dim)
            h = change_basis(base, S)
            assert h.dim == base.dim
            assert betti(h, 1) == betti(base, 1)


def test_random_algebras_construct():
    # the generator exercises sums and basis changes; constructing at all
    # means Jacobi held
    rng = random.Random(99)
    for _ in range(20):
        g = random_algebra(rng)
        assert 1 <= g.dim <= 6


def test_json_round_trip():
    cases = [
        aff_r(),
        abelian(0),
        abelian(2),
        heisenberg(2),
        diamond([Fraction(1, 2), Scalar(0, 1)])[0],
        direct_sum(aff_r(), heisenberg(1)),
    ]
    for g in cases:
        data = algebra_to_json(g)
        h = algebra_from_json(data)
        assert h.dim == g.dim
        assert h.brackets == g.brackets
        assert h.labels == g.labels


def test_json_rejects_malformed():
    with pytest.raises(DimensionMismatch):
        algebra_from_json({"brackets": []})
    with pytest.raises(DimensionMismatch):
        algebra_from_json({"dim": "3"})
    with pytest.raises(IndexOutOfRange):
        algebra_from_json({"dim": 2, "brackets": [{"i": 0, "j": 2, "coeffs": {}}]})
    with pytest.raises(DuplicatePair):
        algebra_from_json(
            {
                "dim": 2,
                "brackets": [
                    {"i": 0, "j": 1, "coeffs": {"1": "1"}},
                    {"i": 0, "j": 1, "coeffs": {"1": "2"}},
                ],
            }
        )
    with pytest.raises(JacobiViolation):
        algebra_from_json(
            {
                "dim": 3,
                "brackets": [
                    {"i": 0, "j": 1, "coeffs": {"2": "1"}},
                    {"i": 0, "j": 2, "coeffs": {"0": "1"}},
                ],
            }
        )


def test_complex_structure_constants():
    # su(2)-like twist with i in the constants still satisfies Jacobi:
    # [e0,e1] = i e2, [e1,e2] = i e0, [e0,e2] = -i e1
    i = Scalar(0, 1)
    g = LieAlgebra(3, {(0, 1): {2: i}, (1, 2): {0: i}, (0, 2): {1: -i}})
    # [g, g] = g, so b_1 = 0
    assert betti(g, 1) == 0
    data = algebra_to_json(g)
    assert algebra_from_json(data).brackets == g.brackets
