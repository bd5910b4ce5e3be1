import random
from fractions import Fraction
from itertools import combinations

import pytest

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
    bracket,
    change_basis,
    derived_ideal_dim,
    diamond,
    diamond_algebra,
    direct_sum,
    from_structure_constants,
    heisenberg,
)
from liecoh.linalg import inverse
from liecoh.scalars import ONE, ZERO, Scalar

from helpers import matmul, random_algebra, random_invertible, random_scalar


def test_aff_brackets():
    g = aff_r()
    assert g.dim == 2
    assert g.bracket_basis(0, 1) == {1: ONE}
    assert g.bracket_basis(1, 0) == {1: -ONE}
    assert g.bracket_basis(0, 0) == {}
    assert g.labels == ("X", "Y")


def test_heisenberg_brackets():
    g = heisenberg(2)
    assert g.dim == 5
    # [X_i, X_{m+i}] = Z, everything else zero
    assert g.bracket_basis(1, 3) == {0: ONE}
    assert g.bracket_basis(2, 4) == {0: ONE}
    assert g.bracket_basis(1, 2) == {}
    assert g.bracket_basis(1, 4) == {}
    assert g.bracket_basis(3, 1) == {0: -ONE}
    # Z central
    for j in range(1, 5):
        assert g.bracket_basis(0, j) == {}
    assert g.labels[0] == "Z"


def test_bracket_vectors_bilinear():
    g = heisenberg(1)
    x = [ZERO, ONE, Scalar(2)]
    y = [ONE, ZERO, Scalar(3)]
    # [x, y] = (1*3 - 2*0) [X1, X2] = 3 Z
    assert bracket(g, x, y) == [Scalar(3), ZERO, ZERO]
    assert bracket(g, y, x) == [Scalar(-3), ZERO, ZERO]
    assert bracket(g, x, x) == [ZERO, ZERO, ZERO]


def test_jacobi_violation_reported():
    # [e0,e1] = e2 and [e0,e2] = e0 fail Jacobi on the triple (0,1,2):
    # the cyclic sum is -e2
    with pytest.raises(JacobiViolation) as exc:
        from_structure_constants(3, [(0, 1, (0, 0, 1)), (0, 2, (1, 0, 0))])
    assert exc.value.triple == (0, 1, 2)
    assert exc.value.residual == [ZERO, ZERO, -ONE]
    assert "(0, 1, 2)" in str(exc.value)


def _cyclic_sum_violation(g):
    """The first basis triple whose [[x,y],z] + [[y,z],x] + [[z,x],y] is
    nonzero, evaluated with bracket_vectors, or None."""
    e = [[ONE if a == b else ZERO for b in range(g.dim)] for a in range(g.dim)]
    br = g.bracket_vectors
    for i, j, k in combinations(range(g.dim), 3):
        terms = br(br(e[i], e[j]), e[k]), br(br(e[j], e[k]), e[i]), br(br(e[k], e[i]), e[j])
        residual = [x + y + z for x, y, z in zip(*terms)]
        if any(residual):
            return JacobiViolation((i, j, k), residual)
    return None


def _report(violation):
    return None if violation is None else (violation.triple, violation.residual, str(violation))


def test_jacobi_check_agrees_with_cyclic_sum_of_brackets(monkeypatch):
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
            image = change_basis(base, S, inverse(S))
            cases.append((image.dim, image.brackets))
    # the reference needs bracket_vectors on tables the check refuses
    with monkeypatch.context() as patch:
        patch.setattr(LieAlgebra, "_check_jacobi", lambda self: None)
        expected = [_cyclic_sum_violation(LieAlgebra(dim, table)) for dim, table in cases]
    assert sum(want is not None for want in expected) > len(cases) // 2
    for (dim, table), want in zip(cases, expected):
        try:
            LieAlgebra(dim, table)
            got = None
        except JacobiViolation as err:
            got = err
        assert _report(got) == _report(want), (dim, table)


def test_structure_constant_input_errors():
    with pytest.raises(DuplicatePair):
        from_structure_constants(2, [(0, 1, (0, 1)), (0, 1, (0, 2))])
    with pytest.raises(IndexOutOfRange):
        from_structure_constants(2, [(0, 2, (0, 1))])
    with pytest.raises(IndexOutOfRange):
        from_structure_constants(2, [(1, 0, (0, 1))])
    with pytest.raises(DimensionMismatch):
        from_structure_constants(2, [(0, 1, (0, 1, 0))])
    with pytest.raises(DimensionMismatch):
        LieAlgebra(-1, {})
    with pytest.raises(DimensionMismatch):
        LieAlgebra(2, {}, labels=("X",))


def test_bracket_basis_range_check():
    with pytest.raises(IndexOutOfRange):
        aff_r().bracket_basis(0, 2)


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
    assert s.bracket_basis(0, 1) == {1: ONE}
    assert s.bracket_basis(3, 4) == {2: ONE}
    # cross terms vanish
    for i in range(2):
        for j in range(2, 5):
            assert s.bracket_basis(i, j) == {}
    assert derived_ideal_dim(s) == derived_ideal_dim(aff_r()) + derived_ideal_dim(
        heisenberg(1)
    )


def test_diamond_brackets():
    g, structure = diamond([Fraction(2), Fraction(3)])
    n = 2
    assert g.dim == 6
    assert g.labels == ("X0", "X1", "X2", "Y0", "Y1", "Y2")
    for i, lam in ((1, Scalar(2)), (2, Scalar(3))):
        assert g.bracket_basis(n + 1, i) == {i: lam}  # [Y0, Xi] = lam Xi
        assert g.bracket_basis(n + 1, n + 1 + i) == {n + 1 + i: -lam}
        assert g.bracket_basis(i, n + 1 + i) == {0: lam}  # [Xi, Yi] = lam X0
    # X0 central
    for j in range(1, 6):
        assert g.bracket_basis(0, j) == {}
    assert derived_ideal_dim(g) == 5
    assert structure.algebra is g


def test_diamond_zero_parameters_abelian():
    g, _ = diamond([0, 0])
    assert g.dim == 6
    assert g.brackets == {}
    assert derived_ideal_dim(g) == 0


def test_diamond_algebra_builds_no_form(monkeypatch):
    from liecoh import quadratic

    lam = [Fraction(2), Scalar(0, -1), 0]
    g, _ = diamond(lam)

    def refuse(*args):
        raise AssertionError("diamond_algebra validated a form")

    monkeypatch.setattr(quadratic, "validate", refuse)
    assert diamond_algebra(lam) == g


def test_derived_ideal_examples():
    assert derived_ideal_dim(aff_r()) == 1
    assert derived_ideal_dim(abelian(4)) == 0
    assert derived_ideal_dim(heisenberg(3)) == 1


def test_change_basis_scaling():
    # rescale Y by 2 in aff: [X, Y'] = [X, 2Y] = 2Y = Y' still, but in the
    # new coordinates [f0, f1] = f1 since f1 = 2 e1
    g = aff_r()
    S = [[ONE, ZERO], [ZERO, Scalar(2)]]
    h = change_basis(g, S)
    assert h.bracket_basis(0, 1) == {1: ONE}
    # swap X and Y instead: [f0, f1] = [Y, X] = -Y = -f0
    T = [[ZERO, ONE], [ONE, ZERO]]
    h2 = change_basis(g, T)
    assert h2.bracket_basis(0, 1) == {0: -ONE}


def test_change_basis_preserves_invariants():
    rng = random.Random(13)
    for base in (aff_r(), heisenberg(1), heisenberg(2), diamond([1])[0]):
        for _ in range(5):
            S = random_invertible(rng, base.dim)
            h = change_basis(base, S, inverse(S))
            assert h.dim == base.dim
            assert derived_ideal_dim(h) == derived_ideal_dim(base)


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
    g = from_structure_constants(
        3,
        [
            (0, 1, (ZERO, ZERO, i)),
            (1, 2, (i, ZERO, ZERO)),
            (0, 2, (ZERO, -i, ZERO)),
        ],
    )
    assert derived_ideal_dim(g) == 3
    data = algebra_to_json(g)
    assert algebra_from_json(data).brackets == g.brackets
