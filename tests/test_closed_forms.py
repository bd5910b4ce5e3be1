import random
from fractions import Fraction
from math import comb

import pytest

from liecoh.closed_forms import (
    LambdaSpec,
    betti_aff_ext,
    betti_heisenberg,
    betti_heisenberg_ext,
    binom,
    diamond_b2,
    diamond_b2_general,
    lambda_classes,
)
from liecoh.cochain import BettiProfile, betti, betti_profile
from liecoh.errors import ZeroLambda
from liecoh.lie_algebra import abelian, aff_r, diamond, diamond_algebra, direct_sum, heisenberg
from liecoh.scalars import Scalar

from helpers import kunneth


def test_binom_edges():
    assert binom(5, 2) == 10
    assert binom(5, 0) == 1
    assert binom(5, 5) == 1
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    assert binom(0, 0) == 1


def test_aff_ext_formula():
    # b_k = C(n-1, k), zero at the top degree
    for n in range(2, 11):
        for k in range(n + 1):
            assert betti_aff_ext(n, k) == comb(n - 1, k)
    assert betti_aff_ext(5, 5) == 0


def test_aff_ext_matches_engine():
    for n in range(2, 7):
        g = direct_sum(aff_r(), abelian(n - 2))
        b = betti_profile(g).b
        assert b == tuple(betti_aff_ext(n, k) for k in range(n + 1))
    assert betti_profile(direct_sum(aff_r(), abelian(3))).b == (1, 4, 6, 4, 1, 0)


def test_heisenberg_formula():
    # below the middle: C(2m, k) - C(2m, k-2); above: duality
    assert tuple(betti_heisenberg(1, k) for k in range(4)) == (1, 2, 2, 1)
    assert tuple(betti_heisenberg(2, k) for k in range(6)) == (1, 4, 5, 5, 4, 1)
    for m in range(1, 5):
        n = 2 * m + 1
        for k in range(m + 1):
            upper = comb(2 * m, k - 2) if k >= 2 else 0
            assert betti_heisenberg(m, k) == comb(2 * m, k) - upper
        for k in range(n + 1):
            assert betti_heisenberg(m, k) == betti_heisenberg(m, n - k)


def test_heisenberg_matches_engine():
    for m in (1, 2, 3):
        b = betti_profile(heisenberg(m)).b
        assert b == tuple(betti_heisenberg(m, k) for k in range(2 * m + 2))


def test_heisenberg_ext_spot_values():
    assert betti_heisenberg_ext(1, 5, 2) == 7
    assert betti_heisenberg_ext(2, 7, 2) == 14
    assert betti_heisenberg_ext(2, 7, 3) == 19
    assert tuple(betti_heisenberg_ext(1, 5, k) for k in range(6)) == (1, 4, 7, 7, 4, 1)
    assert tuple(betti_heisenberg_ext(1, 6, k) for k in range(7)) == (
        1, 5, 11, 14, 11, 5, 1,
    )
    assert tuple(betti_heisenberg_ext(2, 8, k) for k in range(9)) == (
        1, 7, 20, 33, 38, 33, 20, 7, 1,
    )
    assert tuple(betti_heisenberg_ext(3, 9, k) for k in range(10)) == (
        1, 8, 27, 48, 56, 56, 48, 27, 8, 1,
    )
    assert tuple(betti_heisenberg_ext(3, 10, k) for k in range(11)) == (
        1, 9, 35, 75, 104, 112, 104, 75, 35, 9, 1,
    )


def test_heisenberg_ext_domain():
    # the abelian part must be nonempty: n > 2m + 1
    from liecoh.errors import DegreeOutOfRange, DimensionMismatch

    with pytest.raises(DimensionMismatch):
        betti_heisenberg_ext(1, 3, 0)
    with pytest.raises(DimensionMismatch):
        betti_heisenberg_ext(0, 5, 0)
    with pytest.raises(DegreeOutOfRange):
        betti_heisenberg_ext(1, 5, 6)


def test_heisenberg_ext_is_symmetric():
    for m in (1, 2, 3):
        for n in range(2 * m + 2, 11):
            values = tuple(betti_heisenberg_ext(m, n, k) for k in range(n + 1))
            assert values == tuple(reversed(values))
            assert values[0] == 1
            assert sum((-1) ** k * v for k, v in enumerate(values)) == 0


def test_heisenberg_ext_matches_engine():
    for m, n in ((1, 4), (1, 5), (1, 6), (2, 6), (2, 7), (3, 8)):
        g = direct_sum(heisenberg(m), abelian(n - 2 * m - 1))
        b = betti_profile(g).b
        assert b == tuple(betti_heisenberg_ext(m, n, k) for k in range(n + 1))


def test_kunneth_examples():
    # h_3 + a_2, h_3 + a_0 (the one-point profile is the identity) and
    # a_p + a_q, whose binomial rows convolve to a binomial row
    h = heisenberg(1)
    assert kunneth((1, 2, 2, 1), (1, 2, 1)) == (1, 4, 7, 7, 4, 1)
    assert betti_profile(direct_sum(h, abelian(2))).b == (1, 4, 7, 7, 4, 1)
    assert kunneth((1, 2, 2, 1), (1,)) == (1, 2, 2, 1)
    assert betti_profile(direct_sum(h, abelian(0))).b == (1, 2, 2, 1)
    for p in range(4):
        for q in range(4):
            left = tuple(comb(p, k) for k in range(p + 1))
            right = tuple(comb(q, k) for k in range(q + 1))
            expected = tuple(comb(p + q, k) for k in range(p + q + 1))
            assert kunneth(left, right) == expected
            assert betti_profile(direct_sum(abelian(p), abelian(q))).b == expected


def test_kunneth_commutative_associative():
    # the engine's profiles of a + b, b + a, (a + b) + c and a + (b + c)
    # against the convolution of the factors' profiles in either order
    rng = random.Random(42)
    factors = [aff_r(), heisenberg(1), abelian(2), diamond([1])[0]]
    for _ in range(10):
        a, b, c = rng.choice(factors), rng.choice(factors), rng.choice(factors)
        va, vb, vc = (betti_profile(g).b for g in (a, b, c))
        assert betti_profile(direct_sum(a, b)).b == kunneth(va, vb) == kunneth(vb, va)
        assert betti_profile(direct_sum(b, a)).b == kunneth(va, vb)
        left = betti_profile(direct_sum(direct_sum(a, b), c)).b
        right = betti_profile(direct_sum(a, direct_sum(b, c))).b
        assert left == right == kunneth(kunneth(va, vb), vc) == kunneth(va, kunneth(vb, vc))


def test_kunneth_matches_direct_sum():
    pairs = [
        (aff_r(), heisenberg(1)),
        (heisenberg(1), abelian(3)),
        (diamond([1])[0], abelian(2)),
    ]
    for a, b in pairs:
        expected = betti_profile(direct_sum(a, b))
        convolved = kunneth(betti_profile(a).b, betti_profile(b).b)
        assert convolved == expected.b
        assert BettiProfile.from_betti(a.dim + b.dim, convolved) == expected


def test_lambda_classes_basic():
    spec = lambda_classes([1, 1, -1, 2])
    assert isinstance(spec, LambdaSpec)
    assert len(spec.classes) == 2
    first, second = spec.classes
    assert first.rep == Scalar(1)
    assert (first.p, first.q) == (2, 1)
    assert first.members == (1, 2, 3)
    assert first.size == 3
    assert second.rep == Scalar(2)
    assert (second.p, second.q) == (1, 0)
    assert second.members == (4,)


def test_lambda_classes_complex_and_fractions():
    i = Scalar(0, 1)
    spec = lambda_classes([i, -i])
    assert len(spec.classes) == 1
    assert spec.classes[0].p == 1 and spec.classes[0].q == 1
    spec2 = lambda_classes([Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)])
    assert [cls.size for cls in spec2.classes] == [2, 1]


def test_lambda_classes_zero_rejected():
    with pytest.raises(ZeroLambda):
        lambda_classes([1, 0, 2])
    with pytest.raises(ZeroLambda):
        lambda_classes([0])


def test_lambda_class_sizes_permutation_invariant():
    rng = random.Random(13)
    entries = [1, -1, 2, 2, -2, 3, 1]
    reference = sorted(cls.size for cls in lambda_classes(entries).classes)
    for _ in range(10):
        shuffled = entries[:]
        rng.shuffle(shuffled)
        sizes = sorted(cls.size for cls in lambda_classes(shuffled).classes)
        assert sizes == reference


def test_diamond_b2_closed_form():
    # single parameter: 1 - 1 = 0
    assert diamond_b2(lambda_classes([5])) == 0
    # all parameters equal up to sign: one class of size n
    for n in (1, 2, 3, 4):
        entries = [Scalar(3) if k % 2 else Scalar(-3) for k in range(n)]
        assert diamond_b2(lambda_classes(entries)) == n * n - 1
    # generic parameters: n singleton classes
    for n in (1, 2, 3, 4):
        entries = [Scalar(k + 1) for k in range(n)]
        assert diamond_b2(lambda_classes(entries)) == n - 1
    # mixed example: sizes 3 and 1 give 9 + 1 - 1 = 9
    assert diamond_b2(lambda_classes([1, 1, -1, 2])) == 9


def test_diamond_b2_matches_engine():
    cases = [
        [1],
        [1, 1],
        [1, -1],
        [1, 2],
        [2, 2, 2],
        [1, -1, 2],
        [Fraction(1, 2), Fraction(1, 2)],
        [Scalar(0, 1), Scalar(0, -1)],
    ]
    for entries in cases:
        g, _ = diamond(entries)
        expected = betti_profile(g).b[2]
        assert diamond_b2(lambda_classes(entries)) == expected
        assert diamond_b2_general(entries) == expected


def test_diamond_b2_general_with_zeros():
    assert diamond_b2_general([0]) == 6
    assert diamond_b2_general([0, 0]) == 15
    assert diamond_b2_general([1, 0]) == 3
    # cross-check the zero cases against the engine directly
    for entries in ([0], [1, 0], [0, 2, 0]):
        g, _ = diamond(entries)
        assert diamond_b2_general(entries) == betti_profile(g).b[2]


def test_diamond_b2_general_matches_engine_on_seeded_lists():
    # zeros among parameters that collide up to sign, so the closed form
    # meets classes of several sizes beside abelian planes of several
    # dimensions, and lists of zeros alone
    rng = random.Random(181)
    pool = [0, 0, 1, -1, 2, Fraction(1, 2), Scalar(0, 1), Scalar(0, -1), Scalar(1, 1)]
    for _ in range(150):
        entries = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        assert diamond_b2_general(entries) == betti(diamond_algebra(entries), 2), entries
