import random
from fractions import Fraction
from math import comb

import pytest

from liecoh.errors import DegreeOutOfRange, DegreeZero, DimensionMismatch
from liecoh.exterior import (
    ExteriorForm,
    basis,
    contract_basis,
    default_names,
    format_form,
    parse_form,
    wedge,
)
from liecoh.scalars import ONE, ZERO, Scalar

from helpers import covector, eval_monomial, random_form, random_scalar

I = Scalar(0, 1)


def test_basis_counts_and_order():
    assert basis(3, 0) == [()]
    assert basis(3, 1) == [(0,), (1,), (2,)]
    assert basis(4, 2) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]
    assert basis(3, 3) == [(0, 1, 2)]
    assert len(basis(10, 5)) == comb(10, 5)
    for k in range(11):
        assert len(basis(10, k)) == comb(10, k)
    with pytest.raises(DegreeOutOfRange):
        basis(3, 4)
    with pytest.raises(DegreeOutOfRange):
        basis(3, -1)


def test_constructor_validation():
    # each bad key is refused with its type and its message; the length
    # is checked first, then the range, then the order
    bad = [
        (-1, (), DegreeOutOfRange, "degree -1 is negative"),
        (2, (0,), DegreeOutOfRange, "key (0,) has length 1 in a degree-2 form"),
        (1, (0, 1), DegreeOutOfRange, "key (0, 1) has length 2 in a degree-1 form"),
        (2, (-1, 2), DimensionMismatch, "key (-1, 2) outside dimension 3"),
        (1, (-1,), DimensionMismatch, "key (-1,) outside dimension 3"),
        (2, (0, 3), DimensionMismatch, "key (0, 3) outside dimension 3"),
        (1, (3,), DimensionMismatch, "key (3,) outside dimension 3"),
        (2, (2, 0), DimensionMismatch, "key (2, 0) is not strictly increasing"),
        (3, (0, 2, 1), DimensionMismatch, "key (0, 2, 1) is not strictly increasing"),
        (2, (1, 1), DimensionMismatch, "key (1, 1) is not strictly increasing"),
        (2, (3, 0), DimensionMismatch, "key (3, 0) outside dimension 3"),
        (2, (2, -1), DimensionMismatch, "key (2, -1) outside dimension 3"),
        # ends in range, the middle neither in range nor in order
        (3, (0, 5, 2), DimensionMismatch, "key (0, 5, 2) outside dimension 3"),
        (3, (0, -4, 2), DimensionMismatch, "key (0, -4, 2) outside dimension 3"),
    ]
    for degree, key, error, message in bad:
        with pytest.raises(error) as raised:
            ExteriorForm(3, degree, {key: ONE} if key else None)
        assert type(raised.value) is error and str(raised.value) == message
    # degree above dim is the zero space, not an error
    assert ExteriorForm(2, 3).is_zero()
    # zero coefficients are purged
    assert ExteriorForm(3, 1, {(0,): ZERO}).is_zero()


def test_vector_space_operations():
    a = ExteriorForm(3, 1, {(0,): ONE, (1,): Scalar(2)})
    b = ExteriorForm(3, 1, {(1,): Scalar(-2), (2,): ONE})
    s = a + b
    assert s.terms == {(0,): ONE, (2,): ONE}
    assert (s - s).is_zero()
    assert (-a).terms == {(0,): -ONE, (1,): Scalar(-2)}
    assert (2 * a).terms == {(0,): Scalar(2), (1,): Scalar(4)}
    assert (a * Fraction(1, 2)).terms == {(0,): Scalar(Fraction(1, 2)), (1,): ONE}
    with pytest.raises(DegreeOutOfRange):
        a + ExteriorForm(3, 2)
    with pytest.raises(DimensionMismatch):
        a + ExteriorForm(4, 1)


def test_wedge_basics():
    e = [covector(4, i) for i in range(4)]
    assert wedge(e[0], e[1]).terms == {(0, 1): ONE}
    assert wedge(e[1], e[0]).terms == {(0, 1): -ONE}
    assert wedge(e[0], e[0]).is_zero()
    w = wedge(wedge(e[2], e[0]), e[1])
    assert w.terms == {(0, 1, 2): ONE}  # two inversions cancel


def test_wedge_graded_anticommutative():
    rng = random.Random(21)
    for _ in range(50):
        dim = rng.randint(2, 5)
        p = rng.randint(0, dim)
        q = rng.randint(0, dim - p)
        a = random_form(rng, dim, p)
        b = random_form(rng, dim, q)
        left = wedge(a, b)
        right = wedge(b, a)
        if (p * q) % 2:
            right = -right
        assert left == right


def test_wedge_associative_and_bilinear():
    rng = random.Random(33)
    for _ in range(40):
        dim = rng.randint(2, 5)
        a = random_form(rng, dim, rng.randint(0, 2))
        b = random_form(rng, dim, rng.randint(0, 2))
        c = random_form(rng, dim, rng.randint(0, 2))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        d = random_form(rng, dim, b.degree)
        assert wedge(a, b + d) == wedge(a, b) + wedge(a, d)
        t = random_scalar(rng)
        assert wedge(t * a, b) == t * wedge(a, b)


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        wedge(covector(3, 0), covector(4, 0))


def test_wedge_past_top_degree_is_zero():
    top = ExteriorForm(2, 2, {(0, 1): ONE})
    w = wedge(top, covector(2, 0))
    assert w.degree == 3
    assert w.is_zero()


def test_interior_product_determinant_convention():
    # contract_basis(w, j) is the interior product i_{e_j} w:
    # i_{e0}(e0^e1) = e1, i_{e1}(e0^e1) = -e0
    w = ExteriorForm(3, 2, {(0, 1): ONE})
    assert contract_basis(w, 0).terms == {(1,): ONE}
    assert contract_basis(w, 1).terms == {(0,): -ONE}
    assert contract_basis(w, 2).is_zero()
    v = ExteriorForm(3, 3, {(0, 1, 2): ONE})
    assert contract_basis(v, 2).terms == {(0, 1): ONE}
    assert contract_basis(v, 1).terms == {(0, 2): -ONE}


def test_interior_product_errors():
    with pytest.raises(DegreeZero):
        contract_basis(ExteriorForm(2, 0, {(): ONE}), 0)


def test_contract_basis_matches_interior_product():
    # the interior product by its definition, (i_x w)(v_1, ..) = w(x, v_1, ..),
    # evaluated on basis vectors
    rng = random.Random(55)
    for _ in range(60):
        dim = rng.randint(1, 5)
        degree = rng.randint(1, dim)
        w = random_form(rng, dim, degree)
        for index in range(dim):
            expected = {}
            for rest in basis(dim, degree - 1):
                value = ZERO
                for key, coeff in w.terms.items():
                    value = value + coeff * eval_monomial(key, index, rest)
                if value:
                    expected[rest] = value
            assert contract_basis(w, index) == ExteriorForm(dim, degree - 1, expected)


def test_interior_product_antiderivation():
    # i_x(a ^ b) = i_x(a) ^ b + (-1)^deg(a) a ^ i_x(b), for x = e_index
    rng = random.Random(77)
    checked = 0
    while checked < 100:
        dim = rng.randint(2, 5)
        p = rng.randint(1, dim - 1)
        q = rng.randint(1, dim - p)
        a = random_form(rng, dim, p)
        b = random_form(rng, dim, q)
        index = rng.randrange(dim)
        left = contract_basis(wedge(a, b), index)
        right = wedge(contract_basis(a, index), b)
        second = wedge(a, contract_basis(b, index))
        if p % 2:
            second = -second
        assert left == right + second
        checked += 1


def test_interior_product_squares_to_zero():
    # i_x i_x = 0 for every x means i_{e_j} i_{e_j} = 0 and
    # i_{e_j} i_{e_l} = -i_{e_l} i_{e_j}, by bilinearity
    rng = random.Random(88)
    for _ in range(40):
        dim = rng.randint(2, 5)
        degree = rng.randint(2, dim)
        w = random_form(rng, dim, degree)
        j, l = rng.randrange(dim), rng.randrange(dim)
        assert contract_basis(contract_basis(w, j), j).is_zero()
        assert contract_basis(contract_basis(w, j), l) == -contract_basis(
            contract_basis(w, l), j
        )


def test_format_examples():
    e = default_names(4)
    assert format_form(ExteriorForm.zero(4, 2)) == "0"
    w = ExteriorForm(4, 2, {(0, 1): ONE, (2, 3): Scalar(-1)})
    assert format_form(w) == "e0^e1 - e2^e3"
    w2 = ExteriorForm(4, 1, {(0,): Scalar(Fraction(-1, 2)), (3,): Scalar(5)})
    assert format_form(w2) == "-1/2 e0 + 5 e3"
    w3 = ExteriorForm(2, 1, {(0,): Scalar(1, 1), (1,): Scalar(0, -2)})
    assert format_form(w3) == "(1 + 1 i) e0 + (0 - 2 i) e1"
    w4 = ExteriorForm(2, 0, {(): Scalar(-3)})
    assert format_form(w4) == "-3"
    assert format_form(w, names=["a", "b", "c", "d"]) == "a^b - c^d"
    with pytest.raises(DimensionMismatch):
        format_form(w, names=["a", "b"])


def test_parse_examples():
    w = parse_form("e0^e1 - e2^e3", 4)
    assert w.terms == {(0, 1): ONE, (2, 3): -ONE}
    w2 = parse_form("-1/2 e0 + 5 e3", 4)
    assert w2.terms == {(0,): Scalar(Fraction(-1, 2)), (3,): Scalar(5)}
    w3 = parse_form("(1 + 1 i) e0 + (0 - 2 i) e1", 2)
    assert w3.terms == {(0,): Scalar(1, 1), (1,): Scalar(0, -2)}
    z = parse_form("0", 3, degree=2)
    assert z.is_zero() and z.degree == 2
    with pytest.raises(ValueError):
        parse_form("0", 3)
    with pytest.raises(ValueError):
        parse_form("e0 + e1^e2", 3)
    with pytest.raises(ValueError):
        parse_form("q7", 3)
    w4 = parse_form("a^b", 2, names=["a", "b"])
    assert w4.terms == {(0, 1): ONE}
    with pytest.raises(ValueError):
        parse_form("a", 2, names=["a", "a"])
    # zero denominators, monomials out of order, coefficients outside
    # the rational grammar (exponents, decimals, underscores, non-ASCII
    # digits) and a real coefficient signed after its term's sign are
    # malformed text too
    for text in (
        "9/0 e0", "(1 + 2/0 i) e0", "e1^e0", "e0^e0",
        "2e0", "1_0 e0", "1.5 e0", "(1.5 + 1_0 i) e0", "\u0662 e0",
        "--2 e0", "-+2 e0", "e0 - -2 e1", "- -2 e0",
    ):
        with pytest.raises(ValueError):
            parse_form(text, 2)


def test_format_parse_round_trip_random():
    rng = random.Random(101)
    for _ in range(200):
        dim = rng.randint(1, 6)
        degree = rng.randint(0, dim)
        w = random_form(rng, dim, degree)
        text = format_form(w)
        back = parse_form(text, dim, degree=degree)
        assert back == w, (text, w.terms, back.terms)


def test_round_trip_with_labels():
    names = ["Z", "X1", "X2"]
    w = ExteriorForm(3, 2, {(0, 1): Scalar(2), (1, 2): -I})
    text = format_form(w, names)
    assert text == "2 Z^X1 + (0 - 1 i) X1^X2"
    assert parse_form(text, 3, names=names) == w


_EDIT_CHARACTERS = " +-^()/i0123456789eXZ"


def _mutate(rng, text):
    # a few single-character insertions, deletions and replacements
    chars = list(text)
    for _ in range(rng.randint(0, 6)):
        position = rng.randint(0, len(chars))
        edit = rng.randrange(3)
        if edit == 0 or not chars:
            chars.insert(position, rng.choice(_EDIT_CHARACTERS))
        elif position < len(chars):
            if edit == 1:
                del chars[position]
            else:
                chars[position] = rng.choice(_EDIT_CHARACTERS)
    return "".join(chars)


@pytest.mark.parametrize("seed", [131, 132])
def test_parse_mutated_text_raises_only_value_error(seed):
    # every text parse_form accepts round-trips through format_form, and
    # every one it refuses is refused with ValueError
    rng = random.Random(seed)
    accepted = refused = 0
    for _ in range(1500):
        dim = rng.randint(1, 5)
        names = rng.choice((None, ["Z", "X1", "X2", "Y1", "Y2"][:dim]))
        w = random_form(rng, dim, rng.randint(0, dim), complex_rate=0.4)
        text = _mutate(rng, format_form(w, names))
        try:
            back = parse_form(text, dim, names, degree=rng.choice((None, w.degree)))
        except ValueError:
            refused += 1
            continue
        accepted += 1
        again = format_form(back, names)
        assert parse_form(again, dim, names, degree=back.degree) == back, (text, again)
    assert accepted > 300 and refused > 300
