import random
import re
import sys
from fractions import Fraction

import pytest

from liecoh.exterior import parse_form
from liecoh.scalars import (
    ONE,
    ZERO,
    Scalar,
    parse_rational,
    parse_scalar,
    scalar_from_json,
    scalar_to_json,
)

I = Scalar(0, 1)


def test_construction_coerces_ints_and_fractions():
    assert Scalar(2).re == Fraction(2)
    assert Scalar(Fraction(1, 3)).re == Fraction(1, 3)
    assert Scalar(0, 1) == I
    assert Scalar(1) == ONE


def test_floats_rejected():
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar(1, 0.25)


def test_strings_rejected():
    # text goes through the readers, never the constructor
    with pytest.raises(TypeError):
        Scalar("1/2")


def test_field_axioms_random():
    rng = random.Random(42)

    def rand():
        return Scalar(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


def test_mixed_arithmetic_with_ints_and_fractions():
    a = Scalar(Fraction(1, 2), 1)
    assert a + 1 == Scalar(Fraction(3, 2), 1)
    assert 1 + a == Scalar(Fraction(3, 2), 1)
    assert a * 2 == Scalar(1, 2)
    assert 2 * a == Scalar(1, 2)
    assert a - Fraction(1, 2) == Scalar(0, 1)
    assert I * I == -1


def test_str_grammar():
    assert str(Scalar(0)) == "0"
    assert str(Scalar(1)) == "1"
    assert str(Scalar(-1)) == "-1"
    assert str(Scalar(Fraction(3, 4))) == "3/4"
    assert str(Scalar(Fraction(-3, 4))) == "-3/4"
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(Scalar(0, Fraction(-3, 4))) == "-3/4i"
    assert str(Scalar(Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4i"
    assert str(Scalar(1, -1)) == "1-i"
    assert str(Scalar(-2, Fraction(1, 3))) == "-2+1/3i"
    # no whitespace anywhere
    for s in (Scalar(1, 1), Scalar(Fraction(-1, 2), Fraction(5, 7))):
        assert " " not in str(s)


def test_parse_examples():
    assert parse_scalar("0") == ZERO
    assert parse_scalar("1") == ONE
    assert parse_scalar("-3/4") == Scalar(Fraction(-3, 4))
    assert parse_scalar("i") == I
    assert parse_scalar("-i") == -I
    assert parse_scalar("2i") == Scalar(0, 2)
    assert parse_scalar("1/2+3/4i") == Scalar(Fraction(1, 2), Fraction(3, 4))
    assert parse_scalar("1-i") == Scalar(1, -1)
    assert parse_scalar("-2+1/3i") == Scalar(-2, Fraction(1, 3))


def test_parse_rejects_garbage():
    for bad in (
        "", "1.5", "x", "1 + i", "i+1", "1/", "/2", "++1", "1+i+1", "1/0", "1-1/0i",
        # digits are ASCII only: ARABIC-INDIC TWO and THREE are refused
        "\u0662", "1/\u0663", "\u0662i",
        # nothing may follow the scalar, not even a newline
        "1\n", "2i\n",
    ):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_parse_str_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        s = Scalar(
            Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
        )
        assert parse_scalar(str(s)) == s


def test_json_round_trip():
    assert scalar_to_json(Scalar(Fraction(1, 2))) == "1/2"
    obj = scalar_to_json(Scalar(1, -2))
    assert obj == {"re": "1", "im": "-2"}
    for s in (ZERO, ONE, I, Scalar(Fraction(-5, 3), Fraction(2, 7))):
        assert scalar_from_json(scalar_to_json(s)) == s


def test_hash_consistent_with_eq():
    assert hash(Scalar(2)) == hash(Scalar(Fraction(2)))
    d = {Scalar(1, 1): "a"}
    assert d[Scalar(Fraction(1), Fraction(1))] == "a"


def test_bool():
    assert not ZERO
    assert ONE
    assert Scalar(0, Fraction(1, 5))


def _outcome(read, text):
    try:
        return read(text)
    except ValueError:
        return ValueError


def test_readers_agree_on_rational_text_random():
    # scalar_from_json, parse_scalar and a parse_form coefficient read one
    # grammar: on any text each gives the same value or each ValueError.
    # A leading "-" is left out, since parse_form reads it as the sign of
    # the first term.
    alphabet = "0123456789/+-._e\u0662"
    rng = random.Random(44)
    readers = (
        scalar_from_json,
        parse_scalar,
        lambda text: parse_form(text + " e0", 1).terms.get((0,), ZERO),
    )
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        if text.startswith("-"):
            continue
        outcomes = [_outcome(read, text) for read in readers]
        assert outcomes[0] == outcomes[1] == outcomes[2], (text, outcomes)


def _stdlib_reading(text):
    """A rational part read by the standard library's Fraction parser,
    after the grammar of the scalars module: its value, or the text of
    the ValueError that parse_rational raises."""
    if not re.fullmatch(r"[+-]?\d+(?:/\d+)?", text, re.ASCII):
        return f"cannot read real value {text!r}; expected a string like '-3/4'"
    try:
        return Fraction(text)
    except ZeroDivisionError:
        return f"zero denominator in {text!r}"
    except ValueError as exc:  # a digit string over the int limit
        return str(exc)


def test_parse_rational_matches_the_stdlib_reader_random():
    # the same value or the same ValueError text on a seeded corpus:
    # signs, leading zeros, -0 and 0/q, zero denominators, text outside
    # the grammar, and digit strings around the int conversion limit
    limit = sys.get_int_max_str_digits()
    corpus = [
        "0", "-0", "+0", "0/7", "-0/7", "+0/1", "007", "-007/0010", "+5", "+05/02",
        "5/0", "0/0", "-3/00", "+1/000", "1/", "/2", "+-1", "1.5", " 1", "1 ", "1\n",
        "1_0", "\u0662", "1/\u0663", "", "-", "+", "1//2", "1/2/3",
        "1" * limit, "-" + "9" * limit, "1" * (limit + 1), "+" + "0" * (limit + 1),
        "1/" + "2" * (limit + 1), "9" * (limit + 5) + "/0", "-" + "3" * limit + "/0",
    ]
    alphabet = "0123456789/+-. e_\u0662"
    rng = random.Random(4848)
    for _ in range(3000):
        sign = rng.choice(("", "", "-", "+"))
        num = "0" * rng.randint(0, 2) + str(rng.randint(0, 10 ** rng.randint(0, 30)))
        den = "" if rng.random() < 0.4 else "/" + "0" * rng.randint(0, 2) + str(rng.randint(0, 99))
        corpus.append(sign + num + den)
        corpus.append("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6))))
    for text in corpus:
        try:
            outcome = parse_rational(text)
        except ValueError as exc:
            outcome = str(exc)
        expected = _stdlib_reading(text)
        assert outcome == expected and type(outcome) is type(expected), text[:40]
    for value in (None, 3, Fraction(1, 2), b"1"):
        with pytest.raises(ValueError, match="cannot read real value"):
            parse_rational(value)
