"""Exact Gaussian-rational arithmetic.

Every coefficient in the engine is an element of Q(i): a complex number
whose real and imaginary parts are arbitrary-precision rationals.  There
is no floating point anywhere, so equality tests are exact and ranks,
kernels and Betti numbers computed downstream are exact integers.

The compact text grammar used on the command line and in matrix exports
is whitespace-free: ``3``, ``-1/2``, ``i``, ``2/3i``, ``1/2+3/4i``,
``1/2-3/4i``.  ``parse_scalar`` reads it and ``str()`` writes it back;
the round trip is the identity.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

__all__ = ["Scalar", "parse_scalar", "ZERO", "ONE"]


def _as_fraction(value) -> Fraction:
    # a Fraction is immutable, so it is kept rather than copied
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floating point input would not be exact; pass int, Fraction or str")
    return Fraction(value)


class Scalar:
    """A Gaussian rational re + im*i with exact field arithmetic.

    Both parts are `fractions.Fraction`, so they are always in lowest
    terms with positive denominator.  Instances are immutable in use and
    hashable; arithmetic with plain ints and Fractions coerces them.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    @staticmethod
    def coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(value)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(other) - self
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(other) / self
        return NotImplemented

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im}i"
        if not self.re:
            return imag
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{imag}"

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"


_NUM = r"\d+(?:/\d+)?"
# the real part must end the string or be followed by a signed imaginary
# part, otherwise "2i" would split as re="2", im="i"
_SCALAR_RE = _re.compile(
    rf"^(?P<re>[+-]?{_NUM}(?=$|[+-]))?(?P<im>[+-]?(?:{_NUM})?i)?$"
)


def parse_scalar(text: str) -> Scalar:
    """Parse the whitespace-free scalar grammar into a Scalar.

    Accepts ``p``, ``p/q``, ``ri``, ``r/si``, ``i`` and signed
    combinations such as ``1/2-3/4i``.  Raises ValueError on anything
    else (floats, empty strings and zero denominators included).
    """
    match = _SCALAR_RE.match(text)
    if match is None or (match.group("re") is None and match.group("im") is None):
        raise ValueError(f"cannot parse scalar {text!r}")
    re_part = Fraction(0)
    im_part = Fraction(0)
    try:
        if match.group("re") is not None:
            re_part = Fraction(match.group("re"))
        if match.group("im") is not None:
            body = match.group("im")[:-1]
            if body in ("", "+"):
                im_part = Fraction(1)
            elif body == "-":
                im_part = Fraction(-1)
            else:
                im_part = Fraction(body)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None
    return Scalar(re_part, im_part)


def scalar_to_json(value: Scalar):
    """Render a scalar for the JSON algebra schema."""
    if not value.im:
        return str(value.re)
    return {"re": str(value.re), "im": str(value.im)}


_JSON_REAL_RE = _re.compile(rf"[+-]?{_NUM}", _re.ASCII)


def _real_from_json(data) -> Fraction:
    # a real value is a string [+-]?\d+(/\d+)?; JSON numbers, floats,
    # exponents and anything else are refused
    if not isinstance(data, str) or _JSON_REAL_RE.fullmatch(data) is None:
        raise ValueError(f"cannot read real value {data!r}; expected a string like '-3/4'")
    try:
        return Fraction(data)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {data!r}") from None


def scalar_from_json(data) -> Scalar:
    """Read a scalar from the JSON algebra schema.

    Real values are strings like ``"-3/4"``; complex values are objects
    ``{"re": "p/q", "im": "r/s"}`` with either key optional.  Anything
    else raises ValueError.
    """
    if isinstance(data, str):
        return Scalar(_real_from_json(data))
    if isinstance(data, dict):
        extra = set(data) - {"re", "im"}
        if extra:
            raise ValueError(f"unexpected scalar keys {sorted(extra)}")
        re_part = _real_from_json(data["re"]) if "re" in data else Fraction(0)
        im_part = _real_from_json(data["im"]) if "im" in data else Fraction(0)
        return Scalar(re_part, im_part)
    raise ValueError(f"cannot read scalar from {data!r}")


ZERO = Scalar(0)
ONE = Scalar(1)
