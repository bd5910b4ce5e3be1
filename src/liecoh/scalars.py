"""Exact Gaussian-rational arithmetic, and the engine's one edge to it.

Every coefficient in the engine is an element of Q(i): a complex number
whose real and imaginary parts are arbitrary-precision rationals.  There
is no floating point anywhere, so equality tests are exact and ranks,
kernels and Betti numbers computed downstream are exact integers.

A rational part as text is ``[+-]?\\d+(/\\d+)?`` in ASCII digits, such
as ``3``, ``+2`` or ``-1/2``.  ``parse_rational`` reads it, and refuses
anything else with ValueError, for the JSON schema (``scalar_from_json``),
the compact grammar (``parse_scalar``) and form text
(``exterior.parse_form``); ``Scalar`` takes no text.  The compact grammar
is whitespace-free: ``3``, ``-1/2``, ``i``, ``2/3i``, ``1/2+3/4i``,
``1/2-3/4i``; ``str()`` writes it back, and the round trip is the
identity.  The engine works on Gaussian integers: ``denominator`` and
``Scalar.scaled`` give them from Scalars, and ``Scalar.from_gaussian``
turns (re + im i) / d back into a Scalar.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import lcm

__all__ = ["Scalar", "parse_rational", "parse_scalar", "denominator", "ZERO", "ONE"]


def _as_fraction(value) -> Fraction:
    # a Fraction is immutable, so it is kept rather than copied
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, str)):
        raise TypeError(f"Scalar parts are int or Fraction, not {type(value).__name__}")
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

    @staticmethod
    def from_gaussian(re: int, im: int, d: int) -> "Scalar":
        """The Scalar (re + im i) / d of a Gaussian integer over d != 0."""
        return Scalar(Fraction(re, d), Fraction(im, d))

    def scaled(self, d: int) -> tuple[int, int]:
        """The Gaussian integer (re, im) of d times this Scalar, for a
        multiple d of both denominators, as ``denominator`` gives."""
        return (
            self.re.numerator * (d // self.re.denominator),
            self.im.numerator * (d // self.im.denominator),
        )

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


def denominator(values) -> int:
    """The least common denominator of the parts of some Scalars, 1 for
    none; each Scalar times it is ``scaled`` to a Gaussian integer."""
    return lcm(*(part.denominator for value in values for part in (value.re, value.im)))


_NUM = r"\d+(?:/\d+)?"
_RATIONAL_RE = _re.compile(r"([+-]?\d+)(?:/(\d+))?", _re.ASCII)


def parse_rational(text) -> Fraction:
    """Read a rational part in the grammar of the module docstring;
    ValueError on anything else, a non-string included."""
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"cannot read real value {text!r}; expected a string like '-3/4'")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# the real part must end the string or be followed by a signed imaginary
# part, otherwise "2i" would split as re="2", im="i"
_SCALAR_RE = _re.compile(rf"(?P<re>[+-]?{_NUM}(?=$|[+-]))?(?P<im>[+-]?(?:{_NUM})?i)?", _re.ASCII)


def parse_scalar(text: str) -> Scalar:
    """Parse the whitespace-free scalar grammar into a Scalar.

    Accepts ``p``, ``p/q``, ``ri``, ``r/si``, ``i`` and signed
    combinations such as ``1/2-3/4i``.  Raises ValueError on anything
    else (floats, empty strings and zero denominators included).
    """
    # fullmatch, since "$" also matches before a final newline
    match = _SCALAR_RE.fullmatch(text)
    re_text, im_text = match.group("re", "im") if match else (None, None)
    if re_text is None and im_text is None:
        raise ValueError(f"cannot parse scalar {text!r}")
    # "i", "+i" and "-i" carry an implicit 1
    im_body = im_text[:-1] if im_text else "0"
    if im_body in ("", "+", "-"):
        im_body += "1"
    try:
        return Scalar(parse_rational(re_text or "0"), parse_rational(im_body))
    except ValueError:
        # the pattern has checked the grammar, so a part fails only on a
        # zero denominator
        raise ValueError(f"zero denominator in scalar {text!r}") from None


def scalar_to_json(value: Scalar):
    """Render a scalar for the JSON algebra schema."""
    if not value.im:
        return str(value.re)
    return {"re": str(value.re), "im": str(value.im)}


def scalar_from_json(data) -> Scalar:
    """Read a scalar from the JSON algebra schema.

    Real values are strings like ``"-3/4"``; complex values are objects
    ``{"re": "p/q", "im": "r/s"}`` with either key optional.  Anything
    else raises ValueError.
    """
    if isinstance(data, str):
        return Scalar(parse_rational(data))
    if isinstance(data, dict):
        extra = set(data) - {"re", "im"}
        if extra:
            raise ValueError(f"unexpected scalar keys {sorted(extra)}")
        return Scalar(parse_rational(data.get("re", "0")), parse_rational(data.get("im", "0")))
    raise ValueError(f"cannot read scalar from {data!r}")


ZERO = Scalar(0)
ONE = Scalar(1)
