"""Exterior algebra on the dual of a coefficient space.

A k-form is stored as a map from strictly increasing index tuples
(i_1 < .. < i_k) to nonzero scalars; the tuple (i_1, .., i_k) stands for
the monomial e_{i_1}* ^ .. ^ e_{i_k}*.  Forms are homogeneous: every
key of one form has the same length.  Monomials are ordered
lexicographically, and that order is the global row/column convention
for every matrix the cochain module builds.

Evaluation follows the determinant convention, so
(e_0* ^ e_1*)(e_0, e_1) = 1, the wedge sign of two monomials is the
parity of the permutation sorting their concatenation, and contracting
in a basis vector removes an index at 1-based position p with sign
(-1)**(p-1).

As text, a form is its terms in monomial order, joined by `` + `` or
`` - ``, or ``0`` when it has none.  A term is a coefficient and the
monomial's names joined by ``^``, such as ``-1/2 e0^e2``.  A real
coefficient gives its sign to the separator (a leading ``-`` on the
first term) and is left out when it is 1 before a monomial; a complex
one is written ``(re + im i)`` or ``(re - |im| i)`` after a `` + ``.
"""

from __future__ import annotations

import re
from itertools import combinations
from operator import lt

from .errors import DegreeOutOfRange, DegreeZero, DimensionMismatch
from .scalars import ONE, ZERO, Scalar, parse_rational

__all__ = [
    "ExteriorForm",
    "basis",
    "wedge",
    "format_form",
    "parse_form",
]


def basis(dim: int, k: int) -> list[tuple[int, ...]]:
    """All degree-k multi-indices on dim coordinates, lexicographically."""
    if not (0 <= k <= dim):
        raise DegreeOutOfRange(f"degree {k} outside 0..{dim}")
    return list(combinations(range(dim), k))


class ExteriorForm:
    """A homogeneous alternating form with exact scalar coefficients."""

    __slots__ = ("dim", "degree", "terms")

    def __init__(self, dim: int, degree: int, terms=None):
        # degrees above dim are allowed and describe the zero space: no
        # strictly increasing key of that length exists, so terms is empty
        if degree < 0:
            raise DegreeOutOfRange(f"degree {degree} is negative")
        clean: dict[tuple[int, ...], Scalar] = {}
        for key, value in (terms or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise DegreeOutOfRange(
                    f"key {key} has length {len(key)} in a degree-{degree} form"
                )
            # a strictly increasing key lies in range when its ends do
            if key and not (all(map(lt, key, key[1:])) and 0 <= key[0] and key[-1] < dim):
                if any(not (0 <= i < dim) for i in key):
                    raise DimensionMismatch(f"key {key} outside dimension {dim}")
                raise DimensionMismatch(f"key {key} is not strictly increasing")
            coeff = Scalar.coerce(value)
            if coeff:
                clean[key] = coeff
        self.dim = dim
        self.degree = degree
        self.terms = clean

    @classmethod
    def zero(cls, dim: int, degree: int) -> "ExteriorForm":
        return cls(dim, degree, {})

    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_shape(self, other: "ExteriorForm") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"forms on dimensions {self.dim} and {other.dim}"
            )
        if self.degree != other.degree:
            raise DegreeOutOfRange(
                f"cannot combine degrees {self.degree} and {other.degree}"
            )

    def __add__(self, other):
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        self._require_same_shape(other)
        terms = dict(self.terms)
        for key, value in other.terms.items():
            total = terms.get(key, ZERO) + value
            if total:
                terms[key] = total
            elif key in terms:
                del terms[key]
        return ExteriorForm(self.dim, self.degree, terms)

    def __sub__(self, other):
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExteriorForm(
            self.dim, self.degree, {k: -v for k, v in self.terms.items()}
        )

    def __rmul__(self, factor):
        factor = Scalar.coerce(factor)
        return ExteriorForm(
            self.dim, self.degree, {k: factor * v for k, v in self.terms.items()}
        )

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"ExteriorForm({self.dim}, {self.degree}, {format_form(self)!r})"


def wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    """Exterior product; bilinear, associative, graded anticommutative."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"forms on dimensions {a.dim} and {b.dim}")
    degree = a.degree + b.degree
    terms: dict[tuple[int, ...], Scalar] = {}
    for left, lv in a.terms.items():
        left_set = set(left)
        for right, rv in b.terms.items():
            if left_set & set(right):
                continue
            # sign: inversions between the two sorted blocks
            inversions = 0
            for r in right:
                for l in left:
                    if l > r:
                        inversions += 1
            merged = tuple(sorted(left + right))
            value = lv * rv
            if inversions % 2:
                value = -value
            total = terms.get(merged, ZERO) + value
            if total:
                terms[merged] = total
            elif merged in terms:
                del terms[merged]
    return ExteriorForm(a.dim, degree, terms)


def contract_basis(w: ExteriorForm, index: int) -> ExteriorForm:
    """Contraction of w with the basis vector e_index in the first slot."""
    if w.degree == 0:
        raise DegreeZero("cannot contract a degree-0 form")
    terms: dict[tuple[int, ...], Scalar] = {}
    for key, value in w.terms.items():
        try:
            position = key.index(index)
        except ValueError:
            continue
        reduced = key[:position] + key[position + 1 :]
        terms[reduced] = value if position % 2 == 0 else -value
    return ExteriorForm(w.dim, w.degree - 1, terms)


def default_names(dim: int) -> list[str]:
    return [f"e{k}" for k in range(dim)]


def format_form(w: ExteriorForm, names=None) -> str:
    """Render a form in the text layout of the module docstring."""
    if names is None:
        names = default_names(w.dim)
    if len(names) != w.dim:
        raise DimensionMismatch(f"{len(names)} names for dimension {w.dim}")
    if not w.terms:
        return "0"
    rendered = []
    for key in sorted(w.terms):
        value = w.terms[key]
        monomial = "^".join([names[i] for i in key])
        if value.im:
            sign = " + "
            coeff = f"({value.re} {'+' if value.im > 0 else '-'} {abs(value.im)} i)"
        else:
            num, den = value.re.numerator, value.re.denominator
            sign = " - " if num < 0 else " + "
            coeff = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if coeff == "1" and monomial:
                coeff = ""
        rendered += sign, coeff, " " if coeff and monomial else "", monomial
    text = "".join(rendered)
    return text[3:] if rendered[0] == " + " else "-" + text[3:]


# " + " or " - " between terms: not inside a parenthesised coefficient,
# so no ")" comes before the next "("
_SEPARATOR = re.compile(r" ([+-]) (?![^(]*\))")


def _complex(inner: str) -> Scalar:
    # the inside of "(re + im i)" or "(re - im i)", extra spaces allowed
    body = inner[:-2] if inner.endswith(" i") else ""
    for sep, sign in ((" + ", 1), (" - ", -1)):
        re_text, found, im_text = body.partition(sep)
        if found:
            return Scalar(parse_rational(re_text.strip()), sign * parse_rational(im_text.strip()))
    raise ValueError(f"cannot parse coefficient ({inner})")


def parse_form(text: str, dim: int, names=None, degree=None) -> ExteriorForm:
    """Read a form from the text layout of the module docstring.

    Spaces around terms, terms in any order, repeated monomials (summed)
    and a coefficient on any term are also accepted.  A real coefficient
    after a sign (a separator or a leading ``-``) is unsigned, since that
    sign is the term's; every other rational part is
    ``[+-]?\\d+(/\\d+)?`` in ASCII digits, read by
    ``scalars.parse_rational``.  ``degree`` is needed only for the text
    "0"; when given it must match.  Names must be unique.  Any other text
    raises ValueError.
    """
    if names is None:
        names = default_names(dim)
    if len(set(names)) != len(names):
        raise ValueError("names must be unique to parse a form")
    index_of = {name: i for i, name in enumerate(names)}
    text = text.strip()
    if text == "0":
        if degree is None:
            raise ValueError("parsing '0' needs an explicit degree")
        return ExteriorForm.zero(dim, degree)
    pieces = _SEPARATOR.split(text.removeprefix("-"))
    # "" for a first term that has no sign of its own
    signs = ["-" if text.startswith("-") else "", *pieces[1::2]]
    total: dict[tuple[int, ...], Scalar] = {}
    degrees = set()
    for sign, chunk in zip(signs, pieces[::2]):
        chunk = chunk.strip()
        head, _, tail = chunk.partition(" ")
        if chunk.startswith("("):
            close = chunk.index(")")
            coeff = _complex(chunk[1:close])
            rest = chunk[close + 1 :].strip()
        elif head in index_of or "^" in head:
            coeff, rest = ONE, chunk
        elif sign and head.startswith(("+", "-")):
            raise ValueError(f"signed coefficient {head!r} after the sign of its term")
        else:
            coeff, rest = Scalar(parse_rational(head)), tail.strip()
        key = tuple(index_of.get(name, -1) for name in rest.split("^")) if rest else ()
        if -1 in key:
            raise ValueError(f"unknown coordinate name in {rest!r}")
        if any(a >= b for a, b in zip(key, key[1:])):
            raise ValueError(f"monomial {rest!r} is not in increasing order")
        degrees.add(len(key))
        # the constructor drops the monomials whose terms cancel
        total[key] = total.get(key, ZERO) + (-coeff if sign == "-" else coeff)
    if len(degrees) > 1:
        raise ValueError("terms of different degrees in one form")
    (inferred,) = degrees
    if degree is not None and degree != inferred:
        raise ValueError(f"requested degree {degree} but parsed degree {inferred}")
    return ExteriorForm(dim, inferred, total)
