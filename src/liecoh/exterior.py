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
"""

from __future__ import annotations

from itertools import combinations

from .errors import DegreeOutOfRange, DegreeZero, DimensionMismatch
from .scalars import ZERO, Scalar

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
            if any(not (0 <= i < dim) for i in key):
                raise DimensionMismatch(f"key {key} outside dimension {dim}")
            if any(a >= b for a, b in zip(key, key[1:])):
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


def _display_coeff(value: Scalar) -> tuple[str, bool]:
    # returns (text, carries_own_sign); real coefficients let the caller
    # pull the sign into the separator, complex ones are parenthesised
    if not value.im:
        return str(value.re), False
    sign = " + " if value.im > 0 else " - "
    return f"({value.re}{sign}{abs(value.im)} i)", True


def default_names(dim: int) -> list[str]:
    return [f"e{k}" for k in range(dim)]


def format_form(w: ExteriorForm, names=None) -> str:
    """Render a form as ``c n1^n2 + ...`` with deterministic term order."""
    if names is None:
        names = default_names(w.dim)
    if len(names) != w.dim:
        raise DimensionMismatch(f"{len(names)} names for dimension {w.dim}")
    if not w.terms:
        return "0"
    pieces = []
    for key in sorted(w.terms):
        value = w.terms[key]
        monomial = "^".join(names[i] for i in key)
        coeff, self_signed = _display_coeff(value)
        if self_signed:
            body = f"{coeff} {monomial}" if monomial else coeff
            pieces.append(("+", body))
        else:
            negative = coeff.startswith("-")
            magnitude = coeff[1:] if negative else coeff
            if monomial and magnitude == "1":
                body = monomial
            elif monomial:
                body = f"{magnitude} {monomial}"
            else:
                body = magnitude
            pieces.append(("-" if negative else "+", body))
    sign, body = pieces[0]
    rendered = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        rendered += f" + {body}" if sign == "+" else f" - {body}"
    return rendered


def _split_terms(text: str) -> list[tuple[int, str]]:
    # split on top-level " + " / " - ", respecting parentheses
    terms = []
    sign = 1
    depth = 0
    start = 0
    if text.startswith("-"):
        sign = -1
        start = 1
    current = start
    i = start
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", i):
            terms.append((sign, text[current:i]))
            sign = 1
            i += 3
            current = i
            continue
        elif depth == 0 and text.startswith(" - ", i):
            terms.append((sign, text[current:i]))
            sign = -1
            i += 3
            current = i
            continue
        i += 1
    terms.append((sign, text[current:]))
    return terms


def _parse_coeff_body(body: str) -> Scalar:
    # inverse of _display_coeff for the parenthesised complex layout
    inner = body[1:-1]
    if not inner.endswith(" i"):
        raise ValueError(f"cannot parse coefficient {body!r}")
    inner = inner[:-2]
    for sep, sgn in ((" + ", 1), (" - ", -1)):
        if sep in inner:
            re_text, im_text = inner.split(sep, 1)
            from fractions import Fraction

            return Scalar(Fraction(re_text), sgn * Fraction(im_text))
    raise ValueError(f"cannot parse coefficient {body!r}")


def parse_form(text: str, dim: int, names=None, degree=None) -> ExteriorForm:
    """Parse the output of format_form back into a form.

    ``degree`` is only needed for the text "0", which carries no terms
    to infer it from.  Names must be unique.
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
    from fractions import Fraction

    total: dict[tuple[int, ...], Scalar] = {}
    inferred = None
    for sign, chunk in _split_terms(text):
        chunk = chunk.strip()
        if chunk.startswith("("):
            close = chunk.index(")")
            coeff = _parse_coeff_body(chunk[: close + 1])
            rest = chunk[close + 1 :].strip()
        else:
            head, _, tail = chunk.partition(" ")
            if head in index_of or "^" in head:
                coeff = Scalar(1)
                rest = chunk
            else:
                coeff = Scalar(Fraction(head))
                rest = tail.strip()
        if sign < 0:
            coeff = -coeff
        if rest:
            parts = rest.split("^")
            for name in parts:
                if name not in index_of:
                    raise ValueError(f"unknown coordinate name {name!r}")
            indices = tuple(index_of[name] for name in parts)
        else:
            indices = ()
        if inferred is None:
            inferred = len(indices)
        elif inferred != len(indices):
            raise ValueError("terms of different degrees in one form")
        value = total.get(indices, ZERO) + coeff
        if value:
            total[indices] = value
        elif indices in total:
            del total[indices]
    if degree is not None and inferred is not None and degree != inferred:
        raise ValueError(f"requested degree {degree} but parsed degree {inferred}")
    return ExteriorForm(dim, inferred if inferred is not None else degree, total)
