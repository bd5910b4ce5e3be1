"""Quadratic Lie algebras and the super-Poisson route to the coboundary.

A quadratic structure is an algebra together with a symmetric,
non-degenerate, invariant bilinear form B, meaning
B([x, y], z) = B(x, [y, z]).  Attached to it:

* the metric-dual basis Y_i with B(Y_i, .) = e_i*, read off the columns
  of the inverse form matrix (whose entries are the Gram values
  B(Y_i, Y_j));
* the alternating three-form i(x, y, z) = B([x, y], z);
* a super-Poisson bracket on forms,

      {a, b} = (-1)**(deg a + 1) *
               sum_{i,j} B(Y_i, Y_j) (e_i . a) ^ (e_j . b)

  where e . w is contraction in the first slot.

The crucial identity, checked exhaustively in the tests: the coboundary
of any form of positive degree equals -{i, .} applied to it, so the
cochain machinery and this module compute the same differential along
entirely different routes.
"""

from __future__ import annotations

from . import linalg
from .errors import Degenerate, DegreeZero, DimensionMismatch, NotInvariant, NotSymmetric
from .exterior import ExteriorForm, contract_basis, wedge
from .lie_algebra import LieAlgebra
from .scalars import ZERO, Scalar

__all__ = [
    "QuadraticStructure",
    "validate",
    "associated_three_form",
    "super_poisson",
    "coboundary_via_poisson",
]


class QuadraticStructure:
    """An algebra with a validated invariant scalar product.

    ``form`` is the matrix of B on the basis; ``sharp`` is its inverse,
    which doubles as the Gram matrix of the metric-dual basis.  Both are
    tuples of tuples of scalars.  Build instances through ``validate``.
    """

    __slots__ = ("algebra", "form", "sharp", "_three_form")

    def __init__(self, algebra: LieAlgebra, form, sharp):
        self.algebra = algebra
        self.form = form
        self.sharp = sharp
        self._three_form = None

    def three_form(self) -> ExteriorForm:
        if self._three_form is None:
            self._three_form = associated_three_form(self)
        return self._three_form


def validate(algebra: LieAlgebra, form) -> QuadraticStructure:
    """Check symmetry, non-degeneracy and invariance; package the result.

    Raises NotSymmetric, Degenerate or NotInvariant (with the offending
    basis triple) as appropriate.
    """
    n = algebra.dim
    rows = [list(row) for row in form]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise DimensionMismatch(f"form matrix must be {n} x {n}")
    matrix = tuple(tuple(Scalar.coerce(v) for v in row) for row in rows)
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise NotSymmetric(
                    f"form[{i}][{j}] = {matrix[i][j]} but form[{j}][{i}] = {matrix[j][i]}"
                )
    try:
        sharp = tuple(tuple(row) for row in linalg.inverse(matrix))
    except ValueError:
        raise Degenerate("form matrix has determinant zero") from None
    triple = _first_non_invariant(algebra, matrix)
    if triple is not None:
        raise NotInvariant(*triple)
    return QuadraticStructure(algebra, matrix, sharp)


def _bracket_table(algebra: LieAlgebra, matrix) -> dict[tuple[int, int, int], Scalar]:
    """T(a, b, c) = B([e_a,e_b], e_c) for a < b, built from the brackets
    and the nonzero entries of B; the triples it leaves out are 0."""
    nonzero = [{c: v for c, v in enumerate(row) if v} for row in matrix]
    table: dict[tuple[int, int, int], Scalar] = {}
    for (a, b), vector in algebra.brackets.items():
        for l, coeff in vector.items():
            for c, value in nonzero[l].items():
                table[(a, b, c)] = table.get((a, b, c), ZERO) + coeff * value
    return table


def _first_non_invariant(algebra: LieAlgebra, matrix):
    """The first basis triple (i, j, k) with j < k, in the order of j,
    then k, then i, where B([e_i,e_j], e_k) != B(e_i, [e_j,e_k]), with
    both values; None if B is invariant.

    B is symmetric here, so the right side is B([e_j,e_k], e_i).  With
    T from ``_bracket_table``, the triple fails when T(i, j, k) !=
    T(j, k, i), and only a triple naming a nonzero T in one of those two
    places can.
    """
    table = _bracket_table(algebra, matrix)

    def t(a, b, c):
        return table.get((a, b, c), ZERO) if a < b else -table.get((b, a, c), ZERO)

    candidates = set()
    for a, b, c in table:
        candidates.add((c, a, b))
        if b < c:
            candidates.add((a, b, c))
        if a < c:
            candidates.add((b, a, c))
    failures = [
        (j, k, i) for i, j, k in candidates if t(i, j, k) != table.get((j, k, i), ZERO)
    ]
    if not failures:
        return None
    j, k, i = min(failures)
    return (i, j, k), t(i, j, k), table.get((j, k, i), ZERO)


def associated_three_form(structure: QuadraticStructure) -> ExteriorForm:
    """The alternating form i(x, y, z) = B([x, y], z), whose coefficient
    on e_a* ^ e_b* ^ e_c* is T(a, b, c)."""
    table = _bracket_table(structure.algebra, structure.form)
    terms = {(a, b, c): value for (a, b, c), value in table.items() if b < c}
    return ExteriorForm(structure.algebra.dim, 3, terms)


def super_poisson(structure: QuadraticStructure, a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    """The super-Poisson bracket of two forms of positive degree."""
    n = structure.algebra.dim
    if a.degree == 0 or b.degree == 0:
        raise DegreeZero("the super-Poisson bracket needs degrees >= 1")
    if a.dim != n or b.dim != n:
        raise DimensionMismatch("forms must live on the algebra of the structure")
    flip = a.degree % 2 == 0  # (-1)**(deg a + 1)
    result = ExteriorForm.zero(n, a.degree + b.degree - 2)
    left_cache: dict[int, ExteriorForm] = {}
    right_cache: dict[int, ExteriorForm] = {}
    for i in range(n):
        for j in range(n):
            coeff = structure.sharp[i][j]
            if not coeff:
                continue
            if i not in left_cache:
                left_cache[i] = contract_basis(a, i)
            u = left_cache[i]
            if u.is_zero():
                continue
            if j not in right_cache:
                right_cache[j] = contract_basis(b, j)
            v = right_cache[j]
            if v.is_zero():
                continue
            piece = coeff * wedge(u, v)
            result = result + (-piece if flip else piece)
    return result


def coboundary_via_poisson(structure: QuadraticStructure, w: ExteriorForm) -> ExteriorForm:
    """The coboundary computed as -{three-form, w}.

    Degree-0 forms go to zero (their coboundary vanishes for trivial
    coefficients), matching the matrix route.
    """
    if w.dim != structure.algebra.dim:
        raise DimensionMismatch("form must live on the algebra of the structure")
    if w.degree == 0:
        return ExteriorForm.zero(w.dim, 1)
    return -super_poisson(structure, structure.three_form(), w)
