"""Lie algebra cohomology with trivial coefficients.

The coboundary of a k-form f is

    (d f)(x_0, .., x_k) = sum_{i<j} (-1)**(i+j) f([x_i, x_j], x_0, ..
                          omitting x_i and x_j .., x_k)

On the dual basis this means d(e_l*) = -sum_{i<j} c^l_{ij} e_i* ^ e_j*
where the c are the structure constants, and d extends to all of the
exterior algebra as an antiderivation.

Degree-k cochains are coordinatised by the lexicographic monomial list
``exterior.basis(dim, k)``.  The matrix of d in degree k then has
C(n, k+1) rows and C(n, k) columns; its exact rank gives Betti numbers
through  b_k = C(n, k) - rank d_{k-1} - rank d_k  with the out-of-range
ranks defined to be zero.

``coboundary_matrix`` assembles that matrix in Gaussian integers.  It
walks the degree-k monomials as bitmasks through the algebra's table of
D d(e_l*), D the lcm of the structure constants' denominators, and
writes the rows of D d_k as ``{column: (re, im)}``.
Scaling by D changes no rank, kernel, echelon form or span, so every
rank and basis function hands those rows to ``linalg`` as they are;
Scalars appear only in the forms that come out and in the ``entries``
of d_k that ``export-matrix`` prints.

``apply_coboundary`` expands the antiderivation on an ``ExteriorForm``
with Scalar arithmetic.  It shares no code with the assembly and is the
reference route the tests check every matrix column against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb

from . import linalg
from .errors import DegreeOutOfRange, DimensionMismatch
from .exterior import ExteriorForm, basis
from .lie_algebra import LieAlgebra
from .scalars import ZERO, Scalar

__all__ = [
    "apply_coboundary",
    "coboundary_matrix",
    "CoboundaryMatrix",
    "rank_exact",
    "betti",
    "betti_profile",
    "BettiProfile",
    "cocycle_basis",
    "coboundary_basis",
    "cohomology_representatives",
]


def _dual_differentials(algebra: LieAlgebra) -> list[dict[tuple[int, int], Scalar]]:
    # d(e_l*) as a map (a, b) -> coefficient, one dict per basis index l
    out: list[dict[tuple[int, int], Scalar]] = [{} for _ in range(algebra.dim)]
    for (a, b), vector in algebra.brackets.items():
        for l, coeff in vector.items():
            out[l][(a, b)] = -coeff
    return out


def apply_coboundary(algebra: LieAlgebra, w: ExteriorForm) -> ExteriorForm:
    """The coboundary of a form, one degree up.

    Expands d as an antiderivation: each index of a monomial is replaced
    in turn by the two-form d(e_l*), with the sign (-1)**position from
    walking d past the earlier one-forms.
    """
    if w.dim != algebra.dim:
        raise DimensionMismatch(
            f"form on dimension {w.dim} against algebra of dimension {algebra.dim}"
        )
    differentials = _dual_differentials(algebra)
    terms: dict[tuple[int, ...], Scalar] = {}
    for key, coeff in w.terms.items():
        for position, l in enumerate(key):
            replacement = differentials[l]
            if not replacement:
                continue
            rest = key[:position] + key[position + 1 :]
            rest_set = set(rest)
            base = -coeff if position % 2 else coeff
            for (a, b), factor in replacement.items():
                if a in rest_set or b in rest_set:
                    continue
                # wedge (a, b) onto rest: parity counts how many rest
                # indices each of a, b must jump past
                inversions = 0
                for r in rest:
                    if r < a:
                        inversions += 1
                    if r < b:
                        inversions += 1
                merged = tuple(sorted(rest + (a, b)))
                value = base * factor
                if inversions % 2:
                    value = -value
                total = terms.get(merged, ZERO) + value
                if total:
                    terms[merged] = total
                elif merged in terms:
                    del terms[merged]
    return ExteriorForm(algebra.dim, w.degree + 1, terms)


@dataclass(frozen=True)
class CoboundaryMatrix:
    """Sparse matrix of d in one degree, in lexicographic monomial order.

    Row indexes the degree k+1 monomials, column the degree k monomials.
    ``int_rows`` maps a row to its nonzero Gaussian-integer entries
    ``{column: (re, im)}`` of D d_k, where D is ``denominator``, in
    increasing row order; rows without entries are absent.  ``entries``
    maps (row, column) to the nonzero Scalar entry of d_k; it is built
    on first read, for export only, and no elimination starts from it.
    """

    degree: int
    rows: int
    cols: int
    int_rows: dict[int, dict[int, tuple[int, int]]]
    denominator: int

    @cached_property
    def entries(self) -> dict[tuple[int, int], Scalar]:
        d = self.denominator
        return {
            (r, c): Scalar(Fraction(re, d), Fraction(im, d))
            for r, row in self.int_rows.items()
            for c, (re, im) in row.items()
        }

    def to_coordinate_text(self) -> str:
        """Coordinate-list export: header ``% k rows cols`` then
        ``row col value`` lines with compact scalars, sorted by row then
        column."""
        lines = [f"% {self.degree} {self.rows} {self.cols}"]
        for (r, c) in sorted(self.entries):
            lines.append(f"{r} {c} {self.entries[(r, c)]}")
        return "\n".join(lines) + "\n"


def coboundary_matrix(algebra: LieAlgebra, k: int) -> CoboundaryMatrix:
    """Matrix of d on degree-k cochains, assembled as D d_k in Gaussian
    integers."""
    n = algebra.dim
    if not (0 <= k <= n):
        raise DegreeOutOfRange(f"degree {k} outside 0..{n}")
    bits = [1 << i for i in range(n)]
    row_of = {mask: r for r, mask in enumerate(map(sum, combinations(bits, k + 1)))}
    rows: dict[int, dict[int, tuple[int, int]]] = {}
    sources = zip(combinations(range(n), k), map(sum, combinations(bits, k)))
    for c, image in enumerate(algebra._expand_d(sources)):
        for target, value in image.items():
            if value != (0, 0):
                rows.setdefault(row_of[target], {})[c] = value
    return CoboundaryMatrix(
        degree=k,
        rows=comb(n, k + 1),
        cols=comb(n, k),
        int_rows=dict(sorted(rows.items())),
        denominator=algebra._denominator,
    )


def rank_exact(matrix: CoboundaryMatrix) -> int:
    """Exact rank over Q(i) by fraction-free elimination of the integer
    rows."""
    return linalg.rank_gaussian(matrix.int_rows.values())


@dataclass(frozen=True)
class BettiProfile:
    """Betti numbers of one algebra with the rank bookkeeping behind them.

    ``ranks[k]`` is the rank of d on degree-k cochains, ``kernels[k]``
    the dimension of the closed forms, ``images[k]`` the dimension of
    the exact forms in degree k.
    """

    n: int
    b: tuple[int, ...]
    ranks: tuple[int, ...]
    kernels: tuple[int, ...]
    images: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if len(self.b) != n + 1 or len(self.ranks) != n + 1:
            raise DimensionMismatch("profile vectors must have length n + 1")
        if self.ranks[n] != 0:
            raise DimensionMismatch("the top coboundary has no rows, so rank 0")
        for k in range(n + 1):
            if self.kernels[k] + self.ranks[k] != comb(n, k):
                raise DimensionMismatch(f"rank-nullity fails in degree {k}")
            below = self.ranks[k - 1] if k > 0 else 0
            if self.images[k] != below:
                raise DimensionMismatch(f"image dimension wrong in degree {k}")
            if self.b[k] != comb(n, k) - below - self.ranks[k]:
                raise DimensionMismatch(f"Betti number inconsistent in degree {k}")
            if self.b[k] < 0:
                raise DimensionMismatch(f"negative Betti number in degree {k}")
        if self.b[0] != 1:
            raise DimensionMismatch("degree-0 cohomology of a Lie algebra is the scalars")
        if n >= 1 and sum((-1) ** k * bk for k, bk in enumerate(self.b)) != 0:
            raise DimensionMismatch("Euler characteristic must vanish for n >= 1")

    @classmethod
    def from_ranks(cls, n: int, ranks) -> "BettiProfile":
        ranks = tuple(ranks)
        b = []
        kernels = []
        images = []
        for k in range(n + 1):
            below = ranks[k - 1] if k > 0 else 0
            b.append(comb(n, k) - below - ranks[k])
            kernels.append(comb(n, k) - ranks[k])
            images.append(below)
        return cls(n=n, b=tuple(b), ranks=ranks, kernels=tuple(kernels), images=tuple(images))

    @classmethod
    def from_betti(cls, n: int, b) -> "BettiProfile":
        """Reconstruct the rank data a Betti vector forces.

        The recurrence rank_k = C(n,k) - b_k - rank_{k-1} pins every
        rank, so a Betti vector alone determines the whole profile.
        """
        b = tuple(b)
        if len(b) != n + 1:
            raise DimensionMismatch("Betti vector must have length n + 1")
        ranks = []
        below = 0
        for k in range(n + 1):
            rank = comb(n, k) - b[k] - below
            ranks.append(rank)
            below = rank
        return cls.from_ranks(n, tuple(ranks))


def betti(algebra: LieAlgebra, k: int) -> int:
    """The k-th Betti number from the two ranks that bound degree k."""
    n = algebra.dim
    if not (0 <= k <= n):
        raise DegreeOutOfRange(f"degree {k} outside 0..{n}")
    below = rank_exact(coboundary_matrix(algebra, k - 1)) if k > 0 else 0
    here = rank_exact(coboundary_matrix(algebra, k)) if k < n else 0
    return comb(n, k) - below - here


def betti_profile(algebra: LieAlgebra) -> BettiProfile:
    """All Betti numbers of the algebra, from exact coboundary ranks."""
    n = algebra.dim
    ranks = [rank_exact(coboundary_matrix(algebra, k)) for k in range(n + 1)]
    return BettiProfile.from_ranks(n, tuple(ranks))


def cocycle_basis(algebra: LieAlgebra, k: int) -> list[ExteriorForm]:
    """A basis of the closed degree-k forms (the kernel of d)."""
    n = algebra.dim
    if not (0 <= k <= n):
        raise DegreeOutOfRange(f"degree {k} outside 0..{n}")
    matrix = coboundary_matrix(algebra, k)
    monomials = basis(n, k)
    return [
        _form_from_vector(n, k, monomials, vec)
        for vec in linalg.kernel_basis(list(matrix.int_rows.values()), matrix.cols)
    ]


def coboundary_basis(algebra: LieAlgebra, k: int) -> list[ExteriorForm]:
    """A basis of the exact degree-k forms: coboundaries of monomials.

    The pivot columns of the degree k-1 matrix pick out monomials whose
    images are independent, so every basis element is literally d of a
    degree k-1 monomial.
    """
    n = algebra.dim
    if not (0 <= k <= n):
        raise DegreeOutOfRange(f"degree {k} outside 0..{n}")
    if k == 0:
        return []
    matrix = coboundary_matrix(algebra, k - 1)
    _, pivots = linalg.rref(list(matrix.int_rows.values()))
    columns = _columns(matrix)
    monomials = basis(n, k)
    d = matrix.denominator
    return [
        _form_from_vector(n, k, monomials, {
            r: Scalar(Fraction(re, d), Fraction(im, d)) for r, (re, im) in columns[c].items()
        })
        for c in pivots
    ]


def cohomology_representatives(algebra: LieAlgebra, k: int) -> list[ExteriorForm]:
    """Closed forms whose classes form a basis of degree-k cohomology.

    Extends the span of the exact forms (the columns of d in degree
    k-1) by cocycle basis vectors that grow it; the added vectors
    represent independent classes and there are exactly b_k of them.
    """
    n = algebra.dim
    monomials = basis(n, k)
    span = linalg.SpanBuilder()
    if k > 0:
        for column in _columns(coboundary_matrix(algebra, k - 1)):
            span.add(column)
    matrix = coboundary_matrix(algebra, k)
    return [
        _form_from_vector(n, k, monomials, vec)
        for vec in linalg.kernel_basis(list(matrix.int_rows.values()), matrix.cols)
        if span.add(linalg.gaussian_row(vec, matrix.cols))
    ]


def _columns(matrix: CoboundaryMatrix) -> list[dict[int, tuple[int, int]]]:
    """The columns of D d_k as Gaussian-integer rows {row: (re, im)}."""
    columns: list[dict[int, tuple[int, int]]] = [{} for _ in range(matrix.cols)]
    for r, row in matrix.int_rows.items():
        for c, value in row.items():
            columns[c][r] = value
    return columns


def _form_from_vector(n, k, monomials, vector) -> ExteriorForm:
    return ExteriorForm(n, k, {monomials[i]: value for i, value in vector.items()})
