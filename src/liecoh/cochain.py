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

``_images`` walks the degree-k monomials in lexicographic order
through the algebra's table of D d(e_l*), D the lcm of the structure
constants' denominators, and yields each image D d(w) as nonzero
Gaussian integers ``{mask: (re, im)}`` keyed by target bitmask.
``coboundary_matrix`` files them into the rows of D d_k under those
masks, and the exact forms are the images that grow a span.  Neither
D nor the row keys change a rank, kernel or span, so ``linalg`` takes
the integer rows as they are; Scalars appear only in the forms that
come out and in the lexicographically numbered ``entries`` of d_k that
``export-matrix`` prints.

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
from .lie_algebra import LieAlgebra, _indices
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
    """Sparse matrix of d on the degree-k cochains of a dim-n algebra.

    ``int_rows`` maps the bitmask of a degree-(k+1) monomial to its row
    of D d_k, D being ``denominator``: the nonzero Gaussian integers
    ``{column: (re, im)}``, columns the degree-k monomials in
    lexicographic order.  Empty rows are absent; the rest come in the
    order assembly first touched them.  ``entries`` maps (row, column),
    rows numbered lexicographically, to the nonzero Scalar of d_k; it is
    built on first read, for export only.
    """

    degree: int
    dim: int
    int_rows: dict[int, dict[int, tuple[int, int]]]
    denominator: int

    @property
    def rows(self) -> int:
        return comb(self.dim, self.degree + 1)

    @property
    def cols(self) -> int:
        return comb(self.dim, self.degree)

    @cached_property
    def entries(self) -> dict[tuple[int, int], Scalar]:
        row_of = {mask: r for r, (_, mask) in enumerate(_monomials(self.dim, self.degree + 1))}
        d = self.denominator
        return {
            (row_of[mask], c): Scalar(Fraction(re, d), Fraction(im, d))
            for mask, row in self.int_rows.items()
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


def _monomials(n: int, k: int):
    """The degree-k monomials in lexicographic order as (indices, bitmask)."""
    bits = [1 << i for i in range(n)]
    return zip(combinations(range(n), k), map(sum, combinations(bits, k)))


def _images(algebra: LieAlgebra, k: int):
    """D d(w) as nonzero {mask: (re, im)} per degree-k monomial w, lexicographically."""
    return algebra._expand_d(_monomials(algebra.dim, k))


def coboundary_matrix(algebra: LieAlgebra, k: int) -> CoboundaryMatrix:
    """Matrix of d on degree-k cochains, assembled as D d_k in Gaussian
    integers."""
    n = algebra.dim
    if not (0 <= k <= n):
        raise DegreeOutOfRange(f"degree {k} outside 0..{n}")
    rows: dict[int, dict[int, tuple[int, int]]] = {}
    for c, image in enumerate(_images(algebra, k)):
        for target, value in image.items():
            rows.setdefault(target, {})[c] = value
    return CoboundaryMatrix(degree=k, dim=n, int_rows=rows, denominator=algebra._denominator)


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

    Walks the degree k-1 monomials in lexicographic order and keeps
    each one whose image is not in the span of the images before it, so
    every basis element is literally d of a degree k-1 monomial.
    """
    n = algebra.dim
    if not (0 <= k <= n):
        raise DegreeOutOfRange(f"degree {k} outside 0..{n}")
    if k == 0:
        return []
    span = linalg.SpanBuilder()
    d = algebra._denominator
    return [
        ExteriorForm(n, k, {
            _indices(mask): Scalar(Fraction(re, d), Fraction(im, d))
            for mask, (re, im) in image.items()
        })
        for image in _images(algebra, k - 1)
        if span.add(image)
    ]


def cohomology_representatives(algebra: LieAlgebra, k: int) -> list[ExteriorForm]:
    """Closed forms whose classes form a basis of degree-k cohomology.

    Extends the span of the exact forms (the images of the degree k-1
    monomials) by cocycle basis vectors that grow it; the added vectors
    represent independent classes and there are exactly b_k of them.
    """
    n = algebra.dim
    span = linalg.SpanBuilder()
    if k > 0:
        for image in _images(algebra, k - 1):
            span.add(image)
    matrix = coboundary_matrix(algebra, k)
    monomials, masks = zip(*_monomials(n, k))
    return [
        _form_from_vector(n, k, monomials, vec)
        for vec in linalg.kernel_basis(list(matrix.int_rows.values()), matrix.cols)
        if span.add({masks[c]: v for c, v in linalg.gaussian_row(vec, matrix.cols).items()})
    ]


def _form_from_vector(n, k, monomials, vector) -> ExteriorForm:
    return ExteriorForm(n, k, {monomials[i]: value for i, value in vector.items()})
