"""Lie algebra cohomology with trivial coefficients.

The coboundary of a k-form f is

    (d f)(x_0, .., x_k) = sum_{i<j} (-1)**(i+j) f([x_i, x_j], x_0, ..
                          omitting x_i and x_j .., x_k)

On the dual basis this means d(e_l*) = -sum_{i<j} c^l_{ij} e_i* ^ e_j*
where the c are the structure constants, and d extends to all of the
exterior algebra as an antiderivation.

A matrix of d in degree k has a column for each degree-k monomial it
is assembled over, in the order given, and a row for each
degree-(k+1) monomial its columns reach.  The full d_k takes all
C(n, k) monomials in the lexicographic order of
``exterior.basis(dim, k)``; ``cocycle_basis``, ``coboundary_basis`` and
``export-matrix`` use it.

``betti``, ``betti_profile`` and ``cohomology_representatives`` take a
smaller complex with the same cohomology.  An index p whose brackets
[e_p, e_q] are all multiples of e_q has ad(e_p) diagonal; such ad(e_p)
commute, and L_x = d i_x + i_x d makes every block of nonzero joint
weight acyclic (Hochschild-Serre, Ann. Math. 57, 1953).  So only the
monomials of weight 0 are assembled, still in lexicographic order; with
no such p that is every monomial.  With C_k the number of them and r_k
the rank of d on them,

    b_k = C_k - r_{k-1} - r_k

with the out-of-range ranks defined to be zero.  When tr ad(e_p) = 0
for every p the algebra is unimodular: d_k and d_{n-1-k} are adjoint
under the wedge pairing into the top degree, so r_k = r_{n-1-k} and
b_k = b_{n-k} (Koszul, Bull. SMF 78, 1950), and ranks are eliminated
only up to the middle degree.  A representative of weight 0 grows the
span of the exact forms exactly when it does in the full complex, and
the reduced echelon form of a block-diagonal matrix is the union of the
blocks' forms, so the representatives are the same forms.

``betti`` and ``betti_profile`` first split the algebra into direct-sum
factors.  Indices i, j and l are joined whenever c^l_ij != 0; each
connected component spans an ideal, and the algebra is their direct sum
with the abelian span of the indices in no bracket.  By the Kunneth
formula H*(g + h) = H*(g) (x) H*(h) the Betti vector is the convolution
of the factors' vectors, and the abelian factor of dimension a gives
the binomials C(a, k) with no matrix.  Each other factor goes through
the weight-0 complex above on its own indices, mirrored when that
factor is unimodular; for b_k a factor of dimension d is needed only in
degrees k - (n - d) to min(k, d).  ``cohomology_representatives`` keeps
the whole algebra: Kunneth representatives would be wedge products of
the factors' forms, not the forms it returns.

``LieAlgebra._expand_d`` walks monomials through the algebra's table of
D d(e_l*), D the lcm of the structure constants' denominators, and
yields each image D d(w) as nonzero Gaussian integers
``{mask: (re, im)}`` keyed by target bitmask.  ``coboundary_matrix``
files them into the rows of D d_k under those masks, and the exact
forms are the images that grow a span.  Neither D nor the row keys
change a rank, kernel or span, so ``linalg`` takes the integer rows as
they are; Scalars appear only in the forms that come out and in the
lexicographically numbered ``entries`` of d_k that ``export-matrix``
prints.

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
    """Sparse matrix of d on degree-k cochains of a dim-n algebra.

    ``int_rows`` maps the bitmask of a degree-(k+1) monomial to its row
    of D d_k, D being ``denominator``: the nonzero Gaussian integers
    ``{column: (re, im)}``, column c the c-th of the ``cols`` monomials
    the matrix was assembled over (all degree-k monomials in
    lexicographic order unless a caller chose fewer).  Empty rows are
    absent; the rest come in the order assembly first touched them.
    ``entries`` maps (row, column), rows numbered lexicographically
    among all ``rows`` degree-(k+1) monomials, to the nonzero Scalar of
    d_k; it is built on first read, for export only.
    """

    degree: int
    dim: int
    int_rows: dict[int, dict[int, tuple[int, int]]]
    denominator: int
    cols: int

    @property
    def rows(self) -> int:
        return comb(self.dim, self.degree + 1)

    @cached_property
    def entries(self) -> dict[tuple[int, int], Scalar]:
        row_of = {
            mask: r for r, (_, mask) in enumerate(_monomials(range(self.dim), self.degree + 1))
        }
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


def _monomials(indices, k: int):
    """The k-subsets of the increasing ``indices`` in lexicographic order,
    as (indices, bitmask)."""
    bits = [1 << i for i in indices]
    return zip(combinations(indices, k), map(sum, combinations(bits, k)))


def _weights(algebra: LieAlgebra) -> tuple[dict[int, int], set[int]]:
    """The nonzero joint weights of the basis indices, and the indices p
    with tr ad(e_p) nonzero; the algebra is unimodular when there are none.

    ad(e_p) is diagonal when every bracket [e_p, e_q] is w_p(q) e_q; the
    joint weight of e_q lists D w_p(q) over those p that have a nonzero
    weight, real and imaginary parts apart.  Each list is packed into
    one integer in balanced base B, B more than 2n times the largest
    component, so a sum of at most n weights is 0 exactly when every
    component of it is.  tr ad(e_p) sums D w_p(q) over the brackets
    along e_q whether or not ad(e_p) is diagonal.  Both come from the
    table of D d(e_l*) in one pass over the brackets.
    """
    # along[p][q] = D w when [e_p, e_q] has the term w e_q
    along: dict[int, dict[int, tuple[int, int]]] = {}
    mixed = set()
    for l, terms in algebra._dual.items():
        for pair, _, re, im in terms:
            # the term -D c^l_ab e_a* ^ e_b* of D d(e_l*), with [e_a, e_b] = c e_l
            a = (pair & -pair).bit_length() - 1
            b = pair.bit_length() - 1
            if l == b:
                along.setdefault(a, {})[b] = (-re, -im)
                mixed.add(b)
            elif l == a:
                along.setdefault(b, {})[a] = (re, im)
                mixed.add(a)
            else:
                mixed.update((a, b))
    nonzero_trace = {
        p
        for p, row in along.items()
        if sum(re for re, _ in row.values()) or sum(im for _, im in row.values())
    }
    diagonal = [p for p in sorted(along) if p not in mixed]
    base = 2 * algebra.dim * max(
        (abs(x) for p in diagonal for w in along[p].values() for x in w), default=0
    ) + 1
    weights: dict[int, int] = {}
    for p in diagonal:
        for q in weights:
            weights[q] *= base * base
        for q, (re, im) in along[p].items():
            weights[q] = weights.get(q, 0) + re * base + im
    return weights, nonzero_trace


class _WeightZero:
    """The monomials of weight 0 over the increasing ``indices`` in each
    degree up to ``top``.

    Indices of weight 0 are free; the rest, the charged ones, are split
    into a lower and an upper half, and a charged subset of weight 0 is a
    subset of each half whose weights cancel, met through a table of the
    lower half's subsets by size and weight.  Only subsets of at most
    ``top`` indices are formed.  With no charged index every monomial
    has weight 0.
    """

    def __init__(self, indices, weights: dict[int, int], top: int):
        self.free = [q for q in indices if q not in weights]
        charged = [q for q in indices if q in weights]
        low, high = charged[: len(charged) // 2], charged[len(charged) // 2 :]
        top = min(top, len(charged))
        lower: dict[tuple[int, int], list[tuple[tuple[int, ...], int]]] = {}
        for i in range(min(top, len(low)) + 1):
            for key, mask in _monomials(low, i):
                lower.setdefault((i, sum(weights[q] for q in key)), []).append((key, mask))
        # balanced[j]: the charged j-subsets of weight 0, as (indices, bitmask);
        # balanced[0] holds the empty subset alone
        self.balanced: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(top + 1)]
        for j in range(min(top, len(high)) + 1):
            for key, mask in _monomials(high, j):
                weight = -sum(weights[q] for q in key)
                for i in range(top - j + 1):
                    for low_key, low_mask in lower.get((i, weight), ()):
                        self.balanced[i + j].append((low_key + key, low_mask | mask))

    def monomials(self, k: int):
        """The degree-k monomials of weight 0 in lexicographic order, as
        (indices, bitmask); an iterator when all of them are free."""
        free = _monomials(self.free, k)
        charged = [
            (tuple(sorted(key + extra)), mask | extra_mask)
            for j, subsets in enumerate(self.balanced[1 : k + 1], start=1)
            if subsets
            for key, mask in _monomials(self.free, k - j)
            for extra, extra_mask in subsets
        ]
        return sorted([*free, *charged]) if charged else free

    def dim(self, k: int) -> int:
        """The number of degree-k monomials of weight 0."""
        return sum(
            len(subsets) * comb(len(self.free), k - j)
            for j, subsets in enumerate(self.balanced[: k + 1])
        )


def coboundary_matrix(algebra: LieAlgebra, k: int, monomials=None) -> CoboundaryMatrix:
    """Matrix of d on degree-k cochains, assembled as D d_k in Gaussian
    integers.

    Its columns are the degree-k ``monomials``, (indices, bitmask) pairs
    in the order given; by default all of them, lexicographically.
    """
    n = algebra.dim
    if not (0 <= k <= n):
        raise DegreeOutOfRange(f"degree {k} outside 0..{n}")
    if monomials is None:
        monomials = _monomials(range(n), k)
    rows: dict[int, dict[int, tuple[int, int]]] = {}
    c = -1
    for c, image in enumerate(algebra._expand_d(monomials)):
        for target, value in image.items():
            rows.setdefault(target, {})[c] = value
    return CoboundaryMatrix(
        degree=k, dim=n, int_rows=rows, denominator=algebra._denominator, cols=c + 1
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


def _blocks(algebra: LieAlgebra) -> tuple[list[list[int]], int]:
    """The index sets of the non-abelian direct-sum factors, each
    increasing, and the dimension of the abelian factor.

    Indices i, j and l are joined whenever c^l_ij is nonzero.  Each
    connected component spans an ideal, and the algebra is their direct
    sum with the span of the indices in no bracket.
    """
    block_of: dict[int, list[int]] = {}
    for (i, j), vector in algebra.brackets.items():
        block = block_of.setdefault(i, [i])
        for q in (j, *vector):
            other = block_of.get(q)
            if other is None:
                block.append(q)
                block_of[q] = block
            elif other is not block:
                # the smaller block moves, so no index moves more than
                # log n times
                if len(other) > len(block):
                    block, other = other, block
                block.extend(other)
                for r in other:
                    block_of[r] = block
    blocks = {id(block): block for block in block_of.values()}
    return sorted(map(sorted, blocks.values())), algebra.dim - len(block_of)


def _convolve(a, b, top: int | None = None) -> list[int]:
    """The terms c_m = sum_i a_i b_{m-i} of the Kunneth convolution of
    two Betti vectors, for m up to ``top`` (all of them when None)."""
    size = len(a) + len(b) - 1
    if top is not None:
        size = min(size, top + 1)
    out = [0] * size
    for i, x in enumerate(a[:size]):
        for j, y in enumerate(b[: size - i]):
            out[i + j] += x * y
    return out


def _reduced_betti(
    algebra: LieAlgebra, indices, weights: dict[int, int], unimodular: bool, degrees
) -> list[int]:
    """b_k for each k in ``degrees`` of the factor spanned by ``indices``,
    from the ranks of d on its weight-0 cochains, halved by duality when
    the factor is unimodular."""
    n = len(indices)
    if unimodular:
        degrees = [min(k, n - k) for k in degrees]
    cochains = _WeightZero(indices, weights, max(degrees, default=0))
    ranks: dict[int, int] = {}

    def rank(k: int) -> int:
        if unimodular:
            k = min(k, n - 1 - k)
        if not 0 <= k < n:
            return 0
        if k not in ranks:
            ranks[k] = rank_exact(coboundary_matrix(algebra, k, cochains.monomials(k)))
        return ranks[k]

    return [cochains.dim(k) - rank(k - 1) - rank(k) for k in degrees]


def _split_betti(algebra: LieAlgebra, low: int, high: int) -> list[int]:
    """b_low..b_high of the algebra, convolved from its factors.

    A factor of dimension d is reduced only in the degrees from
    low - (n - d) to min(high, d): no other degree of it meets a term of
    b_low..b_high.  Below them its vector is padded with zeros, which
    leaves the sums below b_low wrong and unread.
    """
    n = algebra.dim
    blocks, free = _blocks(algebra)
    weights, nonzero_trace = _weights(algebra)
    out = [comb(free, j) for j in range(min(high, free) + 1)]
    for block in blocks:
        d = len(block)
        first = max(0, low - (n - d))
        degrees = range(first, min(high, d) + 1)
        unimodular = nonzero_trace.isdisjoint(block)
        part = [0] * first + _reduced_betti(algebra, block, weights, unimodular, degrees)
        out = _convolve(out, part, high)
    return out[low : high + 1]


def betti(algebra: LieAlgebra, k: int) -> int:
    """The k-th Betti number, convolved from the factors' Betti numbers
    next to degree k, each from the ranks of d on its weight-0 cochains."""
    n = algebra.dim
    if not (0 <= k <= n):
        raise DegreeOutOfRange(f"degree {k} outside 0..{n}")
    return _split_betti(algebra, k, k)[0]


def betti_profile(algebra: LieAlgebra) -> BettiProfile:
    """All Betti numbers of the algebra, with the ranks of the full
    coboundaries they force."""
    n = algebra.dim
    return BettiProfile.from_betti(n, _split_betti(algebra, 0, n))


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
        for image in algebra._expand_d(_monomials(range(n), k - 1))
        if span.add(image)
    ]


def cohomology_representatives(algebra: LieAlgebra, k: int) -> list[ExteriorForm]:
    """Closed forms whose classes form a basis of degree-k cohomology.

    Extends the span of the exact forms of weight 0 (the images of the
    degree k-1 monomials of weight 0) by the cocycle basis vectors of
    weight 0 that grow it; the added vectors represent independent
    classes and there are exactly b_k of them.
    """
    n = algebra.dim
    if not (0 <= k <= n):
        raise DegreeOutOfRange(f"degree {k} outside 0..{n}")
    cochains = _WeightZero(range(n), _weights(algebra)[0], k)
    span = linalg.SpanBuilder()
    if k > 0:
        for image in algebra._expand_d(cochains.monomials(k - 1)):
            span.add(image)
    monomials = list(cochains.monomials(k))
    matrix = coboundary_matrix(algebra, k, monomials)
    keys = [key for key, _ in monomials]
    return [
        _form_from_vector(n, k, keys, vec)
        for vec in linalg.kernel_basis(list(matrix.int_rows.values()), matrix.cols)
        if span.add({
            monomials[c][1]: v for c, v in linalg.gaussian_row(vec, matrix.cols).items()
        })
    ]


def _form_from_vector(n, k, monomials, vector) -> ExteriorForm:
    return ExteriorForm(n, k, {monomials[i]: value for i, value in vector.items()})
