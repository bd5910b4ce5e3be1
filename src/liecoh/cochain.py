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
only up to the middle degree.  The reduced echelon form of a
block-diagonal matrix is the union of the blocks' forms, so the cocycle
basis vectors v_f of weight 0, one per free column f, are those of the
full d_k, and the others lie in acyclic blocks.  A representative is a
v_f that grows the span of the exact forms and the v_g with g < f.  A
cocycle z is sum z_f v_f, and v_f has entries only at f and at pivot
columns left of f, so the largest column of z is the largest f with
z_f != 0: v_f grows that span exactly when f is the largest column of
no exact form.  Those largest columns lead the span of the exact forms
grown with the columns negated.  They are free, and the reduced echelon
form of d_k on columns that keep every pivot is the full one cut down
to them, so the representatives are the same forms: the cocycle basis
of d_k assembled without those columns, with no v_f built to be
dropped.

``betti`` and ``betti_profile`` first split the algebra into direct-sum
factors.  Indices i, j and l are joined whenever c^l_ij != 0; each
connected component spans an ideal, and the algebra is their direct sum
with the abelian span of the indices in no bracket.  By the Kunneth
formula H*(g + h) = H*(g) (x) H*(h) the Betti vector is the convolution
of the factors' vectors, and the abelian factor of dimension a gives
the binomials C(a, k) with no matrix.

Each factor then splits off its torus t, spanned by the indices p with
ad(e_p) diagonal.  When no bracket has a term on t, the other indices
span an ideal n, and H*(g) = Lambda(t*) (x) H*(n)^t (Hochschild-Serre):
on a weight-0 cochain w of n, i_x w = 0 and L_x w = 0 for x in t, so dw
has no t* term and d is d of n.  So t joins the abelian binomials, and
c_k = dim H^k(n)^t is taken on n alone; with no such t, n is the whole
factor.  Let N_j(nu) count the j-subsets of a list V of weights that sum
to nu.  With no bracket, V is n's weights and c_k = N_k(0).  When every
bracket is omega_ab z for one vector z and n has no weight, n is in the
paper's class MD(n, 1), aff + a_{d-2} or h_{2m+1} + a_{d-2m-1} in a
suitable basis: c_k = C(d-1, k) when z is not central, and otherwise,
2m being the rank of omega, the abelian binomials convolved with
Santharoubane's b_k = C(2m, k) - C(2m, k-2) for k <= m, mirrored above
(Proc. AMS 87, 1983).  The weights must be zero there: x + n with
[x, q] = 2q, [x, z] = 2z and [a, q] = [a, z] = z has b = (1, 2, 1, 0, 0),
not C(1, .) * C(2, .).  When z is central, omega has rank |n| - 1 and
weights are present, n is h_{2m+1}, V is n's weights less one copy of
z's weight mu_z, and Santharoubane's description is equivariant: H^k(n)
is the cokernel of omega ^ : Lambda^{k-2} V* -> Lambda^k V* for k <= m
and the kernel of omega ^ : Lambda^{k-1} V* -> Lambda^{k+1} V*, wedged
with z*, above.  omega ^ shifts weights by mu_z and is injective up to
the middle and onto above it, so

    c_k = N_k(0) - N_{k-2}(-mu_z)       for k <= m
    c_k = N_{k-1}(-mu_z) - N_{k+1}(0)   for k > m.

The bracket test reads the integer table once, cross-multiplying
Gaussian integers, and takes one rank of omega, in any basis; the counts
form no subset and build no matrix.  A diamond algebra with r nonzero
parameters is Y_0 + h_{2r+1} beside an abelian factor, with z = X_0 of
weight 0 and V the weights +-lam_i; at k = 2, c_1 = 0 and
b_2 = N_2(0) - 1, which is sum n_j^2 - 1 over the classes of parameters
equal up to sign, the paper's count.  Any other n goes through the
weight-0 complex above on its own indices, mirrored when the whole
factor is unimodular: then n is, and its weights sum to 0.  Its matrices
are assembled from the whole table: for x in t, d(e_x*) = 0 since no
bracket has a term on t, and i_x dw = L_x w - d(i_x w) = 0 for a
weight-0 monomial w of n, so the e_x* terms of dw cancel and are
dropped, leaving a nonzero multiple of n's own matrix, of the same
rank.  For b_k an n of dimension d is needed only in degrees
k - (n - d) to min(k, d), since the rest of the algebra spans n - d
dimensions; below them its vector is padded with zeros.
``cohomology_representatives`` keeps the whole algebra: Kunneth
representatives would be wedge products of the factors' forms, not the
forms it returns.

The engine reads one table: ``LieAlgebra._table``, the structure
constants times D, the lcm of their denominators, as Gaussian integers
keyed (a, b) -> {l: (re, im)} like ``brackets``.  ``_blocks`` gives each
factor its slice of it, and a factor's weights, torus and bracket test
read that slice alone.  ``LieAlgebra._expand_d`` walks monomials
through D d(e_l*) = -sum D c^l_ab e_a* ^ e_b* taken from the table,
and yields each image D d(w) as nonzero Gaussian integers
``{mask: (re, im)}`` keyed by target bitmask.  ``coboundary_matrix``
files them into the rows of D d_k under those masks, and the exact
forms are the images that grow a span.  Neither D nor the row keys
change a rank, kernel or span, so ``linalg`` takes the integer rows as
they are; Scalars appear only in the forms that come out and in the
lexicographically numbered ``entries`` of d_k that ``export-matrix``
prints.

``apply_coboundary`` takes d on an ``ExteriorForm`` with Scalar
arithmetic as

    d w = sum_l d(e_l*) ^ (e_l . w)

over the indices l of w's monomials, e_l . w being the contraction, so
the exterior algebra's sign rules are those of ``exterior.wedge`` and
``exterior.contract_basis`` alone.  It shares no code with the assembly
and is the reference route the tests check every matrix column against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

from . import linalg
from .errors import DegreeOutOfRange, DimensionMismatch
from .exterior import ExteriorForm, basis, contract_basis, wedge
from .lie_algebra import LieAlgebra, _indices
from .scalars import Scalar

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


def apply_coboundary(algebra: LieAlgebra, w: ExteriorForm) -> ExteriorForm:
    """The coboundary of a form, one degree up.

    d w = sum_l d(e_l*) ^ (e_l . w) over the indices l of w's monomials,
    with ``exterior.wedge`` and ``exterior.contract_basis``.  Contraction
    at position p gives the antiderivation's sign (-1)**p, and the
    two-form d(e_l*) is even, so it moves to the front with no sign.
    """
    if w.dim != algebra.dim:
        raise DimensionMismatch(
            f"form on dimension {w.dim} against algebra of dimension {algebra.dim}"
        )
    result = ExteriorForm.zero(w.dim, w.degree + 1)
    for l in {i for key in w.terms for i in key}:
        # d(e_l*) = -sum_{a<b} c^l_ab e_a* ^ e_b*
        d_l = {pair: -vector[l] for pair, vector in algebra.brackets.items() if l in vector}
        if d_l:
            result = result + wedge(ExteriorForm(w.dim, 2, d_l), contract_basis(w, l))
    return result


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
            (row_of[mask], c): Scalar.from_gaussian(re, im, d)
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


def _weights(table, dim: int) -> tuple[dict[int, int], set[int], set[int]]:
    """The nonzero joint weights of the indices in ``table``, the indices
    p with tr ad(e_p) nonzero (unimodular when there are none), and the
    indices p with ad(e_p) diagonal and nonzero.

    ``table`` is the algebra's integer table {(a, b): {l: D c^l_ab}} or
    one factor's slice of it, on a basis of dimension ``dim``.  ad(e_p)
    is diagonal when every bracket [e_p, e_q] is w_p(q) e_q; the joint
    weight of e_q lists D w_p(q) over those p that have a nonzero
    weight, real and imaginary parts apart.  Each list is packed into
    one integer in balanced base B, B more than 2 dim times the largest
    component, so a sum of at most dim weights is 0 exactly when every
    component of it is.  tr ad(e_p) sums D w_p(q) over the brackets
    along e_q whether or not ad(e_p) is diagonal.  Both come from one
    pass over ``table``.
    """
    # along[p][q] = D w when [e_p, e_q] has the term w e_q
    along: dict[int, dict[int, tuple[int, int]]] = {}
    mixed = set()
    for (a, b), vector in table.items():
        for l, (re, im) in vector.items():
            if l == b:
                along.setdefault(a, {})[b] = (re, im)
                mixed.add(b)
            elif l == a:
                along.setdefault(b, {})[a] = (-re, -im)
                mixed.add(a)
            else:
                mixed.update((a, b))
    nonzero_trace = {
        p
        for p, row in along.items()
        if sum(re for re, _ in row.values()) or sum(im for _, im in row.values())
    }
    diagonal = [p for p in sorted(along) if p not in mixed]
    base = 2 * dim * max(
        (abs(x) for p in diagonal for w in along[p].values() for x in w), default=0
    ) + 1
    weights: dict[int, int] = {}
    for p in diagonal:
        for q in weights:
            weights[q] *= base * base
        for q, (re, im) in along[p].items():
            weights[q] = weights.get(q, 0) + re * base + im
    return weights, nonzero_trace, set(diagonal)


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

    Only ``ranks`` is stored: ``ranks[k]`` is the rank of d on degree-k
    cochains.  ``kernels[k]`` (the dimension of the closed forms),
    ``images[k]`` (of the exact forms) and ``b[k]`` follow from the ranks
    and are computed once per profile.
    """

    n: int
    ranks: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if len(self.ranks) != n + 1:
            raise DimensionMismatch("profile vectors must have length n + 1")
        if self.ranks[n] != 0:
            raise DimensionMismatch("the top coboundary has no rows, so rank 0")
        for k, bk in enumerate(self.b):
            if bk < 0:
                raise DimensionMismatch(f"negative Betti number in degree {k}")
        if self.b[0] != 1:
            raise DimensionMismatch("degree-0 cohomology of a Lie algebra is the scalars")

    @cached_property
    def images(self) -> tuple[int, ...]:
        return (0, *self.ranks[:-1])

    @cached_property
    def kernels(self) -> tuple[int, ...]:
        return tuple(comb(self.n, k) - rank for k, rank in enumerate(self.ranks))

    @cached_property
    def b(self) -> tuple[int, ...]:
        return tuple(z - below for z, below in zip(self.kernels, self.images))

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
        return cls(n=n, ranks=tuple(ranks))


def _blocks(algebra: LieAlgebra) -> tuple[list[tuple[list[int], dict]], int]:
    """The non-abelian direct-sum factors, each as its increasing
    indices and its slice of the algebra's integer table, and the
    dimension of the abelian factor.

    Indices i, j and l are joined whenever c^l_ij is nonzero.  Each
    connected component spans an ideal, and the algebra is their direct
    sum with the span of the indices in no bracket.  A bracket [e_i, e_j]
    joins i and j, so it is filed under the factor of i.
    """
    block_of: dict[int, list[int]] = {}
    for (i, j), vector in algebra._table.items():
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
    factors: dict[int, tuple[list[int], dict]] = {}
    for pair, vector in algebra._table.items():
        block = block_of[pair[0]]
        factors.setdefault(id(block), (block, {}))[1][pair] = vector
    blocks = sorted((sorted(block), table) for block, table in factors.values())
    return blocks, algebra.dim - len(block_of)


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
    """c_k for each k in ``degrees`` of the n spanned by ``indices``, from
    the ranks of d on its weight-0 cochains, halved by duality when
    ``unimodular``."""
    n = len(indices)
    if unimodular:
        degrees = [min(k, n - k) for k in degrees]
    cochains = _WeightZero(indices, weights, max(degrees, default=0))
    ranks: dict[int, int] = {}

    def rank(k: int) -> int:
        if unimodular:
            k = min(k, n - 1 - k)
        # a degree with no weight-0 cochain has rank 0 and no matrix
        if not 0 <= k < n or not cochains.dim(k):
            return 0
        if k not in ranks:
            ranks[k] = rank_exact(coboundary_matrix(algebra, k, cochains.monomials(k)))
        return ranks[k]

    return [cochains.dim(k) - rank(k - 1) - rank(k) for k in degrees]


def _times(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """The product of two Gaussian integers (re, im)."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _bracket_form(brackets: dict[tuple[int, int], dict[int, tuple[int, int]]]):
    """(z, omega, central) when the ``brackets`` {(a, b): {l: (re, im)}}
    are all multiples of one vector z, else None.

    z is the first bracket read.  A bracket v is a multiple of z when it
    has z's support and v_l z_f = v_f z_l at every index l of it, f
    being z's first index; then [e_a, e_b] = omega_ab z with omega_ab
    = v_f / z_f, kept as v_f since only the rank of omega and the
    vanishing of its products with z are read.  [e_a, z] = sum_b
    omega_ab z_b z, so z is central exactly when omega z = 0.
    """
    z = next(iter(brackets.values()))
    first = next(iter(z))
    # omega[a][b] = omega_ab, both signs
    omega: dict[int, dict[int, tuple[int, int]]] = {}
    for (a, b), v in brackets.items():
        w = v.get(first)
        if v.keys() != z.keys() or any(
            _times(x, z[first]) != _times(w, z[l]) for l, x in v.items()
        ):
            return None
        omega.setdefault(a, {})[b] = w
        omega.setdefault(b, {})[a] = (-w[0], -w[1])
    for row in omega.values():
        products = [_times(w, z[b]) for b, w in row.items() if b in z]
        if sum(re for re, _ in products) or sum(im for _, im in products):
            return z, omega, False
    return z, omega, True


def _subset_counts(values, top: int) -> dict[tuple[int, int], int]:
    """The number of sub-multisets of ``values`` of each size up to
    ``top`` and each sum, keyed by (size, sum), built one distinct value
    at a time."""
    counts = {(0, 0): 1}
    for mu, r in Counter(values).items():
        ways = [(s, s * mu, comb(r, s)) for s in range(1, min(r, top) + 1)]
        for (j, w), c in list(counts.items()):
            for s, shift, e in ways[: top - j]:
                key = (j + s, w + shift)
                counts[key] = counts.get(key, 0) + e * c
    return counts


def _counted_betti(table, ideal, weights: dict[int, int], top: int) -> list[int] | None:
    """c_0..c_top of the n spanned by ``ideal``, ``table`` its slice of
    the integer table, when the module docstring counts it with no
    matrix, else None.

    N_j(nu) meets tables of the two halves of V by size and packed
    weight.  c_k reads N_j for j <= k + 1, and N_{top+1} only when
    top > m, where each half of V holds at most m <= top weights; so no
    table holds a subset of more than ``top`` weights.
    """
    values = [weights.get(q, 0) for q in ideal]
    d = len(ideal)
    if table:
        form = _bracket_form(table)
        if form is None:
            return None
        z, omega, central = form
        if not central:
            # aff + a_{d-2}
            return None if any(values) else [comb(d - 1, k) for k in range(d + 1)]
        rank = linalg.rank_gaussian(omega.values())
        if not any(values):
            # h_{2m+1} + a_{d-2m-1}
            m = rank // 2
            low = [comb(2 * m, k) - (comb(2 * m, k - 2) if k >= 2 else 0) for k in range(m + 1)]
            return _convolve(low + low[::-1], [comb(d - 2 * m - 1, j) for j in range(d - 2 * m)])
        if rank != d - 1:
            return None
        m = d // 2
        mu_z = weights.get(next(iter(z)), 0)
        values.remove(mu_z)
    size = len(values)
    lower = _subset_counts(values[: size // 2], top)
    upper: dict[int, list[tuple[int, int]]] = {}
    for (j, w), c in _subset_counts(values[size // 2 :], top).items():
        upper.setdefault(w, []).append((j, c))

    def count(nu: int) -> list[int]:
        # count(nu)[j] = N_j(nu)
        out = [0] * (top + 2)
        for (i, w), c in lower.items():
            for j, e in upper.get(nu - w, ()):
                if i + j <= top + 1:
                    out[i + j] += c * e
        return out

    c = count(0)
    if table:
        # N_k(0) - N_{k-2}(-mu_z) is c_k up to the middle and -c_{k-1} above it
        above = [0, 0] + count(-mu_z)
        primitive = [x - y for x, y in zip(c, above)]
        c = [primitive[k] if k <= m else -primitive[k + 1] for k in range(min(size + 2, top + 1))]
    return c[: top + 1]


def _split_betti(algebra: LieAlgebra, low: int, high: int) -> list[int]:
    """b_low..b_high of the algebra, convolved from its factors as the
    module docstring describes: each factor's torus joins the abelian
    binomials, and its n is counted or else eliminated in the degrees
    low - (n - d) to min(high, d) alone, d being its dimension.  The
    zeros that pad its vector below them leave the sums below b_low
    wrong and unread.  n's weight-0 cochains w are assembled on the
    algebra itself: for x in a split-off torus, i_x dw = L_x w -
    d(i_x w) = 0, so the e_x* terms of dw cancel.
    """
    n = algebra.dim
    blocks, free = _blocks(algebra)
    out = [1]
    for block, table in blocks:
        weights, nonzero_trace, torus = _weights(table, n)
        ideal = block
        if torus and all(torus.isdisjoint(v) for v in table.values()):
            free += len(torus)
            ideal = [q for q in block if q not in torus]
            table = {pair: v for pair, v in table.items() if torus.isdisjoint(pair)}
        part = _counted_betti(table, ideal, weights, high)
        if part is None:
            d = len(ideal)
            first = max(0, low - (n - d))
            degrees = range(first, min(high, d) + 1)
            part = [0] * first + _reduced_betti(algebra, ideal, weights, not nonzero_trace, degrees)
        out = _convolve(out, part, high)
    out = _convolve(out, [comb(free, j) for j in range(min(high, free) + 1)], high)
    return out[low : high + 1]


def betti(algebra: LieAlgebra, k: int) -> int:
    """The k-th Betti number, convolved from the factors' Betti numbers
    next to degree k, each from closed forms, weight counts or the ranks
    of d on its weight-0 cochains."""
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
    return _kernel_forms(coboundary_matrix(algebra, k), basis(n, k))


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
            _indices(mask): Scalar.from_gaussian(re, im, d)
            for mask, (re, im) in image.items()
        })
        for image in algebra._expand_d(_monomials(range(n), k - 1))
        if span.add(image)
    ]


def cohomology_representatives(algebra: LieAlgebra, k: int) -> list[ExteriorForm]:
    """Closed forms whose classes form a basis of degree-k cohomology.

    The cocycle basis of d_k on the weight-0 cochains, assembled without
    the largest columns of the exact forms of weight 0 (the images of
    the degree k-1 monomials of weight 0), which lead their span grown
    with the columns negated: as the module docstring shows, these are
    the cocycle basis vectors that grow the span of the exact forms.
    """
    n = algebra.dim
    if not (0 <= k <= n):
        raise DegreeOutOfRange(f"degree {k} outside 0..{n}")
    cochains = _WeightZero(range(n), _weights(algebra._table, n)[0], k)
    monomials = list(cochains.monomials(k))
    negated = {mask: -c for c, (_, mask) in enumerate(monomials)}
    exact = linalg.SpanBuilder()
    for image in algebra._expand_d(cochains.monomials(k - 1)) if k else ():
        if image:
            exact.add({negated[mask]: value for mask, value in image.items()})
    leading = exact.leading_columns
    kept = [m for c, m in enumerate(monomials) if -c not in leading]
    return _kernel_forms(coboundary_matrix(algebra, k, kept), [key for key, _ in kept])


def _kernel_forms(matrix: CoboundaryMatrix, keys) -> list[ExteriorForm]:
    """The kernel basis of ``matrix`` as forms, column c standing for the
    monomial ``keys[c]``."""
    return [
        ExteriorForm(matrix.dim, matrix.degree, {keys[c]: value for c, value in vec.items()})
        for vec in linalg.kernel_basis(list(matrix.int_rows.values()), matrix.cols)
    ]
