"""Exact elimination, proved by certificates rather than by a second
elimination.

The matrices are drawn as sparse Scalar rows, which the certificates
multiply out, and handed to ``linalg`` through ``gaussian_row``.  For
every seeded matrix M with ncols columns and claimed rank r:

* each kernel vector satisfies M v = 0 by direct multiplication and has
  the identity pattern on the free columns, so the ncols - r of them are
  independent and the rank is at most r;
* the r x r submatrix on the rows SpanBuilder kept and on the rref pivot
  columns, times its inverse, is the identity by multiplication, so the
  rank is at least r;
* rref of its own output reproduces the same rows and pivots.
"""

import random
from fractions import Fraction

import pytest

from liecoh import linalg
from liecoh.linalg import SpanBuilder, gaussian_row, inverse, kernel_basis, rank_gaussian, rref
from liecoh.scalars import ONE, ZERO, Scalar

from helpers import matmul, random_invertible, random_scalar


# one-entry rows, as Gaussian integers once their denominators are
# cleared: units and non-units, the real ones first
_SINGLES = (
    ONE, Scalar(Fraction(-1, 3)), Scalar(6), Scalar(Fraction(-4, 5)),
    Scalar(0, Fraction(-1, 2)), Scalar(0, 1), Scalar(1, 1), Scalar(Fraction(3, 2), -2),
)


def _random_rows(rng, nrows, ncols, density, complex_rate, shape="random"):
    """Sparse Scalar rows.  With ``shape`` "single" about half of them
    have one entry; with "reduced" they are already in reduced echelon
    form, apart from their scale, in shuffled order."""
    def entry():
        return random_scalar(rng, allow_zero=False, complex_rate=complex_rate)

    if shape == "reduced":
        pivots = sorted(rng.sample(range(ncols), min(nrows, ncols)))
        free = [c for c in range(ncols) if c not in pivots]
        rows = []
        for p in pivots:
            row = {p: entry()}
            for c in free:
                if c > p and rng.random() < density:
                    row[c] = entry()
            rows.append(row)
        rng.shuffle(rows)
        return rows
    singles = _SINGLES if complex_rate else _SINGLES[:4]
    return [
        {rng.randrange(ncols): rng.choice(singles)}
        if shape == "single" and ncols and rng.random() < 0.5
        else {c: entry() for c in range(ncols) if rng.random() < density}
        for _ in range(nrows)
    ]


def _product_rows(rng, nrows, ncols, complex_rate):
    # a product through an inner dimension below both sides, so the
    # rank is usually deficient and the kernel nontrivial
    inner = rng.randint(0, max(0, min(nrows, ncols) - 1))
    a = [[random_scalar(rng, complex_rate=complex_rate) for _ in range(inner)] for _ in range(nrows)]
    b = [[random_scalar(rng, complex_rate=complex_rate) for _ in range(ncols)] for _ in range(inner)]
    if not inner:
        return [{} for _ in range(nrows)]
    return [{c: v for c, v in enumerate(row) if v} for row in matmul(a, b)]


def _cases():
    """(rows, ncols): empty shapes, then Q and Q(i), sparse, dense,
    low-rank, mostly one-entry and already reduced, some with a zero row
    or a zero column forced in."""
    cases = [([], 0), ([], 4), ([{}], 3), ([{}, {}], 0), ([{}, {1: ONE}, {}], 3)]
    rng = random.Random(20261018)
    for complex_rate in (0.0, 0.5):
        for kind in ("sparse", "dense", "product", "single", "reduced"):
            for _ in range(20):
                nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
                if kind == "product":
                    rows = _product_rows(rng, nrows, ncols, complex_rate)
                else:
                    density, shape = {
                        "sparse": (0.25, "random"),
                        "dense": (0.9, "random"),
                        "single": (0.5, "single"),
                        "reduced": (0.5, "reduced"),
                    }[kind]
                    rows = _random_rows(rng, nrows, ncols, density, complex_rate, shape)
                if rows and rng.random() < 0.3:
                    rows[rng.randrange(len(rows))] = {}
                if ncols and rng.random() < 0.3:
                    dead = rng.randrange(ncols)
                    rows = [{c: v for c, v in row.items() if c != dead} for row in rows]
                cases.append((rows, ncols))
    return cases


CASES = _cases()


def _gaussian(rows, ncols):
    return [gaussian_row(row, ncols) for row in rows]


def _times(rows, vector):
    return [sum((value * vector.get(c, ZERO) for c, value in row.items()), ZERO) for row in rows]


def _identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def test_kernel_vectors_annihilated():
    for rows, ncols in CASES:
        int_rows = _gaussian(rows, ncols)
        rank = rank_gaussian(int_rows)
        _, pivots = rref(int_rows)
        free = [c for c in range(ncols) if c not in pivots]
        kernel = kernel_basis(int_rows, ncols)
        assert len(kernel) == len(free) == ncols - rank
        for f, vector in zip(free, kernel):
            assert all(vector.get(g, ZERO) == (ONE if g == f else ZERO) for g in free)
            assert all(0 <= c < ncols for c in vector)
            assert _times(rows, vector) == [ZERO] * len(rows)


def test_rank_certified_by_invertible_minor():
    for rows, ncols in CASES:
        int_rows = _gaussian(rows, ncols)
        span = SpanBuilder()
        kept = [row for row, int_row in zip(rows, int_rows) if span.add(int_row)]
        _, pivots = rref(int_rows)
        rank = rank_gaussian(int_rows)
        assert len(kept) == len(pivots) == span.rank == rank
        assert all(span.contains(row) for row in int_rows)
        minor = [[row.get(c, ZERO) for c in pivots] for row in kept]
        if minor:
            assert matmul(minor, inverse(minor)) == _identity(rank)


def test_rref_idempotent_and_pivots_sorted():
    for rows, ncols in CASES:
        reduced, pivots = rref(_gaussian(rows, ncols))
        assert pivots == sorted(set(pivots))
        for row, p in zip(reduced, pivots):
            assert row[p] == ONE
            assert min(row) == p
            assert all(c == p or c not in pivots for c in row)
            assert all(row.values())
        assert rref(_gaussian(reduced, ncols)) == (reduced, pivots)


def test_span_builder_leading_columns_are_the_rref_pivots():
    # whatever order the rows come in, the leading columns of the span's
    # vectors are the pivot columns of its reduced echelon form
    rng = random.Random(19)
    for rows, ncols in CASES:
        int_rows = _gaussian(rows, ncols)
        rng.shuffle(int_rows)
        span = SpanBuilder()
        for row in int_rows:
            span.add(row)
        assert span.leading_columns == set(rref(int_rows)[1])


def test_kernel_basis_on_columns_that_keep_every_pivot():
    # leaving out free columns leaves the vectors of the other free
    # columns as they were, entry for entry and in order: the reduced
    # echelon form of the cut rows is the cut reduced echelon form
    rng = random.Random(18)
    for rows, ncols in CASES:
        int_rows = _gaussian(rows, ncols)
        _, pivots = rref(int_rows)
        free = [c for c in range(ncols) if c not in pivots]
        basis = dict(zip(free, kernel_basis(int_rows, ncols)))
        columns = sorted({*pivots, *rng.sample(free, rng.randint(0, len(free)))})
        index = {c: i for i, c in enumerate(columns)}
        cut = [{index[c]: v for c, v in row.items() if c in index} for row in int_rows]
        kernel = [
            [(columns[i], value) for i, value in vector.items()]
            for vector in kernel_basis(cut, len(columns))
        ]
        assert kernel == [list(basis[f].items()) for f in columns if f not in pivots]


def test_rank_and_rref_ignore_row_scale_and_order():
    # integer rows with a common Gaussian factor left in, in shuffled
    # order: the same rank, which the minor certificate above proves,
    # and the same reduced echelon form
    rng = random.Random(29)
    for rows, ncols in CASES:
        int_rows = _gaussian(rows, ncols)
        scaled = []
        for row in int_rows:
            fa, fb = rng.choice([(1, 0), (3, 0), (2, 2), (-1, 5), (0, -7)])
            scaled.append({c: (fa * a - fb * b, fa * b + fb * a) for c, (a, b) in row.items()})
        rng.shuffle(scaled)
        assert rank_gaussian(scaled) == rank_gaussian(int_rows)
        assert rref(scaled) == rref(int_rows)


def test_pivot_rows_stay_within_the_hadamard_bound():
    # every entry of a primitive pivot row divides a minor of the scaled
    # input, so it is at most the product of the input row norms; without
    # dividing out the Gaussian gcd the size doubles with every pivot
    rng = random.Random(11)
    for _ in range(5):
        rows = _random_rows(rng, 10, 10, 1.0, 0.5)
        bound = 1
        for row in rows:
            scaled = gaussian_row(row, 10)
            bound *= 1 + sum(a * a + b * b for a, b in scaled.values())
        pivots = linalg._echelon(_gaussian(rows, 10))
        assert len(pivots) == 10
        for row in pivots.values():
            assert all(a * a + b * b <= bound for a, b in row.values())


def test_rank_known_values():
    assert rank_gaussian([{0: (1, 0), 1: (2, 0)}, {0: (2, 0), 1: (4, 0)}]) == 1
    assert rank_gaussian([{}, {}]) == 0
    assert rank_gaussian([]) == 0
    # explicit zero entries count as absent
    rows = [{0: ZERO, 1: ONE}, {1: Scalar(3)}]
    assert _gaussian(rows, 2) == [{1: (1, 0)}, {1: (3, 0)}]
    assert rank_gaussian(_gaussian(rows, 2)) == 1
    # and so do explicit zero entries in integer rows
    assert rank_gaussian([{0: (0, 0)}]) == 0
    assert rank_gaussian([{0: (0, 0), 1: (2, 0)}, {1: (1, 0), 2: (0, 0)}]) == 1
    assert rref([{0: (0, 0), 1: (0, 2)}]) == ([{1: ONE}], [1])


def test_rank_gaussian_integers():
    # rows are complex multiples of each other, rank 1
    assert rank_gaussian([{0: (1, 0), 1: (0, 1)}, {0: (0, 1), 1: (-1, 0)}]) == 1


def test_gaussian_row_clears_denominators():
    row = {0: Scalar(Fraction(1, 2)), 2: Scalar(Fraction(1, 3), Fraction(-1, 4)), 1: ZERO}
    assert gaussian_row(row, 3) == {0: (6, 0), 2: (4, -3)}
    assert gaussian_row({1: 2}, 2) == {1: (2, 0)}
    for col in (-1, 3):
        with pytest.raises(ValueError):
            gaussian_row({col: ONE}, 3)


def test_kernel_of_zero_map_is_everything():
    assert kernel_basis([{}], 3) == [{0: ONE}, {1: ONE}, {2: ONE}]
    assert kernel_basis([], 2) == [{0: ONE}, {1: ONE}]
    assert kernel_basis([{0: (0, 0)}], 1) == [{0: ONE}]


def test_inverse_round_trip():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = random_invertible(rng, n)
        assert matmul(m, inverse(m)) == _identity(n)
    assert inverse([]) == []


def test_inverse_singular():
    with pytest.raises(ValueError):
        inverse([[Scalar(1), Scalar(2)], [Scalar(2), Scalar(4)]])
    with pytest.raises(ValueError):
        inverse([[ONE, ZERO]])


def test_span_builder_tracks_rank():
    rng = random.Random(5)
    for _ in range(30):
        ncols = rng.randint(1, 6)
        sb = SpanBuilder()
        collected = []
        for _ in range(rng.randint(0, 10)):
            v = gaussian_row(_random_rows(rng, 1, ncols, 0.7, 0.25)[0], ncols)
            grew = sb.add(v)
            collected.append(v)
            assert sb.rank == rank_gaussian(collected)
            assert sb.contains(v)
            if not grew:
                # adding again never helps
                assert not sb.add(v)


def test_span_builder_contains_combinations():
    sb = SpanBuilder()
    sb.add({0: (1, 0), 2: (1, 0)})
    sb.add({1: (0, 2), 2: (0, 2)})
    assert sb.contains({0: (3, 1), 1: (3, 1), 2: (6, 2)})
    assert not sb.contains({2: (1, 0)})
    assert sb.contains({})
    # explicit zero entries count as absent
    assert sb.contains({0: (1, 0), 1: (0, 0), 2: (1, 0)})
    assert not sb.add({3: (0, 0)}) and sb.rank == 2
    assert not SpanBuilder().add({3: (0, 0)})
    assert SpanBuilder().contains({3: (0, 0)})
