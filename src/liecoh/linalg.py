"""Exact linear algebra over the Gaussian rationals, on one kernel.

Rows are sparse dicts ``{column: (re, im)}`` of Gaussian integers at
any scale (only ``inverse`` takes a dense Scalar matrix); explicit zero
entries are dropped where a caller's row comes in.  A nonzero multiple
of a row changes no rank, echelon form, kernel or span, so a caller
holding integers (the coboundary assembly) passes them as is.
``gaussian_row`` clears the denominators of a ``{column: Scalar}`` row,
and ``_scalar_row`` divides a row by its pivot entry back into Scalars,
which gives the rows of ``rref`` and so the vectors of ``kernel_basis``
and ``inverse``; both convert through the edge in ``scalars``.

In between, ``_reduce`` is the only code that combines two rows.  It
reduces a row left-looking against pivot rows keyed by their leading
column, fraction-free: the row is cross-multiplied with a pivot row so
that the pivot column cancels, and the Gaussian-integer gcd of its
entries is divided out again.  Everything else is built from it:

* ``rank_gaussian`` and ``SpanBuilder`` keep a row when something
  survives the reduction, under a pivot key that is its leading column,
  and ``SpanBuilder.leading_columns`` hands those keys out;
* ``rref`` reduces every pivot row once more against the pivot rows to
  its right, which gives the unique reduced row echelon form;
* ``kernel_basis`` and ``inverse`` read their vectors off ``rref``.

Because the reduced echelon form is unique, every vector these
functions return depends on the row space alone, not on row order or
scale.
"""

from __future__ import annotations

from math import gcd

from .scalars import ONE, ZERO, Scalar, denominator

__all__ = [
    "gaussian_row",
    "rank_gaussian",
    "rref",
    "kernel_basis",
    "inverse",
    "SpanBuilder",
]


def gaussian_row(row, ncols: int) -> dict[int, tuple[int, int]]:
    """Scale one sparse {column: Scalar} row by the lcm of its
    denominators to Gaussian-integer entries, dropping zeros; ValueError
    for a column outside 0..ncols-1."""
    values = {}
    for col, value in row.items():
        if not 0 <= col < ncols:
            raise ValueError(f"column {col} outside 0..{ncols - 1}")
        value = Scalar.coerce(value)
        if value:
            values[col] = value
    scale = denominator(values.values())
    return {col: value.scaled(scale) for col, value in values.items()}


def _gcd_gaussian(xa: int, xb: int, ya: int, yb: int) -> tuple[int, int]:
    """A greatest common divisor of xa+xb*i and ya+yb*i, up to a unit."""
    while ya or yb:
        # remainder of x / y = x * conj(y) / norm(y), rounded to nearest
        norm = ya * ya + yb * yb
        qa = (2 * (xa * ya + xb * yb) + norm) // (2 * norm)
        qb = (2 * (xb * ya - xa * yb) + norm) // (2 * norm)
        xa, xb, ya, yb = ya, yb, xa - qa * ya + qb * yb, xb - qa * yb - qb * ya
    return xa, xb


def _strip_content(row: dict[int, tuple[int, int]]) -> dict[int, tuple[int, int]]:
    """Divide a row by the Gaussian-integer gcd of its entries.

    Without this the cross-multiplication in ``_reduce`` doubles the
    coefficient size at every step on complex data; with it each row is
    the primitive multiple of its direction, whose entries are bounded
    by minors of the input.  The integer content goes first, since it is
    the whole content of a real row and cheap to find.  A one-entry
    row is the unit vector of its column.
    """
    if len(row) == 1:
        return {c: (1, 0) for c in row}
    g = 0
    real = True
    for a, b in row.values():
        g = gcd(g, a, b)
        if b:
            real = False
        if g == 1 and not real:
            break
    if g > 1:
        row = {c: (a // g, b // g) for c, (a, b) in row.items()}
    if real:
        return row
    ga = gb = 0
    for a, b in row.values():
        ga, gb = _gcd_gaussian(a, b, ga, gb)
        norm = ga * ga + gb * gb
        if norm == 1:
            return row
    return {
        c: ((a * ga + b * gb) // norm, (b * ga - a * gb) // norm)
        for c, (a, b) in row.items()
    }


def _scalar_row(row: dict[int, tuple[int, int]], pivot: int) -> dict[int, Scalar]:
    """Divide a Gaussian-integer row by its entry in the pivot column,
    which becomes the shared ``ONE``."""
    pa, pb = row[pivot]
    norm = pa * pa + pb * pb
    return {
        c: ONE if c == pivot
        else Scalar.from_gaussian(a * pa + b * pb, b * pa - a * pb, norm)
        for c, (a, b) in row.items()
    }


def _reduce(row, pivots) -> dict[int, tuple[int, int]]:
    """Eliminate from ``row`` every column that keys a pivot row.

    ``row`` may have any scale.  Columns are taken left to right; a
    pivot row only adds entries to the right of its key, so one pass
    suffices.  Returns the reduced primitive row, which is empty when
    ``row`` lies in the span of the pivot rows.
    """
    row = _strip_content(row)
    while hits := row.keys() & pivots.keys():
        col = min(hits)
        pivot_row = pivots[col]
        pa, pb = pivot_row[col]
        ra, rb = row[col]
        # pivot * row - row[col] * pivot_row cancels the entry at col
        combo = {}
        for c, (a, b) in row.items():
            if c != col:
                combo[c] = (pa * a - pb * b, pa * b + pb * a)
        for c, (a, b) in pivot_row.items():
            if c == col:
                continue
            ua, ub = combo.get(c, (0, 0))
            ua -= ra * a - rb * b
            ub -= ra * b + rb * a
            if ua or ub:
                combo[c] = (ua, ub)
            elif c in combo:
                del combo[c]
        row = _strip_content(combo)
    return row


def _nonzero(row: dict[int, tuple[int, int]]) -> dict[int, tuple[int, int]]:
    """A caller's row without explicit zero entries.  Rows made inside
    ``_reduce`` need no such pass: a product of nonzero Gaussian integers
    is nonzero, and entries that cancel are deleted there."""
    if (0, 0) in row.values():
        return {c: v for c, v in row.items() if v != (0, 0)}
    return row


def _echelon(rows) -> dict[int, dict[int, tuple[int, int]]]:
    """Pivot rows of a row echelon form, keyed by leading column; empty
    rows and zero entries are skipped."""
    pivots = {}
    for row in map(_nonzero, rows):
        if row:
            reduced = _reduce(row, pivots)
            if reduced:
                pivots[min(reduced)] = reduced
    return pivots


def rank_gaussian(rows) -> int:
    """Exact rank of a matrix given as Gaussian-integer rows, in any
    order, empty rows allowed."""
    return len(_echelon(rows))


def rref(rows):
    """Reduced row echelon form of Gaussian-integer rows.

    Returns (rows, pivot_columns): one sparse {column: Scalar} row per
    pivot column, in increasing pivot order, with entry 1 at its pivot
    and 0 at every other pivot column.  The input is not modified.
    """
    pivots = _echelon(rows)
    # right to left, so each pivot row is reduced against rows that are
    # already reduced and gains no entries in other pivot columns; a row
    # with none to begin with is already reduced
    for col in sorted(pivots, reverse=True):
        row = pivots.pop(col)
        pivots[col] = row if pivots.keys().isdisjoint(row) else _reduce(row, pivots)
    order = sorted(pivots)
    return [_scalar_row(pivots[col], col) for col in order], order


def kernel_basis(rows, ncols: int) -> list[dict[int, Scalar]]:
    """Basis of the right kernel {v : M v = 0} of Gaussian-integer rows
    with ncols columns, as sparse {column: Scalar} vectors.

    One vector per free column, in increasing order: it has entry 1 at
    its free column, 0 at every other free column, and minus the
    reduced row entries at the pivot columns.
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    vectors = {f: {f: ONE} for f in range(ncols) if f not in pivot_set}
    for row, pivot in zip(reduced, pivots):
        for c, value in row.items():
            if c != pivot:
                vectors[c][pivot] = -value
    return list(vectors.values())


def inverse(matrix):
    """Exact inverse of a square Scalar matrix; ValueError if singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    augmented = [
        gaussian_row({**dict(enumerate(row)), n + i: ONE}, 2 * n)
        for i, row in enumerate(matrix)
    ]
    reduced, pivots = rref(augmented)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[row.get(n + j, ZERO) for j in range(n)] for row in reduced]


class SpanBuilder:
    """Incrementally grown row space of Gaussian-integer rows.

    add() reduces a row against the rows kept so far and keeps it when
    something survives; contains() tests membership the same way.  Used
    for rank-augmentation arguments: extend a spanning set one row at a
    time and see which rows grow the span.
    """

    def __init__(self):
        self._pivots: dict[int, dict[int, tuple[int, int]]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def leading_columns(self) -> frozenset[int]:
        """The leading columns of the nonzero vectors of the span: the
        pivot keys of the kept rows, one per dimension."""
        return frozenset(self._pivots)

    def add(self, row) -> bool:
        """Add a row; True if it enlarged the span."""
        reduced = _reduce(_nonzero(row), self._pivots)
        if not reduced:
            return False
        self._pivots[min(reduced)] = reduced
        return True

    def contains(self, row) -> bool:
        return not _reduce(_nonzero(row), self._pivots)
