"""Finite-dimensional Lie algebras given by structure constants.

An algebra is a dimension n, a sparse bracket table storing [e_i, e_j]
for i < j as a coefficient vector over the basis, and optional basis
labels.  Construction scales the structure constants by D, the lcm of
their denominators, into the Gaussian-integer terms of D d(e_l*) that
the cochain engine assembles from.  The coefficient of e_i*^e_j*^e_k*
in d(d e_l*) is entry l of [[e_i,e_j],e_k] + [[e_j,e_k],e_i] +
[[e_k,e_i],e_j], so construction checks the Jacobi identity as d∘d = 0
on that table, at a cost set by the brackets and not by n.  An instance
that exists is a Lie algebra.

Families used throughout:

* ``aff_r()`` -- the two-dimensional algebra span{X, Y} with [X, Y] = Y
  (the affine line).
* ``abelian(d)`` -- d-dimensional abelian; ``abelian(0)`` is the
  identity for ``direct_sum``.
* ``heisenberg(m)`` -- dimension 2m+1, basis (Z, X_1..X_2m) with
  [X_i, X_{m+i}] = Z and Z central.
* ``diamond(lam)`` -- the oscillator-type algebra of dimension 2n+2 for
  n parameters:  basis (X_0..X_n, Y_0..Y_n) with [Y_0, X_i] = lam_i X_i,
  [Y_0, Y_i] = -lam_i Y_i and [X_i, Y_i] = lam_i X_0, carrying the
  hyperbolic invariant form pairing X_i with Y_i.  Returns the algebra
  together with its quadratic structure; ``diamond_algebra(lam)`` builds
  the algebra alone and checks no form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import linalg
from .errors import (
    BadInput,
    DimensionMismatch,
    DuplicatePair,
    IndexOutOfRange,
    JacobiViolation,
)
from .scalars import ONE, ZERO, Scalar, scalar_from_json, scalar_to_json

__all__ = [
    "LieAlgebra",
    "from_structure_constants",
    "bracket",
    "aff_r",
    "abelian",
    "heisenberg",
    "diamond",
    "diamond_algebra",
    "direct_sum",
    "derived_ideal_dim",
    "change_basis",
    "algebra_to_json",
    "algebra_from_json",
]


class LieAlgebra:
    """A Lie algebra over Q(i) described by structure constants.

    ``brackets`` maps a pair (i, j) with i < j to the sparse coefficient
    vector of [e_i, e_j]; missing pairs bracket to zero, and [e_j, e_i]
    is recovered by antisymmetry.
    """

    __slots__ = ("dim", "brackets", "labels", "_denominator", "_dual")

    def __init__(self, dim: int, brackets, labels=None):
        if not isinstance(dim, int) or dim < 0:
            raise DimensionMismatch(f"dimension must be a non-negative integer, got {dim!r}")
        table: dict[tuple[int, int], dict[int, Scalar]] = {}
        denominator = 1
        for (i, j), vector in brackets.items():
            if not (0 <= i < j < dim):
                raise IndexOutOfRange(
                    f"bracket pair ({i}, {j}) needs 0 <= i < j < {dim}"
                )
            clean = {}
            for l, value in vector.items():
                if not (0 <= l < dim):
                    raise IndexOutOfRange(
                        f"bracket [e_{i}, e_{j}] hits basis index {l} outside 0..{dim - 1}"
                    )
                coeff = Scalar.coerce(value)
                if coeff:
                    clean[l] = coeff
                    denominator = lcm(denominator, coeff.re.denominator, coeff.im.denominator)
            if clean:
                table[(i, j)] = clean
        # a term of D d(e_l*) is (pair, between, re, im): the bitmask of
        # {a, b}, the bitmask of a..b-1 and the Gaussian integer -D c^l_ab
        dual: dict[int, list[tuple[int, int, int, int]]] = {}
        for (a, b), vector in table.items():
            pair = (1 << a) | (1 << b)
            between = (1 << b) - (1 << a)
            for l, c in vector.items():
                re = -c.re.numerator * (denominator // c.re.denominator)
                im = -c.im.numerator * (denominator // c.im.denominator)
                dual.setdefault(l, []).append((pair, between, re, im))
        self.dim = dim
        self.brackets = table
        self._denominator = denominator
        self._dual = dual
        if labels is not None:
            labels = tuple(str(name) for name in labels)
            if len(labels) != dim:
                raise DimensionMismatch(
                    f"{len(labels)} labels supplied for dimension {dim}"
                )
        self.labels = labels
        self._check_jacobi()

    def bracket_basis(self, i: int, j: int) -> dict[int, Scalar]:
        """Sparse coefficient vector of [e_i, e_j] for any index order."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexOutOfRange(f"basis index out of range in ({i}, {j})")
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        flipped = self.brackets.get((j, i), {})
        return {l: -c for l, c in flipped.items()}

    def bracket_vectors(self, x, y) -> list[Scalar]:
        """[x, y] for coefficient vectors x, y; returns a dense vector."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch(
                f"vectors of length {len(x)} and {len(y)} in dimension {self.dim}"
            )
        xs = [Scalar.coerce(v) for v in x]
        ys = [Scalar.coerce(v) for v in y]
        out = [ZERO] * self.dim
        for (i, j), vector in self.brackets.items():
            factor = xs[i] * ys[j] - xs[j] * ys[i]
            if factor:
                for l, c in vector.items():
                    out[l] = out[l] + factor * c
        return out

    def _expand_d(self, monomials):
        """Yield D d(w) as {mask: (re, im)}, zeros dropped, for each monomial
        w given as (key, mask): its increasing indices and their bitmask."""
        dual = self._dual
        for key, mask in monomials:
            image: dict[int, tuple[int, int]] = {}
            for position, l in enumerate(key):
                if l not in dual:
                    continue
                rest = mask ^ (1 << l)
                for pair, between, re, im in dual[l]:
                    if rest & pair:
                        continue
                    # (-1)**position walks d past the earlier one-forms; the
                    # rest indices that a and b jump past to reach their
                    # places count twice below a, so only those in a..b-1
                    # change the parity
                    if (position + (rest & between).bit_count()) & 1:
                        re, im = -re, -im
                    target = rest | pair
                    if target in image:
                        old_re, old_im = image.pop(target)
                        re, im = old_re + re, old_im + im
                    if re or im:
                        image[target] = (re, im)
            yield image

    def _check_jacobi(self) -> None:
        # D**2 d(d e_l*) sums D d(e_a* ^ e_b*) times the terms -D c^l_ab of
        # D d(e_l*); failures maps a triple's mask to {l: nonzero sum}
        masks = [(1 << a) | (1 << b) for a, b in self.brackets]
        images = dict(zip(masks, self._expand_d(zip(self.brackets, masks))))
        failures: dict[int, dict[int, tuple[int, int]]] = {}
        for l, terms in self._dual.items():
            total: dict[int, tuple[int, int]] = {}
            for pair, _, re, im in terms:
                for target, (x, y) in images[pair].items():
                    old_re, old_im = total.get(target, (0, 0))
                    total[target] = (old_re + re * x - im * y, old_im + re * y + im * x)
            for target, value in total.items():
                if value != (0, 0):
                    failures.setdefault(target, {})[l] = value
        if failures:
            first = min(failures, key=_indices)
            scale = self._denominator ** 2
            residual = [ZERO] * self.dim
            for l, (re, im) in failures[first].items():
                residual[l] = Scalar(Fraction(re, scale), Fraction(im, scale))
            raise JacobiViolation(_indices(first), residual)

    def label(self, index: int) -> str:
        if self.labels is not None:
            return self.labels[index]
        return f"e{index}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.brackets == other.brackets
            and self.labels == other.labels
        )

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, pairs={len(self.brackets)})"


def _indices(mask: int) -> tuple[int, ...]:
    """The set bits of a monomial bitmask, in increasing order."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def from_structure_constants(dim: int, brackets, labels=None) -> LieAlgebra:
    """Build an algebra from a list of (i, j, coefficient-vector) triples.

    Coefficient vectors are dense sequences of length ``dim``.  Raises
    IndexOutOfRange / DuplicatePair / DimensionMismatch on malformed
    input and JacobiViolation when the constants do not define a Lie
    algebra.
    """
    table: dict[tuple[int, int], dict[int, Scalar]] = {}
    for i, j, vector in brackets:
        if not (0 <= i < j < dim):
            raise IndexOutOfRange(f"bracket pair ({i}, {j}) needs 0 <= i < j < {dim}")
        if (i, j) in table:
            raise DuplicatePair(f"bracket pair ({i}, {j}) supplied twice")
        values = list(vector)
        if len(values) != dim:
            raise DimensionMismatch(
                f"coefficient vector for ({i}, {j}) has length {len(values)}, expected {dim}"
            )
        table[(i, j)] = {l: Scalar.coerce(v) for l, v in enumerate(values)}
    return LieAlgebra(dim, table, labels=labels)


def bracket(algebra: LieAlgebra, x, y) -> list[Scalar]:
    """[x, y] in the given algebra, for dense coefficient vectors."""
    return algebra.bracket_vectors(x, y)


def aff_r() -> LieAlgebra:
    """The affine line: span{X, Y} with [X, Y] = Y."""
    return LieAlgebra(2, {(0, 1): {1: ONE}}, labels=("X", "Y"))


def abelian(d: int) -> LieAlgebra:
    """The d-dimensional abelian algebra (d = 0 allowed)."""
    if d < 0:
        raise DimensionMismatch(f"abelian dimension must be >= 0, got {d}")
    return LieAlgebra(d, {}, labels=tuple(f"Z{k}" for k in range(1, d + 1)))


def heisenberg(m: int) -> LieAlgebra:
    """The Heisenberg algebra of dimension 2m+1.

    Basis order (Z, X_1, .., X_2m) with [X_i, X_{m+i}] = Z for
    1 <= i <= m and Z central.
    """
    if m < 1:
        raise DimensionMismatch(f"heisenberg needs m >= 1, got {m}")
    table = {(i, m + i): {0: ONE} for i in range(1, m + 1)}
    labels = ("Z",) + tuple(f"X{k}" for k in range(1, 2 * m + 1))
    return LieAlgebra(2 * m + 1, table, labels=labels)


def diamond_algebra(lam) -> LieAlgebra:
    """The generalized diamond algebra alone, without its invariant form.

    ``lam`` is a sequence of n scalars (zeros allowed); the algebra has
    dimension 2n+2 with basis order (X_0..X_n, Y_0..Y_n).
    """
    entries = [Scalar.coerce(v) for v in lam]
    n = len(entries)
    dim = 2 * n + 2
    table: dict[tuple[int, int], dict[int, Scalar]] = {}
    for i, value in enumerate(entries, start=1):
        if not value:
            continue
        # [Y_0, X_i] = lam_i X_i and [Y_0, Y_i] = -lam_i Y_i, stored with i < j
        table[(i, n + 1)] = {i: -value}
        table[(n + 1, n + 1 + i)] = {n + 1 + i: -value}
        table[(i, n + 1 + i)] = {0: value}
    labels = tuple(f"X{k}" for k in range(n + 1)) + tuple(f"Y{k}" for k in range(n + 1))
    return LieAlgebra(dim, table, labels=labels)


def diamond(lam):
    """The generalized diamond algebra with its invariant form.

    Returns the pair (``diamond_algebra(lam)``, quadratic structure),
    the form pairing X_i with Y_i.
    """
    algebra = diamond_algebra(lam)
    dim = algebra.dim
    n = dim // 2 - 1
    form = [[ZERO] * dim for _ in range(dim)]
    for i in range(n + 1):
        form[i][n + 1 + i] = ONE
        form[n + 1 + i][i] = ONE
    from . import quadratic  # deferred: quadratic imports this module

    return algebra, quadratic.validate(algebra, form)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Direct sum with a's basis first, then b's shifted by a.dim."""
    shift = a.dim
    table: dict[tuple[int, int], dict[int, Scalar]] = {
        pair: dict(vector) for pair, vector in a.brackets.items()
    }
    for (i, j), vector in b.brackets.items():
        table[(i + shift, j + shift)] = {l + shift: c for l, c in vector.items()}
    if a.labels is None and b.labels is None:
        labels = None
    else:
        labels = tuple(a.label(i) for i in range(a.dim)) + tuple(
            b.label(i) for i in range(b.dim)
        )
    return LieAlgebra(a.dim + b.dim, table, labels=labels)


def derived_ideal_dim(algebra: LieAlgebra) -> int:
    """Dimension of [g, g], the span of all basis brackets."""
    return linalg.rank_gaussian(
        linalg.gaussian_row(vector, algebra.dim) for vector in algebra.brackets.values()
    )


def change_basis(algebra: LieAlgebra, matrix, inverse_matrix=None) -> LieAlgebra:
    """Structure constants in the basis f_p = sum_l matrix[l][p] e_l.

    The result is validated like any other construction; a change of
    basis of a Lie algebra always passes.
    """
    n = algebra.dim
    cols = [[Scalar.coerce(matrix[l][p]) for l in range(n)] for p in range(n)]
    if inverse_matrix is None:
        inverse_matrix = linalg.inverse(matrix)
    table: dict[tuple[int, int], dict[int, Scalar]] = {}
    for p in range(n):
        for q in range(p + 1, n):
            old_coords = algebra.bracket_vectors(cols[p], cols[q])
            vector = {}
            for l in range(n):
                value = ZERO
                for s in range(n):
                    value = value + Scalar.coerce(inverse_matrix[l][s]) * old_coords[s]
                if value:
                    vector[l] = value
            if vector:
                table[(p, q)] = vector
    return LieAlgebra(n, table)


def algebra_to_json(algebra: LieAlgebra) -> dict:
    """Serialise an algebra to the JSON schema used by the CLI."""
    pairs = []
    for (i, j) in sorted(algebra.brackets):
        vector = algebra.brackets[(i, j)]
        coeffs = {str(l): scalar_to_json(vector[l]) for l in sorted(vector)}
        pairs.append({"i": i, "j": j, "coeffs": coeffs})
    data = {"dim": algebra.dim, "brackets": pairs}
    if algebra.labels is not None:
        data["labels"] = list(algebra.labels)
    return data


def _json_int(value) -> bool:
    # JSON true and false arrive as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def algebra_from_json(data: dict) -> LieAlgebra:
    """Read an algebra from the JSON schema; validates like any constructor."""
    if not isinstance(data, dict) or "dim" not in data:
        raise DimensionMismatch("algebra JSON must be an object with a 'dim' key")
    dim = data["dim"]
    if not _json_int(dim):
        raise DimensionMismatch(f"'dim' must be an integer, got {dim!r}")
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise BadInput(f"'brackets' must be a list, got {type(brackets).__name__}")
    table: dict[tuple[int, int], dict[int, Scalar]] = {}
    for entry in brackets:
        if not isinstance(entry, dict) or "i" not in entry or "j" not in entry:
            raise BadInput(f"bracket entry {entry!r} needs keys 'i' and 'j'")
        i, j = entry["i"], entry["j"]
        if not (_json_int(i) and _json_int(j) and 0 <= i < j < dim):
            raise IndexOutOfRange(f"bracket pair ({i!r}, {j!r}) needs 0 <= i < j < {dim}")
        if (i, j) in table:
            raise DuplicatePair(f"bracket pair ({i}, {j}) supplied twice")
        coeffs = entry.get("coeffs", {})
        if not isinstance(coeffs, dict):
            raise BadInput(f"'coeffs' of bracket pair ({i}, {j}) must be an object")
        vector = {}
        for key, value in coeffs.items():
            l = int(key)
            # only the form algebra_to_json writes: int() also takes "1_0", "+2", " 2 "
            if str(l) != key:
                raise BadInput(f"coefficient index {key!r} is not a plain decimal integer")
            if not (0 <= l < dim):
                raise IndexOutOfRange(f"coefficient index {l} outside 0..{dim - 1}")
            vector[l] = scalar_from_json(value)
        table[(i, j)] = vector
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise BadInput(f"'labels' must be a list, got {labels!r}")
    return LieAlgebra(dim, table, labels=labels)
