"""Closed-form Betti numbers for the families the engine can cross-check.

Everything here is combinatorial: binomials with the convention
C(n, k) = 0 outside 0 <= k <= n, the known profiles of the affine-line
and Heisenberg families and the degree-2 count for generalized diamond
algebras.  The module imports nothing from ``cochain``, so the test
suite and ``verify`` can play these formulas off against the exact
engine as an independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegreeOutOfRange, DimensionMismatch, ZeroLambda
from .scalars import Scalar

__all__ = [
    "binom",
    "betti_aff_ext",
    "betti_heisenberg",
    "betti_heisenberg_ext",
    "LambdaClass",
    "LambdaSpec",
    "lambda_classes",
    "diamond_b2",
    "diamond_b2_general",
]


def binom(n: int, k: int) -> int:
    """C(n, k), zero when k < 0, k > n or n < 0."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def betti_aff_ext(n: int, k: int) -> int:
    """b_k of (affine line) + abelian of dimension n-2, total dimension n.

    The profile is the binomial row C(n-1, .): the affine factor
    contributes (1, 1, 0) and convolution with the abelian binomials
    telescopes.
    """
    if n < 2:
        raise DimensionMismatch(f"total dimension must be >= 2, got {n}")
    if not (0 <= k <= n):
        raise DegreeOutOfRange(f"degree {k} outside 0..{n}")
    return binom(n - 1, k)


def betti_heisenberg(m: int, k: int) -> int:
    """b_k of the Heisenberg algebra of dimension 2m+1.

    For k <= m this is C(2m, k) - C(2m, k-2); the upper half follows by
    Poincare duality b_k = b_{n-k}.
    """
    if m < 1:
        raise DimensionMismatch(f"need m >= 1, got {m}")
    n = 2 * m + 1
    if not (0 <= k <= n):
        raise DegreeOutOfRange(f"degree {k} outside 0..{n}")
    if k > m:
        k = n - k
    return binom(2 * m, k) - binom(2 * m, k - 2)


def betti_heisenberg_ext(m: int, n: int, k: int) -> int:
    """b_k of Heisenberg (dimension 2m+1) + abelian, total dimension n > 2m+1.

    By Kunneth, the Heisenberg Betti numbers convolved with the abelian
    factor's binomial row C(n-2m-1, .).
    """
    if m < 1:
        raise DimensionMismatch(f"need m >= 1, got {m}")
    if n <= 2 * m + 1:
        raise DimensionMismatch(
            f"total dimension {n} must exceed the Heisenberg dimension {2 * m + 1}"
        )
    if not (0 <= k <= n):
        raise DegreeOutOfRange(f"degree {k} outside 0..{n}")
    return sum(
        betti_heisenberg(m, i) * binom(n - 2 * m - 1, k - i)
        for i in range(min(k, 2 * m + 1) + 1)
    )


@dataclass(frozen=True)
class LambdaClass:
    """One equivalence class of parameters under lam ~ +-lam.

    ``rep`` is the first entry of the class in input order; ``p`` counts
    entries equal to rep, ``q`` entries equal to -rep, and ``members``
    records their 1-based positions.
    """

    rep: Scalar
    p: int
    q: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.p + self.q


@dataclass(frozen=True)
class LambdaSpec:
    """A nonzero parameter list partitioned into +- classes."""

    entries: tuple[Scalar, ...]
    classes: tuple[LambdaClass, ...]


def lambda_classes(entries) -> LambdaSpec:
    """Partition nonzero parameters by the relation lam_i = +-lam_j.

    Representatives keep first-occurrence order, so the class sizes are
    invariant under permuting the input while the breakdown stays
    deterministic.  Zero entries raise ZeroLambda.
    """
    values = [Scalar.coerce(v) for v in entries]
    classes: list[dict] = []
    for position, value in enumerate(values, start=1):
        if not value:
            raise ZeroLambda(f"entry {position} is zero")
        for cls in classes:
            if value == cls["rep"]:
                cls["p"] += 1
                cls["members"].append(position)
                break
            if value == -cls["rep"]:
                cls["q"] += 1
                cls["members"].append(position)
                break
        else:
            classes.append({"rep": value, "p": 1, "q": 0, "members": [position]})
    return LambdaSpec(
        entries=tuple(values),
        classes=tuple(
            LambdaClass(
                rep=cls["rep"],
                p=cls["p"],
                q=cls["q"],
                members=tuple(cls["members"]),
            )
            for cls in classes
        ),
    )


def diamond_b2(spec: LambdaSpec) -> int:
    """b_2 of the diamond algebra with all parameters nonzero.

    With class sizes n_1, .., n_r the count is sum n_j**2 - 1: all pairs
    of parameters that collide up to sign contribute, and one relation
    (the invariant two-form is exact) is subtracted.
    """
    return sum(cls.size**2 for cls in spec.classes) - 1


def diamond_b2_general(entries) -> int:
    """b_2 of the diamond algebra with zeros allowed among the parameters.

    A zero lam_i leaves X_i and Y_i in no bracket, so z zero parameters
    split off an abelian summand of dimension 2z.  Beside the diamond on
    the nonzero parameters, whose b_0 = b_1 = 1, Kunneth gives
    b_2 + 2z + C(2z, 2); with no nonzero parameter X_0 and Y_0 are in no
    bracket either, and the algebra is abelian of dimension 2z + 2.
    """
    values = [Scalar.coerce(v) for v in entries]
    nonzero = [v for v in values if v]
    z = len(values) - len(nonzero)
    if not nonzero:
        return binom(2 * z + 2, 2)
    return diamond_b2(lambda_classes(nonzero)) + 2 * z + binom(2 * z, 2)
