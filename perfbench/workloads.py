"""Seeded inputs for the benchmark workloads.

Every job is one ``liecoh`` command line.  Its algebra is either a
built-in family (``--family``) or a JSON file (``--input``) holding an
isomorphic copy of a family member under a monomial change of basis
f_p = s_p e_{pi(p)}: a permutation pi times nonzero scalings s_p.  Such
a change keeps the bracket table as sparse as the original, keeps the
Betti numbers known in closed form, and varies the coefficient sizes.
It also keeps ad(Y_0) diagonal on a diamond algebra, so weight
reduction still applies there.

Job shapes repeat in a fixed cycle per workload, so every run has the
same mix of sizes; the seed picks everything else (permutations,
scalings, parameters, output formats).  No two jobs of one run share
an input.  This module does not import ``liecoh``: inputs are built
from the definitions of the families, not by the program under test.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import cycle

__all__ = ["Base", "Job", "WORKLOADS", "generate"]

# A Gaussian rational is a pair (re, im) of Fractions.
ONE = (Fraction(1), Fraction(0))


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return (
        (a[0] * b[0] + a[1] * b[1]) / norm,
        (a[1] * b[0] - a[0] * b[1]) / norm,
    )


def _neg(a):
    return (-a[0], -a[1])


def scalar_json(value):
    """A Gaussian rational in the CLI's JSON algebra schema."""
    re, im = value
    if not im:
        return str(re)
    return {"re": str(re), "im": str(im)}


def scalar_text(value) -> str:
    """A Gaussian rational in the CLI's whitespace-free grammar."""
    re, im = value
    if not im:
        return str(re)
    imag = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    if not re:
        return imag
    return f"{re}{'+' if im > 0 else ''}{imag}"


@dataclass(frozen=True)
class Base:
    """A family member whose Betti numbers the oracle knows.

    ``kind`` is ``heisenberg`` (m), ``heisenberg-ext`` (m, n), ``aff-ext``
    (n) or ``diamond`` (lam, a tuple of scalar texts).
    """

    kind: str
    m: int = 0
    n: int = 0
    lam: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        if self.kind == "heisenberg":
            return 2 * self.m + 1
        if self.kind == "diamond":
            return 2 * len(self.lam) + 2
        return self.n


@dataclass
class Job:
    """One CLI call: its argv, the algebra behind it, and the JSON it
    reads (None for a ``--family`` job)."""

    argv: list[str]
    base: Base
    command: str
    fmt: str
    degree: int | None = None
    data: dict | None = field(default=None, repr=False)


def base_algebra(base: Base, lam_values=None) -> tuple[int, dict]:
    """Structure constants of a family member, from its definition.

    Returns (dim, {(i, j): {l: c}}) with i < j and Gaussian-rational c.
    """
    table = {}
    if base.kind in ("heisenberg", "heisenberg-ext"):
        # (Z, X_1..X_2m) with [X_i, X_{m+i}] = Z, then an abelian summand
        for i in range(1, base.m + 1):
            table[(i, base.m + i)] = {0: ONE}
    elif base.kind == "aff-ext":
        # [X, Y] = Y, then an abelian summand
        table[(0, 1)] = {1: ONE}
    elif base.kind == "diamond":
        # (X_0..X_n, Y_0..Y_n): [Y_0, X_i] = lam_i X_i,
        # [Y_0, Y_i] = -lam_i Y_i, [X_i, Y_i] = lam_i X_0
        n = len(base.lam)
        for i, value in enumerate(lam_values, start=1):
            table[(i, n + 1)] = {i: _neg(value)}
            table[(n + 1, n + 1 + i)] = {n + 1 + i: _neg(value)}
            table[(i, n + 1 + i)] = {0: value}
    else:
        raise ValueError(f"unknown base kind {base.kind!r}")
    return base.dim, table


def change_basis(dim: int, table: dict, perm: list[int], scale: list) -> dict:
    """Structure constants in the basis f_p = scale[p] e_{perm[p]}.

    [f_p, f_q] = s_p s_q sum_l c^l_{perm p, perm q} e_l and
    e_l = f_r / s_r with perm[r] = l.
    """
    where = {old: new for new, old in enumerate(perm)}
    out = {}
    for (a, b), vector in table.items():
        p, q = where[a], where[b]
        sign = ONE
        if p > q:
            p, q = q, p
            sign = _neg(ONE)
        factor = _mul(sign, _mul(scale[p], scale[q]))
        out[(p, q)] = {
            where[l]: _div(_mul(factor, c), scale[where[l]]) for l, c in vector.items()
        }
    return out


def algebra_json(dim: int, table: dict, labels=None) -> dict:
    brackets = []
    for (i, j) in sorted(table):
        vector = table[(i, j)]
        coeffs = {str(l): scalar_json(vector[l]) for l in sorted(vector)}
        brackets.append({"i": i, "j": j, "coeffs": coeffs})
    data = {"dim": dim, "brackets": brackets}
    if labels is not None:
        data["labels"] = labels
    return data


def _rational(rng: random.Random, top: int) -> Fraction:
    value = Fraction(rng.randint(1, top), rng.randint(1, top))
    return value if rng.random() < 0.5 else -value


def _scaling(rng: random.Random, gaussian: bool, top: int):
    """A nonzero scalar; with ``gaussian`` its imaginary part is nonzero."""
    if gaussian:
        return (Fraction(rng.randint(-top, top), rng.randint(1, top)), _rational(rng, top))
    return (_rational(rng, top), Fraction(0))


def _diamond_lambda(rng: random.Random, pattern: tuple[int, ...]) -> list:
    """Parameters following ``pattern``: entry +-c is +-(the value of
    class c).  Classes are distinct up to sign; odd ones are real, even
    ones Gaussian, so repeated and opposite values occur in a fixed
    shape while the values themselves come from the seed."""
    reps: dict[int, tuple] = {}
    for c in sorted({abs(entry) for entry in pattern}):
        while True:
            value = _scaling(rng, gaussian=c % 2 == 0, top=4)
            if all(value != r and value != _neg(r) for r in reps.values()):
                reps[c] = value
                break
    lam = [reps[e] if e > 0 else _neg(reps[-e]) for e in pattern]
    rng.shuffle(lam)
    return lam


class _Maker:
    """Builds the jobs of one run and keeps their inputs distinct."""

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.seen: set[str] = set()
        self.count = 0

    def _unique(self, key: str) -> bool:
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def input_job(self, base, command, fmt, degree=None, gaussian=False, top=7,
                  lam_values=None, labels=False):
        """A job reading a scaled, permuted copy of ``base`` from JSON."""
        while True:
            dim, table = base_algebra(base, lam_values)
            perm = list(range(dim))
            self.rng.shuffle(perm)
            # every other basis vector gets a Gaussian scaling, so each
            # job of a shape carries the same amount of complex arithmetic
            scale = [_scaling(self.rng, gaussian and p % 2 == 1, top) for p in range(dim)]
            names = [f"f{p}" for p in range(dim)] if labels else None
            data = algebra_json(dim, change_basis(dim, table, perm, scale), names)
            text = json.dumps(data, separators=(",", ":"))
            if self._unique(text):
                break
        path = os.path.join(self.workdir, f"job{self.count:05d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        argv = [command, "--input", path, "--format", fmt]
        if degree is not None:
            argv += ["--degree", str(degree)]
        return Job(argv, base, command, fmt, degree, data)

    def family_job(self, base, command, fmt):
        """A job naming a built-in family; None when a job of this run
        already used that family member."""
        if base.kind == "heisenberg":
            argv = [command, "--family", "heisenberg", "--m", str(base.m)]
        elif base.kind == "heisenberg-ext":
            argv = [command, "--family", "heisenberg-ext", "--m", str(base.m),
                    "--n", str(base.n)]
        elif base.kind == "diamond":
            argv = [command, "--family", "diamond"]
            for text in base.lam:
                argv += ["--lambda", text]
        else:
            raise ValueError(f"no family job for {base.kind!r}")
        if not self._unique(" ".join(argv)):
            return None
        return Job(argv + ["--format", fmt], base, command, fmt)

    def fmt(self, choices=("table", "json", "csv")) -> str:
        return self.rng.choice(choices)

    def diamond_base(self, pattern: tuple[int, ...]) -> tuple[Base, list]:
        lam = _diamond_lambda(self.rng, pattern)
        return Base("diamond", lam=tuple(scalar_text(v) for v in lam)), lam


# Each workload is a cycle of job shapes (see README.md for why).  A
# shape fixes the algebra's family and size, so every run has the same
# mix of job costs.  A cycle has a cheap, a middle and a dear class of
# shapes: the median falls inside the middle class and the tail
# percentile (p80 to p93 for 50 to 150 jobs) inside the dear class, so
# neither jumps between classes from one seed to the next.

def _heis(m: int, n: int) -> Base:
    return Base("heisenberg", m=m) if n == 2 * m + 1 else Base("heisenberg-ext", m=m, n=n)


def _profile_heis(mk: _Maker):
    # m stays near its largest value: with few brackets the coboundaries
    # are nearly empty and a job measures little.  The first job of each
    # shape names the built-in family (a family member can be named once
    # per run); later ones read a rescaled copy.
    shapes = (_heis(4, 11), _heis(5, 11), _heis(3, 12), _heis(4, 12), _heis(5, 12),
              _heis(5, 13), _heis(6, 13))
    for base in cycle(shapes):
        fmt = mk.fmt()
        yield mk.family_job(base, "profile", fmt) or mk.input_job(base, "profile", fmt)


def _profile_diamond(mk: _Maker):
    shapes = (("input", (1, -1, 2, 2)), ("family", (1, 2, -2, 3)),
              ("input", (1, -1, 2, 2, 3)), ("betti", (1, 1, -1, 2)),
              ("input", (1, 2, -2, 3)), ("family", (1, 1, 2, -2, 3)),
              ("input", (1, -1, 2)))
    for kind, pattern in cycle(shapes):
        base, lam = mk.diamond_base(pattern)
        if kind == "family":
            yield mk.family_job(base, "profile", mk.fmt()) or mk.input_job(
                base, "profile", mk.fmt(), gaussian=True, top=4, lam_values=lam)
        elif kind == "betti":
            degree = mk.rng.choice((2, base.dim - 2))
            yield mk.input_job(base, "betti", mk.fmt(), degree, gaussian=True,
                               top=4, lam_values=lam)
        else:
            yield mk.input_job(base, "profile", mk.fmt(), gaussian=True, top=4,
                               lam_values=lam)


def _cocycles(mk: _Maker):
    # middle degrees of Heisenberg m=3-4 and diamond n=3-4.  The dear
    # class has a third shape below the two Heisenberg m=4 ones, so that
    # p80-p93 falls among those two.
    shapes = ((_heis(3, 7), 3), ((1, 2, -2), 3),
              ((1, -1, 2), 4), ((1, 2, 3), 4), (_heis(4, 9), 3),
              ((1, 1, -1, 2), 3), (_heis(4, 9), 4), (_heis(4, 9), 5))
    for shape, degree in cycle(shapes):
        fmt = mk.fmt(("table", "json"))
        labels = mk.rng.random() < 0.5
        if isinstance(shape, Base):
            yield mk.input_job(shape, "cocycles", fmt, degree, top=5, labels=labels)
        else:
            base, lam = mk.diamond_base(shape)
            yield mk.input_job(base, "cocycles", fmt, degree, gaussian=True, top=3,
                               lam_values=lam, labels=labels)


def _ingest(mk: _Maker):
    # the Jacobi check costs C(n, 3) whatever the brackets, so the
    # dimension sets the class; the two families alternate
    dims = (100, 110, 125, 130, 135, 160, 165)
    for slot, dim in enumerate(cycle(dims)):
        if slot % 2:
            base = _heis(1 + slot % 20, dim)
        else:
            base = Base("aff-ext", n=dim)
        yield mk.input_job(base, "betti", mk.fmt(), 1, top=9)


WORKLOADS = {
    "profile-heis": _profile_heis,
    "profile-diamond": _profile_diamond,
    "cocycles": _cocycles,
    "ingest": _ingest,
}


def generate(workload: str, seed: int, count: int, workdir: str) -> list[Job]:
    """The first ``count`` jobs of a workload for this seed.

    Input files are written under ``workdir``; the same seed writes the
    same files.
    """
    os.makedirs(workdir, exist_ok=True)
    maker = _Maker(seed, workdir)
    jobs = []
    for job in WORKLOADS[workload](maker):
        jobs.append(job)
        if len(jobs) == count:
            break
    return jobs
