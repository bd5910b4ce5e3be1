"""Exactness checks for the outputs of benchmark jobs.

Betti numbers are compared with the closed forms in
``liecoh.closed_forms``: full profiles for Heisenberg, heisenberg-ext and
aff-ext; for a diamond with nonzero parameters b_0 = 1, b_1 = 1 (Y_0
spans g/[g, g]), b_2 from the parameter-class count, Poincare duality
b_k = b_{n-k} (every algebra here but aff-ext is unimodular) and a
vanishing Euler characteristic.  Profile tables are also checked for
rank-nullity row by row, and an ``--input`` profile in JSON must echo
its input algebra.

Cocycle representatives must number b_k as the sparse rank path counts
it, parse back with ``parse_form`` and have zero ``apply_coboundary``.

``check`` returns None for a correct output and a one-line reason
otherwise.  It runs outside the timed part of a job.
"""

from __future__ import annotations

import csv
import io
import json
from math import comb

__all__ = ["Oracle"]

_PROFILE_HEADERS = ["degree", "cochain_dim", "rank_below", "rank", "betti"]


class Oracle:
    """Checks job outputs against the package it was given."""

    def __init__(self, liecoh):
        self.closed_forms = liecoh.closed_forms
        self.cochain = liecoh.cochain
        self.exterior = liecoh.exterior
        self.lie_algebra = liecoh.lie_algebra
        self.parse_scalar = liecoh.scalars.parse_scalar
        self.unreadable = (ValueError, KeyError, IndexError, TypeError, liecoh.LieCohError)

    def check(self, job, code, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            if job.command == "profile":
                return self._check_profile(job, out)
            if job.command == "betti":
                return self._check_betti(job, out)
            if job.command == "cocycles":
                return self._check_cocycles(job, out)
        except self.unreadable as err:
            return f"unreadable {job.command} output: {err!r}"
        return f"no check for command {job.command!r}"

    def expected(self, base) -> dict[int, int]:
        """Betti numbers known in closed form, by degree."""
        cf = self.closed_forms
        n = base.dim
        if base.kind == "heisenberg":
            return {k: cf.betti_heisenberg(base.m, k) for k in range(n + 1)}
        if base.kind == "heisenberg-ext":
            return {k: cf.betti_heisenberg_ext(base.m, n, k) for k in range(n + 1)}
        if base.kind == "aff-ext":
            return {k: cf.betti_aff_ext(n, k) for k in range(n + 1)}
        if base.kind == "diamond":
            lam = [self.parse_scalar(text) for text in base.lam]
            b2 = cf.diamond_b2(cf.lambda_classes(lam))
            low = {0: 1, 1: 1, 2: b2}
            known = dict(low)
            known.update({n - k: value for k, value in low.items()})
            return known
        raise ValueError(f"unknown base kind {base.kind!r}")

    def _check_vector(self, base, betti: list[int]) -> str | None:
        n = base.dim
        if len(betti) != n + 1:
            return f"{len(betti)} Betti numbers for dimension {n}"
        for k, value in self.expected(base).items():
            if betti[k] != value:
                return f"b_{k} = {betti[k]}, expected {value}"
        unimodular = base.kind != "aff-ext"
        if unimodular and any(betti[k] != betti[n - k] for k in range(n + 1)):
            return f"Poincare duality fails: {betti}"
        if sum((-1) ** k * b for k, b in enumerate(betti)):
            return f"Euler characteristic nonzero: {betti}"
        return None

    def _check_rows(self, base, rows: list[list[int]]) -> str | None:
        n = base.dim
        if [row[0] for row in rows] != list(range(n + 1)):
            return "profile rows do not cover degrees 0..n"
        below = 0
        for k, cochain_dim, rank_below, rank, betti in rows:
            if cochain_dim != comb(n, k) or rank_below != below:
                return f"degree {k}: cochain_dim or rank_below inconsistent"
            if betti != cochain_dim - rank_below - rank:
                return f"degree {k}: rank-nullity fails"
            below = rank
        if below != 0:
            return "top coboundary has nonzero rank"
        return self._check_vector(base, [row[4] for row in rows])

    def _check_profile(self, job, out: str) -> str | None:
        if job.fmt == "json":
            doc = json.loads(out)
            if job.data is not None and doc["algebra"] != job.data:
                return "JSON profile does not echo its input algebra"
            if doc["dim"] != job.base.dim:
                return f"dim {doc['dim']}, expected {job.base.dim}"
            rows = [
                [k, comb(doc["dim"], k), doc["images"][k], doc["ranks"][k], b]
                for k, b in enumerate(doc["betti"])
            ]
            kernels = [comb(doc["dim"], k) - r for k, r in enumerate(doc["ranks"])]
            if list(doc["kernels"]) != kernels:
                return "kernels disagree with ranks"
            return self._check_rows(job.base, rows)
        if job.fmt == "csv":
            table = list(csv.reader(io.StringIO(out)))
            if table[0] != _PROFILE_HEADERS:
                return f"csv header {table[0]}"
            return self._check_rows(job.base, [[int(v) for v in row] for row in table[1:]])
        lines = out.splitlines()
        if not lines[0].endswith(f"dim {job.base.dim}") or lines[1].split() != _PROFILE_HEADERS:
            return "table title or header wrong"
        rows = [[int(v) for v in line.split()] for line in lines[2:-1]]
        footer = lines[-1].split()
        if footer[0] != "profile:" or [int(v) for v in footer[1:]] != [r[4] for r in rows]:
            return "profile line disagrees with the table"
        return self._check_rows(job.base, rows)

    def _check_betti(self, job, out: str) -> str | None:
        k = job.degree
        if job.fmt == "json":
            doc = json.loads(out)
            if doc["degree"] != k:
                return f"degree {doc['degree']}, expected {k}"
            value = doc["betti"]
        elif job.fmt == "csv":
            table = list(csv.reader(io.StringIO(out)))
            if table != [["degree", "betti"], [str(k), table[1][1]]]:
                return f"csv betti output {table}"
            value = int(table[1][1])
        else:
            value = int(out)
        expected = self.expected(job.base).get(k)
        if expected is None:
            return f"no closed form for degree {k} of {job.base.kind}"
        if value != expected:
            return f"b_{k} = {value}, expected {expected}"
        return None

    def _check_cocycles(self, job, out: str) -> str | None:
        k = job.degree
        if job.fmt == "json":
            doc = json.loads(out)
            if doc["degree"] != k or doc["betti"] != len(doc["representatives"]):
                return "JSON cocycles header disagrees with its list"
            rendered = doc["representatives"]
        else:
            lines = out.splitlines()
            rendered = [line.strip()[1:-1] for line in lines[1:]]
            if not lines[0].endswith(f"degree {k}  b_{k} = {len(rendered)}"):
                return "table header disagrees with its list"
        algebra = self.lie_algebra.algebra_from_json(job.data)
        b_k = self.cochain.betti(algebra, k)
        known = self.expected(job.base).get(k)
        if known is not None and known != b_k:
            return f"rank path b_{k} = {b_k} but closed form {known}"
        if len(rendered) != b_k:
            return f"{len(rendered)} representatives, b_{k} = {b_k}"
        labels = job.data.get("labels")
        names = labels if labels else self.exterior.default_names(algebra.dim)
        for text in rendered:
            form = self.exterior.parse_form(text, algebra.dim, names, degree=k)
            if form.is_zero():
                return "a representative is zero"
            if not self.cochain.apply_coboundary(algebra, form).is_zero():
                return f"representative is not closed: {text}"
        return None
