"""Spans and counts around the layers of ``liecoh``, from outside.

A layer is one module of the package.  ``Tracer.install`` replaces each
public function of every layer with a wrapper at every module binding
that holds it (``exterior.basis`` is also bound as ``cochain.basis``),
so calls inside a module are seen too.  A few methods carry the
counters the per-layer metrics need: ``LieAlgebra.__init__`` (where the
Jacobi check runs), ``SpanBuilder.add`` and ``contains``, and
``Scalar.__init__`` (a count only, no span, since it runs millions of
times).  ``uninstall`` puts every original back, so untraced jobs run
the program unchanged.

Each span is kept in memory as (id, name, start, end, parent, job) and
written out by ``write`` when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import types
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

__all__ = ["Tracer", "LAYERS", "SELF_TIME_METRICS", "metric_self_time"]

LAYERS = ("cli", "lie_algebra", "quadratic", "cochain", "linalg", "exterior", "scalars")

_DENSE = ("linalg.rref", "linalg.kernel_basis", "linalg.inverse", "linalg.det",
          "linalg.SpanBuilder.add", "linalg.SpanBuilder.contains")

# metric -> span names (or a layer prefix ending in ".") whose self time it sums
SELF_TIME_METRICS = {
    "cochain.assemble_s": ("cochain.coboundary_matrix", "cochain.apply_coboundary"),
    "linalg.rank_s": ("linalg.rank_sparse", "linalg.rank_dense"),
    "linalg.dense_s": _DENSE,
    "cochain.basis_s": ("cochain.cocycle_basis", "cochain.coboundary_basis",
                        "cochain.cohomology_representatives"),
    "lie_algebra.build_s": ("lie_algebra.",),
    "quadratic.validate_s": ("quadratic.validate",),
    "exterior.s": ("exterior.",),
    "cli.self_s": ("cli.",),
}


class Tracer:
    """Wraps the layers of one imported ``liecoh`` package."""

    def __init__(self, liecoh):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.job = None
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._root = 0
        self._root_start = 0.0
        self._patches = self._plan(liecoh)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            ident = next(ids)
            parent = stack[-1]
            stack.append(ident)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((ident, name, start, end, parent, self.job))
            if after is not None:
                after(result)
            return result

        return wrapper

    def _plan(self, liecoh) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        counts = self.counts
        hooks = {
            "cochain.coboundary_matrix": (None, self._count_matrix),
            "linalg.rank_sparse": (self._count_rank_input, None),
            "linalg.rref": (self._count_dense_input, None),
        }
        modules = [liecoh] + [
            value for value in vars(liecoh).values() if isinstance(value, types.ModuleType)
        ]
        patches = []
        for layer in LAYERS:
            module = getattr(liecoh, layer)
            for attr, fn in list(vars(module).items()):
                public = not attr.startswith("_") and isinstance(fn, types.FunctionType)
                if not (public and fn.__module__ == module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, *hooks.get(name, (None, None)))
                for owner in modules:
                    for key, value in vars(owner).items():
                        if value is fn:
                            patches.append((owner, key, fn, wrapper))

        def count_jacobi(args):
            counts["lie_algebra.jacobi_triples"] += comb(args[1], 3)

        def count_span_add(grew):
            counts["linalg.span_adds"] += 1
            counts["linalg.span_useful"] += bool(grew)

        algebra_cls = liecoh.lie_algebra.LieAlgebra
        span_cls = liecoh.linalg.SpanBuilder
        methods = [
            (algebra_cls, "__init__", "lie_algebra.LieAlgebra", count_jacobi, None),
            (span_cls, "add", "linalg.SpanBuilder.add", None, count_span_add),
            (span_cls, "contains", "linalg.SpanBuilder.contains", None, None),
        ]
        for owner, key, name, before, after in methods:
            fn = vars(owner)[key]
            patches.append((owner, key, fn, self._wrap(name, fn, before, after)))

        scalar_cls = liecoh.scalars.Scalar
        scalar_init = vars(scalar_cls)["__init__"]

        def counted_init(obj, *args, **kwargs):
            counts["scalars.allocs"] += 1
            scalar_init(obj, *args, **kwargs)

        patches.append((scalar_cls, "__init__", scalar_init, counted_init))
        return patches

    def _count_matrix(self, matrix):
        self.counts["cochain.assemble_cols"] += matrix.cols
        self.counts["cochain.nnz"] += len(matrix.entries)
        self.counts["cochain.zero_cols"] += matrix.cols - len({c for _, c in matrix.entries})

    def _count_rank_input(self, args):
        self.counts["linalg.rank_nnz_in"] += sum(len(row) for row in args[0])

    def _count_dense_input(self, args):
        matrix = args[0]
        self.counts["linalg.dense_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)

    # -- jobs ----------------------------------------------------------------

    def begin(self, job: int) -> None:
        """Open the root span of a job; the layers are wrapped until ``end``."""
        self.job = job
        self._root = next(self._ids)
        self._stack.append(self._root)
        self.install()
        self._root_start = perf_counter()

    def end(self) -> float:
        """Close the job's root span and return its duration."""
        end = perf_counter()
        self.uninstall()
        self._stack.pop()
        self.spans.append((self._root, "job", self._root_start, end, None, self.job))
        self.job = None
        return end - self._root_start

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over all traced jobs."""
        children = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals = defaultdict(float)
        for ident, name, start, end, _, _ in self.spans:
            totals[name] += (end - start) - children.get(ident, 0.0)
        return dict(totals)

    def write(self, path: str, origin: float) -> None:
        """Write every span as CSV, times in seconds since ``origin``."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id,name,start,end,parent,job\n")
            for ident, name, start, end, parent, job in self.spans:
                parent = "" if parent is None else parent
                handle.write(
                    f"{ident},{name},{start - origin:.9f},{end - origin:.9f},{parent},{job}\n"
                )


def metric_self_time(totals: dict[str, float], metric: str) -> float:
    """Sum of self times of the spans a SELF_TIME_METRICS entry names."""
    keys = SELF_TIME_METRICS[metric]
    return sum(
        value
        for name, value in totals.items()
        if any(name == key or (key.endswith(".") and name.startswith(key)) for key in keys)
    )
