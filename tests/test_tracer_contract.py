"""The benchmark tracer still fits the package it wraps.

``perfbench/tracing.py`` patches the public functions of every layer by
name, reads ``CoboundaryMatrix.cols`` and ``.entries``, wraps
``SpanBuilder.add`` and ``.contains`` and inspects the first argument of
``rref``.  A renamed or reshaped name breaks a traced benchmark run
without failing any other test, so two CLI jobs run here under the
tracer, loaded from its file as the benchmark loads it.
"""

import importlib.util
import types
from pathlib import Path

import pytest

import liecoh
import liecoh.cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# every built-in family takes a route with no matrix; a dense image of
# diamond(1, i) has no diagonal ad and is eliminated
DENSE = Path(__file__).resolve().parent / "golden" / "dense-diamond.json"

JOBS = {
    "cocycles": ["cocycles", "--family", "heisenberg", "--m", "2", "--degree", "2"],
    "profile": ["profile", "--input", str(DENSE)],
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    # every attribute of the package, its modules and the patched classes
    owners = [liecoh] + [v for v in vars(liecoh).values() if isinstance(v, types.ModuleType)]
    owners += [liecoh.linalg.SpanBuilder, liecoh.lie_algebra.LieAlgebra, liecoh.scalars.Scalar]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


@pytest.mark.parametrize("job", sorted(JOBS))
def test_traced_job_matches_untraced_and_restores_the_package(job, capsys):
    argv = JOBS[job]
    assert liecoh.cli.main(argv) == 0
    plain = capsys.readouterr().out

    before = _bindings()
    tracer = _load_tracing().Tracer(liecoh)
    tracer.begin(1)
    try:
        code = liecoh.cli.main(argv)
    finally:
        tracer.end()
    traced = capsys.readouterr().out
    after = _bindings()

    assert code == 0 and traced == plain
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    spans = {name for _, name, *_ in tracer.spans}
    assert "cochain.coboundary_matrix" in spans
    assert tracer.counts["cochain.assemble_cols"] > 0
    if job == "cocycles":
        # the dense layer that perfbench's linalg metrics attribute
        assert {"linalg.kernel_basis", "linalg.rref", "linalg.SpanBuilder.add"} <= spans
