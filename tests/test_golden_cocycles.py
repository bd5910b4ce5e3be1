"""Byte-exact ``cocycles`` output against files in ``tests/golden``.

A representative is read off the reduced echelon form of the coboundary
matrices, which is unique, so every byte here is fixed by the algebra
alone and not by how the elimination is carried out.  Regenerate a file
only for a deliberate change of output format.
"""

from pathlib import Path

import pytest

from liecoh import lie_algebra
from liecoh.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _refuse(*args):
    raise AssertionError("algebra_to_json called for a table or csv job")


CASES = {
    "heisenberg-m2-k2": ["--family", "heisenberg", "--m", "2", "--degree", "2"],
    "diamond-1-i-m1-k3": [
        "--family", "diamond", "--lambda", "1", "--lambda", "i", "--lambda", "-1",
        "--degree", "3",
    ],
    # diamond(2, 1/2+i) under a monomial change of basis with
    # Gaussian-rational scalings; the path is relative so the table
    # title does not depend on where the repository lives
    "scaled-diamond-k3": ["--input", "scaled-diamond.json", "--degree", "3"],
    # h_9 under a monomial change of basis with Gaussian-rational
    # scalings: no diagonal ad, the whole complex, 42 classes at its
    # middle degree
    "monomial-h9-k4": ["--input", "monomial-h9.json", "--degree", "4"],
    # x + m0(4) with ad(x) diagonal of weights 2, -1, 1, 3 on e_0..e_3:
    # the weight-0 cochains alone
    "graded-filiform-k2": ["--input", "graded-filiform.json", "--degree", "2"],
    # h_5 + a_1 under a dense Gaussian-integer change of basis
    "dense-heis-k2": ["--input", "dense-heis.json", "--degree", "2"],
}


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cocycles_output_is_pinned(case, fmt, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    if fmt != "json":
        # a table or csv job builds no JSON document
        monkeypatch.setattr(lie_algebra, "algebra_to_json", _refuse)
    code = main(["cocycles", *CASES[case], "--format", fmt])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    expected = (GOLDEN / f"cocycles-{case}.{fmt}.txt").read_text(encoding="utf-8")
    assert captured.out == expected
