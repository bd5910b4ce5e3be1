"""Byte-exact ``export-matrix`` output against files in ``tests/golden``.

The exported entries are the coboundary matrix itself, in lexicographic
monomial order, so every byte is fixed by the algebra and the degree.
The scaled diamond has Gaussian-rational structure constants with
denominators 3 and 16, so its entries pin how the matrix is brought back
from any internal scaling.  Regenerate a file only for a deliberate
change of output format.
"""

from pathlib import Path

import pytest

from liecoh.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "heisenberg-m2-k2": ["--family", "heisenberg", "--m", "2", "--degree", "2"],
    "scaled-diamond-k2": ["--input", "scaled-diamond.json", "--degree", "2"],
    "scaled-diamond-k3": ["--input", "scaled-diamond.json", "--degree", "3"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_export_matrix_output_is_pinned(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(["export-matrix", *CASES[case]])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    expected = (GOLDEN / f"export-{case}.txt").read_text(encoding="utf-8")
    assert captured.out == expected
