"""Byte-exact ``profile``, ``betti`` and ``diamond-b2`` output against files
in ``tests/golden``.

The engine eliminates only the cochains of inner weight 0, and on a
unimodular algebra only up to the middle degree, then rebuilds every
``rank`` column from the Betti vector.  These files were written by the
full-complex route, so they pin that the reduced route prints the same
bytes: on a scaled diamond (weights and duality), a dense image of a
diamond (no diagonal ad, duality only), heisenberg-ext (duality only),
aff-ext (weights only, not unimodular) and dense images of h_5 + a_1 and
aff + a_3, whose derived ideal is one-dimensional.  A graded x + h_5
whose centre has a nonzero weight and a diamond with a zero parameter
beside repeated and opposite ones were written by the weight-0 route and
checked against the full complex.  ``betti`` asks for a degree above the
middle, which a unimodular algebra answers from its mirror.
Regenerate a file only for a deliberate change of output format.
"""

from pathlib import Path

import pytest

from liecoh import lie_algebra
from liecoh.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _refuse(*args):
    raise AssertionError("algebra_to_json called for a table or csv job")


CASES = {
    # diamond(2, 1/2+i) under a monomial change of basis with
    # Gaussian-rational scalings; paths are relative so the table title
    # does not depend on where the repository lives
    "scaled-diamond": (["--input", "scaled-diamond.json"], 4),
    # diamond(1, i) under a dense Gaussian-integer change of basis
    "dense-diamond": (["--input", "dense-diamond.json"], 4),
    # h_5 + a_1 and aff + a_3 under dense Gaussian-integer changes of basis
    "dense-heis": (["--input", "dense-heis.json"], 4),
    "dense-aff": (["--input", "dense-aff.json"], 3),
    "heisenberg-ext-m2-n8": (["--family", "heisenberg-ext", "--m", "2", "--n", "8"], 5),
    "aff-ext-n5": (["--family", "aff-ext", "--n", "5"], 4),
    # x + h_5 graded by [x, z] = 2z, [x, a_1] = a_1, [x, b_1] = b_1,
    # [x, a_2] = 3 a_2, [x, b_2] = -b_2, under a monomial change of basis
    # with Gaussian-rational scalings: the centre has a nonzero weight
    "graded-heis": (["--input", "graded-heis.json"], 4),
    # a zero parameter beside repeated and opposite ones
    "diamond-zero": (
        ["--family", "diamond", "--lambda", "1", "--lambda", "1", "--lambda", "-1",
         "--lambda", "0", "--lambda", "1/2+i"],
        7,
    ),
}


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("command", ["profile", "betti"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_profile_and_betti_output_is_pinned(case, command, fmt, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    if fmt != "json":
        # a table or csv job builds no JSON document
        monkeypatch.setattr(lie_algebra, "algebra_to_json", _refuse)
    args, k = CASES[case]
    argv = [command, *args, "--format", fmt]
    name = f"profile-{case}"
    if command == "betti":
        argv += ["--degree", str(k)]
        name = f"betti-{case}-k{k}"
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == (GOLDEN / f"{name}.{fmt}.txt").read_text(encoding="utf-8")


DIAMOND_B2_CASES = {
    # all parameters nonzero: the closed form, with its classes; the
    # leading dash of -1/2+i is a value, not a flag
    "classes": ["1", "1", "-1", "2", "-1/2+i"],
    # a zero parameter: the class count and Kunneth over the abelian summand
    "zero": ["1", "0", "-i"],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(DIAMOND_B2_CASES))
def test_diamond_b2_output_is_pinned(case, fmt, capsys):
    argv = ["diamond-b2", "--format", fmt]
    for value in DIAMOND_B2_CASES[case]:
        argv += ["--lambda", value]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    expected = (GOLDEN / f"diamond-b2-{case}.{fmt}.txt").read_text(encoding="utf-8")
    assert captured.out == expected
