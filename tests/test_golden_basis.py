"""Byte-exact cocycle and coboundary bases against files in ``tests/golden``.

``cocycle_basis`` reads its vectors off the reduced echelon form of d_k
and ``coboundary_basis`` takes d of each degree k-1 monomial, in
lexicographic order, whose image is not in the span of the images
before it (the pivot columns of d_{k-1}); both are unique, so each
rendered form is fixed by the algebra and the degree alone, whatever
scale the elimination works at and whatever order its rows come in.
The CLI golden files reach only ``cohomology_representatives``; these
pin the other two basis functions of the library.  Regenerate a file
only for a deliberate change of output format.
"""

import json
from pathlib import Path

import pytest

from liecoh.cochain import coboundary_basis, cocycle_basis
from liecoh.exterior import format_form
from liecoh.lie_algebra import algebra_from_json, diamond, heisenberg
from liecoh.scalars import Scalar

GOLDEN = Path(__file__).parent / "golden"


def _scaled_diamond():
    with open(GOLDEN / "scaled-diamond.json", encoding="utf-8") as handle:
        return algebra_from_json(json.load(handle))


CASES = {
    "heisenberg-m2-k2": (lambda: heisenberg(2), 2),
    "diamond-1-i-m1-k3": (lambda: diamond([Scalar(1), Scalar(0, 1), Scalar(-1)])[0], 3),
    "scaled-diamond-k2": (_scaled_diamond, 2),
    "scaled-diamond-k3": (_scaled_diamond, 3),
}


def render_bases(algebra, k):
    lines = ["cocycles"]
    lines += [format_form(w) for w in cocycle_basis(algebra, k)]
    lines.append("coboundaries")
    lines += [format_form(w) for w in coboundary_basis(algebra, k)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_basis_output_is_pinned(case):
    make, k = CASES[case]
    expected = (GOLDEN / f"basis-{case}.txt").read_text(encoding="utf-8")
    assert render_bases(make(), k) == expected
