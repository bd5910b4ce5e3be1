"""Exact Chevalley-Eilenberg cohomology of finite-dimensional Lie algebras.

The package computes Lie algebra cohomology with trivial coefficients
over the Gaussian rationals, entirely in exact arithmetic.  Quick tour:

    >>> from liecoh import heisenberg, betti_profile
    >>> betti_profile(heisenberg(2)).b
    (1, 4, 5, 5, 4, 1)

Modules: ``lie_algebra`` (structure constants and families),
``exterior`` (forms, wedge, contraction), ``linalg`` (the exact
elimination kernel), ``cochain`` (coboundaries, ranks, Betti profiles),
``quadratic`` (invariant forms and the super-Poisson bracket),
``closed_forms`` (combinatorial formulas to cross-check the engine),
``cli`` (the ``liecoh`` command).
"""

from . import closed_forms, cochain, exterior, lie_algebra, linalg, quadratic, scalars
from .cochain import (
    BettiProfile,
    apply_coboundary,
    betti,
    betti_profile,
    coboundary_basis,
    coboundary_matrix,
    cocycle_basis,
    cohomology_representatives,
    rank_exact,
)
from .errors import LieCohError
from .exterior import ExteriorForm, basis, wedge
from .lie_algebra import (
    LieAlgebra,
    abelian,
    aff_r,
    diamond,
    direct_sum,
    heisenberg,
)
from .quadratic import QuadraticStructure, coboundary_via_poisson, super_poisson
from .scalars import Scalar, parse_scalar

__version__ = "0.1.0"
