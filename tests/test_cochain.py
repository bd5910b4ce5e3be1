import random
from fractions import Fraction
from itertools import combinations, permutations, zip_longest
from math import comb

import pytest

from liecoh import cochain
from liecoh.cochain import (
    BettiProfile,
    CoboundaryMatrix,
    apply_coboundary,
    betti,
    betti_profile,
    coboundary_basis,
    coboundary_matrix,
    cocycle_basis,
    cohomology_representatives,
    rank_exact,
)
from liecoh.errors import DegreeOutOfRange, DimensionMismatch
from liecoh.exterior import ExteriorForm, basis, wedge
from liecoh.lie_algebra import (
    LieAlgebra,
    abelian,
    aff_r,
    change_basis,
    diamond,
    direct_sum,
    heisenberg,
)
from liecoh.linalg import SpanBuilder, gaussian_row, kernel_basis
from liecoh.scalars import ONE, ZERO, Scalar

from helpers import (
    covector,
    oracle_coboundary,
    random_algebra,
    random_form,
    random_scalar,
    span_row,
)


def test_aff_coboundary_of_dual_basis():
    g = aff_r()
    # [X, Y] = Y, so d Y* = -X* ^ Y* and d X* = 0
    dx = apply_coboundary(g, covector(2, 0))
    dy = apply_coboundary(g, covector(2, 1))
    assert dx.is_zero()
    assert dy.terms == {(0, 1): -ONE}
    with pytest.raises(
        DimensionMismatch, match=r"^form on dimension 2 against algebra of dimension 3$"
    ):
        apply_coboundary(heisenberg(1), covector(2, 0))


def test_heisenberg_matrix_golden():
    m = coboundary_matrix(heisenberg(1), 1)
    assert (m.degree, m.rows, m.cols) == (1, 3, 3)
    # only d Z* = -X1* ^ X2* survives
    assert m.entries == {(2, 0): -ONE}
    assert m.to_coordinate_text() == "% 1 3 3\n2 0 -1\n"


def test_complex_matrix_export():
    i = Scalar(0, 1)
    g = LieAlgebra(3, {(0, 1): {2: i}, (1, 2): {0: i}, (0, 2): {1: -i}})
    text = coboundary_matrix(g, 1).to_coordinate_text()
    assert text == "% 1 3 3\n0 2 -i\n1 1 i\n2 0 -i\n"


def test_degree_zero_and_top():
    g = heisenberg(1)
    m0 = coboundary_matrix(g, 0)
    assert m0.cols == 1 and m0.entries == {}
    top = coboundary_matrix(g, 3)
    assert top.rows == 0 and top.cols == 1
    assert rank_exact(top) == 0
    with pytest.raises(DegreeOutOfRange):
        coboundary_matrix(g, 4)
    with pytest.raises(DegreeOutOfRange):
        betti(g, -1)
    for basis_of in (cocycle_basis, coboundary_basis):
        for k in (-1, 4):
            with pytest.raises(DegreeOutOfRange, match=rf"^degree {k} outside 0\.\.3$"):
                basis_of(g, k)


def test_antiderivation_matches_double_sum_on_families():
    for g in (
        aff_r(),
        abelian(3),
        heisenberg(1),
        heisenberg(2),
        direct_sum(aff_r(), abelian(2)),
        diamond([1])[0],
        diamond([Scalar(1), Scalar(0, 1)])[0],
    ):
        for k in range(g.dim + 1):
            for key in basis(g.dim, k):
                w = ExteriorForm(g.dim, k, {key: 1})
                assert apply_coboundary(g, w) == oracle_coboundary(g, w)


def test_antiderivation_matches_double_sum_random():
    rng = random.Random(2024)
    for _ in range(12):
        g = random_algebra(rng, max_dim=5)
        for k in range(g.dim + 1):
            w = random_form(rng, g.dim, k)
            assert apply_coboundary(g, w) == oracle_coboundary(g, w)


def test_coboundary_squares_to_zero():
    rng = random.Random(404)
    for _ in range(15):
        g = random_algebra(rng, max_dim=6)
        for k in range(g.dim):
            w = random_form(rng, g.dim, k)
            assert apply_coboundary(g, apply_coboundary(g, w)).is_zero()


def test_coboundary_is_a_derivation_on_wedges():
    # d(a ^ b) = d(a) ^ b + (-1)^deg(a) a ^ d(b)
    rng = random.Random(505)
    for _ in range(20):
        g = random_algebra(rng, max_dim=5)
        p = rng.randint(0, g.dim)
        q = rng.randint(0, g.dim - p)
        a = random_form(rng, g.dim, p)
        b = random_form(rng, g.dim, q)
        left = apply_coboundary(g, wedge(a, b))
        right = wedge(apply_coboundary(g, a), b)
        tail = wedge(a, apply_coboundary(g, b))
        if p % 2:
            tail = -tail
        assert left == right + tail


def _random_direct_sum(rng):
    summands = [
        rng.choice([aff_r(), heisenberg(1), heisenberg(2), abelian(rng.randint(1, 2))])
        for _ in range(rng.randint(1, 3))
    ]
    g = summands[0]
    for other in summands[1:]:
        if g.dim + other.dim <= 8:
            g = direct_sum(g, other)
    return g


def _random_gaussian_diamond(rng):
    lam = [random_scalar(rng, allow_zero=False, complex_rate=0.7) for _ in range(rng.randint(1, 3))]
    return diamond(lam)[0]


def _dense_image(rng, g):
    while True:
        S = [
            [random_scalar(rng, allow_zero=False, complex_rate=0.5) for _ in range(g.dim)]
            for _ in range(g.dim)
        ]
        try:
            return change_basis(g, S)
        except ValueError:
            continue


def _random_dense_image(rng):
    g = rng.choice([aff_r(), heisenberg(1), diamond([Scalar(1, 1)])[0], direct_sum(aff_r(), aff_r())])
    return _dense_image(rng, g)


def _mask(key):
    return sum(1 << i for i in key)


def _matrix_columns(matrix):
    # columns of d_k, rows numbered lexicographically, from the integer
    # rows of D d_k keyed by target bitmask, divided by D
    keys = combinations(range(matrix.dim), matrix.degree + 1)
    row_of = {_mask(key): r for r, key in enumerate(keys)}
    d = matrix.denominator
    columns = [{} for _ in range(matrix.cols)]
    for mask, row in matrix.int_rows.items():
        assert mask in row_of and row
        for c, (re, im) in row.items():
            assert re or im
            columns[c][row_of[mask]] = Scalar(Fraction(re, d), Fraction(im, d))
    return columns


@pytest.mark.parametrize(
    "make, seed",
    [(_random_direct_sum, 61), (_random_gaussian_diamond, 62), (_random_dense_image, 63)],
)
def test_assembly_columns_match_apply_coboundary(make, seed):
    rng = random.Random(seed)
    for _ in range(6):
        g = make(rng)
        for k in range(g.dim + 1):
            matrix = coboundary_matrix(g, k)
            assert (matrix.rows, matrix.cols) == (comb(g.dim, k + 1), comb(g.dim, k))
            columns = _matrix_columns(matrix)
            assert matrix.entries == {
                (r, c): value for c, column in enumerate(columns) for r, value in column.items()
            }
            targets = basis(g.dim, k + 1) if k < g.dim else []
            for c, key in enumerate(basis(g.dim, k)):
                w = ExteriorForm(g.dim, k, {key: 1})
                expected = apply_coboundary(g, w)
                assert ExteriorForm(
                    g.dim, k + 1, {targets[r]: v for r, v in columns[c].items()}
                ) == expected
                if g.dim <= 5:
                    assert expected == oracle_coboundary(g, w)


@pytest.mark.parametrize(
    "make, seed",
    [(_random_direct_sum, 71), (_random_gaussian_diamond, 72), (_random_dense_image, 73)],
)
def test_coboundary_basis_is_d_of_the_first_independent_monomials(make, seed):
    # reference route: d of every degree k-1 monomial by apply_coboundary;
    # the basis is d of increasing monomials, rank d_{k-1} of them, and
    # the image of every monomial skipped lies in the span of those kept
    rng = random.Random(seed)
    for _ in range(6):
        g = make(rng)
        profile = betti_profile(g)
        assert coboundary_basis(g, 0) == []
        for k in range(1, g.dim + 1):
            forms = coboundary_basis(g, k)
            assert len(forms) == profile.ranks[k - 1]
            images = [
                apply_coboundary(g, ExteriorForm(g.dim, k - 1, {key: 1}))
                for key in basis(g.dim, k - 1)
            ]
            kept = []
            for w in forms:
                start = kept[-1] + 1 if kept else 0
                kept.append(next(p for p in range(start, len(images)) if images[p] == w))
            monomials = basis(g.dim, k)
            span = SpanBuilder()
            for p in kept:
                assert span.add(span_row(images[p], monomials))
            for p in set(range(len(images))) - set(kept):
                assert span.contains(span_row(images[p], monomials))


def test_denominator_clears_every_structure_constant():
    # [e0, e1] = (1/3 + 2/3 i) e2 and [e0, e2] = -25/16 e2, so D = 48 and
    # d e2* = -(1/3 + 2/3 i) e0* ^ e1* + 25/16 e0* ^ e2*
    g = LieAlgebra(3, {
        (0, 1): {2: Scalar(Fraction(1, 3), Fraction(2, 3))},
        (0, 2): {2: Scalar(Fraction(-25, 16))},
    })
    matrix = coboundary_matrix(g, 1)
    assert matrix.denominator == 48
    # rows keyed by target bitmask: e0*^e1* is 0b011, e0*^e2* is 0b101
    assert matrix.int_rows == {0b011: {2: (-16, -32)}, 0b101: {2: (75, 0)}}
    assert matrix.to_coordinate_text() == "% 1 3 3\n0 2 -1/3-2/3i\n1 2 25/16\n"


def test_rank_path_builds_no_scalar(monkeypatch):
    # the graded filiforms split off a torus and eliminate the ideal on
    # its own weight-0 monomials
    algebras = [heisenberg(3), _random_gaussian_diamond(random.Random(5)),
                _random_dense_image(random.Random(6)), _graded_filiform(1, -1),
                _graded_filiform_torus(6, [(1, -2), (1, 3)])]
    expected = [betti_profile(g) for g in algebras]
    created = []
    original = Scalar.__init__

    def counting_init(self, *args, **kwargs):
        created.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    for g, profile in zip(algebras, expected):
        assert betti_profile(g) == profile
        assert betti(g, 2) == profile.b[2]
    assert created == []


def test_no_elimination_input_is_built_from_scalar_entries(monkeypatch):
    # the Scalar entries of d_k are for export only: every rank and basis
    # path must eliminate the integer rows of D d_k as assembled
    rng = random.Random(64)
    algebras = [heisenberg(2), _random_gaussian_diamond(rng), _random_dense_image(rng),
                _random_dense_image(rng)]
    paths = (cocycle_basis, coboundary_basis, cohomology_representatives)

    def run(g):
        return betti_profile(g), [[f(g, k) for f in paths] for k in range(g.dim + 1)]

    expected = [run(g) for g in algebras]

    def refuse(matrix):
        raise AssertionError("CoboundaryMatrix.entries read outside export")

    monkeypatch.setattr(CoboundaryMatrix, "entries", property(refuse))
    for g, result in zip(algebras, expected):
        assert run(g) == result


def test_rank_examples():
    g = heisenberg(2)
    ranks = tuple(rank_exact(coboundary_matrix(g, k)) for k in range(6))
    assert ranks == (0, 1, 4, 1, 0, 0)


def test_profile_heisenberg():
    assert betti_profile(heisenberg(1)).b == (1, 2, 2, 1)
    p = betti_profile(heisenberg(2))
    assert p.b == (1, 4, 5, 5, 4, 1)
    assert p.ranks == (0, 1, 4, 1, 0, 0)
    assert p.kernels == (1, 4, 6, 9, 5, 1)
    assert p.images == (0, 0, 1, 4, 1, 0)


def test_profile_aff_and_extensions():
    assert betti_profile(aff_r()).b == (1, 1, 0)
    g = direct_sum(aff_r(), abelian(3))
    assert betti_profile(g).b == (1, 4, 6, 4, 1, 0)


def test_profile_diamond():
    g, _ = diamond([1])
    assert betti_profile(g).b == (1, 1, 0, 1, 1)


def test_profile_zero_dimensional():
    p = betti_profile(abelian(0))
    assert p.b == (1,)
    assert p.ranks == (0,)


def test_betti_single_degree_agrees_with_profile():
    for g in (aff_r(), heisenberg(1), direct_sum(aff_r(), abelian(1))):
        p = betti_profile(g)
        for k in range(g.dim + 1):
            assert betti(g, k) == p.b[k]


def test_profile_reconstruction_round_trips():
    p = betti_profile(heisenberg(2))
    assert BettiProfile(p.n, p.ranks) == p
    assert BettiProfile.from_betti(p.n, p.b) == p


def test_profile_invariants_enforced():
    with pytest.raises(DimensionMismatch):
        BettiProfile(2, (0, 2, 1))  # top rank must be 0
    with pytest.raises(DimensionMismatch):
        BettiProfile(2, (1, 0, 0))  # forces b_0 = 0
    with pytest.raises(DimensionMismatch):
        BettiProfile(2, (0, 2, 0))  # forces b_1 < 0
    with pytest.raises(DimensionMismatch):
        BettiProfile.from_betti(2, (1, 0))  # wrong length
    with pytest.raises(DimensionMismatch, match=r"^profile vectors must have length n \+ 1$"):
        BettiProfile(2, (0, 0))  # wrong length


def test_cocycles_are_closed_and_count():
    for g in (aff_r(), heisenberg(1), heisenberg(2), diamond([1])[0]):
        p = betti_profile(g)
        for k in range(g.dim + 1):
            forms = cocycle_basis(g, k)
            assert len(forms) == p.kernels[k]
            for w in forms:
                assert apply_coboundary(g, w).is_zero()


def test_coboundaries_are_exact_and_count():
    for g in (aff_r(), heisenberg(2), diamond([1])[0]):
        p = betti_profile(g)
        for k in range(g.dim + 1):
            forms = coboundary_basis(g, k)
            assert len(forms) == p.images[k]
            # every one is closed too
            for w in forms:
                assert apply_coboundary(g, w).is_zero()


def test_representatives_count_and_independence():
    for g in (aff_r(), heisenberg(1), heisenberg(2), diamond([1])[0]):
        p = betti_profile(g)
        for k in range(g.dim + 1):
            reps = cohomology_representatives(g, k)
            assert len(reps) == p.b[k]
            monomials = basis(g.dim, k)
            span = SpanBuilder()
            for w in coboundary_basis(g, k):
                span.add(span_row(w, monomials))
            for w in reps:
                assert apply_coboundary(g, w).is_zero()
                # independent modulo the exact forms
                assert span.add(span_row(w, monomials))


def test_representatives_aff_ext_degree_one():
    # H^1 is dual to g/[g,g]: X* and the abelian directions survive, Y* dies
    g = direct_sum(aff_r(), abelian(2))
    reps = cohomology_representatives(g, 1)
    keys = sorted(key for w in reps for key in w.terms)
    assert keys == [(0,), (2,), (3,)]
    assert all(w.terms[key] == ONE for w in reps for key in w.terms)


def test_direct_sum_profile_is_convolution():
    pairs = [
        (aff_r(), aff_r()),
        (aff_r(), heisenberg(1)),
        (heisenberg(1), abelian(2)),
        (heisenberg(2), abelian(1)),
    ]
    for a, b in pairs:
        pa = betti_profile(a).b
        pb = betti_profile(b).b
        s = betti_profile(direct_sum(a, b))
        n = a.dim + b.dim
        expected = tuple(
            sum(
                pa[i] * pb[k - i]
                for i in range(max(0, k - b.dim), min(a.dim, k) + 1)
            )
            for k in range(n + 1)
        )
        assert s.b == expected


def test_poincare_duality_of_unimodular_families():
    for g in (heisenberg(1), heisenberg(2), diamond([1])[0], diamond([1, 2])[0]):
        b = betti_profile(g).b
        assert b == tuple(reversed(b))


def test_abelian_profile_is_binomials():
    for d in range(5):
        assert betti_profile(abelian(d)).b == tuple(
            comb(d, k) for k in range(d + 1)
        )


def _monomial_image(rng, g, perm=None):
    # f_p = s_p e_{perm[p]}: ad stays diagonal wherever it was
    n = g.dim
    if perm is None:
        perm = list(range(n))
        rng.shuffle(perm)
    S = [[ZERO] * n for _ in range(n)]
    for p in range(n):
        S[perm[p]][p] = random_scalar(rng, allow_zero=False, complex_rate=0.5)
    return change_basis(g, S)


def _interleaved_sum(rng, summands):
    # a monomial image of the direct sum that deals the summands' indices
    # out in turn, so no factor is a run of consecutive indices
    g = summands[0]
    for other in summands[1:]:
        g = direct_sum(g, other)
    starts = [0]
    for other in summands:
        starts.append(starts[-1] + other.dim)
    blocks = [range(a, b) for a, b in zip(starts, starts[1:])]
    perm = [q for turn in zip_longest(*blocks) for q in turn if q is not None]
    return _monomial_image(rng, g, perm)


def _two_weights(u, v):
    # [X, Y_1] = u Y_1, [X, Y_2] = v Y_2: a two-dimensional derived ideal,
    # and not unimodular unless u + v = 0
    return LieAlgebra(3, {(0, 1): {1: u}, (0, 2): {2: v}})


def _graded_filiform(u, v):
    # x + m0(4), with [e_0, e_1] = e_2, [e_0, e_2] = e_3 on indices 1..4 and
    # ad(x) diagonal with weights u, v, u + v, 2u + v on e_0..e_3: the
    # brackets of m0(4) are not multiples of one vector, so x is split
    # off and m0(4) alone is eliminated; unimodular when 4u + 3v = 0
    return LieAlgebra(5, {
        (0, 1): {1: u}, (0, 2): {2: v}, (0, 3): {3: u + v}, (0, 4): {4: 2 * u + v},
        (1, 2): {3: 1}, (1, 3): {4: 1},
    })


def _graded_filiform_torus(n, gradings, m2=False):
    # t + m0(n), or t + m2(n): indices 0..r-1 span t, then e_0..e_{n-1} with
    # [e_0, e_i] = e_{i+1}, and for m2 also [e_1, e_j] = e_{j+2}; x_p grades
    # e_0 and e_1 by gradings[p] = (u, v), so e_i has weight v + (i - 1) u,
    # which m2's extra brackets allow only when v = 2u
    r = len(gradings)
    brackets = {(r, r + i): {r + i + 1: 1} for i in range(1, n - 1)}
    if m2:
        brackets.update({(r + 1, r + j): {r + j + 2: 1} for j in range(2, n - 2)})
    for p, (u, v) in enumerate(gradings):
        brackets[(p, r)] = {r: u}
        brackets.update({(p, r + i): {r + i: v + (i - 1) * u} for i in range(1, n)})
    return LieAlgebra(r + n, brackets)


def _torus_on_eliminated_ideal_cases(rng):
    # t of dimension 1-3 acting diagonally on graded m0(5..7) and m2(7): n is
    # neither abelian nor Heisenberg, so it is eliminated on its own.  Each
    # x_p grades m0(n) by a multiple of one (u, v), unimodular when
    # u + (n - 1) v + (n - 1)(n - 2) u / 2 = 0, which (1, v) never is; a
    # third x_p grades it independently.  m2(n)'s weights u, 2u, 3u, ..
    # never sum to 0
    def scale():
        return random_scalar(rng, allow_zero=False, complex_rate=0.5)

    own = []
    for n, (u, v), r, s in ((5, (4, -7), 1, 3), (6, (5, -11), 2, 1), (7, (3, -8), 3, 2)):
        scales = [1] + [scale() for _ in range(r - 1)]
        own.append(_graded_filiform_torus(n, [(c * u, c * v) for c in scales]))
        w = rng.randint(-4, -1)
        gradings = [(c, c * w) for c in [1] + [scale() for _ in range(min(s, 2) - 1)]]
        if s == 3:
            gradings.append((rng.randint(1, 3), rng.randint(-3, 3)))
        own.append(_graded_filiform_torus(n, gradings))
    own.append(_graded_filiform_torus(7, [(c, 2 * c) for c in (scale() for _ in range(2))], m2=True))
    return own + [_monomial_image(rng, g) for g in own]


def _reduction_cases(seed):
    rng = random.Random(seed)
    cases = [aff_r(), direct_sum(aff_r(), heisenberg(1)), direct_sum(aff_r(), heisenberg(2))]
    for make in (_random_direct_sum, _random_gaussian_diamond, _random_dense_image):
        cases += [make(rng) for _ in range(4)]
    lam = random_scalar(rng, allow_zero=False, complex_rate=0.7)
    # the weight-0 cochains of one factor must not pick up the charged
    # indices of another, here X_1 and Y_1 of the diamond and Y_1, Y_2
    # beside the graded filiform
    cases += [
        _interleaved_sum(rng, [aff_r(), heisenberg(1), abelian(2)]),
        _interleaved_sum(rng, [aff_r(), diamond([lam])[0], abelian(1)]),
        _interleaved_sum(rng, [heisenberg(1), diamond([lam])[0], abelian(1)]),
        _interleaved_sum(rng, [_graded_filiform(1, -1), _two_weights(lam, -lam)]),
    ]
    # weights and no route: not unimodular, then unimodular
    for u, v in ((1, 1), (3, -4)):
        cases += [_graded_filiform(u, v), _monomial_image(rng, _graded_filiform(u, v))]
    for n in (1, 2, 3):
        g, _ = diamond([random_scalar(rng, allow_zero=False, complex_rate=0.7) for _ in range(n)])
        cases.append(_monomial_image(rng, g))
        if n < 3:
            cases.append(_dense_image(rng, g))
    # random changes of basis of the built-in families, and a dense h_5
    cases += [random_algebra(rng) for _ in range(4)]
    cases.append(_dense_image(rng, heisenberg(2)))
    return cases + _torus_on_eliminated_ideal_cases(rng)


def _representatives_of_the_full_complex(g, k):
    # every exact form spans, then every cocycle basis vector of d_k that
    # grows the span is a representative, weights ignored
    keys = list(combinations(range(g.dim), k))
    span = SpanBuilder()
    if k > 0:
        below = coboundary_matrix(g, k - 1)
        images = [{} for _ in range(below.cols)]
        for mask, row in below.int_rows.items():
            for c, value in row.items():
                images[c][mask] = value
        for image in images:
            span.add(image)
    matrix = coboundary_matrix(g, k)
    return [
        ExteriorForm(g.dim, k, {keys[c]: value for c, value in vec.items()})
        for vec in kernel_basis(list(matrix.int_rows.values()), matrix.cols)
        if span.add({_mask(keys[c]): v for c, v in gaussian_row(vec, matrix.cols).items()})
    ]


def _full_complex_profile(g):
    # every d_k of the whole complex eliminated: the reference route
    return BettiProfile(g.dim, tuple(rank_exact(coboundary_matrix(g, k)) for k in range(g.dim + 1)))


@pytest.mark.parametrize("seed", [91, 92])
def test_reduced_route_matches_the_full_complex(seed):
    for g in _reduction_cases(seed):
        n = g.dim
        full = _full_complex_profile(g)
        assert betti_profile(g) == full
        for k in range(n + 1):
            assert betti(g, k) == full.b[k]
            assert cohomology_representatives(g, k) == _representatives_of_the_full_complex(g, k)


def test_affine_line_is_not_unimodular():
    # tr ad(X) = 1, so b_k = b_{n-k} fails and no degree may be mirrored
    g = aff_r()
    assert betti_profile(g).b == (1, 1, 0)
    assert [betti(g, k) for k in range(3)] == [1, 1, 0]
    assert betti_profile(direct_sum(g, abelian(2))).b == (1, 3, 3, 1, 0)


def _assembled(monkeypatch, g):
    # (degree, columns) of every matrix betti_profile assembles
    seen = []
    original = cochain.coboundary_matrix

    def spy(algebra, k, monomials=None):
        matrix = original(algebra, k, monomials)
        seen.append((k, matrix.cols))
        return matrix

    with monkeypatch.context() as patch:
        patch.setattr(cochain, "coboundary_matrix", spy)
        betti_profile(g)
    return seen


def _weight_zero_count(weights, k):
    # k-subsets of the basis whose joint weights, one tuple per index, cancel
    return sum(
        1
        for key in combinations(range(len(weights)), k)
        if all(sum(part) == 0 for part in zip(*(weights[q] for q in key)))
    )


def test_reduction_follows_the_structure_it_finds(monkeypatch):
    rng = random.Random(93)
    # x + m0(4) graded with weights 1, 1, 2, 3, then 1, -1, 0, 1 on e_0..e_3:
    # ad(x) is diagonal, also after a monomial change of basis, so x is
    # split off and only the weight-0 columns of m0(4) are assembled;
    # tr ad(x) != 0, so in every degree that has one.  Graded with
    # 3, -4, -1, 2 it is unimodular: only up to the middle degree
    lines = []
    for u, v, top in ((1, 1, 4), (1, -1, 4), (3, -4, 2)):
        weights = [(w,) for w in (u, v, u + v, 2 * u + v)]
        counts = [(k, _weight_zero_count(weights, k)) for k in range(top)]
        line = [(k, cols) for k, cols in counts if cols]
        assert _assembled(monkeypatch, _graded_filiform(u, v)) == line
        assert _assembled(monkeypatch, _monomial_image(rng, _graded_filiform(u, v))) == line
        lines.append(line)
    # weights 1, 1, 2, 3 leave no weight-0 cochain of m0(4) above degree 0
    assert lines[0] == [(0, 1)]
    assert sum(cols for _, cols in lines[1]) < sum(comb(4, k) for k in range(4))
    lines = [entry for line in lines for entry in line]
    # each factor of a direct sum alone, over its own weight-0 columns
    h = direct_sum(_graded_filiform(1, 1), _graded_filiform(1, -1))
    h = direct_sum(h, _graded_filiform(3, -4))
    assert _assembled(monkeypatch, h) == lines
    # a dense basis leaves no diagonal ad: every column, still halved
    h = _dense_image(rng, diamond([Scalar(1), Scalar(0, 1)])[0])
    assert _assembled(monkeypatch, h) == [(k, comb(6, k)) for k in range(3)]
    # a diamond is Y_0 + h_7 and [X, Y_1] = Y_1, [X, Y_2] = 2 Y_2 is x + a_2:
    # t + n with n Heisenberg or abelian, counted by weight with no matrix,
    # in any monomial basis
    g, _ = diamond([Scalar(1), Scalar(2, 1), Scalar(1, -1)])
    assert _assembled(monkeypatch, g) == []
    assert _assembled(monkeypatch, _monomial_image(rng, g)) == []
    h = direct_sum(_two_weights(1, 2), _two_weights(-1, Scalar(0, 1)))
    assert _assembled(monkeypatch, h) == []
    # each factor of h_7 + a_5 and of two affine lines has a one-dimensional
    # derived ideal, and the abelian summand is binomials: no matrix at all
    h = direct_sum(heisenberg(3), abelian(5))
    assert _assembled(monkeypatch, h) == []
    h = direct_sum(aff_r(), LieAlgebra(2, {(0, 1): {1: -ONE}}))
    assert _assembled(monkeypatch, h) == []


def test_split_torus_is_not_assembled(monkeypatch):
    # x + m0(4), and t + m0(6) with t two-dimensional: once t is split
    # off, d is assembled on the whole algebra over the ideal's weight-0
    # monomials alone, none of them on t
    cases = ((_graded_filiform(1, -1), {0}), (_graded_filiform_torus(6, [(1, -2), (1, 3)]), {0, 1}))
    original = cochain.coboundary_matrix
    for g, torus in cases:
        seen = []

        def spy(algebra, k, monomials=None):
            monomials = list(monomials)
            seen.extend(key for key, _ in monomials)
            return original(algebra, k, monomials)

        with monkeypatch.context() as patch:
            patch.setattr(cochain, "coboundary_matrix", spy)
            b = betti_profile(g).b
        assert seen
        assert all(torus.isdisjoint(key) for key in seen)
        assert b == _full_complex_profile(g).b


def _line_cases(rng):
    # dense images of h_{2m+1} + a and aff + a up to dimension 7: every
    # bracket is a multiple of one vector z, central or not
    cases = []
    for m in (1, 2, 3):
        a = rng.randint(0, 6 - 2 * m)
        cases.append(_dense_image(rng, direct_sum(heisenberg(m), abelian(a))))
    for a in (0, rng.randint(1, 5)):
        cases.append(_dense_image(rng, direct_sum(aff_r(), abelian(a))))
    return cases


def _near_miss_cases(rng):
    # two-dimensional derived ideals that must go through the weight-0
    # route: h_3 + aff in a dense basis, and [e0, e1] = e4 + e5 beside
    # [e2, e3] = e4 + 2 e5, which agree at index 4, z's first, and differ
    # at index 5; under a monomial change of basis they stay proportional
    # at z's first index only
    split = LieAlgebra(6, {(0, 1): {4: 1, 5: 1}, (2, 3): {4: 1, 5: 2}})
    return [_dense_image(rng, direct_sum(heisenberg(1), aff_r())), split,
            _monomial_image(rng, split)]


@pytest.mark.parametrize("seed", [94, 95])
def test_line_factors_match_the_full_complex(seed, monkeypatch):
    rng = random.Random(seed)
    lines, near_misses = _line_cases(rng), _near_miss_cases(rng)
    for g in lines + near_misses:
        n = g.dim
        full = _full_complex_profile(g)
        assert betti_profile(g) == full
        assert [betti(g, k) for k in range(n + 1)] == list(full.b)
    for g in lines:
        assert _assembled(monkeypatch, g) == []
    for g in near_misses:
        assert _assembled(monkeypatch, g) != []


def _graded_heisenberg(x_weights):
    # t + h_{2m+1}: indices 0..r-1 span t, then z, a_1..a_m, b_1..b_m with
    # [a_i, b_i] = z; x_weights[p] lists the weights of x_p on a_1..a_m,
    # then b_1..b_m, each pair summing to that of z
    r, m = len(x_weights), len(x_weights[0]) // 2
    dim = r + 2 * m + 1
    z = r

    brackets = {(z + 1 + i, z + 1 + m + i): {z: 1} for i in range(m)}
    for p, ws in enumerate(x_weights):
        brackets[(p, z)] = {z: ws[0] + ws[m]}
        brackets.update({(p, z + 1 + i): {z + 1 + i: w} for i, w in enumerate(ws)})
    return LieAlgebra(dim, brackets)


def _torus_cases(rng):
    # t + n, n abelian or Heisenberg and t diagonal: the torus route
    a = random_scalar(rng, allow_zero=False, complex_rate=0.0)
    b, c = (random_scalar(rng, allow_zero=False, complex_rate=1.0) for _ in range(2))
    u, v = rng.randint(-3, 3), rng.randint(-3, 3)
    gauss = random_scalar(rng, allow_zero=False, complex_rate=1.0)
    own = [
        # repeated, opposite and zero parameters, then Gaussian ones; the
        # second has c_4 != 0 at its middle degree m = 4
        diamond([a, a, -a, ZERO])[0],
        diamond([b, -b, c, c])[0],
        # x + a_3
        LieAlgebra(4, {(0, 1): {1: b}, (0, 2): {2: -b}, (0, 3): {3: a}}),
        # x + h_5 with [x, z] = 2z, so z has a nonzero weight
        _graded_heisenberg([[u, 1, 2 - u, 1]]),
        # a two-dimensional t on h_5
        _graded_heisenberg([[u, v, 2 - u, 2 - v], [gauss, 1, -gauss, -1]]),
    ]
    return own + [_monomial_image(rng, g) for g in own]


def _torus_near_misses(rng):
    # sl_2 + aff with [e, f] = h and x scaling e, f and w by 1, -1 and 1:
    # [e, f] lands on the diagonal index h, so n is no ideal, although
    # omega is nondegenerate on e, f; t + (h_3 + a_1) has a degenerate
    # omega; x + n with [x, q] = 2q, [x, z] = 2z, [a, q] = [a, z] = z has
    # every bracket of n a multiple of z but weights on n, so it is not
    # aff + a_1: (1, 2, 1, 0, 0), where C(1, .) * C(2, .) reads
    # (1, 3, 3, 1, 0); a dense image of a diamond has no diagonal ad
    sl2 = LieAlgebra(5, {
        (0, 2): {2: 2}, (0, 3): {3: -2}, (2, 3): {0: 1},
        (1, 2): {2: 1}, (1, 3): {3: -1}, (1, 4): {4: 1},
    })
    degenerate = LieAlgebra(5, {
        (0, 1): {1: 1}, (0, 2): {2: 2}, (0, 3): {3: -1}, (0, 4): {4: -1}, (2, 3): {1: 1},
    })
    weighted = LieAlgebra(4, {(0, 2): {2: 2}, (0, 3): {3: 2}, (1, 2): {3: 1}, (1, 3): {3: 1}})
    assert _full_complex_profile(weighted).b == (1, 2, 1, 0, 0)
    lam = random_scalar(rng, allow_zero=False, complex_rate=0.7)
    return [sl2, _monomial_image(rng, sl2), degenerate, _monomial_image(rng, degenerate),
            weighted, _monomial_image(rng, weighted),
            _dense_image(rng, diamond([lam, -lam])[0])]


@pytest.mark.parametrize("seed", [96, 97, 98])
def test_torus_factors_match_the_full_complex(seed, monkeypatch):
    rng = random.Random(seed)
    routed, near_misses = _torus_cases(rng), _torus_near_misses(rng)
    for g in routed + near_misses:
        n = g.dim
        full = _full_complex_profile(g)
        assert betti_profile(g) == full
        assert [betti(g, k) for k in range(n + 1)] == list(full.b)
    for g in routed:
        assert _assembled(monkeypatch, g) == []
    for g in near_misses:
        assert _assembled(monkeypatch, g) != []


def test_torus_route_counts_no_larger_subsets_than_the_degree_needs(monkeypatch):
    # twenty parameters in twenty classes up to sign: b_2 = 20 - 1, the
    # paper's count, read from subsets of at most two weights, where a
    # table of all subsets of a half would hold 2^20 entries
    g, _ = diamond([Scalar(v, v * v + 7) for v in range(1, 21)])
    largest = []
    original = cochain._subset_counts

    def spy(values, top):
        table = original(values, top)
        largest.append(max(j for j, _ in table))
        return table

    monkeypatch.setattr(cochain, "_subset_counts", spy)
    assert [betti(g, k) for k in range(3)] == [1, 1, 19]
    assert largest and max(largest) <= 2


@pytest.mark.parametrize("seed", [99, 100, 101])
def test_equal_unit_weights_match_the_full_complex(seed):
    # diamond parameters from {1, -1, i, -i}: many equal small weights,
    # whose sums the weight packing must keep apart.  Packed in base 3,
    # three weights i and one weight -1 sum to 0, so a base of only twice
    # the largest component plus one reads (..., 10, 20, 10, ...) in the
    # middle of diamond(i, i, i, +-1), where the full complex gives 8, 16, 8
    rng = random.Random(seed)
    i = Scalar(0, 1)
    units = [ONE, -ONE, i, -i]
    fixed = [[i, i, i, ONE], [i, i, i, -ONE]]
    seeded = [[rng.choice(units) for _ in range(rng.randint(3, 5))] for _ in range(3)]
    for lam in fixed + seeded:
        g, _ = diamond(lam)
        full = _full_complex_profile(g)
        assert betti_profile(g) == full
        if lam in fixed:
            assert full.b == (1, 1, 9, 9, 8, 16, 8, 9, 9, 1, 1)


def _upper_triangular(r, torus=False):
    # n_r, the strictly upper-triangular r x r matrices, on the basis E_ij
    # (i < j) in lexicographic order, with [E_ij, E_kl] = d_jk E_il - d_li E_kj;
    # with ``torus``, b_r = t + n_r, t spanned by H_p = E_pp - E_{p+1,p+1}
    # on indices 0..r-2 ahead of them, [H_p, E_jk] = (h_p(j) - h_p(k)) E_jk
    roots = list(combinations(range(r), 2))
    h = r - 1 if torus else 0
    index = {root: h + p for p, root in enumerate(roots)}
    brackets = {}
    for (i, j), (k, l) in combinations(roots, 2):
        if j == k:
            brackets[(index[(i, j)], index[(k, l)])] = {index[(i, l)]: 1}
        elif l == i:
            brackets[(index[(i, j)], index[(k, l)])] = {index[(k, j)]: -1}
    for p in range(h):
        diagonal = [1 if q == p else -1 if q == p + 1 else 0 for q in range(r)]
        for j, k in roots:
            if diagonal[j] != diagonal[k]:
                brackets[(p, index[(j, k)])] = {index[(j, k)]: diagonal[j] - diagonal[k]}
    return LieAlgebra(h + len(roots), brackets)


def _mahonian(r):
    # the number of permutations of r letters with k inversions, k = 0..C(r, 2)
    counts = [0] * (comb(r, 2) + 1)
    for perm in permutations(range(r)):
        counts[sum(x > y for x, y in combinations(perm, 2))] += 1
    return tuple(counts)


def test_kostant_counts_for_upper_triangular_algebras():
    # Kostant (Ann. Math. 74, 1961): H^k(n_r) has one weight space for each
    # permutation of length k, and only the identity has weight 0, so
    # H*(b_r) = Lambda t* and b_k(b_r) = C(r - 1, k).  An answer from
    # outside the engine for a family the paper does not cover; b_r splits
    # its torus off and eliminates the ideal n_r on its own
    rng = random.Random(102)
    assert _mahonian(4) == (1, 3, 5, 6, 5, 3, 1)
    for r in range(3, 7):
        nilpotent, borel = _upper_triangular(r), _upper_triangular(r, torus=True)
        binomials = tuple(comb(r - 1, k) for k in range(borel.dim + 1))
        for g, b in ((nilpotent, _mahonian(r)), (borel, binomials)):
            assert betti_profile(g).b == b
            assert betti_profile(_monomial_image(rng, g)).b == b
    for g in (_upper_triangular(4), _upper_triangular(3, torus=True)):
        h = _dense_image(rng, g)
        assert betti_profile(h) == _full_complex_profile(h)
        assert betti_profile(h).b == betti_profile(g).b
