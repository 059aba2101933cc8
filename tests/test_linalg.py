"""Exact linear algebra: examples plus algebraic property tests."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _gauss_jordan, det_cofactor, rank_by_minors
from liecap.linalg import (
    Matrix,
    SpanBuilder,
    Subspace,
    _projection_matrix,
    _projection_rows,
    kernel_basis,
    random_invertible,
    unit_vector,
)

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(1, max_cols))
    data = draw(
        st.lists(st.lists(fractions_st, min_size=c, max_size=c), min_size=r, max_size=r)
    )
    return Matrix.from_rows(data, cols=c)


# -- reduced echelon bases ------------------------------------------------------


def test_rref_identity_is_fixed():
    m = Matrix.identity(3)
    s = Subspace.span(3, m.data)
    assert s.basis == m
    assert s.pivot_cols() == (0, 1, 2)


def test_rref_rank_one():
    s = Subspace.span(2, [[2, 4], [1, 2]])
    assert s.basis == Matrix.from_rows([[1, 2]])
    assert s.pivot_cols() == (0,)


def test_rref_of_random_invertible_is_identity():
    # invertibility is certified by an independent cofactor determinant
    rng = random.Random(2024)
    found = 0
    while found < 3:
        data = [[Fraction(rng.randint(-6, 6)) for _ in range(5)] for _ in range(5)]
        if det_cofactor(data) == 0:
            continue
        found += 1
        s = Subspace.span(5, data)
        assert s.basis == Matrix.identity(5)
        assert s.pivot_cols() == (0, 1, 2, 3, 4)


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rref_is_idempotent(m):
    s1 = Subspace.span(m.cols, m.data)
    s2 = Subspace.span(m.cols, s1.basis.data)
    assert s1 == s2
    assert s1.pivot_cols() == s2.pivot_cols()


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rref_deterministic(m):
    assert Subspace.span(m.cols, m.data) == Subspace.span(m.cols, m.data)


@settings(max_examples=50, deadline=None)
@given(matrices(max_rows=4, max_cols=4))
def test_rank_matches_minor_rank(m):
    assert m.rank() == rank_by_minors([list(r) for r in m.data])


# -- kernels -------------------------------------------------------------------


def test_kernel_of_identity_is_zero():
    assert kernel_basis(Matrix.identity(4)) == Subspace.zero(4)


def test_kernel_of_zero_map_is_everything():
    assert kernel_basis(Matrix.from_rows([[0, 0, 0]] * 3)) == Subspace.full(3)
    assert kernel_basis(Matrix.from_rows([], cols=3)) == Subspace.full(3)


def test_kernel_single_relation():
    m = Matrix.from_rows([[1, 1, 0]])
    ker = kernel_basis(m)
    assert ker.dim == 2
    for v in ker.basis.data:
        assert m.mul_vec(v) == (Fraction(0),)


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert m.rank() + kernel_basis(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    ker = kernel_basis(m)
    zero = tuple(Fraction(0) for _ in range(m.rows))
    for v in ker.basis.data:
        assert m.mul_vec(v) == zero


# -- quotients -----------------------------------------------------------------


def projection_of(ncols, relations):
    """The section columns and the public projection that kill the span
    of ``relations``, from ``_projection_rows`` and ``_projection_matrix``."""
    sb = SpanBuilder(ncols)
    for r in relations:
        sb.add(r)
    section, d, rows = _projection_rows(sb)
    # one common denominator: every row is d times e_q plus pivot entries
    assert [row[q] for row, q in zip(rows, section)] == [d] * len(section)
    return section, _projection_matrix(ncols, d, rows)


def test_quotient_by_nothing_is_identity():
    section, projection = projection_of(3, [])
    assert projection == Matrix.identity(3)
    assert section == (0, 1, 2)


def test_quotient_by_axis():
    section, projection = projection_of(3, [unit_vector(3, 0)])
    assert len(section) == 2
    assert projection.mul_vec(unit_vector(3, 0)) == (Fraction(0), Fraction(0))


def test_quotient_rank_two_relations():
    relations = [(1, 1, 0, 0), (0, 1, 1, 0), (1, 0, -1, 0)]
    # independent rank via minors: the quotient dimension must be 4 - rank
    expected_rank = rank_by_minors([[Fraction(x) for x in r] for r in relations])
    section, projection = projection_of(4, relations)
    assert len(section) == 4 - expected_rank == 2
    zero = (Fraction(0),) * len(section)
    for r in relations:
        assert projection.mul_vec(r) == zero


@settings(max_examples=60, deadline=None)
@given(matrices(max_rows=5, max_cols=5))
def test_quotient_projection_properties(m):
    section, projection = projection_of(m.cols, list(m.data))
    assert len(section) == m.cols - m.rank()
    zero = (Fraction(0),) * len(section)
    for r in m.data:
        assert projection.mul_vec(r) == zero
    assert projection.rank() == len(section)


def test_projection_rows_share_one_denominator():
    # the reduced relations lead with 2 and 3, each used by one section column
    sb = SpanBuilder(4)
    for r in [(2, 1, 0, 0), (0, 0, 3, 1)]:
        sb.add(r)
    assert _projection_rows(sb) == ((1, 3), 6, [[-3, 6, 0, 0], [0, 0, -2, 6]])


def test_quotient_section_round_trip():
    section, projection = projection_of(4, [(1, 2, 0, 0)])
    for s, col in enumerate(section):
        assert projection.mul_vec(unit_vector(4, col)) == unit_vector(len(section), s)


# -- subspaces and helpers -------------------------------------------------------


def test_span_basis_is_canonical():
    a = Subspace.span(3, [(2, 4, 0), (1, 2, 1)])
    b = Subspace.span(3, [(1, 2, 1), (0, 0, 2), (3, 6, 1)])
    assert a == b


def test_subspace_contains_and_coordinates():
    s = Subspace.span(3, [(1, 0, 2), (0, 1, 1)])
    v = (Fraction(2), Fraction(-1), Fraction(3))
    assert s.contains(v)
    coords = s.coordinates(v)
    assert coords == (Fraction(2), Fraction(-1))
    assert not s.contains((0, 0, 1))
    assert s.coordinates((0, 0, 1)) is None
    with pytest.raises(ValueError):
        s.contains((1, 0))


def test_subspace_rejects_unreduced_basis():
    # echelon but not reduced: (1, 1) is nonzero in the pivot column of
    # (0, 1), so contains() and equality would misread the span
    with pytest.raises(ValueError, match="not in reduced echelon form"):
        Subspace(2, Matrix.from_rows([[1, 1], [0, 1]]))
    assert Subspace(2, Matrix.from_rows([[1, 0], [0, 1]])) == Subspace.full(2)
    # a nonzero entry outside the pivot columns is allowed
    assert Subspace(3, Matrix.from_rows([[1, 2, 0], [0, 0, 1]])).contains((1, 2, 1))


def test_values_are_immutable_and_hashable():
    m = Matrix.from_rows([[1, 2], [0, 1]])
    s = Subspace.span(2, [(2, 4)])
    for value, field in ((m, "rows"), (m, "data"), (s, "ambient_dim"), (s, "basis")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert (m.rows, m.cols, s.ambient_dim, s.basis) == (2, 2, 2, Matrix.from_rows([[1, 2]]))
    same = Matrix(2, 2, m.data)
    assert m == same and hash(m) == hash(same)
    assert m != m.data and s != s.basis  # a value equals only values of its own class
    assert {s: "s"}[Subspace(2, Matrix.from_rows([[1, 2]]))] == "s"
    assert copy.deepcopy(m) == m and pickle.loads(pickle.dumps(s)) == s


def test_int_subspace_matches_fraction_gauss_jordan(frozen_catalog):
    # the derived subalgebras, centers, series terms and abelian factors
    # of the catalog, each spanned again by seeded dense rational rows:
    # the Subspace checked from conftest's Fraction Gauss-Jordan,
    # Subspace.span and SpanBuilder.subspace() all equal the library's
    # own, with equal hashes, and basis gives the Fraction RREF rows
    rng = random.Random(23)

    def weight(i, t):
        # row i of a triangular recombination with a nonzero diagonal
        if t < i:
            return 0
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)) if t == i else rng.randint(-3, 3), rng.randint(1, 4))

    for name, algebra in frozen_catalog:
        n = algebra.dim
        terms = [algebra.derived_subalgebra(), algebra.center(), *algebra.lower_central_series()]
        terms.append(algebra._abelian_split().factor)
        for s in dict.fromkeys(terms):
            vectors = []
            for i in [*range(s.dim), -1, -1]:  # -1: a combination of every row
                coeffs = [weight(i, t) for t in range(s.dim)]
                vectors.append([sum((c * r[t] for c, r in zip(coeffs, s.basis.data)), Fraction(0)) for t in range(n)])
            rng.shuffle(vectors)
            expected = _gauss_jordan(vectors, n)
            sb = SpanBuilder(n)
            for v in vectors:
                sb.add(v)
            made = [s, Subspace(n, Matrix.from_rows(expected, cols=n)), Subspace.span(n, vectors), sb.subspace()]
            for x in made:
                assert x == s and hash(x) == hash(s), name
                assert x.basis.data == tuple(map(tuple, expected)), name


def test_span_builder_tracks_rank_growth():
    sb = SpanBuilder(3)
    assert sb.add((1, 1, 0))
    assert not sb.add((2, 2, 0))
    assert sb.add((0, 0, 5))
    assert sb.rank == 2
    assert sb.subspace().contains((3, 3, 5))
    assert not sb.subspace().contains((1, 0, 0))


@pytest.mark.parametrize("ncols, row", [(3, [1]), (2, [0, 0, 5])], ids=["short", "long"])
def test_span_builder_checks_row_length(ncols, row):
    sb = SpanBuilder(ncols)
    with pytest.raises(ValueError, match="row length"):
        sb.add_int_row(list(row))
    with pytest.raises(ValueError, match="row length"):
        sb.add(row)
    assert sb.rank == 0


def test_matrix_inverse():
    m = Matrix.from_rows([[1, 2], [3, 5]])
    inv = m.inverse()
    for j in range(2):
        assert m.mul_vec(inv.column(j)) == unit_vector(2, j)
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [2, 4]]).inverse()


def test_random_invertible_is_deterministic_and_invertible():
    a = random_invertible(4, random.Random(11))
    b = random_invertible(4, random.Random(11))
    assert a == b
    assert a.rank() == 4
