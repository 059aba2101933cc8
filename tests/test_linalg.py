"""Exact linear algebra: examples plus algebraic property tests."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import det_cofactor, rank_by_minors
from liecap.linalg import (
    Matrix,
    SpanBuilder,
    Subspace,
    kernel_basis,
    quotient_with_section,
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


def test_quotient_by_nothing_is_identity():
    q = quotient_with_section(3, [])
    assert q.dim == 3
    assert q.projection == Matrix.identity(3)
    assert q.section_cols == (0, 1, 2)


def test_quotient_by_axis():
    q = quotient_with_section(3, [unit_vector(3, 0)])
    assert q.dim == 2
    assert q.projection.mul_vec(unit_vector(3, 0)) == (Fraction(0), Fraction(0))


def test_quotient_rank_two_relations():
    relations = [(1, 1, 0, 0), (0, 1, 1, 0), (1, 0, -1, 0)]
    # independent rank via minors: the quotient dimension must be 4 - rank
    expected_rank = rank_by_minors([[Fraction(x) for x in r] for r in relations])
    q = quotient_with_section(4, relations)
    assert q.dim == 4 - expected_rank == 2
    zero = (Fraction(0),) * q.dim
    for r in relations:
        assert q.projection.mul_vec(r) == zero


@settings(max_examples=60, deadline=None)
@given(matrices(max_rows=5, max_cols=5))
def test_quotient_projection_properties(m):
    q = quotient_with_section(m.cols, list(m.data))
    assert q.dim == m.cols - m.rank()
    zero = (Fraction(0),) * q.dim
    for r in m.data:
        assert q.projection.mul_vec(r) == zero
    assert q.projection.rank() == q.dim


def test_quotient_section_round_trip():
    q = quotient_with_section(4, [(1, 2, 0, 0)])
    for s, col in enumerate(q.section_cols):
        image = q.projection.mul_vec(unit_vector(4, col))
        assert image == unit_vector(q.dim, s)


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


def test_span_builder_tracks_rank_growth():
    sb = SpanBuilder(3)
    assert sb.add((1, 1, 0))
    assert not sb.add((2, 2, 0))
    assert sb.add((0, 0, 5))
    assert sb.rank == 2
    assert sb.contains((3, 3, 5))
    assert not sb.contains((1, 0, 0))


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
