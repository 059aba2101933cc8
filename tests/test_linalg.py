"""Exact linear algebra: examples plus algebraic property tests."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _gauss_jordan, det_cofactor, fraction_solve, null_space, rank_by_minors
from liecap import exterior
from liecap.lie import heisenberg
from liecap.linalg import (
    Matrix,
    SpanBuilder,
    Subspace,
    _combine,
    _projection_rows,
    kernel_basis,
    random_invertible,
    unit_vector,
    vec_add,
    vec_scale,
    zero_vector,
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


# -- the row kernel -----------------------------------------------------------


@st.composite
def combinations_st(draw):
    """(coeffs, rows, width): int rows of one width, some of them zero, and
    coefficients, some of them zero, whose count need not match the rows'."""
    width = draw(st.integers(0, 5))
    row = st.lists(st.integers(-4, 4), min_size=width, max_size=width)
    rows = draw(st.lists(st.one_of(st.just([0] * width), row), max_size=5))
    coeffs = draw(st.lists(st.integers(-3, 3), max_size=6))
    return coeffs, rows, width


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(combinations_st())
@example(([], [], 3))
@example(([2, -1], [], 2))
@example(([], [[1, 2]], 2))
@example(([0, 3, 5], [[1, 2], [0, 0]], 2))
@example(([1, 2], [[0, 1], [1, 0], [7, 7]], 2))
def test_combine_matches_fraction_sum(case):
    """``_combine`` against the Fraction combination built with vec_add and
    vec_scale over the pairs that ``zip`` makes of coeffs and rows."""
    coeffs, rows, width = case
    expected = zero_vector(width)
    for c, row in zip(coeffs, rows):
        expected = vec_add(expected, vec_scale(Fraction(c), [Fraction(x) for x in row]))
    out = _combine(coeffs, rows, width)
    assert out == list(expected)
    assert all(type(x) is int for x in out)
    assert all(out is not row for row in rows)  # a fresh row: callers may keep or change it


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


@st.composite
def kernel_cases(draw):
    """A rational matrix, possibly with zero rows and zero columns, whose
    rank may fall short of both its row and its column count: some rows
    are drawn as combinations of the others."""
    c = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(fractions_st, min_size=c, max_size=c), max_size=6))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        combined = [Fraction(0)] * c
        for a, r in zip(coeffs, rows):
            combined = list(vec_add(combined, vec_scale(Fraction(a), r)))
        rows.insert(draw(st.integers(0, len(rows))), combined)
    zero_cols = draw(st.sets(st.integers(0, max(c - 1, 0)), max_size=2)) if c else set()
    rows = [[Fraction(0) if j in zero_cols else x for j, x in enumerate(r)] for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * c)
    return Matrix.from_rows(rows, cols=c)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(kernel_cases())
@example(Matrix.from_rows([], cols=0))
@example(Matrix.from_rows([[0, 0], [0, 0], [0, 0]]))
@example(Matrix.from_rows([[1, 2, 0, 3], [0, 1, 0, 1]]))  # wide, full rank, a zero column
@example(Matrix.from_rows([[2, 1], [4, 2], [0, 0], [-6, -3]]))  # tall, rank 1, a zero row
@example(Matrix.from_rows([["1/2", 3, "-2/3"], [1, 0, 1], [0, 1, "1/4"]]))  # square, full rank
def test_kernel_matches_gauss_jordan_null_space(m):
    # the kernel read off one elimination is the Fraction Gauss-Jordan one,
    # as a canonical subspace (null_space checks its RREF form)
    rank = rank_by_minors([list(r) for r in m.data]) if m.rows and m.cols and m.rows <= 5 else m.rank()
    kernel = kernel_basis(m)
    assert kernel == null_space([list(r) for r in m.data], m.cols)
    assert kernel.dim == m.cols - rank
    assert Subspace(m.cols, kernel.basis) == kernel


# Bit lengths that the stored pivot entries of the span tests stay
# within: the largest measured over these tests is 772 bits on the
# 2^70 entries of the wide-entry test and 26 bits on the small entries
# of the others, so each bound leaves at least 2x headroom.
WIDE_PIVOT_BITS = 1600
SMALL_PIVOT_BITS = 64


def _bounded_span(ncols, rows, bits):
    """A ``SpanBuilder`` fed ``rows`` one at a time, checking after each
    row that no stored pivot entry is longer than ``bits`` bits.  An
    elimination step that does not clear its entry lets the entries
    compound with every row: the check fails it at once, where the
    elimination alone would run for minutes."""
    sb = SpanBuilder(ncols)
    for row in rows:
        sb.add(row)
        assert max((abs(x).bit_length() for p in sb._pivots.values() for x in p), default=0) <= bits, row
    return sb


def _mapped(basis, coords):
    """The Fraction rows sum_r c[r] b_r for the coordinate rows c in the
    Fraction basis rows b_r."""
    out = []
    for c in coords:
        row = zero_vector(basis.cols)
        for x, b in zip(c, basis.data):
            row = vec_add(row, vec_scale(x, b))
        out.append(row)
    return out


@st.composite
def image_cases(draw):
    """``(n, rows, coords)``: rows that span a subspace of Q^n, and
    coordinate rows with one entry per row drawn, which the test cuts to
    the dimension of the span."""
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(fractions_st, min_size=n, max_size=n), max_size=4))
    coords = draw(st.lists(st.lists(fractions_st, min_size=len(rows), max_size=len(rows)), max_size=4))
    return n, rows, coords


def _dense(n, seed, bound):
    """A dense n x n int matrix with entries up to ``bound`` in absolute
    value; full rank for the seeds used below."""
    rng = random.Random(seed)
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(image_cases())
@example((3, [["1/2", 0, 1], [0, "2/3", 3]], [[1, "3/4"]]))
@example((4, [[0, 2, 0, 1], [0, 0, 3, "1/5"]], [[1, 0], [0, 1]]))
@example((3, [], []))
# dense rows, each reduced through every earlier pivot: a broken
# elimination step fails on them before any drawn case needs shrinking
@example((6, _dense(6, 6, 5), _dense(6, 1, 5)[:3]))
def test_image_read_off_matches_span(case):
    # RREF coordinate rows mapped through an RREF basis are already the
    # RREF rows of their span: no second elimination is needed
    n, rows, coord_rows = case
    basis = _bounded_span(n, rows, SMALL_PIVOT_BITS).subspace()
    coords = _bounded_span(basis.dim, [c[: basis.dim] for c in coord_rows], SMALL_PIVOT_BITS).subspace()
    image = basis._image(coords._den, coords._rows)
    assert image == _bounded_span(n, _mapped(basis.basis, coords.basis.data), SMALL_PIVOT_BITS).subspace()
    assert Subspace(n, image.basis) == image
    assert image.dim == coords.dim


# -- quotients -----------------------------------------------------------------


def projection_of(ncols, relations):
    """The section columns and the public projection that kill the span
    of ``relations``, from ``_projection_rows`` and ``Matrix._from_ints``."""
    sb = _bounded_span(ncols, relations, SMALL_PIVOT_BITS)
    section, d, rows = _projection_rows(ncols, *sb._reduced_rows())
    # one common denominator: every row is d times e_q plus pivot entries
    assert [row[q] for row, q in zip(rows, section)] == [d] * len(section)
    return section, Matrix._from_ints(ncols, d, rows)


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
@example(Matrix.from_rows(_dense(5, 5, 5)[:3]))  # dense, with two section columns
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
    assert _projection_rows(4, *sb._reduced_rows()) == ((1, 3), 6, [[-3, 6, 0, 0], [0, 0, -2, 6]])
    # a Subspace holds its rows in the same form
    s = sb.subspace()
    assert _projection_rows(4, s._den, dict(zip(s.pivot_cols(), s._rows)))[2] == [[-3, 6, 0, 0], [0, 0, -2, 6]]


def test_quotient_section_round_trip():
    section, projection = projection_of(4, [(1, 2, 0, 0)])
    for s, col in enumerate(section):
        assert projection.mul_vec(unit_vector(4, col)) == unit_vector(len(section), s)


# -- subspaces and helpers -------------------------------------------------------


def test_span_basis_is_canonical():
    a = Subspace.span(3, [(2, 4, 0), (1, 2, 1)])
    b = Subspace.span(3, [(1, 2, 1), (0, 0, 2), (3, 6, 1)])
    assert a == b


@st.composite
def wide_entry_matrices(draw):
    """``(cols, rows)``: up to 12 int rows of up to 12 columns, mostly
    zeros, the other entries small or up to 2^70 in absolute value, and
    some rows drawn as combinations of others, so that the rank falls
    short."""
    c = draw(st.integers(1, 12))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**70), 2**70))
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), max_size=12))
    for _ in range(draw(st.integers(0, 2)) if 0 < len(rows) < 12 else 0):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        rows.insert(draw(st.integers(0, len(rows))), _combine(coeffs, rows, c))
    return c, rows


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(wide_entry_matrices())
@example((10, _dense(10, 1, 2**70)))
@example((12, _dense(12, 2, 2**70)))
def test_span_matches_gauss_jordan_on_wide_entries(case):
    # a row reduced through more than 8 pivots is divided by its gcd on
    # the way (SpanBuilder.add_int_row), and the Jordan step clears up to 11
    # entries above each pivot: the canonical basis is still the Fraction
    # Gauss-Jordan one
    c, rows = case
    assert [list(r) for r in _bounded_span(c, rows, WIDE_PIVOT_BITS).subspace().basis.data] == _gauss_jordan(rows, c)


_NINE = _dense(10, 1, 2**70)[:9]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(wide_entry_matrices())
# all-zero rows; rows that vanish on their first, second and ninth step,
# the last after the row was divided by its gcd on the way
@example((3, [[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 0, 0], [0, 1, 1], [1, 3, 4], [0, 0, 5], [7, 0, 1]]))
@example((10, _NINE + [_combine(range(1, 10), _NINE, 10), [0] * 10, [1] * 10]))
def test_each_answer_is_whether_the_rank_grew(case):
    # add_int_row reports each row on its own: a row that vanishes on the
    # way does not enlarge the span, and one that keeps an entry with no
    # pivot does
    c, rows = case
    sb = SpanBuilder(c)
    for t, row in enumerate(rows):
        grew = len(_gauss_jordan(rows[: t + 1], c)) > len(_gauss_jordan(rows[:t], c))
        assert sb.add_int_row(list(row)) is grew, (t, row)


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


@st.composite
def basis_candidates(draw):
    """``(cols, rows)``: the Gauss-Jordan RREF of a drawn matrix, as it is
    or spoiled by a zero row, a repeated row, a pivot column left
    unreduced, a lead other than 1 or rows out of order, or the drawn
    rows themselves."""
    c = draw(st.integers(0, 5))
    drawn = draw(st.lists(st.lists(fractions_st, min_size=c, max_size=c), max_size=4))
    rows = _gauss_jordan(drawn, c)
    kind = draw(st.sampled_from(["rref", "zero row", "repeated", "unreduced", "lead", "order", "drawn"]))
    if kind == "zero row":
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * c)
    elif kind == "repeated" and rows:
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    elif kind == "unreduced" and len(rows) >= 2:
        # row i picks up a multiple of row j: the pivot column of the later
        # row is left nonzero, or the later row leads at an earlier pivot
        i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
        a = draw(fractions_st.filter(bool))
        rows[i] = [x + a * y for x, y in zip(rows[i], rows[j])]
    elif kind == "lead" and rows:
        i = draw(st.integers(0, len(rows) - 1))
        a = draw(fractions_st.filter(lambda x: x not in (0, 1)))
        rows[i] = [a * x for x in rows[i]]
    elif kind == "order" and len(rows) >= 2:
        rows = rows[::-1]
    elif kind == "drawn":
        rows = [list(r) for r in drawn]
    return c, rows


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(basis_candidates())
@example((0, []))
@example((2, [[Fraction(0), Fraction(0)]]))  # a zero row alone
@example((2, [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]))  # a repeated row
@example((2, [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]))  # echelon, not reduced
@example((2, [[Fraction(2), Fraction(0)]]))  # lead 2
@example((2, [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]))  # pivots out of order
@example((3, [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]))  # RREF
def test_subspace_accepts_exactly_the_canonical_basis(case):
    # the Fraction Gauss-Jordan oracle decides: a matrix is a subspace basis
    # exactly when it equals the RREF of its own rows
    c, rows = case
    basis = Matrix.from_rows(rows, cols=c)
    if _gauss_jordan(rows, c) == [list(r) for r in basis.data]:
        s = Subspace(c, basis)
        assert s == Subspace.span(c, rows) and s.basis == basis
    else:
        with pytest.raises(ValueError, match="^subspace basis is not in reduced echelon form$"):
            Subspace(c, basis)


def test_values_are_immutable_and_hashable():
    m = Matrix.from_rows([[1, 2], [0, 1]])
    s = Subspace.span(2, [(2, 4)])
    h = heisenberg(1)
    lazy = Matrix._from_ints(3, 2, [[1, 0, 3], [0, 2, -4]])  # int rows over 2
    fields = ((m, "rows"), (m, "data"), (s, "ambient_dim"), (s, "basis"), (h, "labels"), (h, "dim"), (h, "_memo"))
    for value, field in (*fields, (lazy, "data"), (lazy, "rows")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert lazy._data is None  # its Fraction rows are made when data is first read
    halves = Matrix.from_rows([["1/2", 0, "3/2"], [0, 1, -2]])
    assert (lazy.rows, lazy.cols) == (2, 3) and lazy == halves and hash(lazy) == hash(halves)
    assert lazy.data == halves.data and repr(lazy) == repr(halves)
    assert copy.copy(lazy) == copy.deepcopy(lazy) == pickle.loads(pickle.dumps(lazy)) == halves
    assert (m.rows, m.cols, s.ambient_dim, s.basis) == (2, 2, 2, Matrix.from_rows([[1, 2]]))
    assert (h.labels, h.dim, h._memo) == (("a1", "b1", "z"), 3, {})
    assert h == heisenberg(1) and hash(h) == hash(heisenberg(1))
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
    # own, with equal hashes, and basis gives the Fraction RREF rows;
    # coordinates and contains give a Fraction solve's answer for a
    # combination inside the span, and None and False once it is moved
    # off the span at a column that is not a pivot
    rng = random.Random(23)

    def weight(i, t):
        # row i of a triangular recombination with a nonzero diagonal
        if t < i:
            return 0
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)) if t == i else rng.randint(-3, 3), rng.randint(1, 4))

    for name, algebra in frozen_catalog:
        n = algebra.dim
        terms = [algebra.derived_subalgebra(), algebra.center(), *algebra.lower_central_series()]
        terms.append(exterior._split_factor(algebra)[2])
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
            inside = vectors[-1]
            assert s.coordinates(inside) == fraction_solve(list(s.basis.data), inside) is not None, name
            assert s.contains(inside), name
            free = [q for q in range(n) if q not in s.pivot_cols()]
            if free:
                outside = list(inside)
                outside[rng.choice(free)] += weight(0, 0)
                assert s.coordinates(outside) is None and fraction_solve(list(s.basis.data), outside) is None, name
                assert not s.contains(outside), name


def test_span_builder_tracks_rank_growth():
    sb = SpanBuilder(3)
    assert sb.add((1, 1, 0))
    assert not sb.add((2, 2, 0))
    assert sb.add((0, 0, 5))
    assert sb.rank == 2
    assert sb.subspace().contains((3, 3, 5))
    assert not sb.subspace().contains((1, 0, 0))


def test_span_builder_pivot_leads_are_positive():
    # a row fed with a negative lead is stored divided by minus its gcd:
    # the a == 1 shortcut of _cross reads each pivot lead as positive
    sb = SpanBuilder(3)
    assert sb.add_int_row([0, -2, 4])
    assert sb.add_int_row([-3, 6, 9])
    assert sb._pivots == {1: [0, 1, -2], 0: [1, -2, -3]}


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
