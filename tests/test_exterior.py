"""Exterior squares built as Lambda^2 L / im d3: dimensions, wedge
algebra, the exterior center, the ideal-collapse identities, and a
differential check against the n^2-symbol construction."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import symbol_exterior_square

from liecap.exterior import (
    ConstructionError,
    _check_d2_kills,
    _d3_rows,
    _wedge_index,
    exterior_center,
    exterior_square,
    exterior_square_dim,
    ideal_in_exterior_center,
    ideal_wedge_image,
    is_capable,
    multiplier_dim,
    quotient_exterior_dim,
)
from liecap.lie import LieAlgebra, abelian, direct_sum, heisenberg, scramble
from liecap.linalg import Subspace, _normalize_int, unit_vector, vec_add, zero_vector

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def vectors_st(n):
    return st.lists(fractions_st, min_size=n, max_size=n).map(tuple)


@pytest.mark.parametrize(
    "algebra, expected",
    [
        (abelian(0), 0),
        (abelian(1), 0),
        (abelian(2), 1),
        (abelian(4), 6),
        (heisenberg(1), 3),
        (heisenberg(2), 6),
        (heisenberg(3), 15),
    ],
)
def test_exterior_square_dims(algebra, expected):
    assert exterior_square_dim(algebra) == expected


@pytest.mark.parametrize(
    "algebra, expected",
    [
        (abelian(3), 3),
        (heisenberg(1), 2),
        (heisenberg(2), 5),
        (heisenberg(3), 14),
        (direct_sum(heisenberg(1), abelian(1)), 4),
    ],
)
def test_multiplier_dims(algebra, expected):
    assert multiplier_dim(algebra) == expected


def test_field_sanity():
    sq = exterior_square(heisenberg(2))
    assert sq.ambient_dim == 10  # C(5, 2)
    assert sq.relation_rank + sq.quotient_dim == sq.ambient_dim
    assert sq.projection.rows == sq.quotient_dim
    assert sq.projection.cols == sq.ambient_dim
    assert sq.commutator_map.rows == sq.derived.dim
    assert sq.multiplier_dim() == 5


def test_construction_is_cached():
    assert exterior_square(heisenberg(2)) is exterior_square(heisenberg(2))


def test_commutator_map_is_surjective():
    for algebra in (heisenberg(1), heisenberg(3), scramble(direct_sum(heisenberg(2), abelian(1)), 5)):
        sq = exterior_square(algebra)
        derived_dim = algebra.derived_subalgebra().dim
        assert sq.commutator_map.rank() == derived_dim
        assert sq.quotient_dim == sq.multiplier_dim() + derived_dim


def _pair_corpus():
    parts = [abelian(1), abelian(2), abelian(3), heisenberg(1), heisenberg(2)]
    for i, left in enumerate(parts):
        for right in parts[i:]:
            yield left, right


def test_direct_sum_exterior_dims_add():
    # dim((L1+L2) ^ (L1+L2)) = dim(L1^L1) + dim(L2^L2) + ab1 * ab2
    for left, right in _pair_corpus():
        ab1 = left.dim - left.derived_subalgebra().dim
        ab2 = right.dim - right.derived_subalgebra().dim
        expected = exterior_square_dim(left) + exterior_square_dim(right) + ab1 * ab2
        assert exterior_square_dim(direct_sum(left, right)) == expected


def test_direct_sum_exterior_center_containment():
    # Z^(L1+L2) sits inside the embedded sum of Z^(L1) and Z^(L2)
    for left, right in _pair_corpus():
        total = direct_sum(left, right)
        zc = exterior_center(total)
        embedded = []
        for row in exterior_center(left).basis.data:
            embedded.append(tuple(row) + zero_vector(right.dim))
        for row in exterior_center(right).basis.data:
            embedded.append(zero_vector(left.dim) + tuple(row))
        envelope = Subspace.span(total.dim, embedded)
        assert envelope.contains_subspace(zc)
        assert zc.dim <= exterior_center(left).dim + exterior_center(right).dim


def test_invalid_table_rejected():
    bad = LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    with pytest.raises(ValueError):
        exterior_square(bad)


@settings(deadline=None, max_examples=40)
@given(x=vectors_st(5), y=vectors_st(5))
def test_wedge_antisymmetry_and_commutator(x, y):
    L = heisenberg(2)
    sq = exterior_square(L)
    assert not any(sq.wedge(x, x))
    lhs = sq.wedge(x, y)
    rhs = sq.wedge(y, x)
    assert all(a == -b for a, b in zip(lhs, rhs))
    coords = sq.derived.coordinates(L.bracket(x, y))
    assert sq.commutator(lhs) == coords


@settings(deadline=None, max_examples=30)
@given(x=vectors_st(4), y=vectors_st(4), z=vectors_st(4))
def test_wedge_bilinearity(x, y, z):
    sq = exterior_square(direct_sum(heisenberg(1), abelian(1)))
    left = sq.wedge(vec_add(x, y), z)
    split = vec_add(sq.wedge(x, z), sq.wedge(y, z))
    assert left == split


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exterior_center_abelian(n):
    assert exterior_center(abelian(n)).is_zero()
    assert is_capable(abelian(n))


def test_exterior_center_edge_cases():
    assert exterior_center(abelian(1)).dim == 1
    assert not is_capable(abelian(1))
    assert is_capable(abelian(0))
    # Lambda^2 of A(0) and A(1) is zero, so no x ^ e_j equation is stacked
    assert exterior_center(abelian(0)) == Subspace.full(0)
    assert exterior_center(abelian(1)) == Subspace.full(1)


def test_exterior_center_heisenberg():
    assert exterior_center(heisenberg(1)).is_zero()
    for m in (2, 3):
        L = heisenberg(m)
        assert exterior_center(L) == L.derived_subalgebra()
        assert not is_capable(L)


def test_exterior_center_inside_center(frozen_catalog):
    for name, algebra in frozen_catalog[:40]:
        zc = exterior_center(algebra)
        assert algebra.center().contains_subspace(zc), name


def test_quotient_exterior_dim():
    L = heisenberg(1)
    assert quotient_exterior_dim(L, Subspace.zero(3)) == exterior_square_dim(L)
    # H(1)/<z> is A(2)
    assert quotient_exterior_dim(L, L.derived_subalgebra()) == 1
    # H(2)/<z> is A(4)
    H2 = heisenberg(2)
    assert quotient_exterior_dim(H2, H2.derived_subalgebra()) == 6


def test_quotient_rejects_non_central():
    L = heisenberg(1)
    span_a = Subspace.span(3, [unit_vector(3, 0)])
    with pytest.raises(ValueError):
        quotient_exterior_dim(L, span_a)


def test_ideal_wedge_image():
    A4 = abelian(4)
    line = Subspace.span(4, [unit_vector(4, 0)])
    assert ideal_wedge_image(A4, line).dim == 3
    H2 = heisenberg(2)
    assert ideal_wedge_image(H2, H2.derived_subalgebra()).dim == 0
    assert ideal_wedge_image(H2, Subspace.zero(5)).dim == 0


def test_ideal_in_exterior_center():
    for m in (2, 3):
        L = heisenberg(m)
        assert ideal_in_exterior_center(L, L.derived_subalgebra())
    H1 = heisenberg(1)
    assert not ideal_in_exterior_center(H1, H1.derived_subalgebra())
    L = direct_sum(heisenberg(1), abelian(1))
    tail = Subspace.span(4, [unit_vector(4, 3)])
    assert not ideal_in_exterior_center(L, tail)


def test_collapse_by_exterior_center_preserves_dim():
    for algebra in (heisenberg(2), heisenberg(3), scramble(direct_sum(heisenberg(2), abelian(1)), 11)):
        zc = exterior_center(algebra)
        if zc.is_zero():
            continue
        quotient, _ = algebra.quotient(zc)
        assert exterior_square_dim(quotient) == exterior_square_dim(algebra)


def _random_central_ideal(algebra, rng):
    center = algebra.center()
    if center.is_zero():
        return Subspace.zero(algebra.dim)
    picks = []
    for _ in range(rng.randint(1, center.dim)):
        combo = zero_vector(algebra.dim)
        for row in center.basis.data:
            c = Fraction(rng.randint(-2, 2))
            combo = vec_add(combo, tuple(c * x for x in row))
        picks.append(combo)
    return Subspace.span(algebra.dim, picks)


@pytest.mark.parametrize("seed", [3, 8, 19])
def test_central_collapse_exactness(seed):
    # dim(L ^ L) = dim(image of N ^ L) + dim((L/N) ^ (L/N))
    rng = random.Random(seed)
    for algebra in (
        heisenberg(2),
        direct_sum(heisenberg(1), abelian(2)),
        scramble(direct_sum(heisenberg(2), abelian(1)), seed),
    ):
        ideal = _random_central_ideal(algebra, rng)
        total = exterior_square_dim(algebra)
        image = ideal_wedge_image(algebra, ideal).dim
        rest = quotient_exterior_dim(algebra, ideal)
        assert total == image + rest


def test_self_check_catches_bad_relation():
    _, table, _ = heisenberg(1)._integer_table()
    # e_0 ^ e_1 (first in the basis e_0^e_1, e_0^e_2, e_1^e_2) is not in
    # im d3: d2 maps it onto z
    bogus = [1, 0, 0]
    with pytest.raises(ConstructionError):
        _check_d2_kills(3, table, [bogus])


def _dense_brackets(table, n):
    """ibr[i][j] = d [e_i, e_j] for every i, j, from the integer table."""
    ibr = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), c in table.items():
        ibr[i][j] = c
        ibr[j][i] = [-x for x in c]
    return ibr


def _d3_rows_without(ibr, dropped):
    """d3(e_i ^ e_j ^ e_k) for i < j < k with the term number ``dropped``
    (0, 1 or 2; None keeps all three) of
    [e_i,e_j] ^ e_k + [e_j,e_k] ^ e_i + [e_k,e_i] ^ e_j left out."""
    n = len(ibr)
    rows = []
    for i, j, k in combinations(range(n), 3):
        row = [0] * (n * (n - 1) // 2)
        for term, (c, last) in enumerate(((ibr[i][j], k), (ibr[j][k], i), (ibr[k][i], j))):
            if term == dropped:
                continue
            for l, x in enumerate(c):
                if x and l != last:
                    row[_wedge_index(n, min(l, last), max(l, last))] += x if l < last else -x
        rows.append(row)
    return rows


FILIFORM_4 = LieAlgebra(4, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)})  # [e1,e2]=e3, [e1,e3]=e4
SL2 = LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)})  # e, f, h


@pytest.mark.parametrize(
    "algebra, caught",
    [
        # every double bracket [[e_i,e_j],e_k] of three distinct basis
        # vectors vanishes here, so no single dropped term is visible ...
        (FILIFORM_4, ()),
        # ... but in a random basis each one is
        (scramble(FILIFORM_4, 1), (0, 1, 2)),
        (SL2, (1, 2)),  # term 0 is [e,f] ^ h = h ^ h = 0
        (scramble(SL2, 1), (0, 1, 2)),
    ],
    ids=["filiform4", "filiform4-scrambled", "sl2", "sl2-scrambled"],
)
def test_self_check_catches_dropped_d3_term(algebra, caught):
    # on a 2-step nilpotent algebra d2 kills all of [L, L] ^ L, so the
    # d2 o d3 = 0 gate can only catch a defective d3 on deeper algebras
    n = algebra.dim
    _, table, _ = algebra._integer_table()
    ibr = _dense_brackets(table, n)
    full = _d3_rows_without(ibr, None)
    assert [r for r in map(_normalize_int, full) if r is not None] == _d3_rows(n, table)
    _check_d2_kills(n, table, full)
    for dropped in (0, 1, 2):
        if dropped in caught:
            with pytest.raises(ConstructionError):
                _check_d2_kills(n, table, _d3_rows_without(ibr, dropped))
        else:
            _check_d2_kills(n, table, _d3_rows_without(ibr, dropped))


def test_cached_square_carries_no_algebra():
    # equal algebras share one cached square, whatever their labels, so
    # the square must hold nothing of the algebra that built it
    first = exterior_square(abelian(3))
    second = exterior_square(LieAlgebra(3, {}))
    assert second is first
    assert second.dim == 3
    assert not any(isinstance(v, LieAlgebra) for v in vars(second).values())


def test_exterior_square_cache_is_bounded():
    maxsize = exterior_square.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize < 10_000


def test_d3_construction_matches_symbol_oracle(frozen_catalog):
    sl2 = LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)})  # e, f, h
    r2 = LieAlgebra(2, {(0, 1): (0, 1)})  # [x, y] = y
    not_nilpotent = [
        ("sl2", sl2),
        ("r2", r2),
        ("r2+r2", direct_sum(r2, r2)),
        ("sl2+A(2)", direct_sum(sl2, abelian(2))),
    ]
    for name, algebra in frozen_catalog + not_nilpotent:
        sq = exterior_square(algebra)
        got = (sq.quotient_dim, sq.multiplier_dim(), exterior_center(algebra))
        assert got == symbol_exterior_square(algebra), name
