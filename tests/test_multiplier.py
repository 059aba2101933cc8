"""Closed-form multiplier dimensions and the classified report."""

from __future__ import annotations

import pytest

from liecap.capability import classified_multiplier
from liecap.exterior import multiplier_dim
from liecap.lie import LieAlgebra, abelian, direct_sum, heisenberg, scramble
from liecap.multiplier import (
    abelian_multiplier_dim,
    direct_sum_multiplier_dim,
    heisenberg_exterior_square_dim,
    heisenberg_multiplier_dim,
)


@pytest.mark.parametrize(
    "n, expected",
    [(0, 0), (1, 0), (2, 1), (3, 3), (4, 6), (5, 10), (6, 15), (7, 21)],
)
def test_abelian_formula(n, expected):
    assert abelian_multiplier_dim(n) == expected


@pytest.mark.parametrize("m, expected", [(1, 2), (2, 5), (3, 14), (4, 27)])
def test_heisenberg_formula(m, expected):
    assert heisenberg_multiplier_dim(m) == expected


@pytest.mark.parametrize("m, expected", [(1, 3), (2, 6), (3, 15), (4, 28)])
def test_heisenberg_exterior_formula(m, expected):
    assert heisenberg_exterior_square_dim(m) == expected


def test_direct_sum_formula():
    # dim M(L1 + L2) = dim M(L1) + dim M(L2) + dim(L1/L1') * dim(L2/L2')
    assert direct_sum_multiplier_dim(2, 3, 2, 4) == 13
    assert direct_sum_multiplier_dim(3, 2, 4, 2) == 13  # symmetric


def test_classified_abelian():
    report = classified_multiplier(abelian(4))
    assert report.dim_multiplier == 6
    assert report.dim_exterior_square == 6
    assert report.method == "closed-form"
    assert "A(4)" in report.description


def test_classified_heisenberg_sum():
    report = classified_multiplier(direct_sum(heisenberg(1), abelian(1)))
    assert report.dim_multiplier == 4
    assert report.dim_exterior_square == 5
    assert "H(1)" in report.description and "A(1)" in report.description


def test_classified_is_basis_invariant():
    L = scramble(direct_sum(heisenberg(2), abelian(2)), 314)
    report = classified_multiplier(L)
    # 5 (Heisenberg part) + 1 (abelian part) + 4 * 2 (cross term)
    assert report.dim_multiplier == heisenberg_multiplier_dim(2) + abelian_multiplier_dim(2) + 4 * 2
    assert report.dim_exterior_square == report.dim_multiplier + 1


def test_classified_rejections():
    with pytest.raises(ValueError):
        classified_multiplier(LieAlgebra(2, {(0, 1): (0, 1)}))  # not nilpotent
    with pytest.raises(ValueError):
        classified_multiplier(direct_sum(heisenberg(1), heisenberg(1)))


def test_closed_forms_match_construction(frozen_catalog):
    # every catalog member small enough to wedge quickly, derived dim <= 1
    checked = 0
    for name, algebra in frozen_catalog:
        if algebra.dim > 9 or algebra.derived_subalgebra().dim > 1:
            continue
        if algebra.derived_subalgebra().dim == 0:
            expected = abelian_multiplier_dim(algebra.dim)
        else:
            expected = classified_multiplier(algebra).dim_multiplier
        assert multiplier_dim(algebra) == expected, name
        checked += 1
    assert checked >= 60
