"""Structure-constant Lie algebras: families, brackets, subobjects,
quotients and changes of basis."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FractionBracketOracle, raw_jacobi_residual
from liecap.capability import named_members
from liecap.lie import (
    InvalidAlgebraError,
    LieAlgebra,
    abelian,
    direct_sum,
    heisenberg,
    scramble,
)
from liecap.linalg import Matrix, Subspace, random_invertible, unit_vector

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def vec_st(n: int):
    return st.lists(fractions_st, min_size=n, max_size=n).map(tuple)


# -- construction and validation ----------------------------------------------


def test_family_shapes():
    a = abelian(4)
    assert a.dim == 4 and not a.brackets and a.labels == ("x1", "x2", "x3", "x4")
    h = heisenberg(2)
    assert h.dim == 5
    assert h.labels == ("a1", "a2", "b1", "b2", "z")
    assert dict(h.brackets) == {
        (0, 2): unit_vector(5, 4),
        (1, 3): unit_vector(5, 4),
    }
    with pytest.raises(ValueError):
        heisenberg(0)


def test_zero_dimensional_algebra():
    zero = abelian(0)
    assert zero.dim == 0
    assert zero.validate() is None
    assert zero.is_nilpotent()


def test_bad_bracket_keys_rejected():
    with pytest.raises(InvalidAlgebraError):
        LieAlgebra(3, {(1, 1): (0, 0, 1)})
    with pytest.raises(InvalidAlgebraError):
        LieAlgebra(3, {(2, 1): (0, 0, 1)})
    with pytest.raises(InvalidAlgebraError):
        LieAlgebra(3, {(0, 1): (0, 0)})


def test_validate_accepts_proper_algebras():
    # a solvable, non-nilpotent example: [e1,e2]=e3, [e1,e3]=e2
    L = LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (0, 1, 0)})
    assert L.validate() is None
    assert abelian(5).validate() is None
    assert heisenberg(3).validate() is None


def test_validate_reports_offending_triple():
    # [e1,e2]=e3 and [e1,e3]=e1 breaks Jacobi on (0,1,2)
    L = LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    triple = L.validate()
    assert triple == (0, 1, 2)
    # cross-check with a raw expansion that bypasses LieAlgebra.bracket
    residual = raw_jacobi_residual(3, dict(L.brackets), *triple)
    assert any(residual)
    with pytest.raises(InvalidAlgebraError):
        L.require_valid()


def test_validate_agrees_with_raw_expansion_on_valid_input():
    L = direct_sum(heisenberg(1), heisenberg(1))
    table = dict(L.brackets)
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                assert not any(raw_jacobi_residual(L.dim, table, i, j, k))
    assert L.validate() is None


def _raw_first_violation(dim, table):
    """The first triple, in combinations order, with a nonzero raw residual."""
    triples = combinations(range(dim), 3)
    return next((t for t in triples if any(raw_jacobi_residual(dim, table, *t))), None)


def _random_table(rng, dim):
    # sparse tables are often valid or fail late; dense ones fail early
    density = rng.choice((0.15, 0.3, 0.6))
    table = {}
    for key in combinations(range(dim), 2):
        if rng.random() < density:
            table[key] = tuple(
                Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < density else Fraction(0)
                for _ in range(dim)
            )
    return table


def test_validate_witness_matches_raw_expansion():
    # the Jacobi pass runs in the coordinates of [L, L]; its witness must be
    # the first triple at which the direct Fraction expansion is nonzero
    rng = random.Random(2011)
    tables = [(dim, _random_table(rng, dim)) for dim in range(8) for _ in range(300)]
    for seed, (_, algebra) in enumerate(named_members()):
        base = scramble(algebra, 500 + seed)
        n = base.dim
        if n < 3:
            continue
        for _ in range(10):
            # one entry of one bracket moved
            table = dict(base.brackets)
            key = rng.choice(list(combinations(range(n), 2)))
            c = list(table.get(key, (Fraction(0),) * n))
            c[rng.randrange(n)] += rng.choice((-1, 1)) * Fraction(1, rng.randint(1, 3))
            table[key] = tuple(c)
            tables.append((n, table))
    witnesses = []
    for dim, table in tables:
        algebra = LieAlgebra(dim, table)
        expected = _raw_first_violation(dim, dict(algebra.brackets))
        assert algebra.validate() == expected, (dim, table)
        witnesses.append(expected)
    # 2,570 tables: about a third invalid, with witnesses spread over the triples
    assert len(witnesses) - witnesses.count(None) > 800
    assert len(set(witnesses)) > 25


# -- bracket -------------------------------------------------------------------


def test_bracket_on_heisenberg_basis():
    h = heisenberg(1)
    assert h.bracket(unit_vector(3, 0), unit_vector(3, 1)) == unit_vector(3, 2)
    assert h.bracket(unit_vector(3, 1), unit_vector(3, 0)) == tuple(
        -x for x in unit_vector(3, 2)
    )
    assert h.bracket_basis(2, 0) == (Fraction(0),) * 3


@settings(max_examples=50, deadline=None)
@given(vec_st(6), vec_st(6), vec_st(6), fractions_st)
def test_bracket_is_bilinear_and_alternating(x, y, w, c):
    L = direct_sum(heisenberg(1), heisenberg(1))
    left = L.bracket(x, tuple(c * b + v for b, v in zip(y, w)))
    right = tuple(
        c * p + q for p, q in zip(L.bracket(x, y), L.bracket(x, w))
    )
    assert left == right
    assert L.bracket(x, x) == (Fraction(0),) * 6
    assert L.bracket(x, y) == tuple(-v for v in L.bracket(y, x))


# -- subobjects ----------------------------------------------------------------


def test_derived_subalgebra_examples():
    assert abelian(5).derived_subalgebra() == Subspace.zero(5)
    h = heisenberg(2)
    assert h.derived_subalgebra() == Subspace.span(5, [unit_vector(5, 4)])
    s = direct_sum(heisenberg(1), abelian(3))
    assert s.derived_subalgebra().dim == 1


def test_center_examples():
    assert abelian(3).center() == Subspace.full(3)
    h = heisenberg(2)
    assert h.center() == Subspace.span(5, [unit_vector(5, 4)])
    s = direct_sum(heisenberg(1), abelian(2))
    assert s.center().dim == 3


def test_lower_central_series_abelian():
    series = abelian(4).lower_central_series()
    assert [s.dim for s in series] == [4, 0]
    assert abelian(4).is_nilpotent()


def test_lower_central_series_heisenberg():
    h = heisenberg(2)
    series = h.lower_central_series()
    assert [s.dim for s in series] == [5, 1, 0]
    assert series[1] == h.derived_subalgebra()
    assert h.is_nilpotent()


def test_non_nilpotent_series_stabilizes():
    L = LieAlgebra(2, {(0, 1): (0, 1)})  # [e1,e2] = e2
    series = L.lower_central_series()
    assert [s.dim for s in series] == [2, 1]
    assert series[-1] == Subspace.span(2, [(0, 1)])
    assert not L.is_nilpotent()


def test_is_ideal():
    h = heisenberg(1)
    assert h.is_ideal(h.derived_subalgebra())
    assert h.is_ideal(h.center())
    assert h.is_ideal(Subspace.full(3))
    assert not h.is_ideal(Subspace.span(3, [unit_vector(3, 0)]))
    assert h.is_central_ideal(h.center())
    assert not h.is_central_ideal(Subspace.full(3))


# -- direct sums ----------------------------------------------------------------


def test_direct_sum_block_structure():
    s = direct_sum(abelian(2), abelian(3))
    assert s.dim == 5 and not s.brackets
    t = direct_sum(heisenberg(1), abelian(1))
    assert t.dim == 4
    assert dict(t.brackets) == {(0, 1): unit_vector(4, 2)}
    assert t.labels == ("a1.1", "b1.1", "z.1", "x1.2")
    u = direct_sum(heisenberg(1), heisenberg(1))
    assert u.derived_subalgebra().dim == 2


def test_direct_sum_derived_dims_add():
    for left in (abelian(2), heisenberg(1), heisenberg(2)):
        for right in (abelian(1), heisenberg(1)):
            s = direct_sum(left, right)
            assert (
                s.derived_subalgebra().dim
                == left.derived_subalgebra().dim + right.derived_subalgebra().dim
            )


# -- quotients -------------------------------------------------------------------


def test_quotient_by_zero_ideal_is_same_algebra():
    L = direct_sum(heisenberg(1), abelian(1))
    q, proj = L.quotient(Subspace.zero(4))
    assert q == L
    assert proj == Matrix.identity(4)


def test_quotient_heisenberg_by_derived_is_abelian():
    for m in (1, 2, 3):
        h = heisenberg(m)
        q, _ = h.quotient(h.derived_subalgebra())
        assert q.dim == 2 * m
        assert not q.brackets


def test_quotient_sum_by_abelian_summand_is_heisenberg():
    L = direct_sum(heisenberg(1), abelian(1))
    q, proj = L.quotient(Subspace.span(4, [unit_vector(4, 3)]))
    assert dict(q.brackets) == dict(heisenberg(1).brackets)
    assert q.labels == ("a1.1", "b1.1", "z.1")
    assert proj.mul_vec(unit_vector(4, 3)) == (Fraction(0),) * 3


def test_quotient_rejects_non_ideals():
    h = heisenberg(1)
    with pytest.raises(ValueError):
        h.quotient(Subspace.span(3, [unit_vector(3, 0)]))


def test_quotient_of_valid_algebra_is_valid():
    L = scramble(direct_sum(heisenberg(2), abelian(1)), 5)
    q, _ = L.quotient(L.derived_subalgebra())
    assert q.validate() is None


# -- change of basis --------------------------------------------------------------


def test_change_basis_identity_preserves_constants():
    h = heisenberg(2)
    assert h.change_basis(Matrix.identity(5)) == h


def test_change_basis_rejects_singular():
    with pytest.raises(ValueError):
        abelian(2).change_basis(Matrix.from_rows([[1, 1], [2, 2]]))
    with pytest.raises(ValueError):
        abelian(2).change_basis(Matrix.identity(3))


def test_change_basis_swap_flips_sign():
    h = heisenberg(1)
    p = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    swapped = h.change_basis(p)
    assert swapped.bracket_basis(0, 1) == (Fraction(0), Fraction(0), Fraction(-1))


@pytest.mark.parametrize("seed", [3, 17, 23])
def test_change_basis_preserves_invariants(seed):
    L = direct_sum(heisenberg(2), abelian(1))
    rng = random.Random(seed)
    M = L.change_basis(random_invertible(L.dim, rng))
    assert M.validate() is None
    assert M.derived_subalgebra().dim == L.derived_subalgebra().dim
    assert M.center().dim == L.center().dim
    assert M.is_nilpotent() == L.is_nilpotent()
    assert [s.dim for s in M.lower_central_series()] == [
        s.dim for s in L.lower_central_series()
    ]


def test_scramble_is_seed_deterministic():
    L = direct_sum(heisenberg(1), abelian(2))
    assert scramble(L, 7) == scramble(L, 7)
    assert scramble(L, 7).validate() is None


def test_abelian_scramble_stays_abelian():
    assert scramble(abelian(4), 12) == abelian(4)


SL2 = LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)})  # e, f, h
R2 = LieAlgebra(2, {(0, 1): (0, 1)})  # [x, y] = y
FILIFORM_4 = LieAlgebra(4, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)})  # [e1,e2]=e3, [e1,e3]=e4


def _assert_matches_oracle(name, algebra, rng, verdicts):
    oracle = FractionBracketOracle(algebra)
    n = algebra.dim
    center = oracle.center()
    assert algebra.center() == center, name
    series = oracle.lower_central_series()
    assert algebra.lower_central_series() == series, name
    random_line = Subspace.span(n, [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]])
    for s in series + [center, Subspace.span(n, [unit_vector(n, 0)]), random_line]:
        assert algebra.bracket_span(s) == oracle.bracket_span(s), name
        assert algebra.is_ideal(s) == oracle.is_ideal(s), name
        assert algebra.is_central_ideal(s) == oracle.is_central_ideal(s), name
        verdicts.add((algebra.is_ideal(s), algebra.is_central_ideal(s)))
    p = random_invertible(n, rng)
    rewritten = algebra.change_basis(p)
    assert rewritten == oracle.change_basis(p), name
    return rewritten


def test_integer_commutator_code_matches_fraction_oracle(frozen_catalog):
    # the center, the series, the ideal tests and change_basis all run on
    # one integer table.  Most catalog members are scrambles, whose table
    # has a denominator to clear, but every member is 2-step nilpotent:
    # the last four (and their rewrites) have [L, [L, L]] != 0
    rng = random.Random(2010)
    deeper = [
        ("sl2", SL2),
        ("r2", R2),
        ("sl2+A(2)", direct_sum(SL2, abelian(2))),
        ("filiform(4) scrambled", scramble(FILIFORM_4, 1)),
    ]
    verdicts = set()
    for name, algebra in frozen_catalog:
        _assert_matches_oracle(name, algebra, rng, verdicts)
    for name, algebra in deeper:
        rewritten = _assert_matches_oracle(name, algebra, rng, verdicts)
        _assert_matches_oracle(f"{name} rewritten", rewritten, rng, verdicts)
    # every combination of the two verdicts occurs (a central ideal is an ideal)
    assert verdicts == {(True, True), (True, False), (False, False)}
