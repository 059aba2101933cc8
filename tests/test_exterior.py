"""Exterior squares built as Lambda^2 L / im d3: dimensions, wedge
algebra, the exterior center, the ideal-collapse identities, and a
differential check against the n^2-symbol construction."""

from __future__ import annotations

import copy
import gc
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import weakref
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FractionBracketOracle,
    core_projection,
    filiform,
    full_width_projection,
    null_space,
    split_basis,
    symbol_exterior_square,
)

from liecap import cli, exterior, lie
from liecap.exterior import (
    ConstructionError,
    ExteriorSquare,
    _d3_rows,
    exterior_center,
    exterior_square,
    exterior_square_dim,
    ideal_in_exterior_center,
    ideal_wedge_image,
    is_capable,
    multiplier_dim,
    quotient_exterior_dim,
)
from liecap.lie import InvalidAlgebraError, LieAlgebra, abelian, direct_sum, heisenberg, scramble
from liecap.linalg import Matrix, SpanBuilder, Subspace, unit_vector, vec_add, zero_vector

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
    first, second = heisenberg(2), heisenberg(2)  # equal, and both alive
    assert exterior_square(first) is exterior_square(second)


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
    # the split runs behind require_valid, like the full construction
    bad = LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    zero = Subspace.zero(3)
    entries = [
        exterior_square,
        exterior_square_dim,
        multiplier_dim,
        exterior_center,
        is_capable,
        lambda L: quotient_exterior_dim(L, zero),
        lambda L: ideal_in_exterior_center(L, zero),
    ]
    for entry in entries:
        with pytest.raises(InvalidAlgebraError):
            entry(bad)


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


def _wedge_image_oracle(algebra, ideal):
    """The span of the public sq.wedge(e_i, u) over the basis of N."""
    sq = exterior_square(algebra)
    n = algebra.dim
    return Subspace.span(sq.quotient_dim, [sq.wedge(unit_vector(n, i), u) for i in range(n) for u in ideal.basis.data])


def test_ideal_wedge_image_matches_public_wedge():
    # the exact subspace, not only its dimension: the integer wedge maps
    # share one denominator across the quotient coordinates
    h2a1 = scramble(direct_sum(heisenberg(2), abelian(1)), 23)
    l6 = scramble(filiform(6), 29)
    sl2a2 = direct_sum(SL2, abelian(2))
    cases = [
        (h2a1, h2a1.center()),
        (h2a1, h2a1.derived_subalgebra()),
        (h2a1, Subspace.span(6, [h2a1.center().basis.data[1]])),
        (l6, l6.center()),
        (sl2a2, sl2a2.center()),
        (sl2a2, Subspace.span(5, [vec_add(unit_vector(5, 3), unit_vector(5, 4))])),
    ]
    dims = []
    for algebra, ideal in cases:
        image = ideal_wedge_image(algebra, ideal)
        assert image == _wedge_image_oracle(algebra, ideal)
        dims.append((image.dim, exterior_square(algebra).quotient_dim))
    # z of H(2) lies in the exterior center; every other image is proper
    assert dims == [(4, 10), (0, 10), (4, 10), (1, 7), (1, 4), (1, 4)]
    # [L, L] and L^3 of the filiform algebra are ideals but not central
    series = l6.lower_central_series()
    for ideal in (series[1], series[2]):
        assert l6.is_ideal(ideal) and not l6.is_central_ideal(ideal)
        with pytest.raises(ValueError, match="not a central ideal"):
            ideal_wedge_image(l6, ideal)


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


# the factorization gate's message; the surjectivity check that follows
# it catches some of the same defects, but only after the gate has run
SURVIVES = "relation vector survives the commutator map"


def _sparse(rows):
    """Dense int rows as the sparse rows of ``_d3_rows``, zero rows dropped."""
    return [{col: v for col, v in enumerate(r) if v} for r in rows if any(r)]


def _square_with_d3_rows(monkeypatch, algebra, rows):
    """Build L ^ L, bypassing the cache, from the given dense relation
    rows."""
    monkeypatch.setattr(exterior, "_d3_rows", lambda n, table: _sparse(rows))
    return exterior_square.__wrapped__(algebra)


def test_self_check_catches_bad_relation(monkeypatch):
    # e_0 ^ e_1 (first in the basis e_0^e_1, e_0^e_2, e_1^e_2) is not in
    # im d3: d2 maps it onto z
    bogus = [1, 0, 0]
    with pytest.raises(ConstructionError, match=SURVIVES):
        _square_with_d3_rows(monkeypatch, heisenberg(1), [bogus])


def _dense_brackets(table, n):
    """ibr[i][j] = d [e_i, e_j] for every i, j, from the integer table."""
    ibr = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), c in table.items():
        ibr[i][j] = c
        ibr[j][i] = [-x for x in c]
    return ibr


def _column(n, i, j):
    """Column of e_i ^ e_j (i < j) in the lexicographic basis of Lambda^2 L."""
    return list(combinations(range(n), 2)).index((i, j))


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
                    row[_column(n, min(l, last), max(l, last))] += x if l < last else -x
        rows.append(row)
    return rows


FILIFORM_4 = filiform(4)  # [e1,e2]=e3, [e1,e3]=e4
SL2 = LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)})  # e, f, h
R2 = LieAlgebra(2, {(0, 1): (0, 1)})  # [x, y] = y


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
def test_self_check_catches_dropped_d3_term(monkeypatch, algebra, caught):
    # on a 2-step nilpotent algebra d2 kills all of [L, L] ^ L, so the
    # d2 o d3 = 0 gate can only catch a defective d3 on deeper algebras
    n = algebra.dim
    table = algebra._rows
    ibr = _dense_brackets(table, n)
    full = _d3_rows_without(ibr, None)
    assert _sparse(full) == _d3_rows(n, table)
    assert _square_with_d3_rows(monkeypatch, algebra, full) == exterior_square(algebra)
    for dropped in (0, 1, 2):
        rows = _d3_rows_without(ibr, dropped)
        if dropped in caught:
            with pytest.raises(ConstructionError, match=SURVIVES):
                _square_with_d3_rows(monkeypatch, algebra, rows)
        else:
            _square_with_d3_rows(monkeypatch, algebra, rows)


@pytest.mark.parametrize(
    "algebra",
    [direct_sum(heisenberg(1), abelian(1)), scramble(direct_sum(heisenberg(2), abelian(1)), 5)],
    ids=["H(1)+A(1)", "H(2)+A(1)-scrambled"],
)
def test_self_check_catches_bad_projection(monkeypatch, algebra):
    # a projection that is wrong at one relation pivot column no longer
    # kills im d3, so d2 does not factor through it
    relation_projection = exterior._relation_projection
    pairs = list(combinations(range(algebra.dim), 2))

    def perturbed(ncols, relations):
        section, d, columns, pivots = relation_projection(ncols, relations)
        # a quotient coordinate whose basis wedge has a nonzero bracket
        s = next(s for s, col in enumerate(section) if any(algebra.bracket_basis(*pairs[col])))
        column = dict(columns[pivots[0]])
        column[s] = column.get(s, 0) + 1
        columns = list(columns)
        columns[pivots[0]] = tuple(column.items())
        return section, d, tuple(columns), pivots

    exterior_square.__wrapped__(algebra)  # the unperturbed square passes
    monkeypatch.setattr(exterior, "_relation_projection", perturbed)
    with pytest.raises(ConstructionError, match=SURVIVES):
        exterior_square.__wrapped__(algebra)


def test_self_check_catches_a_map_that_misses_the_derived_subalgebra(monkeypatch):
    # with [L, L] taken as all of H(1), the bracket still factors through
    # the quotient, but its image is a line, not the whole of [L, L]
    algebra = LieAlgebra(3, {(0, 1): (0, 0, 1)})  # a fresh H(1): its memo is empty

    class Everything(lie.SpanBuilder):
        def subspace(self):
            return Subspace.full(self.ncols)

    monkeypatch.setattr(lie, "SpanBuilder", Everything)
    assert algebra.derived_subalgebra() == Subspace.full(3)
    with pytest.raises(ConstructionError, match="commutator map is not surjective"):
        exterior_square.__wrapped__(algebra)


def test_cached_square_carries_no_algebra():
    # equal algebras share one cached square, whatever their labels, so
    # the square must hold nothing of the algebra that built it, also once
    # its Fraction matrices have been made
    a3, labelled = abelian(3), LieAlgebra(3, {(0, 1): (0, 0, 1)}, labels=("x", "y", "z"))
    first = exterior_square(a3)
    second = exterior_square(LieAlgebra(3, {}))
    assert second is first
    assert second.dim == 3
    square = exterior_square(labelled)
    assert square is exterior_square(heisenberg(1))
    assert (square.projection.rows, square.commutator_map.rows) == (3, 1)
    for sq in (second, square):
        assert not any(isinstance(v, LieAlgebra) for v in vars(sq).values())


def test_square_is_immutable_and_compares_by_its_fields():
    square = exterior_square(heisenberg(2))
    with pytest.raises(AttributeError):
        square.d = 2
    fields = (square.dim, square.section, square.d, square.columns, square.on_section, square.den, square.derived)
    again = ExteriorSquare(*fields)
    assert again == square and hash(again) == hash(square)
    for wrong in (fields[:-1], (*fields, None)):  # _Record.__init__ takes one value per field
        with pytest.raises(TypeError, match="ExteriorSquare takes 7 values"):
            ExteriorSquare(*wrong)
    assert again != exterior_square(abelian(5))
    assert copy.deepcopy(square) == square


def test_equal_live_algebras_share_one_square():
    # a result is shared while an algebra equal to the one it was built
    # for is alive; once that one is collected, an equal algebra rebuilds it
    first = scramble(direct_sum(heisenberg(1), abelian(3)), 4_205)
    twin = scramble(direct_sum(heisenberg(1), abelian(3)), 4_205)
    assert twin == first and twin is not first
    square = exterior_square(first)
    assert exterior_square(twin) is square
    assert exterior._split_factor(twin) is exterior._split_factor(first)
    del first
    gc.collect()
    rebuilt = exterior_square(twin)
    assert rebuilt == square and rebuilt is not square


def test_shared_results_go_with_their_algebra():
    # no entry keeps its key alive: the split holds L1, which keys the
    # square and Z^(L1), and all of them go with L
    algebra = scramble(direct_sum(heisenberg(2), abelian(2)), 4_206)
    assert not exterior_center(algebra).is_zero()
    factor = exterior._split_factor(algebra)[0]
    refs = [weakref.ref(x) for x in (algebra, factor, exterior_square(factor))]
    del algebra, factor
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


# every shared function, with a dependency that only its computation calls
SHARED = [
    (exterior_square, "_relation_projection"),
    (exterior._split_factor, "lcm"),
    (exterior._square_center, "_kernel"),
]


def test_every_shared_function_is_covered():
    code = lie._shared(lambda algebra: None).__code__
    found = {f for f in vars(exterior).values() if getattr(f, "__code__", None) is code}
    assert found == {f for f, _ in SHARED}


@pytest.mark.parametrize("call, dependency", SHARED, ids=[f.__name__ for f, _ in SHARED])
def test_failed_build_is_raised_again(monkeypatch, call, dependency):
    algebra = scramble(direct_sum(heisenberg(2), abelian(1)), 4_207)
    calls = []

    def failing(*args):
        calls.append(args)
        raise RuntimeError("injected failure")

    monkeypatch.setattr(exterior, dependency, failing)
    for count in (1, 2):
        with pytest.raises(RuntimeError, match="injected failure"):
            call(algebra)
        assert len(calls) == count
    monkeypatch.undo()
    assert call(algebra) is call(algebra)


def test_verify_paper_shares_its_exterior_results():
    # verify-paper's algebras share equal factors L1 and equal quotients:
    # counted in a fresh interpreter, where no algebra another test keeps
    # alive can serve a result, it builds 14 squares, 31 splits and 5
    # exterior centers of L1 (a split kept per instance makes 57 splits)
    script = textwrap.dedent(
        """
        from liecap import cli, exterior
        counts = {}
        for name in ("_relation_projection", "lcm", "_kernel"):
            def counted(*args, _name=name, _f=getattr(exterior, name)):
                counts[_name] = counts.get(_name, 0) + 1
                return _f(*args)
            setattr(exterior, name, counted)
        passed = all(check["pass"] for check in cli._verify_checks())
        print(passed, counts["_relation_projection"], counts["lcm"], counts["_kernel"])
        """
    )
    src = str(Path(exterior.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["True", "14", "31", "5"]


def test_core_matches_full_width_elimination(frozen_catalog):
    # the core eliminates only the columns the relations touch and stops
    # at full rank there; its projection must be the full-width one
    corpus = frozen_catalog + [("sl2", SL2), ("r2+A(2)", direct_sum(R2, abelian(2)))]
    for name, algebra in corpus:
        assert core_projection(algebra) == full_width_projection(algebra), name


def _stop(monkeypatch, algebra):
    """(relation rows fed, relation rows, touched columns, rank) of the
    core of L1, the factor of the split L = L1 + A that the entry points
    build."""
    factor = exterior._split_factor(algebra)[0]
    n = factor.dim
    relations = _d3_rows(n, factor._rows)
    fed = []

    class Counting(SpanBuilder):
        def add_int_row(self, row):
            fed.append(row)
            return super().add_int_row(row)

    monkeypatch.setattr(exterior, "SpanBuilder", Counting)
    _, _, _, pivots = exterior._relation_projection(n * (n - 1) // 2, relations)
    touched = {col for row in relations for col in row}
    return len(fed), len(relations), len(touched), len(pivots)


def test_square_center_is_solved_over_the_center(monkeypatch):
    # Z^(L1) lies in Z(L1), so only the coordinates in the center are
    # unknowns.  On scrambled H(6) the factor L1 has dim 13 and a center of
    # dim 1, and every z ^ e_j vanishes: no equation is fed, the kernel is
    # read off its one projection row and Z^ off the center's one row,
    # with nothing eliminated again (solving for all 13 coordinates fed
    # 189 equations)
    factor = exterior._split_factor(scramble(heisenberg(6), 4_204))[0]
    assert (factor.dim, factor.center().dim) == (13, 1)
    exterior_square(factor)
    fed = []
    add_int_row = SpanBuilder.add_int_row

    def counted(self, row):
        fed.append(self.ncols)
        return add_int_row(self, row)

    monkeypatch.setattr(SpanBuilder, "add_int_row", counted)
    assert exterior._square_center.__wrapped__(factor) == factor.derived_subalgebra()
    assert fed == []


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_elimination_stops_at_full_rank_on_heisenberg(monkeypatch, m):
    # in the split basis [L1, L1] = <z> comes first, so every relation row
    # lies in the 2m columns z ^ e_l: the rank reaches 2m and the rest of
    # the C(2m, 3) rows are never fed (H(2) has only its 4 rows of rank 4)
    fed, total, touched, rank = _stop(monkeypatch, scramble(direct_sum(heisenberg(m), abelian(2)), 40 + m))
    assert rank == touched == 2 * m
    assert total == math.comb(2 * m, 3)
    assert fed < total or m == 2


@pytest.mark.parametrize(
    "algebra, expected",
    [
        (heisenberg(6), (24, 60)),
        (scramble(heisenberg(6), 3), (56, 220)),
        (scramble(direct_sum(heisenberg(5), abelian(2)), 3), (37, 120)),
    ],
    ids=["H(6)", "H(6) scrambled", "H(5)+A(2) scrambled"],
)
def test_elimination_stops_at_the_documented_row(monkeypatch, algebra, expected):
    # the stops the module docstring and the README state: they hold
    # because the split basis of L1 opens with [L, L]
    fed, total, touched, rank = _stop(monkeypatch, algebra)
    assert (fed, total) == expected
    assert rank == touched


@pytest.mark.parametrize(
    "algebra, expected",
    [
        (scramble(direct_sum(direct_sum(heisenberg(1), heisenberg(1)), abelian(1)), 47), (5, 9)),
        (scramble(filiform(7), 48), None),
    ],
    ids=["H(1)+H(1)+A(1)", "L_7"],
)
def test_elimination_feeds_every_row_below_full_rank(monkeypatch, algebra, expected):
    fed, total, touched, rank = _stop(monkeypatch, algebra)
    assert fed == total
    assert rank < touched
    if expected is not None:
        assert (rank, touched) == expected


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


# -- the split L = L1 + A against the full construction --------------------------


def _full_exterior_center(algebra):
    """Z^(L) from the full square in original coordinates: the kernel of
    the stacked maps x -> x ^ e_j, with e_i ^ e_j read off the projection."""
    n = algebra.dim
    sq = exterior_square(algebra)

    def wedge(i, j):
        if i == j:
            return zero_vector(sq.quotient_dim)
        col = sq.projection.column(_column(n, min(i, j), max(i, j)))
        return col if i < j else tuple(-x for x in col)

    rows = []
    for j in range(n):
        rows.extend(zip(*(wedge(i, j) for i in range(n))))
    return null_space(rows, n)


def test_split_matches_full_construction(frozen_catalog):
    extra = [
        ("sl2", SL2),
        ("r2", R2),
        ("r2+r2", direct_sum(R2, R2)),
        ("sl2+A(1)", direct_sum(SL2, abelian(1))),  # L1 perfect, k = 1: Z^ = A
        ("sl2+A(2)", direct_sum(SL2, abelian(2))),
        ("r2+A(4)", direct_sum(R2, abelian(4))),
        ("A(0)", abelian(0)),
        ("A(1)", abelian(1)),
        ("L_7+A(2) scrambled", scramble(direct_sum(filiform(7), abelian(2)), 3)),
        ("L_9 scrambled", scramble(filiform(9), 4)),
        # dim [L, L] = 2: Z^(L1) is read off over a denominator other than 1
        *(
            (f"{name} scrambled {seed}", scramble(algebra, seed))
            for name, algebra in [
                ("H(2)+H(1)+A(1)", direct_sum(direct_sum(heisenberg(2), heisenberg(1)), abelian(1))),
                ("H(3)+H(1)", direct_sum(heisenberg(3), heisenberg(1))),
            ]
            for seed in (1, 2, 3)
        ),
    ]
    for name, algebra in frozen_catalog + extra:
        sq = exterior_square(algebra)
        split = (exterior_square_dim(algebra), multiplier_dim(algebra), exterior_center(algebra))
        assert split == (sq.quotient_dim, sq.multiplier_dim(), _full_exterior_center(algebra)), name
    # the perfect, k = 1 case is the one whose Z^ takes in A
    assert exterior_center(direct_sum(SL2, abelian(1))) == Subspace.span(4, [unit_vector(4, 3)])


def _oracle_factor(algebra):
    """L1 from the Fraction oracle: L rewritten in conftest's
    ``split_basis`` by ``FractionBracketOracle.change_basis``, which
    inverts the basis, cut to the brackets of the first n1 = dim - k
    vectors and their first n1 coordinates."""
    basis, k = split_basis(algebra)
    n, n1 = algebra.dim, algebra.dim - k
    p = Matrix.from_rows(basis, cols=n)
    rewritten = FractionBracketOracle(algebra).change_basis(p)
    return LieAlgebra(n1, {(i, j): c[:n1] for (i, j), c in rewritten.brackets.items() if j < n1})


def test_split_factor_matches_fraction_oracle(frozen_catalog):
    # the split reads L1 off the Gram products of its basis, with no solve
    extra = [
        (f"L_{n}{a} scrambled", scramble(direct_sum(filiform(n), abelian(2)) if a else filiform(n), 60 + n))
        for n in range(6, 10)
        for a in ("", "+A(2)")
    ]
    h1h1 = direct_sum(heisenberg(1), heisenberg(1))
    for k in range(3):
        extra += [
            (f"sl2+A({k})", direct_sum(SL2, abelian(k))),
            (f"r2+A({k}) scrambled", scramble(direct_sum(R2, abelian(k)), 70 + k)),
            (f"H(1)+H(1)+A({k}) scrambled", scramble(direct_sum(h1h1, abelian(k)), 73 + k)),
        ]
    for name, algebra in frozen_catalog + extra:
        assert exterior._split_factor(algebra)[0] == _oracle_factor(algebra), name


def test_split_is_block_diagonal(monkeypatch, tmp_path):
    # H(1)+H(1)+A(1) is unclassified, so analyze reaches the split without
    # the decomposition; a "center" holding a non-central vector puts it
    # into A.  The split is cached per algebra, so the inputs are scrambles
    # that no other test builds
    algebra = scramble(direct_sum(direct_sum(heisenberg(1), heisenberg(1)), abelian(1)), 4_201)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(cli.algebra_to_doc(scramble(algebra, 4_202))))
    monkeypatch.setattr(LieAlgebra, "center", lambda self: Subspace.span(self.dim, [unit_vector(self.dim, 0)]))
    for entry in (exterior_square_dim, multiplier_dim, exterior_center):
        with pytest.raises(ConstructionError, match="central direct factor"):
            entry(algebra)
    assert cli.main(["analyze", str(path), "--method", "oracle"]) == cli.EXIT_INTERNAL


def test_split_checks_exterior_center_inside_derived(monkeypatch):
    # with its center lost, sl2+A(1) keeps its abelian factor inside L1,
    # and the exterior center A(1) of L1 escapes [L, L] = sl2
    algebra = scramble(direct_sum(SL2, abelian(1)), 4_203)
    center = LieAlgebra.center
    monkeypatch.setattr(LieAlgebra, "center", lambda self: Subspace.zero(4) if self == algebra else center(self))
    with pytest.raises(ConstructionError, match="leaves"):
        exterior_center(algebra)
