"""Structure-constant Lie algebras: families, brackets, subobjects,
quotients and changes of basis."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FractionBracketOracle, filiform, raw_jacobi_residual, split_basis
from liecap import lie
from liecap.cli import build_report
from liecap.capability import named_members
from liecap.exterior import exterior_square
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


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_heisenberg_matches_the_fraction_built_table(m):
    # heisenberg() writes its int table directly; the public constructor
    # reads the brackets [a_i, b_i] = z as Fraction unit vectors
    dim = 2 * m + 1
    labels = [f"a{i + 1}" for i in range(m)] + [f"b{i + 1}" for i in range(m)] + ["z"]
    built = LieAlgebra(dim, {(i, m + i): unit_vector(dim, 2 * m) for i in range(m)}, labels=labels)
    h = heisenberg(m)
    assert (h, hash(h), h.labels) == (built, hash(built), built.labels)
    assert dict(h.brackets) == dict(built.brackets)


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


def test_validate_skips_the_triples_when_the_derived_algebra_is_central(monkeypatch):
    # every Jacobiator term carries a factor [z_r, e_k], which vanishes when
    # [L, L] is central, so a 2-step nilpotent table evaluates no triple
    central = scramble(direct_sum(heisenberg(3), abelian(2)), 17)
    filiform = scramble(LieAlgebra(4, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)}), 3)
    calls = []

    def counted(iterable, r):
        # the triples validate draws from lie's combinations
        for t in combinations(iterable, r):
            calls.append(t)
            yield t

    monkeypatch.setattr(lie, "combinations", counted)
    assert central.validate() is None
    assert calls == []
    # a 3-step algebra still evaluates its triples
    assert filiform.validate() is None
    assert len(calls) == 4


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
    bases = [scramble(algebra, 500 + seed) for seed, (_, algebra) in enumerate(named_members())]
    # deep tables, whose pass reaches the triples: filiform L_n with m = n - 2,
    # and L_4 + A(k), L_4 + H(1), whose m stays 2 or 3 as n grows
    bases += [scramble(filiform(n), 600 + n) for n in range(5, 9)]
    others = (abelian(2), abelian(5), heisenberg(1))
    bases += [scramble(direct_sum(filiform(4), other), 700 + seed) for seed, other in enumerate(others)]
    for base in bases:
        n = base.dim
        if n < 3:
            continue
        tables.append((n, dict(base.brackets)))
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
    # 2,664 tables: about a third invalid, with witnesses spread over the triples
    assert len(witnesses) - witnesses.count(None) > 800
    assert len(set(witnesses)) > 25


# -- the stored table -----------------------------------------------------------


def test_key_does_not_depend_on_how_constants_are_written():
    # [e1, e2] = 2 e5 and [e3, e4] = -e5, written three ways
    spellings = [
        {(0, 1): (0, 0, 0, 0, 2), (2, 3): (0, 0, 0, 0, -1), (0, 2): (0, 0, 0, 0, 0)},
        {(0, 1): ("0", "0", "0", "0", "4/2"), (2, 3): ("0", "0", "0", "0", "-3/3")},
        {(0, 1): (Fraction(0, 7),) * 4 + (Fraction(6, 3),), (2, 3): (0, 0, 0, 0, Fraction(-5, 5))},
    ]
    algebras = [LieAlgebra(5, b) for b in spellings]
    assert all(a == algebras[0] and hash(a) == hash(algebras[0]) for a in algebras)
    # equal and alive at once, so they share one square
    squares = [exterior_square(a) for a in algebras]
    assert all(sq is squares[0] for sq in squares)
    # rational constants: strings against Fractions written over 6
    strings = LieAlgebra(3, {(0, 1): ("0", "1/2", "-2/3")})
    fractions = LieAlgebra(3, {(0, 1): (0, Fraction(3, 6), Fraction(-4, 6))})
    assert strings == fractions and hash(strings) == hash(fractions)


def test_key_keeps_the_common_denominator():
    # both store the int row (0, 0, 1); only the denominator tells them apart
    assert LieAlgebra(3, {(0, 1): (0, 0, Fraction(1, 2))}) != LieAlgebra(3, {(0, 1): (0, 0, 1)})
    assert LieAlgebra(3, {(0, 1): (0, 0, Fraction(1, 2))}) != heisenberg(1)


def test_algebra_copies_and_pickles():
    # a copy is rebuilt from the integer table: equal, with the same hash
    # and labels, its brackets read-only, and a fresh memo of its own
    L = scramble(direct_sum(heisenberg(1), abelian(1)), 4)
    L.center()
    for twin in (pickle.loads(pickle.dumps(L)), copy.copy(L), copy.deepcopy(L)):
        assert twin == L and hash(twin) == hash(L) and twin.labels == L.labels
        assert twin._rows == L._rows and not twin._memo
        with pytest.raises(TypeError):
            twin._rows[(0, 1)] = ()
        assert twin.center() == L.center()
    labelled = LieAlgebra(3, {(0, 1): ("0", "0", "1/2")}, labels=("x", "y", "z"))
    assert pickle.loads(pickle.dumps(labelled)).labels == ("x", "y", "z")


def test_brackets_round_trip(frozen_catalog):
    for name, algebra in frozen_catalog:
        n = algebra.dim
        assert LieAlgebra(n, algebra.brackets) == algebra, name
        # the same constants as strings, with every zero bracket written out
        given = dict(algebra.brackets)
        spelled = {key: tuple(map(str, given.get(key, (0,) * n))) for key in combinations(range(n), 2)}
        rebuilt = LieAlgebra(n, spelled)
        assert rebuilt == algebra and hash(rebuilt) == hash(algebra), name
        nonzero = {key: tuple(map(Fraction, c)) for key, c in spelled.items() if any(map(Fraction, c))}
        assert dict(rebuilt.brackets) == nonzero, name


def test_brackets_are_read_only():
    h = heisenberg(1)
    with pytest.raises(TypeError):
        h.brackets[(0, 1)] = (0, 0, 2)
    table = h._rows
    with pytest.raises(TypeError):
        table[(0, 1)] = (0, 0, 2)
    assert h == heisenberg(1) and dict(h.brackets) == {(0, 1): unit_vector(3, 2)}


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


def _count_derived_pass(monkeypatch, algebra):
    """``(fed, certified)``: the rows fed to a ``SpanBuilder`` of ``lie``
    and the rows certified while a fresh algebra is asked for [L, L],
    in order."""
    fed, certified = [], []

    class Counting(lie.SpanBuilder):
        def add_int_row(self, row):
            fed.append(tuple(row))
            return super().add_int_row(row)

    int_coordinates = Subspace._int_coordinates

    def counting(self, rows):
        for w, a in zip(rows, int_coordinates(self, rows)):
            if a is not None:
                certified.append(tuple(w))
            yield a

    monkeypatch.setattr(lie, "SpanBuilder", Counting)
    monkeypatch.setattr(Subspace, "_int_coordinates", counting)
    algebra.derived_subalgebra()
    monkeypatch.undo()
    return fed, certified


def test_derived_pass_reads_each_bracket_row_once(monkeypatch):
    # m = 1: one row enlarges the zero basis, and every bracket row is
    # certified once, in the one basis of [L, L]; derived_subalgebra
    # eliminates nothing of its own
    L = scramble(direct_sum(heisenberg(8), abelian(1)), 5)
    rows = list(L._rows.values())
    assert (L.dim, len(rows)) == (18, 153)
    fed, certified = _count_derived_pass(monkeypatch, L)
    assert fed == [rows[0]]
    assert certified == rows
    # m = 2: the rows read before the second enlargement are certified
    # again in the enlarged basis, and only those
    L = scramble(direct_sum(direct_sum(heisenberg(1), heisenberg(1)), abelian(2)), 5)
    rows = list(L._rows.values())
    fed, certified = _count_derived_pass(monkeypatch, L)
    k = rows.index(fed[1])
    assert fed == [rows[0], rows[k]] and k >= 1, k
    assert certified == rows[:k] + rows
    assert L.derived_subalgebra().dim == 2


def test_center_examples():
    assert abelian(3).center() == Subspace.full(3)
    h = heisenberg(2)
    assert h.center() == Subspace.span(5, [unit_vector(5, 4)])
    s = direct_sum(heisenberg(1), abelian(2))
    assert s.center().dim == 3


def test_center_is_eliminated_once(monkeypatch):
    # the report's center dimension, the abelian split and the
    # decomposition all ask one instance for its center; the exterior
    # center then asks the split's factor L1 = H(2) for its own, once
    L = scramble(direct_sum(heisenberg(2), abelian(2)), 79)
    calls = []
    kernel = lie._kernel

    def counted(ncols, rows):
        calls.append(ncols)
        return kernel(ncols, rows)

    monkeypatch.setattr(lie, "_kernel", counted)
    first = L.center()
    build_report(L, "input", "both")
    assert L.center() is first
    assert calls == [L.dim, L.dim - 2]


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
    for test in (h.is_ideal, h.is_central_ideal, h.bracket_span):
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            test(Subspace.full(4))


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
    # with forms: a repeated unit row, and a dense matrix of rank 3
    L = scramble(direct_sum(heisenberg(1), abelian(1)), 2)
    repeated = Matrix.from_rows([unit_vector(4, 0), unit_vector(4, 0), unit_vector(4, 2), unit_vector(4, 3)])
    rows = [[1, -2, 3, 1], [2, 1, -1, 3], [0, 5, 2, 1]]
    dense = Matrix.from_rows(rows + [[a - 2 * b + Fraction(c, 2) for a, b, c in zip(*rows)]])
    assert dense.rank() == 3
    for p in (repeated, dense):
        with pytest.raises(ValueError, match="matrix is singular"):
            L.change_basis(p)


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


def _library_bases(algebra, rng):
    """Sparse bases that the library builds: the split basis of
    L = L1 + A, by conftest's ``split_basis``, the quotient section over
    the center (the unit vectors at its non-pivot columns, then its RREF
    rows) and a seeded permutation of the unit vectors."""
    n = algebra.dim
    center = algebra.center()
    pivots = center.pivot_cols()
    section = [unit_vector(n, c) for c in range(n) if c not in pivots] + list(center.basis.data)
    order = list(range(n))
    rng.shuffle(order)
    return {
        "split": Matrix.from_rows(split_basis(algebra)[0], cols=n),
        "quotient section": Matrix.from_rows(section, cols=n),
        "permutation": Matrix.from_rows([unit_vector(n, i) for i in order], cols=n),
    }


@pytest.mark.parametrize("name", ["H(2)+A(2)", "H(1)+H(1)+A(1)", "L_6", "sl2+A(2)", "r2+A(3)"])
def test_change_basis_on_library_bases_matches_fraction_oracle(name):
    # the read-off of the reduced rows and the Gram products on sparse
    # bases, in the standard basis and scrambled
    algebra = {
        "H(2)+A(2)": direct_sum(heisenberg(2), abelian(2)),
        "H(1)+H(1)+A(1)": direct_sum(direct_sum(heisenberg(1), heisenberg(1)), abelian(1)),
        "L_6": filiform(6),
        "sl2+A(2)": direct_sum(SL2, abelian(2)),
        "r2+A(3)": direct_sum(R2, abelian(3)),
    }[name]
    rng = random.Random(name)
    for rewritten in (algebra, scramble(algebra, 4)):
        oracle = FractionBracketOracle(rewritten)
        for basis, p in _library_bases(rewritten, rng).items():
            assert rewritten.change_basis(p) == oracle.change_basis(p), (name, basis)


@pytest.mark.parametrize("n", [0, 3])
def test_abelian_algebras_have_no_forms(n):
    # m = 0: no forms, every bracket span is zero, the center is everything
    L = abelian(n)
    assert L._derived_coordinates().forms == []
    assert L.center() == Subspace.full(n)
    for s in (Subspace.zero(n), Subspace.full(n)):
        assert L.bracket_span(s) == Subspace.zero(n)
    assert [t.dim for t in L.lower_central_series()] == ([0] if n == 0 else [n, 0])
    assert L.change_basis(random_invertible(n, random.Random(n))) == L


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
        if oracle.is_ideal(s):
            quotient, projection = algebra.quotient(s)
            expected, expected_projection = oracle.quotient(s)
            assert quotient == expected, name
            assert quotient.labels == expected.labels, name
            assert projection == expected_projection, name
        else:
            with pytest.raises(ValueError, match="not an ideal"):
                algebra.quotient(s)
    p = random_invertible(n, rng)
    rewritten = algebra.change_basis(p)
    assert rewritten == oracle.change_basis(p), name
    return rewritten


def test_integer_commutator_code_matches_fraction_oracle(frozen_catalog):
    # the center, the series, the ideal tests, change_basis and the
    # quotients (a change of basis cut to its leading block) all run on
    # one integer table.  Most catalog members are scrambles, whose table
    # has a denominator to clear, but every member is 2-step nilpotent:
    # the last four (and their rewrites) have [L, [L, L]] != 0, so some
    # of the ideals they are quotiented by are not central
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


NOT_JACOBI = LieAlgebra(4, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1), (1, 3): (0, 0, 0, 1)})  # fails at (0, 1, 2)


# [L, L] is not a central line here: dim [L, L] >= 2 (all but r2+A(k)) or
# [L, [L, L]] != 0 (all but H(1)+H(1)), and one table fails Jacobi
NOT_A_CENTRAL_LINE = {f"L_{n}": filiform(n) for n in range(4, 10)} | {
    "H(1)+H(1)": direct_sum(heisenberg(1), heisenberg(1)),
    "sl2": SL2,
    "r2+A(1)": direct_sum(R2, abelian(1)),
    "r2+A(3)": direct_sum(R2, abelian(3)),
    "not Jacobi": NOT_JACOBI,
}


@pytest.mark.parametrize("name", list(NOT_A_CENTRAL_LINE))
def test_derived_coordinate_paths_match_fraction_oracle(name):
    # change_basis and center() work in the coordinates of [L, L]
    algebra = NOT_A_CENTRAL_LINE[name]
    rng = random.Random(name)
    for seed in range(3):
        rewritten = scramble(algebra, seed) if seed else algebra
        oracle = FractionBracketOracle(rewritten)
        assert rewritten.center() == oracle.center(), name
        for _ in range(2):
            p = random_invertible(algebra.dim, rng)
            assert rewritten.change_basis(p) == oracle.change_basis(p), name
    assert NOT_JACOBI.validate() == (0, 1, 2)
