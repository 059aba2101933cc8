"""Recognition of H(m) + A(k): the Gram matrix of the induced form, the
symplectic pass and the certified decomposition round trip."""

from __future__ import annotations

import math
import random
import traceback
from fractions import Fraction

import pytest

from conftest import form_value, matrix_symplectic_basis, rank_by_minors
from liecap import decompose
from liecap.cli import EXIT_INTERNAL, main
from liecap.decompose import (
    AbelianAlgebraError,
    DecompositionCheckError,
    _gram,
    _symplectic_basis,
    heisenberg_decompose,
)
from liecap.lie import LieAlgebra, abelian, direct_sum, heisenberg, scramble
from liecap.linalg import Matrix, Subspace, kernel_basis, unit_vector


def gram_matrix(algebra):
    """``_gram``'s int rows over the algebra's denominator, as the
    ``Fraction`` Gram matrix."""
    d, g = _gram(algebra)
    return Matrix.from_rows([[Fraction(x, d) for x in row] for row in g], cols=algebra.dim)


def symplectic_basis(gram):
    """``_symplectic_basis`` on a ``Fraction`` Gram matrix, brought to int
    rows over one denominator; its pairs come back as ``Fraction`` vectors."""
    dg = math.lcm(*(x.denominator for row in gram.data for x in row))
    pairs, radical = _symplectic_basis(dg, [[int(x * dg) for x in row] for row in gram.data])
    return [tuple(tuple(Fraction(x, d) for x in row) for row, d in pair) for pair in pairs], radical


def test_induced_form_heisenberg():
    L = heisenberg(1)
    # z, the RREF generator of [L, L], is the basis vector after the pairs
    assert heisenberg_decompose(L).basis_change.data[2] == unit_vector(3, 2)
    assert _gram(L) == (1, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])


def test_induced_form_matches_public_bracket(frozen_catalog):
    # the Gram matrix is read off the [L, L] coordinates of the integer
    # table; rebuild it from the public bracket as [e_i, e_j] = f_ij z
    checked = 0
    for name, algebra in frozen_catalog:
        if algebra.derived_subalgebra().dim != 1:
            continue
        gram = gram_matrix(algebra)
        z = algebra.derived_subalgebra().basis.data[0]
        dec = heisenberg_decompose(algebra)
        assert dec.basis_change.data[2 * dec.m] == z, name
        n = algebra.dim
        p = next(t for t, x in enumerate(z) if x)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                c = algebra.bracket(unit_vector(n, i), unit_vector(n, j))
                f = c[p] / z[p]
                assert c == tuple(f * x for x in z), name
                row.append(f)
            rows.append(row)
        assert gram == Matrix.from_rows(rows, cols=n), name
        checked += 1
    assert checked == 132  # H(m) and H(m)+A(k), m, k = 1..3, each with ten scrambles


def test_induced_form_rank_is_basis_invariant():
    L = direct_sum(heisenberg(2), abelian(1))
    base_rank = gram_matrix(L).rank()
    assert base_rank == 4
    for seed in (1, 2, 3):
        assert gram_matrix(scramble(L, seed)).rank() == 4


def test_symplectic_basis_zero_form():
    pairs, radical = symplectic_basis(Matrix.from_rows([[0, 0, 0]] * 3))
    assert pairs == []
    assert radical.dim == 3


def test_symplectic_basis_standard_pair():
    gram = Matrix.from_rows([[0, 1], [-1, 0]])
    pairs, radical = symplectic_basis(gram)
    assert len(pairs) == 1
    assert radical.dim == 0
    a, b = pairs[0]
    assert form_value(gram, a, b) == 1


@pytest.mark.parametrize("seed", [5, 21, 77])
def test_symplectic_basis_random_skew(seed):
    # random 6x6 alternating form; rank certified by minor expansion
    rng = random.Random(seed)
    raw = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(6)]
    skew = [[raw[i][j] - raw[j][i] for j in range(6)] for i in range(6)]
    gram = Matrix.from_rows(skew)
    rank = rank_by_minors(skew)
    pairs, radical = symplectic_basis(gram)
    assert (pairs, radical) == matrix_symplectic_basis(gram)
    assert 2 * len(pairs) == rank
    assert 2 * len(pairs) + radical.dim == 6
    assert radical == kernel_basis(gram)
    # full pairing table: f(a_i, b_j) = delta_ij, everything else zero
    avs = [p[0] for p in pairs]
    bvs = [p[1] for p in pairs]
    for i, a in enumerate(avs):
        for j, b in enumerate(bvs):
            assert form_value(gram, a, b) == (1 if i == j else 0)
    for i, x in enumerate(avs):
        for j, y in enumerate(avs):
            assert form_value(gram, x, y) == 0
    for i, x in enumerate(bvs):
        for j, y in enumerate(bvs):
            assert form_value(gram, x, y) == 0
    for x in avs + bvs:
        for r in radical.basis.data:
            assert form_value(gram, x, r) == 0


def test_decompose_canonical_inputs():
    for m in (1, 2, 3):
        for k in (0, 1, 2):
            L = direct_sum(heisenberg(m), abelian(k)) if k else heisenberg(m)
            dec = heisenberg_decompose(L)
            assert (dec.m, dec.k) == (m, k)
            # canonical input, canonical answer: the basis change is trivial
            assert dec.basis_change == Matrix.identity(L.dim)


def test_decompose_rejections():
    with pytest.raises(AbelianAlgebraError):
        heisenberg_decompose(abelian(3))
    with pytest.raises(ValueError):
        heisenberg_decompose(direct_sum(heisenberg(1), heisenberg(1)))
    with pytest.raises(ValueError):
        heisenberg_decompose(LieAlgebra(2, {(0, 1): (0, 1)}))


def test_decompose_seven_dimensional_rank_two():
    # dim 7 with one Heisenberg pair leaves a 4-dimensional abelian part
    L = direct_sum(heisenberg(1), abelian(4))
    dec = heisenberg_decompose(L)
    assert (dec.m, dec.k) == (1, 4)


def test_form_radical_equals_center():
    # for nilpotent L with one-dimensional [L, L] the radical of the
    # induced form is exactly the center
    for base, seed in ((heisenberg(2), 31), (direct_sum(heisenberg(1), abelian(2)), 32)):
        L = scramble(base, seed)
        assert kernel_basis(gram_matrix(L)) == L.center()


def test_decompose_dimension_count():
    for m in (1, 2, 3):
        for k in (0, 2):
            L = scramble(direct_sum(heisenberg(m), abelian(k)), 400 + 10 * m + k)
            dec = heisenberg_decompose(L)
            assert 2 * dec.m + 1 + dec.k == L.dim


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_decompose_round_trip_under_scrambles(m, k):
    canonical = direct_sum(heisenberg(m), abelian(k))
    expected = dict(canonical.brackets)
    for seed in range(25):
        scrambled = scramble(canonical, 9000 + 97 * (10 * m + k) + seed)
        dec = heisenberg_decompose(scrambled)
        assert (dec.m, dec.k) == (m, k)
        rewritten = scrambled.change_basis(dec.basis_change)
        assert dict(rewritten.brackets) == expected


def test_gram_column_pass_matches_matrix_oracle(frozen_catalog):
    # the same pairs and radical as taking every form value from a full
    # Gram matrix-vector product, on every member with dim [L, L] = 1
    checked = 0
    for name, algebra in frozen_catalog:
        if algebra.derived_subalgebra().dim != 1:
            continue
        gram = gram_matrix(algebra)
        assert symplectic_basis(gram) == matrix_symplectic_basis(gram), name
        checked += 1
    assert checked == 12 * 11  # H(m) and H(m)+A(k), each with ten scrambles


def test_lower_central_series_returns_a_fresh_list():
    L = scramble(direct_sum(heisenberg(2), abelian(1)), 3)
    first = L.lower_central_series()
    dims = [s.dim for s in first]
    first.clear()
    second = L.lower_central_series()
    assert [s.dim for s in second] == dims == [6, 1, 0]
    second.append(second[0])
    assert [s.dim for s in L.lower_central_series()] == dims


@pytest.mark.parametrize(
    "algebra, error",
    [(abelian(3), AbelianAlgebraError), (direct_sum(heisenberg(1), heisenberg(1)), ValueError)],
    ids=["A(3)", "H(1)+H(1)"],
)
def test_decompose_rejection_is_raised_afresh(algebra, error):
    raised = []
    for _ in range(3):
        with pytest.raises(error) as info:
            heisenberg_decompose(algebra)
        raised.append(info.value)
    assert all(type(e) is error for e in raised)
    assert len({str(e) for e in raised}) == 1
    assert len({id(e) for e in raised}) == 3
    # a re-raised cached exception would grow its traceback on every raise
    assert len({len(traceback.extract_tb(e.__traceback__)) for e in raised}) == 1


def test_decomposition_is_certified_once(monkeypatch):
    L = scramble(direct_sum(heisenberg(2), abelian(2)), 77)
    calls = {"_change_basis": 0, "_gram": 0}
    change_basis, gram = LieAlgebra._change_basis, decompose._gram

    def counted_change_basis(self, dp, pi):
        calls["_change_basis"] += 1
        return change_basis(self, dp, pi)

    def counted_gram(algebra):
        calls["_gram"] += 1
        return gram(algebra)

    monkeypatch.setattr(LieAlgebra, "_change_basis", counted_change_basis)
    monkeypatch.setattr(decompose, "_gram", counted_gram)
    first = heisenberg_decompose(L)
    assert heisenberg_decompose(L) is first
    assert heisenberg_decompose(L) is first
    assert calls == {"_change_basis": 1, "_gram": 1}


def test_failed_certification_is_not_memoized(monkeypatch):
    L = scramble(heisenberg(2), 78)
    monkeypatch.setattr(LieAlgebra, "_change_basis", lambda self, dp, pi: abelian(self.dim))
    for _ in range(2):
        with pytest.raises(DecompositionCheckError):
            heisenberg_decompose(L)
    monkeypatch.undo()
    dec = heisenberg_decompose(L)
    assert (dec.m, dec.k) == (2, 0)


def test_noncentral_derived_generator_is_a_defect(monkeypatch, capsys):
    # beta[0] = {0: [1]} claims [z, e_1] = z for z = e_3 of H(1) + A(1);
    # with [e_1, e_2] = z the only bracket every Jacobiator still vanishes,
    # so the gate passes and only _gram's central check sees it
    derived_coordinates = LieAlgebra._derived_coordinates

    def noncentral(self):
        return derived_coordinates(self)._replace(beta=[{0: [1]}])

    monkeypatch.setattr(LieAlgebra, "_derived_coordinates", noncentral)
    with pytest.raises(DecompositionCheckError, match="derived generator is not central"):
        heisenberg_decompose(direct_sum(heisenberg(1), abelian(1)))
    assert main(["analyze", "H(1)+A(1)", "--method", "formula"]) == EXIT_INTERNAL
    assert "derived generator is not central" in capsys.readouterr().err


def test_symplectic_reduction_checks_the_rank(monkeypatch):
    # a radical that loses its rows no longer completes the pairs to a basis
    class Lossy(decompose.SpanBuilder):
        def add_int_row(self, row):
            return False

    monkeypatch.setattr(decompose, "SpanBuilder", Lossy)
    with pytest.raises(DecompositionCheckError, match="symplectic reduction lost rank"):
        heisenberg_decompose(direct_sum(heisenberg(1), abelian(1)))


def test_abelian_factor_must_complete_the_pairs(monkeypatch):
    # with the center lost, the split of H(1) + A(1) has no abelian factor,
    # one short of the k = 1 the form's radical counts
    monkeypatch.setattr(LieAlgebra, "center", lambda self: Subspace.zero(self.dim))
    with pytest.raises(DecompositionCheckError, match="abelian factor does not complete"):
        heisenberg_decompose(direct_sum(heisenberg(1), abelian(1)))
