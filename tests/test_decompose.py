"""Recognition of H(m) + A(k): the Gram matrix of the induced form, the
symplectic pass and the certified decomposition round trip."""

from __future__ import annotations

import copy
import math
import pickle
import random
import traceback
from fractions import Fraction

import pytest

from conftest import form_value, matrix_symplectic_basis, rank_by_minors
from liecap import capability, decompose, exterior
from liecap.cli import EXIT_INTERNAL, EXIT_OK, main
from liecap.decompose import (
    AbelianAlgebraError,
    Decomposition,
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
    pairs = _symplectic_basis(dg, [[int(x * dg) for x in row] for row in gram.data])
    return [tuple(tuple(Fraction(x, d) for x in row) for row, d in pair) for pair in pairs]


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
    gram = Matrix.from_rows([[0, 0, 0]] * 3)
    assert symplectic_basis(gram) == [] == matrix_symplectic_basis(gram)[0]


def test_symplectic_basis_standard_pair():
    gram = Matrix.from_rows([[0, 1], [-1, 0]])
    pairs = symplectic_basis(gram)
    assert len(pairs) == 1
    assert pairs == matrix_symplectic_basis(gram)[0]
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
    pairs = symplectic_basis(gram)
    # the pass keeps only the rank of what it leaves over: the radical is
    # the oracle's, and the library's radical is the center (see
    # test_form_radical_equals_center)
    oracle_pairs, radical = matrix_symplectic_basis(gram)
    assert pairs == oracle_pairs
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
    # the same pairs as taking every form value from a full Gram
    # matrix-vector product, on every member with dim [L, L] = 1
    checked = 0
    for name, algebra in frozen_catalog:
        if algebra.derived_subalgebra().dim != 1:
            continue
        gram = gram_matrix(algebra)
        assert symplectic_basis(gram) == matrix_symplectic_basis(gram)[0], name
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
    calls = {"_symplectic_basis": 0, "_gram": 0}
    symplectic, gram = decompose._symplectic_basis, decompose._gram

    def counted_symplectic(dg, g):
        calls["_symplectic_basis"] += 1
        return symplectic(dg, g)

    def counted_gram(algebra):
        calls["_gram"] += 1
        return gram(algebra)

    monkeypatch.setattr(decompose, "_symplectic_basis", counted_symplectic)
    monkeypatch.setattr(decompose, "_gram", counted_gram)
    first = heisenberg_decompose(L)
    assert heisenberg_decompose(L) is first
    assert heisenberg_decompose(L) is first
    # the pass and the certificate share one read of the Gram matrix
    assert calls == {"_symplectic_basis": 1, "_gram": 1}


def _swap_first_pair(pairs):
    # f(b_1, a_1) = -1 where the certificate wants f(a_1, b_1) = 1
    (a, b), *rest = pairs
    return [(b, a), *rest]


def _shift_second_a(pairs):
    # a_2 + b_1 keeps f(a_2 + b_1, b_2) = 1, but f(a_1, a_2 + b_1) = 1
    # where the certificate wants 0
    (a1, b1), (a2, b2), *rest = pairs
    (x, dx), (y, dy) = a2, b1
    return [(a1, b1), (([u * dy + v * dx for u, v in zip(x, y)], dx * dy), b2), *rest]


def _double_first_b(pairs):
    # f(a_1, 2 b_1) = 2, a Gram product off by one
    (a, (y, dy)), *rest = pairs
    return [(a, ([2 * v for v in y], dy)), *rest]


def test_failed_certification_is_not_memoized(monkeypatch):
    # a pair swapped in the pass fails the certificate, every time
    L = scramble(heisenberg(2), 78)
    symplectic = decompose._symplectic_basis
    monkeypatch.setattr(decompose, "_symplectic_basis", lambda dg, g: _swap_first_pair(symplectic(dg, g)))
    for _ in range(2):
        with pytest.raises(DecompositionCheckError, match="rewritten constants do not match"):
            heisenberg_decompose(L)
    monkeypatch.undo()
    dec = heisenberg_decompose(L)
    assert (dec.m, dec.k) == (2, 0)


@pytest.mark.parametrize("edit", [_swap_first_pair, _shift_second_a, _double_first_b])
def test_certificate_checks_every_gram_product(monkeypatch, edit):
    # one wrong Gram product of the pairs fails the certificate
    L = scramble(direct_sum(heisenberg(2), abelian(1)), 78)
    symplectic = decompose._symplectic_basis
    monkeypatch.setattr(decompose, "_symplectic_basis", lambda dg, g: edit(symplectic(dg, g)))
    for _ in range(2):
        with pytest.raises(DecompositionCheckError, match="rewritten constants do not match"):
            heisenberg_decompose(L)
    monkeypatch.undo()
    dec = heisenberg_decompose(L)
    assert (dec.m, dec.k) == (2, 1)


def test_decomposition_is_a_value_with_a_lazy_basis_change(monkeypatch, capsys):
    L = scramble(direct_sum(heisenberg(2), abelian(1)), 80)
    dec = heisenberg_decompose(L)
    assert dec.basis_change._data is None  # nothing read the Fraction basis yet
    fresh = decompose._certified_decomposition.__wrapped__(L)
    public = Decomposition(dec.m, dec.k, dec.basis_change)
    assert public == dec and hash(public) == hash(dec)
    # a comparison reads the basis of a fresh value
    assert fresh.basis_change._data is None
    assert fresh == public and hash(fresh) == hash(dec)
    for again in (copy.copy(fresh), copy.deepcopy(fresh), pickle.loads(pickle.dumps(fresh))):
        assert type(again) is Decomposition
        assert again == dec and hash(again) == hash(dec)
        assert again.basis_change == dec.basis_change
    m, k, basis_change = dec
    assert dec == (m, k, basis_change) == (2, 1, dec.basis_change)  # a plain tuple value
    assert Decomposition(m, k, Matrix.identity(L.dim)) != dec
    assert Decomposition(m + 1, k, basis_change) != dec
    assert repr(dec) == f"Decomposition(m=2, k=1, basis_change={dec.basis_change!r})"
    with pytest.raises(AttributeError):
        dec.basis_change = Matrix.identity(L.dim)
    # a --method formula request decomposes but never reads the basis
    made = []

    def recorded(algebra):
        made.append(heisenberg_decompose(algebra))
        return made[-1]

    monkeypatch.setattr(capability, "heisenberg_decompose", recorded)
    assert main(["analyze", "H(2)+A(1)", "--method", "formula"]) == EXIT_OK
    assert "decomposition: m=2 k=1" in capsys.readouterr().out
    assert made and all(d.m == 2 and d.basis_change._data is None for d in made)


def test_noncentral_derived_generator_is_a_defect(monkeypatch, capsys):
    # a form that also claims [z, e_1] = z for z = e_3 of H(1) + A(1): with
    # [e_1, e_2] = z every Jacobiator still vanishes, so validate passes.
    # z is then in [L, [L, L]], so the gate is passed by patching the
    # nilpotency check too, and only _gram's central check sees the defect
    derived_coordinates = LieAlgebra._derived_coordinates

    def noncentral(self):
        coords = derived_coordinates(self)
        g = [list(row) for row in coords.forms[0]]
        g[2][0], g[0][2] = 1, -1
        return coords._replace(forms=[g])

    monkeypatch.setattr(LieAlgebra, "_derived_coordinates", noncentral)
    monkeypatch.setattr(LieAlgebra, "is_nilpotent", lambda self: True)
    L = direct_sum(heisenberg(1), abelian(1))
    assert L.validate() is None
    with pytest.raises(DecompositionCheckError, match="derived generator is not central"):
        heisenberg_decompose(L)
    assert main(["analyze", "H(1)+A(1)", "--method", "formula"]) == EXIT_INTERNAL
    assert "derived generator is not central" in capsys.readouterr().err


def _center_lost(L):
    # H(1) + A(1) then has no abelian row, one short of the k = 1 the
    # form's radical counts
    return Subspace.zero(L.dim)


def _center_holding_z(L):
    # z and one abelian row: a center of dimension k = 2 whose rows pass
    # every Gram product (both are central), but only one of them
    # enlarges span{z}
    z = L.derived_subalgebra().basis.data[0]
    center = Subspace.span(L.dim, [z, exterior._split_factor(L)[2].basis.data[0]])
    assert center.dim == 2 and center.contains(z)
    return center


@pytest.mark.parametrize(
    "algebra, center, expected",
    [
        (direct_sum(heisenberg(1), abelian(1)), _center_lost, (1, 1)),
        (scramble(direct_sum(heisenberg(1), abelian(2)), 79), _center_holding_z, (1, 2)),
    ],
    ids=["center lost", "center holding z"],
)
def test_abelian_factor_must_complete_the_pairs(monkeypatch, algebra, center, expected):
    patched = center(algebra)
    monkeypatch.setattr(LieAlgebra, "center", lambda self: patched)
    for _ in range(2):
        with pytest.raises(DecompositionCheckError, match="abelian factor does not complete"):
            heisenberg_decompose(algebra)
    monkeypatch.undo()
    dec = heisenberg_decompose(algebra)
    assert (dec.m, dec.k) == expected


def test_decomposition_agrees_with_the_split(frozen_catalog):
    # the certificate and the split of exterior pick their abelian rows
    # apart, each as the RREF rows of the center that enlarge [L, L]
    corpus = [(name, L) for name, L in frozen_catalog if L.derived_subalgebra().dim == 1 and L.is_nilpotent()]
    corpus += [
        (f"H({m})+A({k}) scrambled", scramble(direct_sum(heisenberg(m), abelian(k)), 4_300 + 5 * m + k))
        for m in range(1, 5)
        for k in range(5)
    ]
    for name, L in corpus:
        dec = heisenberg_decompose(L)
        rows, z = dec.basis_change.data, 2 * dec.m
        assert Subspace.span(L.dim, rows[z + 1 :]) == exterior._split_factor(L)[2], name
        assert Subspace.span(L.dim, rows[z : z + 1]) == L.derived_subalgebra(), name
