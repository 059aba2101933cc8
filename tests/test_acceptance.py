"""Acceptance gate: the twelve checks the package must pass, one test
per criterion, each printing a single pass/fail line."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from liecap.capability import decide_capability
from liecap.decompose import heisenberg_decompose
from liecap.exterior import (
    _d3_rows,
    exterior_center,
    exterior_square,
    exterior_square_dim,
    ideal_wedge_image,
    multiplier_dim,
    quotient_exterior_dim,
)
from liecap.lie import LieAlgebra, abelian, direct_sum, heisenberg, scramble
from liecap.linalg import Subspace, vec_add, zero_vector
from liecap.multiplier import direct_sum_multiplier_dim


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_abelian_multipliers():
    t0 = time.perf_counter()
    got = {n: multiplier_dim(abelian(n)) for n in range(1, 8)}
    elapsed = time.perf_counter() - t0
    expected = {n: n * (n - 1) // 2 for n in range(1, 8)}
    ok = got == expected and elapsed < 5.0
    _report(1, ok, f"dim M(A(n)), n=1..7: {sorted(got.values())} in {elapsed:.2f}s (< 5s)")
    assert got == expected
    assert elapsed < 5.0


def test_criterion_02_heisenberg_multipliers():
    t0 = time.perf_counter()
    got = {m: multiplier_dim(heisenberg(m)) for m in (1, 2, 3)}
    elapsed = time.perf_counter() - t0
    expected = {1: 2, 2: 5, 3: 14}
    ok = got == expected and elapsed < 10.0
    _report(2, ok, f"dim M(H(m)), m=1..3: {got} in {elapsed:.2f}s (< 10s)")
    assert got == expected
    assert elapsed < 10.0


def test_criterion_03_heisenberg_exterior_squares():
    got = {m: exterior_square_dim(heisenberg(m)) for m in (1, 2, 3)}
    expected = {1: 3, 2: 6, 3: 15}
    ok = got == expected
    _report(3, ok, f"dim(H(m)^H(m)), m=1..3: {got}")
    assert got == expected


def test_criterion_04_direct_sum_formula():
    parts = {
        "A(1)": abelian(1),
        "A(2)": abelian(2),
        "A(3)": abelian(3),
        "H(1)": heisenberg(1),
        "H(2)": heisenberg(2),
    }
    t0 = time.perf_counter()
    checked = 0
    for (name1, L1), (name2, L2) in combinations_with_replacement(parts.items(), 2):
        total = multiplier_dim(direct_sum(L1, L2))
        expected = direct_sum_multiplier_dim(
            multiplier_dim(L1),
            multiplier_dim(L2),
            L1.dim - L1.derived_subalgebra().dim,
            L2.dim - L2.derived_subalgebra().dim,
        )
        assert total == expected, (name1, name2, total, expected)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 15 and elapsed < 30.0
    _report(4, ok, f"dim M(L1+L2) matches the formula on {checked} pairs in {elapsed:.2f}s (< 30s)")
    assert checked == 15
    assert elapsed < 30.0


def test_criterion_05_worked_direct_sum_example():
    got = multiplier_dim(direct_sum(heisenberg(1), abelian(1)))
    ok = got == 4
    _report(5, ok, f"dim M(H(1)+A(1)) = {got} = 2 + 0 + 2")
    assert got == 4


def test_criterion_06_capability_verdicts():
    expected: dict[str, bool] = {"A(1)": False, "H(1)": True, "H(2)": False, "H(3)": False}
    algebras = {
        "A(1)": abelian(1),
        "H(1)": heisenberg(1),
        "H(2)": heisenberg(2),
        "H(3)": heisenberg(3),
    }
    for n in range(2, 7):
        expected[f"A({n})"] = True
        algebras[f"A({n})"] = abelian(n)
    for m in (1, 2, 3):
        for k in (1, 2, 3):
            expected[f"H({m})+A({k})"] = m == 1
            algebras[f"H({m})+A({k})"] = direct_sum(heisenberg(m), abelian(k))
    mismatches = []
    for name, algebra in algebras.items():
        verdict = decide_capability(algebra, mode="both")
        if verdict.capable != expected[name] or verdict.oracle_agreement is not True:
            mismatches.append(name)
    ok = not mismatches and len(algebras) == 18
    _report(6, ok, f"both methods agree on all {len(algebras)} verdicts" if ok else f"mismatches: {mismatches}")
    assert len(algebras) == 18
    assert not mismatches


def test_criterion_07_exterior_center_identities():
    for n in range(2, 7):
        assert exterior_center(abelian(n)).is_zero(), n
    assert exterior_center(heisenberg(1)).is_zero()
    equalities = []
    for m in (2, 3):
        L = heisenberg(m)
        equalities.append(exterior_center(L) == L.derived_subalgebra())
    ok = all(equalities)
    _report(7, ok, "Z^(A(n)) = 0 for n=2..6, Z^(H(1)) = 0, Z^(H(m)) = [H(m),H(m)] for m=2,3")
    assert all(equalities)


def test_criterion_08_collapse_identity_on_catalog(frozen_catalog):
    checked = 0
    for name, algebra in frozen_catalog:
        zc = exterior_center(algebra)
        assert algebra.is_central_ideal(zc), name
        assert exterior_square_dim(algebra) == quotient_exterior_dim(algebra, zc), name
        checked += 1
    ok = checked == len(frozen_catalog)
    _report(8, ok, f"dim(L^L) survives collapsing Z^(L) on all {checked} catalog algebras")
    assert checked == len(frozen_catalog)


def _random_central_ideal(algebra, rng):
    center = algebra.center()
    if center.is_zero():
        return Subspace.zero(algebra.dim)
    while True:
        picks = []
        for _ in range(rng.randint(1, center.dim)):
            combo = zero_vector(algebra.dim)
            for row in center.basis.data:
                c = Fraction(rng.randint(-2, 2))
                combo = vec_add(combo, tuple(c * x for x in row))
            picks.append(combo)
        ideal = Subspace.span(algebra.dim, picks)
        if not ideal.is_zero():
            return ideal


def test_criterion_09_central_collapse_exactness(frozen_catalog):
    rng = random.Random(90_210)
    members = rng.sample(frozen_catalog, 20)
    checked = 0
    for name, algebra in members:
        ideal = _random_central_ideal(algebra, rng)
        total = exterior_square_dim(algebra)
        image = ideal_wedge_image(algebra, ideal).dim
        rest = quotient_exterior_dim(algebra, ideal)
        assert total == image + rest, (name, total, image, rest)
        checked += 1
    ok = checked == 20
    _report(9, ok, f"dim(L^L) = dim im(L^N) + dim((L/N)^(L/N)) on {checked} random central ideals")
    assert checked == 20


def test_criterion_10_decomposition_round_trip():
    t0 = time.perf_counter()
    trips = 0
    for m in (1, 2, 3):
        for k in (0, 1, 2, 3):
            canonical = direct_sum(heisenberg(m), abelian(k))
            expected = dict(canonical.brackets)
            for s in range(25):
                scrambled = scramble(canonical, 61_000 + 1000 * m + 100 * k + s)
                dec = heisenberg_decompose(scrambled)
                assert (dec.m, dec.k) == (m, k), (m, k, s)
                rewritten = scrambled.change_basis(dec.basis_change)
                assert dict(rewritten.brackets) == expected, (m, k, s)
                trips += 1
    elapsed = time.perf_counter() - t0
    ok = trips == 300 and elapsed < 60.0
    _report(10, ok, f"{trips} scrambled decompositions recover (m, k) and canonical constants in {elapsed:.2f}s (< 60s)")
    assert trips == 300
    assert elapsed < 60.0


def _invariants(algebra):
    return (
        algebra.derived_subalgebra().dim,
        algebra.center().dim,
        exterior_square_dim(algebra),
        multiplier_dim(algebra),
        exterior_center(algebra).dim,
        decide_capability(algebra, mode="both").capable,
    )


def test_criterion_11_basis_invariance(frozen_catalog):
    checked = 0
    for idx, (name, algebra) in enumerate(frozen_catalog):
        base = _invariants(algebra)
        for s in range(10):
            copy = scramble(algebra, 40_000 + 10 * idx + s)
            assert _invariants(copy) == base, (name, s)
            checked += 1
    ok = checked == 10 * len(frozen_catalog)
    _report(11, ok, f"six invariants unchanged under {checked} random changes of basis")
    assert checked == 10 * len(frozen_catalog)


def test_criterion_12_commutator_self_check(frozen_catalog):
    # the construction aborts unless d2 o d3 = 0, that is, unless every
    # relation d3(e_i ^ e_j ^ e_k) dies under e_a ^ e_b -> [e_a, e_b];
    # re-run that accumulation here, independently.  Every catalog member
    # is 2-step nilpotent, where d2 kills all of [L, L] ^ L whatever d3
    # does, so two deeper algebras are added
    filiform = LieAlgebra(4, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)})
    sl2 = LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)})
    corpus = frozen_catalog + [("filiform(4) scrambled", scramble(filiform, 1)), ("sl2", sl2)]
    checked = 0
    for name, algebra in corpus:
        exterior_square(algebra)  # internal gate must not raise
        n = algebra.dim
        _, table, _ = algebra._integer_table()
        pairs = list(combinations(range(n), 2))
        for row in _d3_rows(n, table):
            assert len(row) == len(pairs), name
            image = [0] * n
            for col, val in enumerate(row):
                if val:
                    for t, x in enumerate(table.get(pairs[col], ())):
                        if x:
                            image[t] += val * x
            assert not any(image), name
        checked += 1
    ok = checked == len(corpus)
    _report(12, ok, f"every relation dies under the commutator map on all {checked} constructions")
    assert checked == len(corpus)
