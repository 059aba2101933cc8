"""Capability verdicts: closed form, constructive oracle and their
cross-check, plus the frozen corpus."""

from __future__ import annotations

import pytest

from liecap import capability
from liecap.capability import (
    ClassVerdict,
    MultiplierReport,
    catalog,
    classified_multiplier,
    classify,
    decide_capability,
)
from liecap.cli import build_report
from liecap.decompose import heisenberg_decompose
from liecap.lie import LieAlgebra, abelian, direct_sum, heisenberg, scramble


def test_classify_abelian():
    v = classify(abelian(0))
    assert (v.family, v.n, v.capable) == ("abelian", 0, True)
    v = classify(abelian(1))
    assert (v.family, v.n, v.capable) == ("abelian", 1, False)
    v = classify(abelian(5))
    assert (v.family, v.n, v.capable) == ("abelian", 5, True)


def test_results_are_immutable_and_hashable():
    algebra = direct_sum(heisenberg(2), abelian(1))
    verdict = classify(algebra)
    for value, field in (
        (verdict, "capable"),
        (heisenberg_decompose(algebra), "m"),
        (classified_multiplier(algebra), "dim_multiplier"),
    ):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        again = type(value)(*value)
        assert again == value and hash(again) == hash(value)
    assert verdict._replace(capable=True).capable and verdict.capable is False


def test_classify_heisenberg_sum():
    v = classify(heisenberg(1))
    assert (v.family, v.m, v.k, v.capable) == ("heisenberg-sum", 1, 0, True)
    v = classify(scramble(direct_sum(heisenberg(2), abelian(3)), 42))
    assert (v.family, v.m, v.k, v.capable) == ("heisenberg-sum", 2, 3, False)


def test_classify_unclassified():
    v = classify(LieAlgebra(2, {(0, 1): (0, 1)}))  # solvable, not nilpotent
    assert v.family == "unclassified"
    assert v.capable is None
    v = classify(direct_sum(heisenberg(1), heisenberg(1)))
    assert v.family == "unclassified"
    assert v.capable is None


def test_family_record_is_read_back_by_every_reader(monkeypatch):
    # a toy family put first in the table takes the dim 4 algebras with
    # dim [L, L] = 1; classify, classified_multiplier and the formula
    # report read its verdict and closed forms from the record alone
    toy = capability._Family(
        "toy",
        1,
        lambda algebra: {"n": algebra.dim} if algebra.dim == 4 else None,
        lambda n: False,
        lambda n: 10 * n,
        lambda n: f"T({n})",
        lambda n: f"T({n}): a toy family",
    )
    monkeypatch.setattr(capability, "_FAMILIES", (toy, *capability._FAMILIES))
    L = scramble(direct_sum(heisenberg(1), abelian(1)), 8)
    assert classify(L) == ClassVerdict("toy", n=4, capable=False, reasons=("T(4): a toy family",))
    # dim(L ^ L) = dim M + dim [L, L]
    assert classified_multiplier(L) == MultiplierReport("T(4)", 40, 41, "closed-form")
    report = build_report(L, "toy", "formula")
    assert report["decomposition"] is None
    assert report["multiplier_dim"] == {"formula": 40, "oracle": None}
    assert report["exterior_square_dim"] == {"formula": 41, "oracle": None}
    assert report["capability"] == {
        "capable": False,
        "family": "toy",
        "parameters": {"n": 4},
        "method": "formula",
        "reasons": ["T(4): a toy family"],
        "oracle_agreement": None,
    }
    # an algebra the toy record does not take falls through to the next
    assert classify(heisenberg(2)).family == "heisenberg-sum"
    assert classify(abelian(4)).family == "abelian"


def test_decide_rejects_unknown_mode():
    with pytest.raises(ValueError):
        decide_capability(abelian(2), mode="guess")


def test_decide_oracle_mode_carries_parameters():
    v = decide_capability(heisenberg(2), mode="oracle")
    assert v.capable is False
    assert (v.m, v.k) == (2, 0)
    assert v.oracle_agreement is None


def test_decide_both_records_agreement():
    v = decide_capability(heisenberg(1), mode="both")
    assert v.capable is True
    assert v.oracle_agreement is True
    v = decide_capability(abelian(1), mode="both")
    assert v.capable is False
    assert v.oracle_agreement is True


def test_decide_both_on_unclassified_uses_construction():
    v = decide_capability(direct_sum(heisenberg(1), heisenberg(1)), mode="both")
    assert v.family == "unclassified"
    assert v.capable is not None
    assert v.oracle_agreement is None


def test_classify_mode_never_constructs():
    v = decide_capability(heisenberg(3), mode="classify")
    assert v.capable is False
    assert v.oracle_agreement is None


def test_decomposition_defect_is_not_relabelled(monkeypatch):
    # classify decides the family by value, so an error inside the
    # decomposition of a dim [L, L] = 1 algebra is a defect: it must not
    # become "unclassified" or a silent fall-back to the oracle verdict
    def broken(algebra):
        raise ValueError("matrix is singular")

    monkeypatch.setattr(capability, "heisenberg_decompose", broken)
    L = direct_sum(heisenberg(1), abelian(1))
    with pytest.raises(ValueError, match="matrix is singular"):
        classify(L)
    with pytest.raises(ValueError, match="matrix is singular"):
        classified_multiplier(L)
    with pytest.raises(ValueError, match="matrix is singular"):
        decide_capability(L, mode="both")


def test_catalog_shape(frozen_catalog):
    assert len(frozen_catalog) == 199
    names = [name for name, _ in frozen_catalog]
    assert names[0] == "A(1)"
    assert names[-1] == "H(1)+H(1)"
    assert names.count("H(2) scramble7") == 1
    assert len(set(names)) == len(names)


def test_catalog_deterministic(frozen_catalog):
    again = catalog()
    assert [name for name, _ in again] == [name for name, _ in frozen_catalog]
    assert all(a == b for (_, a), (_, b) in zip(again, frozen_catalog))


def test_catalog_members_are_lie_algebras(frozen_catalog):
    for name, algebra in frozen_catalog:
        assert algebra.validate() is None, name


def test_scrambles_keep_the_verdict(frozen_catalog):
    base = {name: classify(alg).capable for name, alg in frozen_catalog if "scramble" not in name}
    for name, algebra in frozen_catalog:
        if "scramble" in name:
            root = name.split(" scramble")[0]
            assert classify(algebra).capable == base[root], name
