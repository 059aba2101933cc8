"""Closed-form Schur multiplier dimensions for the classified families;
``classified_multiplier`` reads the family from ``capability.classify``."""

from __future__ import annotations

from typing import NamedTuple

from .capability import classify
from .lie import LieAlgebra


def abelian_multiplier_dim(n: int) -> int:
    """dim M(A(n)) = n(n-1)/2."""
    if n < 0:
        raise ValueError("negative dimension")
    return n * (n - 1) // 2


def heisenberg_multiplier_dim(m: int) -> int:
    """dim M(H(1)) = 2; dim M(H(m)) = 2m^2 - m - 1 for m >= 2."""
    if m < 1:
        raise ValueError("Heisenberg algebras need m >= 1")
    return 2 if m == 1 else 2 * m * m - m - 1


def heisenberg_exterior_square_dim(m: int) -> int:
    """dim(H(1) ^ H(1)) = 3; dim(H(m) ^ H(m)) = 2m^2 - m for m >= 2."""
    if m < 1:
        raise ValueError("Heisenberg algebras need m >= 1")
    return 3 if m == 1 else 2 * m * m - m


def direct_sum_multiplier_dim(dim_m1: int, dim_m2: int, ab1: int, ab2: int) -> int:
    """dim M(L1 + L2) from the summands: dim M(L1) + dim M(L2) plus the
    product of the abelianization dimensions dim(L1/L1') * dim(L2/L2')."""
    return dim_m1 + dim_m2 + ab1 * ab2


class MultiplierReport(NamedTuple):
    description: str
    dim_multiplier: int
    dim_exterior_square: int
    method: str


def classified_multiplier(algebra: LieAlgebra) -> MultiplierReport:
    """Closed-form multiplier dimension for the family ``classify`` finds.

    An unclassified algebra (dim [L, L] >= 2, or not nilpotent) has no
    closed form here and raises ValueError; use the constructive path
    instead.
    """
    verdict = classify(algebra)
    if verdict.family == "unclassified":
        raise ValueError(f"no closed form: {verdict.reasons[0]}")
    if verdict.family == "abelian":
        dim_m = abelian_multiplier_dim(verdict.n)
        return MultiplierReport(f"A({verdict.n})", dim_m, dim_m, "closed-form")
    m, k = verdict.m, verdict.k
    dim_m = direct_sum_multiplier_dim(
        heisenberg_multiplier_dim(m),
        abelian_multiplier_dim(k),
        2 * m,
        k,
    )
    # dim(L ^ L) = dim M(L) + dim [L, L] for any finite-dimensional L
    return MultiplierReport(f"H({m})+A({k})", dim_m, dim_m + 1, "closed-form")
