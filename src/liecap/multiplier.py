"""The paper's closed-form Schur multiplier dimensions.

These are plain functions of the family parameters.  The family table of
``capability`` reads them for its closed forms, and ``verify-paper``
checks each of them against the construction as the paper's claims.
"""

from __future__ import annotations


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
