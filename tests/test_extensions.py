"""Properties of the exterior square on nilpotent algebras drawn by
iterated central extension (``conftest.central_extensions``).  Unlike
the catalog, whose members are nearly all 2-step nilpotent with
dim [L, L] <= 1, the draws reach nilpotency class 5, so ``d3`` and the
split are exercised on deep algebras."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from conftest import central_extensions, core_projection, full_width_projection, invariants
from liecap.exterior import (
    exterior_center,
    exterior_square,
    exterior_square_dim,
    ideal_in_exterior_center,
    multiplier_dim,
)
from liecap.linalg import Subspace


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(central_extensions())
def test_exterior_square_properties_on_central_extensions(pair):
    algebra, scrambled = pair
    assert algebra.validate() is None
    assert algebra.is_nilpotent()
    n, m = algebra.dim, algebra.derived_subalgebra().dim
    center, exterior = algebra.center(), exterior_center(algebra)
    # Z^(L) lies in Z(L)
    assert center.contains_subspace(exterior)
    # Niroomand-Russo: dim M(L) <= (n + m - 2)(n - m - 1)/2 + 1 for m >= 1
    if m >= 1:
        assert 2 * multiplier_dim(algebra) <= (n + m - 2) * (n - m - 1) + 2
    # the split L = L1 + A(k) against the full construction of L ^ L
    assert exterior_square_dim(algebra) == exterior_square(algebra).quotient_dim
    # the re-indexed core, which may stop early, against the full width
    for each in pair:
        assert core_projection(each) == full_width_projection(each)
    # the collapse criterion against membership in Z^(L)
    for x in center.basis.data:
        assert ideal_in_exterior_center(algebra, Subspace.span(n, [x])) == exterior.contains(x)
    assert invariants(scrambled) == invariants(algebra)
