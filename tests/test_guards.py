"""The argument guards of the public API: each rejects a bad argument
with the documented exception before any work is done."""

from __future__ import annotations

from fractions import Fraction

import pytest

from liecap.exterior import exterior_square
from liecap.lie import LieAlgebra, abelian, heisenberg
from liecap.linalg import Matrix, SpanBuilder, Subspace, frac, unit_vector
from liecap.multiplier import abelian_multiplier_dim, heisenberg_exterior_square_dim, heisenberg_multiplier_dim

H1 = heisenberg(1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: frac(0.5), TypeError, "not an exact rational"),
        (lambda: unit_vector(3, 3), ValueError, "out of range"),
        (lambda: SpanBuilder(-1), ValueError, "negative column count"),
        (lambda: Matrix(-1, 0, ()), ValueError, "negative matrix dimension"),
        (lambda: Matrix(2, 1, ((Fraction(1),),)), ValueError, "row count mismatch"),
        (lambda: Matrix(2, 2, ((Fraction(1), Fraction(0)), (Fraction(1),))), ValueError, "ragged"),
        (lambda: Matrix.from_rows([]), ValueError, "cols is required"),
        (lambda: Matrix.identity(2).mul_vec([1]), ValueError, "matrix columns"),
        (lambda: Matrix.from_rows([[1, 2]]).inverse(), ValueError, "square"),
        (lambda: Subspace(3, Matrix.identity(2)), ValueError, "basis width"),
        (lambda: Subspace.full(2).contains_subspace(Subspace.full(3)), ValueError, "ambient dimension"),
        (lambda: LieAlgebra(-1, {}), ValueError, "negative dimension"),
        (lambda: LieAlgebra(2, {}, labels=["x"]), ValueError, "label count"),
        (lambda: H1.bracket_basis(0, 3), ValueError, "out of range"),
        (lambda: H1.bracket([1, 0], [0, 1, 0]), ValueError, "vector length"),
        (lambda: abelian(-1), ValueError, "negative dimension"),
        (lambda: exterior_square(H1).wedge([1, 0, 0], [0, 1]), ValueError, "vector length"),
        (lambda: abelian_multiplier_dim(-1), ValueError, "negative dimension"),
        (lambda: heisenberg_multiplier_dim(0), ValueError, "m >= 1"),
        (lambda: heisenberg_exterior_square_dim(0), ValueError, "m >= 1"),
    ],
)
def test_public_argument_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_algebra_repr_counts_the_stored_brackets():
    assert repr(H1) == "<LieAlgebra dim=3 brackets=1>"
    assert repr(abelian(2)) == "<LieAlgebra dim=2 brackets=0>"
