"""Constructive non-abelian exterior squares.

For an n-dimensional algebra L the exterior square L ^ L is realized,
following Ellis (JPAA 46, 1987), as the cokernel of the Chevalley-
Eilenberg boundary d3: Lambda^3 L -> Lambda^2 L,

  L ^ L  =  Lambda^2 L / im d3,
  d3(x ^ y ^ z)  =  [x,y] ^ z  +  [y,z] ^ x  +  [z,x] ^ y,

with one relation row d3(e_i ^ e_j ^ e_k) per basis triple i < j < k,
written in the lexicographic basis e_i ^ e_j (i < j) of Lambda^2 L, and
a bracket inside a slot expanded through the structure constants.  The
commutator map d2 sends the class of e_i ^ e_j to [e_i, e_j]; the
multiplier M(L) = H_2(L) = ker d2 / im d3 is its kernel, so

  dim M(L) = dim(L ^ L) - dim [L, L].

Every construction self-checks that d2 o d3 = 0, that is, each relation
row dies under e_i ^ e_j -> [e_i, e_j] (this is the Jacobi identity, so
a failure signals a defect, and raises).  The quotient is taken with
canonical coordinates (non-pivot columns of the relation RREF), which
makes all reported bases and projections deterministic.

This module never consults the closed-form tables; it is the
independent witness the formulas are checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .linalg import (
    Matrix,
    SpanBuilder,
    Subspace,
    Vector,
    _normalize_int,
    _quotient_from_builder,
    kernel_basis,
    vector,
    zero_vector,
)
from .lie import LieAlgebra


class ConstructionError(RuntimeError):
    """Internal consistency check failed while building an exterior square."""


@dataclass(frozen=True)
class ExteriorSquare:
    """The exterior square of ``source`` in canonical quotient coordinates.

    ``projection`` maps the C(n,2) coordinates of Lambda^2 L (basis
    e_i ^ e_j, i < j, in lexicographic order) onto the quotient;
    ``commutator_map`` maps quotient coordinates to coordinates in the
    derived subalgebra (it is surjective by construction).
    """

    source: LieAlgebra
    ambient_dim: int
    relation_rank: int
    quotient_dim: int
    projection: Matrix
    commutator_map: Matrix
    derived: Subspace

    def wedge(self, x, y) -> Vector:
        """Class of x ^ y in quotient coordinates."""
        n = self.source.dim
        xv = vector(x)
        yv = vector(y)
        if len(xv) != n or len(yv) != n:
            raise ValueError("vector length does not match algebra dimension")
        coords = [xv[i] * yv[j] - xv[j] * yv[i] for i, j in itertools.combinations(range(n), 2)]
        return self.projection.mul_vec(coords)

    def basis_wedge(self, i: int, j: int) -> Vector:
        """Class of e_i ^ e_j: a column of the projection, negated when
        i > j, and zero when i = j."""
        n = self.source.dim
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("basis index out of range")
        return _wedge_column(self.projection, n, i, j)

    def commutator(self, w) -> Vector:
        """Image of a quotient vector under the commutator map, given in
        coordinates of the derived subalgebra's basis."""
        return self.commutator_map.mul_vec(w)

    def multiplier_dim(self) -> int:
        return self.quotient_dim - self.derived.dim


def _integer_brackets(algebra: LieAlgebra) -> list[list[list[int]]]:
    """All basis brackets scaled by one common denominator.

    A uniform scaling multiplies every relation row by the same nonzero
    constant, so spans are unchanged and the hot loops can stay on int.
    """
    n = algebra.dim
    den = 1
    for c in algebra.brackets.values():
        for x in c:
            d = x.denominator
            if d != 1:
                den = den * d // math.gcd(den, d)
    out = []
    for i in range(n):
        out.append(
            [
                [x.numerator * (den // x.denominator) for x in algebra.bracket_basis(i, j)]
                for j in range(n)
            ]
        )
    return out


def _wedge_index(n: int, i: int, j: int) -> int:
    """Position of e_i ^ e_j (i < j) in the lexicographic basis of Lambda^2 L."""
    return i * (2 * n - i - 1) // 2 + j - i - 1


def _wedge_column(projection: Matrix, n: int, i: int, j: int) -> Vector:
    """Class of e_i ^ e_j under ``projection``: its column for i < j,
    the negated column of e_j ^ e_i for i > j, zero for i = j."""
    if i == j:
        return zero_vector(projection.rows)
    if i < j:
        return projection.column(_wedge_index(n, i, j))
    # the projection is sparse: leave its zeros as they are
    return tuple(-x if x else x for x in projection.column(_wedge_index(n, j, i)))


def _d3_rows(ibr: list[list[list[int]]]) -> list[list[int]]:
    """d3(e_i ^ e_j ^ e_k) for every i < j < k, as normalized integer rows
    in the lexicographic Lambda^2 basis; zero rows are dropped."""
    n = len(ibr)
    # wedge_with[k]: (l, column of e_l ^ e_k, sign) for every l != k
    wedge_with = [
        [(l, _wedge_index(n, min(l, k), max(l, k)), 1 if l < k else -1) for l in range(n) if l != k]
        for k in range(n)
    ]
    rows: list[list[int]] = []
    for i, j, k in itertools.combinations(range(n), 3):
        dense = [0] * (n * (n - 1) // 2)
        # [e_i,e_j] ^ e_k + [e_j,e_k] ^ e_i + [e_k,e_i] ^ e_j
        for c, last in ((ibr[i][j], k), (ibr[j][k], i), (ibr[k][i], j)):
            for l, col, sign in wedge_with[last]:
                v = c[l]
                if v:
                    dense[col] += sign * v
        row = _normalize_int(dense)
        if row is not None:
            rows.append(row)
    return rows


def _check_d2_kills(ibr: list[list[list[int]]], rows: list[list[int]]) -> None:
    """Self-check d2 o d3 = 0: every relation row must vanish under the
    commutator map e_i ^ e_j -> [e_i, e_j].  A failure means the
    construction (or the input constants) is defective."""
    n = len(ibr)
    brackets = [ibr[i][j] for i, j in itertools.combinations(range(n), 2)]
    for row in rows:
        image = [0] * n
        for val, c in zip(row, brackets):
            if val:
                for t, x in enumerate(c):
                    if x:
                        image[t] += val * x
        if any(image):
            raise ConstructionError("relation vector survives the commutator map")


# Bounded so that a long-lived caller does not keep every algebra it ever
# asked about alive; verify-paper uses 31 distinct algebras.
_SQUARE_CACHE_SIZE = 256


@lru_cache(maxsize=_SQUARE_CACHE_SIZE)
def exterior_square(algebra: LieAlgebra) -> ExteriorSquare:
    """Build L ^ L with its commutator map.  Cached per algebra, for the
    most recently used ``_SQUARE_CACHE_SIZE`` algebras."""
    algebra.require_valid()
    n = algebra.dim
    ibr = _integer_brackets(algebra)
    rows = _d3_rows(ibr)
    _check_d2_kills(ibr, rows)

    pairs = list(itertools.combinations(range(n), 2))
    sb = SpanBuilder(len(pairs))
    for row in rows:
        sb.add_int_row(row)
    quotient = _quotient_from_builder(sb)

    derived = algebra.derived_subalgebra()
    columns: list[Vector] = []
    for col in quotient.section_cols:
        coords = derived.coordinates(algebra.bracket_basis(*pairs[col]))
        if coords is None:
            raise ConstructionError("basis bracket escapes the derived subalgebra")
        columns.append(coords)
    commutator_map = Matrix.from_rows(
        [[c[t] for c in columns] for t in range(derived.dim)],
        cols=quotient.dim,
    )
    if commutator_map.rank() != derived.dim:
        raise ConstructionError("commutator map is not surjective onto [L, L]")

    return ExteriorSquare(
        source=algebra,
        ambient_dim=len(pairs),
        relation_rank=sb.rank,
        quotient_dim=quotient.dim,
        projection=quotient.projection,
        commutator_map=commutator_map,
        derived=derived,
    )


def exterior_square_dim(algebra: LieAlgebra) -> int:
    return exterior_square(algebra).quotient_dim


def multiplier_dim(algebra: LieAlgebra) -> int:
    """dim M(L), constructed as dim ker of the commutator map."""
    return exterior_square(algebra).multiplier_dim()


def exterior_center(algebra: LieAlgebra) -> Subspace:
    """{x in L : x ^ y = 0 in L ^ L for every y}.

    Computed as the kernel of the stacked maps x -> x ^ e_j; the algebra
    is capable exactly when this is zero."""
    ext = exterior_square(algebra)
    n = algebra.dim
    rows: list[Vector] = []
    for j in range(n):
        # the rows of x -> x ^ e_j; column i is the class of e_i ^ e_j
        rows.extend(zip(*(_wedge_column(ext.projection, n, i, j) for i in range(n))))
    if not rows:
        return Subspace.full(n)
    return kernel_basis(Matrix.from_rows(rows, cols=n))


def is_capable(algebra: LieAlgebra) -> bool:
    return exterior_center(algebra).is_zero()


def _require_central_ideal(algebra: LieAlgebra, ideal: Subspace) -> None:
    if not algebra.is_central_ideal(ideal):
        raise ValueError("subspace is not a central ideal")


def quotient_exterior_dim(algebra: LieAlgebra, ideal: Subspace) -> int:
    """dim((L/N) ^ (L/N)) for a central ideal N."""
    _require_central_ideal(algebra, ideal)
    quotient, _ = algebra.quotient(ideal)
    return exterior_square(quotient).quotient_dim


def ideal_wedge_image(algebra: LieAlgebra, ideal: Subspace) -> Subspace:
    """Image of L ^ N inside L ^ L, for a central ideal N."""
    _require_central_ideal(algebra, ideal)
    ext = exterior_square(algebra)
    n = algebra.dim
    sb = SpanBuilder(ext.quotient_dim)
    for i in range(n):
        for u in ideal.basis.data:
            w = zero_vector(ext.quotient_dim)
            for j, c in enumerate(u):
                if c:
                    col = ext.basis_wedge(i, j)
                    w = tuple(a + c * b for a, b in zip(w, col))
            sb.add(w)
    return sb.subspace()


def ideal_in_exterior_center(algebra: LieAlgebra, ideal: Subspace) -> bool:
    """Decide N <= Z^(L) for a central ideal N without computing Z^(L):
    N sits inside the exterior center exactly when passing to L/N does
    not change the exterior square dimension."""
    _require_central_ideal(algebra, ideal)
    return exterior_square(algebra).quotient_dim == quotient_exterior_dim(algebra, ideal)
