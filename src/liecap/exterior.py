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

The quotient is taken with canonical coordinates (non-pivot columns of
the relation RREF), which makes all reported bases and projections
deterministic.  Every construction self-checks that d2 o d3 = 0 by
checking that d2 factors through the quotient: the commutator map,
composed with the projection, must give back d2 at every pivot column
of the relation RREF.  That holds exactly when d2 kills each reduced
relation row, and those rows are a basis of im d3.  Since
d2(d3(e_i ^ e_j ^ e_k)) is the Jacobiator of the triple, which
``LieAlgebra.validate`` has already checked, a failure signals a
defect, and raises.  The check runs on ints: on the projection rows of
``linalg._projection_rows`` over their one common denominator, and on
d2 over the algebra's.

``exterior_square`` builds L ^ L for the algebra as given.  The
dimensions, the multiplier and the exterior center are taken instead
through the canonical split L = L1 + A(k) off an abelian direct factor
(``LieAlgebra._abelian_split``): only L1 ^ L1 is built, in a basis that
lists [L, L] first, and A enters through the Kunneth terms

  (L1 + A) ^ (L1 + A)  =  L1 ^ L1  +  L1/[L1, L1] (x) A  +  Lambda^2 A.

The split reads only the center and [L, L], never a decomposition.
This module never consults the closed-form tables; it is the
independent witness the formulas are checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import (
    Matrix,
    SpanBuilder,
    Subspace,
    Vector,
    _kernel_from_builder,
    _normalize_int,
    _over_common_denominator,
    _projection_matrix,
    _projection_rows,
    vector,
)
from .lie import LieAlgebra


class ConstructionError(RuntimeError):
    """Internal consistency check failed while building an exterior square."""


@dataclass(frozen=True)
class ExteriorSquare:
    """The exterior square of an algebra of dimension ``dim`` in
    canonical quotient coordinates.  It holds nothing else of the
    algebra: the cache in ``exterior_square`` hands one instance to
    every equal algebra, whatever its labels.

    ``projection`` maps the C(n,2) coordinates of Lambda^2 L (basis
    e_i ^ e_j, i < j, in lexicographic order) onto the quotient;
    ``commutator_map`` maps quotient coordinates to coordinates in the
    derived subalgebra (it is surjective by construction).
    ``projection_ints`` is the projection times the common denominator
    of ``linalg._projection_rows``.
    """

    dim: int
    ambient_dim: int
    relation_rank: int
    quotient_dim: int
    projection: Matrix
    commutator_map: Matrix
    derived: Subspace
    projection_ints: tuple[tuple[int, ...], ...]

    def wedge(self, x, y) -> Vector:
        """Class of x ^ y in quotient coordinates."""
        n = self.dim
        xv = vector(x)
        yv = vector(y)
        if len(xv) != n or len(yv) != n:
            raise ValueError("vector length does not match algebra dimension")
        coords = [xv[i] * yv[j] - xv[j] * yv[i] for i, j in itertools.combinations(range(n), 2)]
        return self.projection.mul_vec(coords)

    def commutator(self, w) -> Vector:
        """Image of a quotient vector under the commutator map, given in
        coordinates of the derived subalgebra's basis."""
        return self.commutator_map.mul_vec(w)

    def multiplier_dim(self) -> int:
        return self.quotient_dim - self.derived.dim


def _wedge_index(n: int, i: int, j: int) -> int:
    """Position of e_i ^ e_j (i < j) in the lexicographic basis of Lambda^2 L."""
    return i * (2 * n - i - 1) // 2 + j - i - 1


def _wedge_maps(square: ExteriorSquare) -> list[list[list[int]]]:
    """The matrices of x -> x ^ e_j on ints, read off
    ``projection_ints``: ``maps[j][s][i]`` is D times coordinate s of the
    class of e_i ^ e_j for the projection's common denominator D, which
    is the column of e_i ^ e_j for i < j, the negated column of e_j ^ e_i
    for i > j and zero for i = j."""
    n = square.dim
    maps = [[[0] * n for _ in square.projection_ints] for _ in range(n)]
    for col, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        for s, row in enumerate(square.projection_ints):
            maps[j][s][i], maps[i][s][j] = row[col], -row[col]
    return maps


def _d3_rows(n: int, table: dict[tuple[int, int], list[int]]) -> list[list[int]]:
    """d3(e_i ^ e_j ^ e_k) for every i < j < k, as normalized integer rows
    in the lexicographic Lambda^2 basis, from the integer bracket table
    ``LieAlgebra._rows``; zero rows are dropped."""
    # wedge_with[k]: (l, column of e_l ^ e_k, sign) for every l != k
    wedge_with = [
        [(l, _wedge_index(n, min(l, k), max(l, k)), 1 if l < k else -1) for l in range(n) if l != k]
        for k in range(n)
    ]
    rows: list[list[int]] = []
    for i, j, k in itertools.combinations(range(n), 3):
        # [e_i,e_j] ^ e_k + [e_j,e_k] ^ e_i + [e_k,e_i] ^ e_j, with [e_k,e_i] = -[e_i,e_k]
        terms = ((table.get((i, j)), k, 1), (table.get((j, k)), i, 1), (table.get((i, k)), j, -1))
        if all(c is None for c, _, _ in terms):
            continue
        dense = [0] * (n * (n - 1) // 2)
        for c, last, sign in terms:
            if c is not None:
                for l, col, s in wedge_with[last]:
                    v = c[l]
                    if v:
                        dense[col] += sign * s * v
        row = _normalize_int(dense)
        if row is not None:
            rows.append(row)
    return rows


# Bounded so that a long-lived caller does not keep every algebra it ever
# asked about alive; verify-paper uses 31 distinct algebras.
_SQUARE_CACHE_SIZE = 256


@lru_cache(maxsize=_SQUARE_CACHE_SIZE)
def exterior_square(algebra: LieAlgebra) -> ExteriorSquare:
    """Build L ^ L with its commutator map.  Cached per algebra, for the
    most recently used ``_SQUARE_CACHE_SIZE`` algebras."""
    algebra.require_valid()
    n = algebra.dim
    table = algebra._rows
    pairs = list(itertools.combinations(range(n), 2))
    sb = SpanBuilder(len(pairs))
    for row in _d3_rows(n, table):
        sb.add_int_row(row)
    section, d, rows = _projection_rows(sb)

    # d2: e_a ^ e_b -> [e_a, e_b] in the coordinates of the RREF basis
    # of [L, L], which the algebra certifies as it reads them off; alpha
    # holds them times the algebra's denominator, on ints
    derived = algebra.derived_subalgebra()
    alpha = algebra._derived_coordinates().alpha
    zero = [0] * derived.dim
    d2 = [alpha.get(pair, zero) for pair in pairs]
    on_section = [d2[q] for q in section]
    # d2 o d3 = 0 exactly when d2 factors through the projection: on a
    # section column it does by construction, and at a relation pivot p
    # it does exactly when d2 kills the reduced relation row led by p:
    # sum_s d2[q_s] rows[s][p] = d d2[p] for the section columns q_s
    for p in sb.pivot_cols():
        if any(sum(a[t] * row[p] for a, row in zip(on_section, rows)) != d * x for t, x in enumerate(d2[p])):
            raise ConstructionError("relation vector survives the commutator map")
    commutator_map = Matrix(
        derived.dim,
        len(section),
        tuple(tuple(Fraction(a[t], algebra._den) for a in on_section) for t in range(derived.dim)),
    )
    if commutator_map.rank() != derived.dim:
        raise ConstructionError("commutator map is not surjective onto [L, L]")

    return ExteriorSquare(
        dim=n,
        ambient_dim=len(pairs),
        relation_rank=sb.rank,
        quotient_dim=len(section),
        projection=_projection_matrix(len(pairs), d, rows),
        commutator_map=commutator_map,
        derived=derived,
        projection_ints=tuple(map(tuple, rows)),
    )


@lru_cache(maxsize=_SQUARE_CACHE_SIZE)
def _split_factor(algebra: LieAlgebra) -> tuple[LieAlgebra, int, int]:
    """``(L1, m, k)`` for the canonical split L = L1 + A(k) of a valid
    algebra, with m = dim [L, L] = dim [L1, L1].  L1 is written in the
    first dim - k vectors of the split basis, from one change of basis.
    Cached per algebra, like ``exterior_square``.

    The rewritten table must be block diagonal, with every bracket in the
    first m coordinates: then L1 is closed under the bracket and A is
    central, and since the basis is invertible and [L, L] is spanned by
    those m vectors, A meets [L, L] in 0.  Raises ConstructionError
    otherwise."""
    algebra.require_valid()
    split = algebra._abelian_split()
    m, k = algebra.derived_subalgebra().dim, len(split.factor)
    n1 = algebra.dim - k
    rewritten = algebra.change_basis(split.basis)
    for (_, j), c in rewritten._rows.items():
        if j >= n1 or any(c[m:]):
            raise ConstructionError("the split basis does not split off a central direct factor")
    return rewritten._leading_block(n1), m, k


def exterior_square_dim(algebra: LieAlgebra) -> int:
    """dim(L ^ L) = dim(L1 ^ L1) + k dim(L1/[L1, L1]) + k(k - 1)/2, from
    the Kunneth terms of the split L = L1 + A(k)."""
    factor, m, k = _split_factor(algebra)
    return exterior_square(factor).quotient_dim + k * (factor.dim - m) + k * (k - 1) // 2


def multiplier_dim(algebra: LieAlgebra) -> int:
    """dim M(L) = dim(L ^ L) - dim [L, L]."""
    return exterior_square_dim(algebra) - algebra.derived_subalgebra().dim


@lru_cache(maxsize=_SQUARE_CACHE_SIZE)
def _square_center(algebra: LieAlgebra) -> Subspace:
    """{x : x ^ y = 0 for every y} in L ^ L: the kernel of the stacked
    maps x -> x ^ e_j, eliminated on ints and taken through
    ``linalg._kernel_from_builder``.  Cached per algebra, like
    ``exterior_square``."""
    square = exterior_square(algebra)
    sb = SpanBuilder(square.dim)
    for rows in _wedge_maps(square):
        for row in rows:
            sb.add_int_row(row)
    return _kernel_from_builder(sb)


def exterior_center(algebra: LieAlgebra) -> Subspace:
    """{x in L : x ^ y = 0 in L ^ L for every y}; the algebra is capable
    exactly when this is zero.

    Computed through the split L = L1 + A(k).  By the Kunneth terms,
    x1 + a (x1 in L1, a in A) lies in Z^(L) exactly when x1 lies in
    Z^(L1), and in [L1, L1] if k >= 1 and L1 is not perfect, and a = 0
    unless k = 1 and L1 is perfect.  Z^(L1) lies in Z(L1), which lies in
    [L, L] because A takes in every central direction outside [L, L]: so
    the second condition always holds, and Z^(L1) vanishes past the
    first m coordinates, which is checked instead of intersecting."""
    factor, m, k = _split_factor(algebra)
    # the first m split basis vectors are the RREF basis of [L, L]
    to_original = algebra.derived_subalgebra().basis.transpose()
    rows = []
    for x in _square_center(factor).basis.data:
        if any(x[m:]):
            raise ConstructionError("the exterior center of L1 leaves [L, L]")
        rows.append(to_original.mul_vec(x[:m]))
    if k == 1 and m == factor.dim:
        rows.extend(algebra._abelian_split().factor)
    return Subspace.span(algebra.dim, rows)


def is_capable(algebra: LieAlgebra) -> bool:
    return exterior_center(algebra).is_zero()


def _require_central_ideal(algebra: LieAlgebra, ideal: Subspace) -> None:
    if not algebra.is_central_ideal(ideal):
        raise ValueError("subspace is not a central ideal")


def quotient_exterior_dim(algebra: LieAlgebra, ideal: Subspace) -> int:
    """dim((L/N) ^ (L/N)) for a central ideal N."""
    _require_central_ideal(algebra, ideal)
    quotient, _ = algebra.quotient(ideal)
    return exterior_square_dim(quotient)


def ideal_wedge_image(algebra: LieAlgebra, ideal: Subspace) -> Subspace:
    """Image of L ^ N inside L ^ L, for a central ideal N."""
    _require_central_ideal(algebra, ideal)
    square = exterior_square(algebra)
    _, ints = _over_common_denominator(ideal.basis.data)
    sb = SpanBuilder(square.quotient_dim)
    for rows in _wedge_maps(square):
        for u in ints:
            # D d times the class of u ^ e_j, for u's denominator d
            sb.add_int_row([sum(x * c for x, c in zip(row, u)) for row in rows])
    return sb.subspace()


def ideal_in_exterior_center(algebra: LieAlgebra, ideal: Subspace) -> bool:
    """Decide N <= Z^(L) for a central ideal N without computing Z^(L):
    N sits inside the exterior center exactly when passing to L/N does
    not change the exterior square dimension."""
    _require_central_ideal(algebra, ideal)
    return exterior_square_dim(algebra) == quotient_exterior_dim(algebra, ideal)
