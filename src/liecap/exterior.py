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
deterministic.

One shared construction, ``exterior_square``, holds L ^ L on ints:
the section columns, the projection of ``linalg._projection_rows`` over
its one common denominator, stored by columns, and d2 on the section.
Its projection and commutator map are ``Matrix._from_ints`` matrices of
those int fields, whose ``Fraction``s are made only when they are read.
The relation rows are sparse, and the elimination sees only
the columns some row touches, re-indexed in order; every untouched
column is a section column.  It stops feeding rows once the rank equals
the number of touched columns, since the span is then the whole
coordinate subspace on them.  In H(m) every nonzero row lies in the 2m
columns that pair z with another basis vector, so the stop comes
early: after 24 of the 60 nonzero rows of canonical H(6), and on the
factor L1 of the split, which lists [L, L] first, after 56 of 220 rows
for scramble(H(6), 3) and 37 of 120 for scramble(H(5) + A(2), 3).

The construction self-checks that d2 o d3 = 0 by checking that d2
factors through the quotient: the commutator map, composed with the
projection, must give back d2 at every pivot column of the relation
RREF.  That holds exactly when d2 kills each reduced relation row, and
those rows are a basis of im d3.  Since d2(d3(e_i ^ e_j ^ e_k)) is the
Jacobiator of the triple, which ``LieAlgebra.validate`` has already
checked, a failure signals a defect, and raises.  It also checks that
the commutator map is onto [L, L], by the rank of its int rows.  Both
checks run on ints, on the projection columns over their denominator
and on d2 over the algebra's.  The dimensions, the exterior center and
``ideal_wedge_image`` read the int fields; the class of u ^ e_j comes
from ``_wedge_class``.

``exterior_square`` builds L ^ L for the algebra as given.  The
dimensions, the multiplier and the exterior center are taken instead
through the canonical split L = L1 + A(k) off an abelian direct factor,
which ``_split_factor`` alone builds: only L1 ^ L1 is built, in a basis
that lists the RREF basis of [L, L] first, so that L1 is read off the
Gram products of that basis (``LieAlgebra._gram_products``) with no
solve, and A enters through the Kunneth terms

  (L1 + A) ^ (L1 + A)  =  L1 ^ L1  +  L1/[L1, L1] (x) A  +  Lambda^2 A.

The split reads only the center and [L, L], never a decomposition.
This module never consults the closed-form tables; it is the
independent witness the formulas are checked against.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import lcm
from typing import Iterable

from .linalg import (
    Matrix,
    SpanBuilder,
    Subspace,
    Vector,
    _kernel,
    _projection_rows,
    _Record,
    vector,
)
from .lie import LieAlgebra, _shared


class ConstructionError(RuntimeError):
    """Internal consistency check failed while building an exterior square."""


class ExteriorSquare(_Record):
    """The exterior square of an algebra of dimension ``dim`` in
    canonical quotient coordinates, held on ints.  It holds nothing else
    of the algebra: ``exterior_square`` hands one instance to every equal
    algebra while one of them is alive, whatever its labels.

    ``section`` lists the section columns of Lambda^2 L (basis e_i ^ e_j,
    i < j, in lexicographic order), one per quotient coordinate.
    ``columns[c]`` lists ``(s, x)`` for every nonzero x = d times
    coordinate s of the class of the basis wedge in column c.
    ``on_section[s]`` is the commutator of the basis wedge in column
    ``section[s]`` in the coordinates of ``derived``, times ``den``.

    ``projection`` maps the C(n,2) coordinates of Lambda^2 L onto the
    quotient; ``commutator_map`` maps quotient coordinates to coordinates
    in the derived subalgebra (it is surjective by construction).  Both
    are built once per square by ``Matrix._from_ints`` from the int
    fields, so their ``Fraction`` entries are made only when read.
    """

    _fields = ("dim", "section", "d", "columns", "on_section", "den", "derived")

    @property
    def ambient_dim(self) -> int:
        return self.dim * (self.dim - 1) // 2

    @property
    def quotient_dim(self) -> int:
        return len(self.section)

    @property
    def relation_rank(self) -> int:
        return self.ambient_dim - self.quotient_dim

    @cached_property
    def projection(self) -> Matrix:
        rows = [[0] * self.ambient_dim for _ in self.section]
        for c, column in enumerate(self.columns):
            for s, x in column:
                rows[s][c] = x
        return Matrix._from_ints(self.ambient_dim, self.d, rows)

    @cached_property
    def commutator_map(self) -> Matrix:
        return Matrix._from_ints(self.quotient_dim, self.den, list(zip(*self.on_section)))

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


def _column(n: int, i: int, j: int) -> int:
    """Column of e_i ^ e_j (i < j) in the lexicographic basis of Lambda^2 L."""
    return i * (2 * n - i - 1) // 2 + j - i - 1


def _d3_rows(n: int, table: dict[tuple[int, int], list[int]]) -> list[dict[int, int]]:
    """d3(e_i ^ e_j ^ e_k) for every i < j < k, as sparse integer rows
    ``{column: entry}`` in the lexicographic Lambda^2 basis, from the
    integer bracket table ``LieAlgebra._rows``; zero rows are dropped."""
    support = {key: [(l, v) for l, v in enumerate(c) if v] for key, c in table.items()}
    rows: list[dict[int, int]] = []
    for i, j, k in itertools.combinations(range(n), 3):
        # [e_i,e_j] ^ e_k + [e_j,e_k] ^ e_i + [e_k,e_i] ^ e_j, with [e_k,e_i] = -[e_i,e_k]
        terms = ((support.get((i, j)), k, 1), (support.get((j, k)), i, 1), (support.get((i, k)), j, -1))
        row: dict[int, int] = {}
        for c, last, sign in terms:
            for l, v in c or ():
                if l < last:
                    col = _column(n, l, last)
                    row[col] = row.get(col, 0) + sign * v
                elif l > last:
                    col = _column(n, last, l)
                    row[col] = row.get(col, 0) - sign * v
        row = {col: v for col, v in row.items() if v}
        if row:
            rows.append(row)
    return rows


def _relation_projection(
    ncols: int, relations: list[dict[int, int]]
) -> tuple[tuple[int, ...], int, tuple[tuple[tuple[int, int], ...], ...], tuple[int, ...]]:
    """``(section, d, columns, pivots)`` for the span of the sparse
    ``relations`` in Q^ncols: the section columns, the projection of
    ``linalg._projection_rows`` over its one denominator d by columns, as
    in ``ExteriorSquare.columns``, and the pivot columns.

    Only the columns that some relation touches are eliminated,
    re-indexed in order, so the reduced rows are the full-width ones; an
    untouched column q is a section column whose row is d e_q.  Rows stop
    being fed once the rank equals the number of touched columns: the
    span is then the whole coordinate subspace on them, which holds every
    remaining row."""
    touched = sorted({c for row in relations for c in row})
    sb = SpanBuilder(len(touched))
    for row in relations:
        sb.add_int_row([row.get(c, 0) for c in touched])
        if sb.rank == len(touched):
            break
    local, d, local_rows = _projection_rows(len(touched), *sb._reduced_rows())
    pivots = tuple(touched[x] for x in sb.pivot_cols())
    pivot_set = set(pivots)
    section = tuple(q for q in range(ncols) if q not in pivot_set)
    reduced = {touched[x]: row for x, row in zip(local, local_rows)}
    columns: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for s, q in enumerate(section):
        if q in reduced:
            for x, v in enumerate(reduced[q]):
                if v:
                    columns[touched[x]].append((s, v))
        else:
            columns[q].append((s, d))
    return section, d, tuple(map(tuple, columns)), pivots


@_shared
def exterior_square(algebra: LieAlgebra) -> ExteriorSquare:
    """Build L ^ L with its commutator map, self-checked.  Shared by
    ``lie._shared`` between equal algebras while one of them is alive."""
    algebra.require_valid()
    n = algebra.dim
    pairs = list(itertools.combinations(range(n), 2))
    section, d, columns, pivots = _relation_projection(len(pairs), _d3_rows(n, algebra._rows))

    # d2: e_a ^ e_b -> [e_a, e_b] in the coordinates of the RREF basis
    # of [L, L], which the algebra certifies as it reads them off; the
    # forms hold them times the algebra's denominator, on ints
    derived, forms = algebra._derived_coordinates()
    on_section = tuple(tuple(g[a][b] for g in forms) for a, b in (pairs[q] for q in section))
    # d2 o d3 = 0 exactly when d2 factors through the projection: on a
    # section column it does by construction, and at a relation pivot p
    # it does exactly when d2 kills the reduced relation row led by p:
    # sum of x d2[q_s] over (s, x) in columns[p] = d d2[p], for the
    # section columns q_s
    for p in pivots:
        a, b = pairs[p]
        if any(sum(on_section[s][t] * x for s, x in columns[p]) != d * g[a][b] for t, g in enumerate(forms)):
            raise ConstructionError("relation vector survives the commutator map")
    image = SpanBuilder(len(section))
    for t in range(derived.dim):
        image.add_int_row([a[t] for a in on_section])
    if image.rank != derived.dim:
        raise ConstructionError("commutator map is not surjective onto [L, L]")
    return ExteriorSquare(n, section, d, columns, on_section, algebra._den, derived)


def _wedge_class(square: ExteriorSquare, u: Iterable[tuple[int, int]], j: int) -> dict[int, int]:
    """d times the class of u ^ e_j, for the int vector u given by its
    ``(index, entry)`` pairs, as a sparse ``{coordinate: entry}`` dict."""
    n = square.dim
    out: dict[int, int] = {}
    for i, x in u:
        if x and i != j:
            c, x = (_column(n, i, j), x) if i < j else (_column(n, j, i), -x)
            for s, y in square.columns[c]:
                out[s] = out.get(s, 0) + x * y
    return out


@_shared
def _split_factor(algebra: LieAlgebra) -> tuple[LieAlgebra, Subspace, Subspace]:
    """``(L1, [L, L], A)`` for the canonical split L = L1 + A of a valid
    algebra, with m = dim [L, L] = dim [L1, L1] and k = dim A.  Shared
    like ``exterior_square``, so the entry points read [L, L] and A from
    here, not from the instance they were given; the value holds L1,
    so L1's own shared results live as long as the entry.

    A is the span of the RREF rows of the center that enlarge the span
    of [L, L], so A is central and meets [L, L] in 0.  The split basis
    b_i / den, int rows over one common denominator, lists the RREF
    basis z_1..z_m of [L, L], then the unit vectors at the non-pivot
    columns of the RREF of [L, L] + A, which complete it to a complement
    of A, and then the rows of A; it is invertible by construction.  L1
    is written in its first n1 = dim - k vectors f_i = b_i / den, read
    off their Gram products (``LieAlgebra._gram_products``) with no
    solve: f_r = z_r, so the product of f_i and f_j, which is d den^2
    times the coordinates of [f_i, f_j] on the z_r, for the algebra's
    denominator d, gives its first m coordinates in the split basis,
    and the rest are 0.  No product may involve a vector of A, or L1
    would not be closed under the bracket and A would not be central:
    raises ConstructionError then."""
    algebra.require_valid()
    n = algebra.dim
    derived = algebra.derived_subalgebra()
    center = algebra.center()
    sb = SpanBuilder(n)
    for z in derived._rows:
        sb.add_int_row(list(z))
    factor = [row for row in center._rows if sb.add_int_row(list(row))]
    pivots = set(sb.pivot_cols())
    den = lcm(derived._den, center._den)
    sd, sc = den // derived._den, den // center._den
    basis = [[sd * x for x in z] for z in derived._rows]
    basis += [[den * (t == i) for t in range(n)] for i in range(n) if i not in pivots]
    basis += [[sc * x for x in a] for a in factor]
    m, n1 = derived.dim, n - len(factor)
    products = algebra._gram_products(basis)
    if any(j >= n1 for _, j in products):
        raise ConstructionError("the split basis does not split off a central direct factor")
    table = {key: w + [0] * (n1 - m) for key, w in products.items()}
    a = Subspace._from_rref_ints(n, center._den, factor)
    return LieAlgebra._from_int_rows(n1, algebra._den * den**2, table), derived, a


def exterior_square_dim(algebra: LieAlgebra) -> int:
    """dim(L ^ L) = dim(L1 ^ L1) + k dim(L1/[L1, L1]) + k(k - 1)/2, from
    the Kunneth terms of the split L = L1 + A(k)."""
    factor, derived, a = _split_factor(algebra)
    k = a.dim
    return exterior_square(factor).quotient_dim + k * (factor.dim - derived.dim) + k * (k - 1) // 2


def multiplier_dim(algebra: LieAlgebra) -> int:
    """dim M(L) = dim(L ^ L) - dim [L, L]."""
    return exterior_square_dim(algebra) - _split_factor(algebra)[1].dim


@_shared
def _square_center(algebra: LieAlgebra) -> Subspace:
    """{x : x ^ y = 0 for every y} in L ^ L.  Shared like
    ``exterior_square``.

    Such an x is central, since [x, y] is the commutator of x ^ y, so
    x = sum_t c_t w_t over the int rows w_t of ``center()``, and only the
    c_t are solved for: the kernel of the stacked maps
    c -> (sum_t c_t w_t) ^ e_j, eliminated once on ints by
    ``linalg._kernel``.  Its RREF rows, mapped through the center's RREF
    basis, are already the RREF of Z^ (``Subspace._image``)."""
    square = exterior_square(algebra)
    n = square.dim
    center = algebra.center()
    c = center.dim
    rows = []
    for j in range(n):
        # equations[s][t]: d D times coordinate s of the class of w_t ^ e_j
        equations: dict[int, list[int]] = {}
        for t, w in enumerate(center._rows):
            for s, x in _wedge_class(square, enumerate(w), j).items():
                if x:
                    equations.setdefault(s, [0] * c)[t] = x
        rows += equations.values()
    kernel = _kernel(c, rows)
    return center._image(kernel._den, kernel._rows)


def exterior_center(algebra: LieAlgebra) -> Subspace:
    """{x in L : x ^ y = 0 in L ^ L for every y}; the algebra is capable
    exactly when this is zero.

    Computed through the split L = L1 + A(k).  By the Kunneth terms,
    x1 + a (x1 in L1, a in A) lies in Z^(L) exactly when x1 lies in
    Z^(L1), and in [L1, L1] if k >= 1 and L1 is not perfect, and a = 0
    unless k = 1 and L1 is perfect.  Z^(L1) lies in Z(L1), which lies in
    [L, L] because A takes in every central direction outside [L, L]: so
    the second condition always holds, and Z^(L1) vanishes past the
    first m coordinates, which is checked instead of intersecting.

    The first m split basis vectors are the RREF basis of [L, L], so the
    RREF rows of Z^(L1) are RREF coordinate rows on that basis, and Z^(L)
    is read off them (``Subspace._image``) without eliminating again.
    Only when k = 1 and L1 is perfect is A spanned in with it."""
    factor, derived, a = _split_factor(algebra)
    m = derived.dim
    center = _square_center(factor)
    if any(any(x[m:]) for x in center._rows):
        raise ConstructionError("the exterior center of L1 leaves [L, L]")
    image = derived._image(center._den, center._rows)
    if a.dim == 1 and m == factor.dim:
        return Subspace.span(algebra.dim, image.basis.data + a.basis.data)
    return image


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
    sb = SpanBuilder(square.quotient_dim)
    for j in range(algebra.dim):
        for u in ideal._rows:
            # d D times the class of u ^ e_j, for u's denominator D
            row = [0] * square.quotient_dim
            for s, x in _wedge_class(square, enumerate(u), j).items():
                row[s] = x
            sb.add_int_row(row)
    return sb.subspace()


def ideal_in_exterior_center(algebra: LieAlgebra, ideal: Subspace) -> bool:
    """Decide N <= Z^(L) for a central ideal N without computing Z^(L):
    N sits inside the exterior center exactly when passing to L/N does
    not change the exterior square dimension."""
    _require_central_ideal(algebra, ideal)
    return exterior_square_dim(algebra) == quotient_exterior_dim(algebra, ideal)
