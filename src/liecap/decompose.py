"""Recognition of nilpotent algebras with a one-dimensional derived
subalgebra.

Any such algebra is isomorphic to H(m) + A(k) for exactly one pair
(m, k): writing [x, y] = f(x, y) z for the derived generator z gives an
alternating bilinear form f, a symplectic Gram-Schmidt pass over f
yields the Heisenberg pairs, and what is left over is the abelian part.
The decomposition returns an explicit change of basis and re-checks it
from the Gram products of the new basis, so a returned witness is
always certified.  It is kept per algebra instance by ``lie._once``,
like every other invariant of a ``LieAlgebra``, not in a cache shared
between equal algebras as the exterior squares are (``lie`` says why).
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple, Sequence

from .linalg import Matrix, SpanBuilder, _combine, _dot, _lowest
from .lie import LieAlgebra, _once


class AbelianAlgebraError(ValueError):
    """Raised for abelian input: there is no Heisenberg block to extract."""


class DecompositionCheckError(RuntimeError):
    """The assembled basis failed re-verification; indicates a defect."""


# an int row and its positive denominator: the vector row / den
_Row = tuple[Sequence[int], int]


class Decomposition(NamedTuple):
    """Certified isomorphism L = H(m) + A(k).

    ``basis_change`` rows are the new basis in original coordinates,
    ordered a_1..a_m, b_1..b_m, z, then the abelian part; rewriting the
    algebra in this basis reproduces the canonical structure constants
    bit for bit (verified at construction time).  The certificate builds
    it with ``Matrix._from_ints`` from its int rows, so its ``Fraction``
    entries are made only when it is read.
    """

    m: int
    k: int
    basis_change: Matrix


def _gram(algebra: LieAlgebra) -> tuple[int, list[list[int]]]:
    """``(d, g)``: the Gram matrix g / d of the form f with
    [x, y] = f(x, y) z, as int rows over the algebra's denominator d.

    Runs behind the gate of heisenberg_decompose (a valid nilpotent
    algebra with dim [L, L] = 1); z is the RREF basis vector of the
    derived line, which makes f canonical.  g is the one form of the
    algebra's certified [L, L] coordinates (see
    ``lie._DerivedCoordinates``), shared with the algebra: nothing may
    mutate it.  z is checked central through the one bracket kernel: the
    combination of the rows of g at the int row D z, d D [z, e_b] for
    every b, must be zero.
    """
    # each bracket is certified a multiple of z as its coordinate is read
    derived, (g,) = algebra._derived_coordinates()
    # z must be central or the structure constants are inconsistent
    if any(_combine(derived._rows[0], g, algebra.dim)):
        raise DecompositionCheckError("derived generator is not central")
    return algebra._den, g


def _symplectic_basis(dg: int, g: Sequence[Sequence[int]]) -> list[tuple[_Row, _Row]]:
    """Symplectic Gram-Schmidt over Q on the form with Gram matrix g / dg,
    for int rows g over a positive denominator dg.

    Returns hyperbolic pairs (a_i, b_i) with f(a_i, b_i) = 1 and
    f-orthogonal to each other, each vector an int row over its own
    positive denominator.  The vectors left over span the radical of
    the form and are dropped: the certificate takes the abelian part
    from the center.  Pair selection is deterministic:
    vectors are scanned in ascending index order and the first nonzero
    pairing wins.

    Each working vector v keeps the Gram column G e_i of the unit vector
    e_i it started from.  v - e_i is a combination of the pairs found so
    far, and every x the pass evaluates f(x, v) at is f-orthogonal to
    those pairs, so f(x, v) = x . G e_i exactly: one O(n) dot product,
    with a column that never needs updating.  The pass runs on ints: each
    working vector is an int row over its own denominator, in lowest
    terms, so every pairing is an int dot product of it with a column of
    g.  A vector that neither projection step moves stays as it is.
    """
    n = len(g)
    columns = [[row[i] for row in g] for i in range(n)]
    # (x, dx, gx): the vector x / dx and the Gram column dg G e_i it keeps
    working = [([int(t == i) for t in range(n)], 1, columns[i]) for i in range(n)]
    pairs: list[tuple[_Row, _Row]] = []
    while True:
        hit = None
        for ai in range(len(working)):
            for bi in range(ai + 1, len(working)):
                if _dot(working[ai][0], working[bi][2]):
                    hit = (ai, bi)
                    break
            if hit:
                break
        if hit is None:
            break
        ai, bi = hit
        a, da, ga = working[ai]
        v, dv, gv = working[bi]
        c = _dot(a, gv)  # f(a, v) = c / (da dg)
        rest = []
        for t, item in enumerate(working):
            if t in (ai, bi):
                continue
            x, dx, gx = item
            # project x onto the f-complement of the pair (a, b), b = v / f(a, v):
            # first x + f(x, a) b, with f(x, a) = (x . ga) / (dx dg) ...
            s = _dot(x, ga)
            if s:
                x = [y * dv * c + s * da * w for y, w in zip(x, v)]
                dx *= dv * c
            # ... then x - f(x, b) a, with f(x, b) = (x . gv) da / (dx c)
            s = _dot(x, gv)
            if s:
                x = [y * c - s * w for y, w in zip(x, a)]
                dx *= c
            if x is not item[0]:
                dx, (x,) = _lowest(dx, [x])
            rest.append((x, dx, gx))
        # b = v da dg / (dv c), so that f(a, b) = 1
        db, (b,) = _lowest(dv * c, [[y * da * dg for y in v]])
        pairs.append(((a, da), (b, db)))
        working = rest
    return pairs


def heisenberg_decompose(algebra: LieAlgebra) -> Decomposition:
    """Certified decomposition L = H(m) + A(k) for nilpotent L with a
    one-dimensional derived subalgebra.

    Abelian input raises AbelianAlgebraError (there is no H(0));
    dim [L, L] >= 2 is outside the scope of this routine and raises
    ValueError.  The gate runs on every call; behind it the certified
    decomposition is computed once per algebra instance, in the
    algebra's own memo, and returned again by later calls.  A rejection
    or a failed certification is raised afresh each time.
    """
    algebra.require_valid()
    derived_dim = algebra.derived_subalgebra().dim
    if derived_dim == 0:
        raise AbelianAlgebraError("abelian algebra: nothing to decompose")
    if derived_dim >= 2:
        raise ValueError("decomposition requires dim [L, L] = 1")
    if not algebra.is_nilpotent():
        raise ValueError("decomposition requires a nilpotent algebra")
    return _certified_decomposition(algebra)


@_once
def _certified_decomposition(algebra: LieAlgebra) -> Decomposition:
    """The decomposition of a gated algebra, certified from the Gram
    products (``LieAlgebra._gram_products``) of its basis
    p_0..p_{n-1} = a_1..a_m, b_1..b_m, z, then the abelian factor.

    Every bracket is certified f(x, y) z as the Gram matrix is read, and
    z is the basis vector p_2m, so the rewritten constants are
    [p_i, p_j] = f(p_i, p_j) p_2m: they are those of H(m) + A(k) exactly
    when, for i < j, f(p_i, p_j) is 1 at (i, m + i) with i < m and 0
    elsewhere: the nonzero Gram products are those m.  Then the pairs
    are independent modulo everything else (pair a combination with b_i
    and a_i), so the basis is invertible exactly when z and the abelian
    rows are independent, which holds as they are picked: the abelian
    rows are the RREF rows of the center that enlarge span{z}, taken by
    one elimination that starts from z."""
    dg, g = _gram(algebra)
    pairs = _symplectic_basis(dg, g)
    derived = algebra.derived_subalgebra()
    center = algebra.center()
    m = len(pairs)
    n = algebra.dim
    k = n - 2 * m - 1

    # the radical of the form is Z(L), so the center rows that enlarge
    # span{z} complete the pairs and z to a basis
    sb = SpanBuilder(n)
    sb.add_int_row(list(derived._rows[0]))
    abelian = [row for row in center._rows if sb.add_int_row(list(row))]
    if len(abelian) != k:
        raise DecompositionCheckError("the abelian factor does not complete the Heisenberg pairs")

    vectors = [p[0] for p in pairs] + [p[1] for p in pairs] + [(derived._rows[0], derived._den)]
    vectors += [(row, center._den) for row in abelian]

    # certify: the Gram product of p_i = x_i / d_i and p_j is d_i d_j dg f(p_i, p_j)
    expected = {(i, m + i): [vectors[i][1] * vectors[m + i][1] * dg] for i in range(m)}
    if algebra._gram_products([x for x, _ in vectors]) != expected:
        raise DecompositionCheckError("rewritten constants do not match H(m) + A(k)")

    dp = lcm(*(d for _, d in vectors))
    return Decomposition(m, k, Matrix._from_ints(n, dp, [[x * (dp // d) for x in row] for row, d in vectors]))
