"""Recognition of nilpotent algebras with a one-dimensional derived
subalgebra.

Any such algebra is isomorphic to H(m) + A(k) for exactly one pair
(m, k): writing [x, y] = f(x, y) z for the derived generator z gives an
alternating bilinear form f whose radical is the center, a symplectic
Gram-Schmidt pass over f yields the (n - dim Z(L)) / 2 Heisenberg pairs,
and what is left over is the abelian part.
The decomposition returns an explicit change of basis and re-checks it
from the Gram products of the new basis, so a returned witness is
always certified.  ``heisenberg_decompose``, gate and certificate, is
kept per algebra instance by ``lie._once``, like every other invariant
of a ``LieAlgebra``, not in a cache shared between equal algebras as
the exterior squares are (``lie`` says why).  ``_once`` stores no
failure, so a rejection is raised again on every call.
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


def _projected(i: int, dg: int, g: Sequence[Sequence[int]], pairs: list[tuple[_Row, _Row]]) -> _Row:
    """The working vector of the pass that started from e_i: e_i projected
    onto the f-complement of the pairs found so far, in lowest terms.

    The pairs are f-orthonormal, so the projection steps of the pairs add
    up to one closed form, e_i + sum_j [f(e_i, a_j) b_j - f(e_i, b_j) a_j],
    with f(e_i, y) = (g[i] . y) / (dg dy) for y = y / dy: 2 dot products
    and at most 2 row updates per pair, over one common denominator.
    """
    d = dg * lcm(*(da * db for (_, da), (_, db) in pairs))
    x = [0] * len(g)
    x[i] = d
    for (a, da), (b, db) in pairs:
        q = d // (dg * da * db)
        s, t = q * _dot(g[i], a), q * _dot(g[i], b)
        if s:
            x = [y + s * w for y, w in zip(x, b)]
        if t:
            x = [y - t * w for y, w in zip(x, a)]
    dx, (x,) = _lowest(d, [x])
    return x, dx


def _symplectic_basis(dg: int, g: Sequence[Sequence[int]], m: int) -> list[tuple[_Row, _Row]]:
    """Symplectic Gram-Schmidt over Q on the form with Gram matrix g / dg,
    for int rows g over a positive denominator dg, stopping after m pairs.

    Returns hyperbolic pairs (a_i, b_i) with f(a_i, b_i) = 1 and
    f-orthogonal to each other, each vector an int row over its own
    positive denominator: at most m of them, and exactly m when the form
    has rank 2m, as it has when m is half of n - dim Z(L).  Pair
    selection is deterministic: each round takes the first working
    vector a and its first partner among the later working vectors.  A
    vector with no partner is in the radical of the form; the
    projections leave it as it is, so it never pairs and leaves the pass
    at once: the certificate takes the abelian part from the center.
    This is the lexicographically first pairing (a, b) of the working
    vectors, since every vector before that a pairs with nothing.

    The working list holds only the indices i of the unit vectors e_i.
    Each round builds the full working vector (``_projected``) of just
    the indices it looks at: the first one, a, and its partner.  Every x
    the pass evaluates f(x, v) at is f-orthogonal to the pairs found so
    far, and v - e_i is a combination of them, so f(x, v) = x . G e_i
    exactly: one O(n) int dot product with a column of g, and the other
    working vectors are never built.  So the pass does O(m^2 n) row work,
    and a vector that pairs comes out in lowest terms.
    """
    n = len(g)
    columns = [[row[i] for row in g] for i in range(n)]
    working = list(range(n))
    pairs: list[tuple[_Row, _Row]] = []
    while working and len(pairs) < m:
        a, da = _projected(working[0], dg, g, pairs)
        bi = next((t for t in range(1, len(working)) if _dot(a, columns[working[t]])), None)
        if bi is None:
            # a is in the radical: no projection moves it, so it never pairs
            working = working[1:]
            continue
        v, dv = _projected(working[bi], dg, g, pairs)
        c = _dot(a, columns[working[bi]])  # f(a, v) = c / (da dg)
        # b = v da dg / (dv c), so that f(a, b) = 1
        db, (b,) = _lowest(dv * c, [[y * da * dg for y in v]])
        pairs.append(((a, da), (b, db)))
        working = working[1:bi] + working[bi + 1 :]
    return pairs


@_once
def heisenberg_decompose(algebra: LieAlgebra) -> Decomposition:
    """Certified decomposition L = H(m) + A(k) for nilpotent L with a
    one-dimensional derived subalgebra.

    Abelian input raises AbelianAlgebraError (there is no H(0));
    dim [L, L] >= 2 is outside the scope of this routine and raises
    ValueError.  The gate and the certificate run once per algebra
    instance until they succeed: the decomposition is kept in the
    algebra's own memo and returned again by later calls, while a
    rejection or a failed certification is raised afresh each time.

    The radical of the form is Z(L), so the pass is told to stop after
    (n - dim Z(L)) / 2 pairs, read off the center before it runs.  A
    wrong count cannot give a wrong answer: one too small leaves the
    abelian factor short of the k it implies, and one too large runs the
    pass out of partners, which gives the same pairs.

    The certificate reads the Gram products (``LieAlgebra._gram_products``)
    of the basis p_0..p_{n-1} = a_1..a_m, b_1..b_m, z, then the abelian
    factor.  Every bracket is certified f(x, y) z as the Gram matrix is
    read, and z is the basis vector p_2m, so the rewritten constants are
    [p_i, p_j] = f(p_i, p_j) p_2m: they are those of H(m) + A(k) exactly
    when, for i < j, f(p_i, p_j) is 1 at (i, m + i) with i < m and 0
    elsewhere: the nonzero Gram products are those m.  Then the pairs
    are independent modulo everything else (pair a combination with b_i
    and a_i), so the basis is invertible exactly when z and the abelian
    rows are independent, which holds as they are picked: the abelian
    rows are the RREF rows of the center that enlarge span{z}, taken by
    one elimination that starts from z.
    """
    algebra.require_valid()
    derived = algebra.derived_subalgebra()
    if derived.dim == 0:
        raise AbelianAlgebraError("abelian algebra: nothing to decompose")
    if derived.dim >= 2:
        raise ValueError("decomposition requires dim [L, L] = 1")
    if not algebra.is_nilpotent():
        raise ValueError("decomposition requires a nilpotent algebra")
    dg, g = _gram(algebra)
    center = algebra.center()
    n = algebra.dim
    # stop the pass at the rank of the form, n - dim Z(L)
    pairs = _symplectic_basis(dg, g, (n - center.dim) // 2)
    m = len(pairs)
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
