"""Recognition of nilpotent algebras with a one-dimensional derived
subalgebra.

Any such algebra is isomorphic to H(m) + A(k) for exactly one pair
(m, k): writing [x, y] = f(x, y) z for the derived generator z gives an
alternating bilinear form f, a symplectic Gram-Schmidt pass over f
yields the Heisenberg pairs, and what is left over is the abelian part.
The decomposition returns an explicit change of basis and re-checks it,
so a returned witness is always certified.  It is kept per algebra
instance by ``lie._once``, like every other invariant of a
``LieAlgebra``, not in a cache shared between equal algebras as the
exterior squares are (``lie`` says why).
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .linalg import Matrix, SpanBuilder, Subspace, _projection_matrix
from .lie import LieAlgebra, _once, abelian, direct_sum, heisenberg


class AbelianAlgebraError(ValueError):
    """Raised for abelian input: there is no Heisenberg block to extract."""


class DecompositionCheckError(RuntimeError):
    """The assembled basis failed re-verification; indicates a defect."""


# an int row and its positive denominator: the vector row / den
_Row = tuple[list[int], int]


class Decomposition(NamedTuple):
    """Certified isomorphism L = H(m) + A(k).

    ``basis_change`` rows are the new basis in original coordinates,
    ordered a_1..a_m, b_1..b_m, z, then the abelian part; rewriting the
    algebra in this basis reproduces the canonical structure constants
    bit for bit (verified at construction time).
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
    mutate it.
    """
    # each bracket is certified a multiple of z as its coordinate is read
    coords = algebra._derived_coordinates()
    # z must be central or the structure constants are inconsistent
    if any(b[0] for b in coords.beta[0].values()):
        raise DecompositionCheckError("derived generator is not central")
    return algebra._den, coords.forms[0]


def _symplectic_basis(dg: int, g: Sequence[Sequence[int]]) -> tuple[list[tuple[_Row, _Row]], Subspace]:
    """Symplectic Gram-Schmidt over Q on the form with Gram matrix g / dg,
    for int rows g over a positive denominator dg.

    Returns hyperbolic pairs (a_i, b_i) with f(a_i, b_i) = 1 and
    f-orthogonal to each other, each vector an int row over its own
    positive denominator, plus the radical of the form.  Pair selection
    is deterministic: vectors are scanned in ascending index order and
    the first nonzero pairing wins.

    Each working vector v keeps the Gram column G e_i of the unit vector
    e_i it started from.  v - e_i is a combination of the pairs found so
    far, and every x the pass evaluates f(x, v) at is f-orthogonal to
    those pairs, so f(x, v) = x . G e_i exactly: one O(n) dot product,
    with a column that never needs updating.  The pass runs on ints: each
    working vector is an int row over its own denominator, so every
    pairing is an int dot product of it with a column of g.
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
        for t, (x, dx, gx) in enumerate(working):
            if t in (ai, bi):
                continue
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
            rest.append((*_lowest(x, dx), gx))
        # b = v da dg / (dv c), so that f(a, b) = 1
        pairs.append(((a, da), _lowest([y * da * dg for y in v], dv * c)))
        working = rest
    sb = SpanBuilder(n)
    for x, _, _ in working:
        sb.add_int_row(list(x))
    radical = sb.subspace()
    if 2 * len(pairs) + radical.dim != n:
        raise DecompositionCheckError("symplectic reduction lost rank")
    return pairs, radical


def _lowest(x: list[int], dx: int) -> _Row:
    """The vector x / dx as ``(row, den)`` in lowest terms, den > 0."""
    k = gcd(dx, *x)
    if dx < 0:
        k = -k
    return [y // k for y in x], dx // k


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(mul, x, y))


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
    pairs, _ = _symplectic_basis(*_gram(algebra))
    derived = algebra.derived_subalgebra()
    m = len(pairs)
    n = algebra.dim
    k = n - 2 * m - 1

    # the radical of the form is Z(L), so the complement of span{z} inside
    # it is the abelian factor of the canonical split L = L1 + A
    factor = algebra._abelian_split().factor
    if factor.dim != k:
        raise DecompositionCheckError("the abelian factor does not complete the Heisenberg pairs")

    vectors = [p[0] for p in pairs] + [p[1] for p in pairs] + [(derived._rows[0], derived._den)]
    vectors += [(row, factor._den) for row in factor._rows]
    dp = lcm(*(d for _, d in vectors))
    rows = [[x * (dp // d) for x in row] for row, d in vectors]

    # certify: the rewritten algebra must match the canonical constants
    if algebra._change_basis(dp, rows) != direct_sum(heisenberg(m), abelian(k)):
        raise DecompositionCheckError("rewritten constants do not match H(m) + A(k)")
    return Decomposition(m, k, _projection_matrix(n, dp, rows))
