"""Recognition of nilpotent algebras with a one-dimensional derived
subalgebra.

Any such algebra is isomorphic to H(m) + A(k) for exactly one pair
(m, k): writing [x, y] = f(x, y) z for the derived generator z gives an
alternating bilinear form f, a symplectic Gram-Schmidt pass over f
yields the Heisenberg pairs, and what is left over is the abelian part.
The decomposition returns an explicit change of basis and re-checks it,
so a returned witness is always certified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    Fraction,
    Matrix,
    SpanBuilder,
    Subspace,
    Vector,
    dot,
    unit_vector,
    vec_add,
    vec_scale,
    vec_sub,
)
from .lie import LieAlgebra, abelian, direct_sum, heisenberg


class AbelianAlgebraError(ValueError):
    """Raised for abelian input: there is no Heisenberg block to extract."""


class DecompositionCheckError(RuntimeError):
    """The assembled basis failed re-verification; indicates a defect."""


@dataclass(frozen=True)
class AlternatingForm:
    """An alternating bilinear form on Q^n held as its Gram matrix."""

    matrix: Matrix

    def __post_init__(self) -> None:
        m = self.matrix
        if m.rows != m.cols:
            raise ValueError("form matrix must be square")
        for i in range(m.rows):
            for j in range(m.rows):
                if m.data[i][j] != -m.data[j][i]:
                    raise ValueError("form matrix is not alternating")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def value(self, x, y) -> Fraction:
        return dot(x, self.matrix.mul_vec(y))


@dataclass(frozen=True)
class Decomposition:
    """Certified isomorphism L = H(m) + A(k).

    ``basis_change`` rows are the new basis in original coordinates,
    ordered a_1..a_m, b_1..b_m, z, then the abelian part; rewriting the
    algebra in this basis reproduces the canonical structure constants
    bit for bit (verified at construction time).
    """

    m: int
    k: int
    basis_change: Matrix


def induced_form(algebra: LieAlgebra) -> tuple[AlternatingForm, Vector]:
    """The form f with [x, y] = f(x, y) z, plus the generator z itself.

    Requires a valid nilpotent algebra with dim [L, L] = 1; z is the
    RREF basis vector of the derived line, which makes f canonical.
    """
    algebra.require_valid()
    if not algebra.is_nilpotent():
        raise ValueError("induced form is defined for nilpotent algebras only")
    derived = algebra.derived_subalgebra()
    if derived.dim != 1:
        raise ValueError(f"derived subalgebra has dimension {derived.dim}, expected 1")
    z = derived.basis.row(0)
    pivot = next(k for k, v in enumerate(z) if v)
    # z must be central or the structure constants are inconsistent
    if any(any(row) for row in algebra._ad_rows([z])):
        raise DecompositionCheckError("derived generator is not central")
    n = algebra.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = algebra.bracket_basis(i, j)
            t = c[pivot]  # z has a 1 at its pivot, so this is the multiple
            if vec_scale(t, z) != c:
                raise DecompositionCheckError(f"bracket ({i}, {j}) is not a multiple of z")
            rows[i][j] = t
            rows[j][i] = -t
    return AlternatingForm(Matrix.from_rows(rows, cols=n)), z


def symplectic_basis(form: AlternatingForm) -> tuple[list[tuple[Vector, Vector]], Subspace]:
    """Symplectic Gram-Schmidt over Q.

    Returns hyperbolic pairs (a_i, b_i) with f(a_i, b_i) = 1 and
    f-orthogonal to each other, plus the radical of the form.  Pair
    selection is deterministic: vectors are scanned in ascending index
    order and the first nonzero pairing wins.

    Each working vector v keeps the Gram column G e_i of the unit vector
    e_i it started from.  v - e_i is a combination of the pairs found so
    far, and every x the pass evaluates f(x, v) at is f-orthogonal to
    those pairs, so f(x, v) = x . G e_i exactly: one O(n) dot product,
    with a column that never needs updating.
    """
    n = form.dim
    working: list[tuple[Vector, Vector]] = [(unit_vector(n, i), form.matrix.column(i)) for i in range(n)]
    pairs: list[tuple[Vector, Vector]] = []
    while True:
        hit = None
        for ai in range(len(working)):
            for bi in range(ai + 1, len(working)):
                if dot(working[ai][0], working[bi][1]):
                    hit = (ai, bi)
                    break
            if hit:
                break
        if hit is None:
            break
        ai, bi = hit
        a, ga = working[ai]
        v, gv = working[bi]
        inv = 1 / dot(a, gv)
        b, gb = vec_scale(inv, v), vec_scale(inv, gv)  # now f(a, b) = 1
        rest = []
        for t, (v, gv) in enumerate(working):
            if t in (ai, bi):
                continue
            # project v onto the f-complement of the new pair
            s = dot(v, ga)
            if s:
                v = vec_add(v, vec_scale(s, b))
            s = dot(v, gb)
            if s:
                v = vec_sub(v, vec_scale(s, a))
            rest.append((v, gv))
        pairs.append((a, b))
        working = rest
    radical = Subspace.span(n, (v for v, _ in working))
    if 2 * len(pairs) + radical.dim != n:
        raise DecompositionCheckError("symplectic reduction lost rank")
    return pairs, radical


def heisenberg_decompose(algebra: LieAlgebra) -> Decomposition:
    """Certified decomposition L = H(m) + A(k) for nilpotent L with a
    one-dimensional derived subalgebra.

    Abelian input raises AbelianAlgebraError (there is no H(0));
    dim [L, L] >= 2 is outside the scope of this routine and raises
    ValueError.  The certified decomposition is computed once per
    algebra and returned again by later calls; a rejection is raised
    afresh each time.
    """
    algebra.require_valid()
    derived_dim = algebra.derived_subalgebra().dim
    if derived_dim == 0:
        raise AbelianAlgebraError("abelian algebra: nothing to decompose")
    if derived_dim >= 2:
        raise ValueError("decomposition requires dim [L, L] = 1")
    if not algebra.is_nilpotent():
        raise ValueError("decomposition requires a nilpotent algebra")
    return algebra._memo("_decomposition", lambda: _certified_decomposition(algebra))


def _certified_decomposition(algebra: LieAlgebra) -> Decomposition:
    form, z = induced_form(algebra)
    pairs, radical = symplectic_basis(form)
    m = len(pairs)
    n = algebra.dim
    k = n - 2 * m - 1

    # complement of span{z} inside the radical, picked greedily from the
    # radical's RREF rows so the choice is canonical
    sb = SpanBuilder(n)
    sb.add(z)
    complement = [row for row in radical.basis.data if sb.add(row)]
    if len(complement) != k:
        raise DecompositionCheckError("z is not inside the radical")

    rows = [p[0] for p in pairs] + [p[1] for p in pairs] + [z] + complement
    basis_change = Matrix.from_rows(rows, cols=n)

    # certify: the rewritten algebra must match the canonical constants
    expected = direct_sum(heisenberg(m), abelian(k)) if k else heisenberg(m)
    rewritten = algebra.change_basis(basis_change)
    if rewritten != expected:
        raise DecompositionCheckError("rewritten constants do not match H(m) + A(k)")
    return Decomposition(m, k, basis_change)
