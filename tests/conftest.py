"""Shared helpers: small independent oracles the library results are
checked against.  The linear-algebra oracles deliberately avoid the
library's own elimination code paths; the exterior-square oracle is an
independent construction that shares only that (separately tested)
elimination core with the library and takes its exterior center from
``null_space``, a ``Fraction`` Gauss-Jordan apart from the library's
kernel route, the symplectic-basis oracle is the
direct matrix-vector form of the library's Gram-column pass, and the
commutator oracle works in ``Fraction`` from the public bracket alone.
``central_extensions`` draws deeper nilpotent algebras than the catalog
holds, by iterated central extension."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import strategies as st


def det_cofactor(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by cofactor expansion; independent of any rref code."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, head in enumerate(rows[0]):
        if not head:
            continue
        minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * head * det_cofactor(minor)
    return total


def rank_by_minors(rows: list[list[Fraction]]) -> int:
    """Rank as the largest size of a nonzero square minor (brute force)."""
    r = len(rows)
    c = len(rows[0]) if rows else 0
    for size in range(min(r, c), 0, -1):
        for row_idx in itertools.combinations(range(r), size):
            for col_idx in itertools.combinations(range(c), size):
                minor = [[rows[i][j] for j in col_idx] for i in row_idx]
                if det_cofactor(minor):
                    return size
    return 0


def _gauss_jordan(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """The nonzero rows of the reduced row echelon form, by Gauss-Jordan
    on Fractions."""
    def clear(r, pivot, c):
        return [x - r[c] * y for x, y in zip(r, pivot)] if r[c] else r

    rows = [[Fraction(x) for x in r] for r in rows if any(r)]
    done: list[list[Fraction]] = []
    for c in range(ncols):
        pivot = next((r for r in rows if r[c]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = [x / pivot[c] for x in pivot]
        rows = [r for r in (clear(r, pivot, c) for r in rows) if any(r)]
        done = [clear(r, pivot, c) for r in done] + [pivot]
    return done


def split_basis(algebra) -> tuple[list[list[Fraction]], int]:
    """``(basis, k)``: the basis of the canonical split L = L1 + A by its
    stated rule, in ``Fraction`` by ``_gauss_jordan``, and k = dim A.  It
    lists the RREF basis of [L, L], read off the brackets, then the unit
    vectors at the non-pivot columns of the RREF of [L, L] + A, then A:
    the RREF rows of the center that enlarge the span, in order."""
    n = algebra.dim
    derived = _gauss_jordan([list(c) for c in algebra.brackets.values()], n)
    span, factor = list(derived), []
    for row in algebra.center().basis.data:
        if len(_gauss_jordan(span + [list(row)], n)) > len(span):
            span.append(list(row))
            factor.append(list(row))
    pivots = {next(j for j, x in enumerate(r) if x) for r in _gauss_jordan(span, n)}
    units = [[Fraction(int(t == i)) for t in range(n)] for i in range(n) if i not in pivots]
    return derived + units + factor, len(factor)


def fraction_solve(vectors: list[list[Fraction]], v: list[Fraction]):
    """The coefficients c with sum_t c[t] vectors[t] = v, for linearly
    independent vectors, by Gauss-Jordan on the augmented rows of
    [vectors^T | v]; None when v is outside their span."""
    k = len(vectors)
    reduced = _gauss_jordan([[w[i] for w in vectors] + [v[i]] for i in range(len(v))], k + 1)
    if any(next(j for j, x in enumerate(r) if x) == k for r in reduced):
        return None
    return tuple(r[k] for r in reduced)


def null_space(rows: list[list[Fraction]], ncols: int):
    """{x : r . x = 0 for every row r} as a ``Subspace``, whose own check
    confirms the RREF form.  One basis vector per free column f of the
    RREF of rows (x_f = 1, x_p = -R[p][f] at each pivot p), reduced again
    by Gauss-Jordan: independent of the library's kernel route."""
    from liecap.linalg import Matrix, Subspace

    reduced = {next(j for j, x in enumerate(r) if x): r for r in _gauss_jordan(rows, ncols)}
    basis = []
    for f in range(ncols):
        if f not in reduced:
            v = [Fraction(int(j == f)) for j in range(ncols)]
            for p, r in reduced.items():
                v[p] = -r[f]
            basis.append(v)
    return Subspace(ncols, Matrix.from_rows(_gauss_jordan(basis, ncols), cols=ncols))


def raw_jacobi_residual(dim: int, table: dict, i: int, j: int, k: int) -> list[Fraction]:
    """[e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] expanded
    straight from a sparse constants table, bypassing LieAlgebra."""

    def bb(a: int, b: int) -> list[Fraction]:
        if a == b:
            return [Fraction(0)] * dim
        if a < b:
            got = table.get((a, b))
            return list(got) if got else [Fraction(0)] * dim
        got = table.get((b, a))
        return [-x for x in got] if got else [Fraction(0)] * dim

    def br(a: int, v: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * dim
        for b, coef in enumerate(v):
            if coef:
                for t, x in enumerate(bb(a, b)):
                    out[t] += coef * x
        return out

    total = [Fraction(0)] * dim
    for term in (br(i, bb(j, k)), br(j, bb(k, i)), br(k, bb(i, j))):
        for t, x in enumerate(term):
            total[t] += x
    return total


def symbol_exterior_square(algebra):
    """(dim L ^ L, dim M(L), Z^(L)) from the n^2-symbol construction.

    L ^ L is the span of the symbols e_i (x) e_j (column i*n + j) modulo
    three relation families at all basis triples (i, j, k):

      (R1)  [e_i,e_j] (x) e_k  -  e_i (x) [e_j,e_k]  +  e_j (x) [e_i,e_k]
      (R2)  e_i (x) [e_j,e_k]  -  [e_k,e_i] (x) e_j  +  [e_j,e_i] (x) e_k
      (R3)  e_i (x) e_i,   and   e_i (x) e_j + e_j (x) e_i  for i < j

    Z^(L) is the kernel of the stacked maps x -> x (x) e_j, read in the
    quotient coordinates given by the non-pivot columns of the relation
    RREF.
    """
    from liecap.linalg import SpanBuilder

    n = algebra.dim
    den = 1
    for c in algebra.brackets.values():
        for x in c:
            den = math.lcm(den, x.denominator)
    br = [[[int(x * den) for x in algebra.bracket_basis(i, j)] for j in range(n)] for i in range(n)]

    sb = SpanBuilder(n * n)
    seen = set()  # the families overlap heavily

    def push(terms):
        row = [0] * (n * n)
        for sign, left, right in terms:
            # sign * left (x) right, with either slot a vector or a basis index
            lv = left if isinstance(left, list) else [int(t == left) for t in range(n)]
            rv = right if isinstance(right, list) else [int(t == right) for t in range(n)]
            for a, x in enumerate(lv):
                if x:
                    for b, y in enumerate(rv):
                        if y:
                            row[a * n + b] += sign * x * y
        g = math.gcd(*row)
        if g == 0:
            return
        if next(v for v in row if v) < 0:
            g = -g
        key = tuple(v // g for v in row)
        if key not in seen:
            seen.add(key)
            sb.add_int_row(list(key))

    for i, j, k in itertools.product(range(n), repeat=3):
        push([(1, br[i][j], k), (-1, i, br[j][k]), (1, j, br[i][k])])
        push([(1, i, br[j][k]), (-1, br[k][i], j), (1, br[j][i], k)])
    for i in range(n):
        push([(1, i, i)])
        for j in range(i + 1, n):
            push([(1, i, j), (1, j, i)])

    quotient_dim = n * n - sb.rank
    pivots = sb.pivot_cols()
    reduced = dict(zip(pivots, sb.subspace().basis.data))
    free = [f for f in range(n * n) if f not in reduced]
    # coordinate f of the class of a symbol vector v: v[f] - sum_p r_p[f] v[p]
    rows = []
    for j in range(n):
        for f in free:
            row = []
            for i in range(n):
                col = i * n + j
                row.append(Fraction(col == f) if col not in reduced else -reduced[col][f])
            rows.append(row)
    center = null_space(rows, n)
    return quotient_dim, quotient_dim - algebra.derived_subalgebra().dim, center


def full_width_projection(algebra):
    """``(section, d, rows)`` of the projection of Lambda^2 L onto L ^ L
    from an elimination of every d3 row at the full width C(n, 2), with no
    stop, run through ``linalg._projection_rows``: dense int rows over one
    denominator d, the oracle of the re-indexed core in ``exterior``."""
    from liecap.exterior import _d3_rows
    from liecap.linalg import SpanBuilder, _projection_rows

    n = algebra.dim
    width = n * (n - 1) // 2
    sb = SpanBuilder(width)
    for row in _d3_rows(n, algebra._rows):
        dense = [0] * width
        for col, v in row.items():
            dense[col] = v
        sb.add_int_row(dense)
    return _projection_rows(width, *sb._reduced_rows())


def core_projection(algebra):
    """``(section, d, rows)`` of ``exterior_square``, with its projection
    columns written out as int rows at the full width C(n, 2)."""
    from liecap.exterior import exterior_square

    square = exterior_square(algebra)
    rows = [[0] * square.ambient_dim for _ in square.section]
    for col, column in enumerate(square.columns):
        for s, x in column:
            rows[s][col] = x
    return square.section, square.d, rows


def form_value(gram, x, y):
    """f(x, y) = x . (G y) for the alternating form with Gram matrix G."""
    from liecap.linalg import dot

    return dot(x, gram.mul_vec(y))


def matrix_symplectic_basis(gram):
    """Symplectic Gram-Schmidt on the form with Gram matrix ``gram``,
    taking every form value f(x, y) as x . (G y), a full Gram
    matrix-vector product.

    The same pair selection as the library (ascending scan, first
    nonzero pairing wins), without its Gram-column shortcut, and by a
    double scan that keeps every vector that pairs with nothing, where
    the library drops it at once; the differential tests compare the
    two on the pairs.
    """
    from liecap.linalg import Subspace, unit_vector, vec_add, vec_scale

    n = gram.rows
    working = [unit_vector(n, i) for i in range(n)]
    pairs = []
    while True:
        hit = None
        for ai in range(len(working)):
            for bi in range(ai + 1, len(working)):
                if form_value(gram, working[ai], working[bi]):
                    hit = (ai, bi)
                    break
            if hit:
                break
        if hit is None:
            break
        ai, bi = hit
        a = working[ai]
        c = form_value(gram, a, working[bi])
        b = vec_scale(1 / c, working[bi])
        rest = []
        for t, v in enumerate(working):
            if t in (ai, bi):
                continue
            v = vec_add(v, vec_scale(form_value(gram, v, a), b))
            v = vec_add(v, vec_scale(-form_value(gram, v, b), a))
            rest.append(v)
        pairs.append((a, b))
        working = rest
    return pairs, Subspace.span(n, working)


class FractionBracketOracle:
    """The commutator computations of ``LieAlgebra`` redone in
    ``Fraction`` arithmetic from the public ``bracket`` alone: ``ad``
    reads the basis brackets [e_i, e_j] once and extends them linearly,
    ``change_basis`` brackets the new basis vectors directly and
    inverts the basis with ``_gauss_jordan``, and
    ``quotient`` projects the basis brackets at the quotient section.
    Used for a differential test of the library's integer table."""

    def __init__(self, algebra):
        from liecap.linalg import unit_vector

        self.n = n = algebra.dim
        self.bracket = algebra.bracket
        self.labels = algebra.labels
        self.spans = {}
        units = [unit_vector(n, i) for i in range(n)]
        # basis[i][j]: the nonzero (t, coefficient) pairs of [e_i, e_j]
        self.basis = [[[] for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                c = [(t, x) for t, x in enumerate(algebra.bracket(units[i], units[j])) if x]
                self.basis[i][j] = c
                self.basis[j][i] = [(t, -x) for t, x in c]

    def ad(self, i, v):
        """[e_i, v] = sum_j v_j [e_i, e_j]."""
        out = [Fraction(0)] * self.n
        for c, b in zip(v, self.basis[i]):
            if c:
                for t, x in b:
                    out[t] += c * x
        return out

    def center(self):
        """{x : [x, e_j] = 0 for all j}: row (j, t) holds the t-th
        coefficients of [e_i, e_j] over i."""
        n = self.n
        rows = []
        for j in range(n):
            block = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for t, x in self.basis[i][j]:
                    block[t][i] = x
            rows.extend(block)
        return null_space(rows, n)

    def bracket_span(self, s):
        """[L, S] = span{[e_i, v] : v in a basis of S}, kept per S."""
        from liecap.linalg import Subspace

        if s not in self.spans:
            self.spans[s] = Subspace.span(self.n, [self.ad(i, v) for i in range(self.n) for v in s.basis.data])
        return self.spans[s]

    def lower_central_series(self):
        from liecap.linalg import Subspace

        series = [Subspace.full(self.n)]
        nxt = self.bracket_span(series[0])
        while nxt != series[-1]:
            series.append(nxt)
            if nxt.is_zero():
                break
            nxt = self.bracket_span(nxt)
        return series

    def is_ideal(self, s):
        return s.contains_subspace(self.bracket_span(s))

    def is_central_ideal(self, s):
        return self.bracket_span(s).is_zero()

    def change_basis(self, p):
        """Brackets of the rows f_i of p, written in the f basis: the
        coordinates y of w = sum_k y_k f_k solve p^T y = w, so y_k is
        column k of p^-1 dotted with w.  p^-1 is read off the RREF
        [I | p^-1] of [p | I] by ``_gauss_jordan``, not by the library's
        elimination, which ``LieAlgebra.change_basis`` runs."""
        from liecap.lie import LieAlgebra

        n, f = self.n, p.data
        reduced = _gauss_jordan([list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(f)], n)
        assert len(reduced) == n, "singular basis"
        to_f = list(zip(*(row[n:] for row in reduced)))

        def coordinates(w):
            return [sum(x * y for x, y in zip(col, w)) for col in to_f]

        consts = {(i, j): coordinates(self.bracket(f[i], f[j])) for i in range(n) for j in range(i + 1, n)}
        return LieAlgebra(n, consts)

    def quotient(self, s):
        """L / S with its projection, read off the RREF rows z_r of S with
        pivot columns p_r: the quotient basis is the unit vectors e_q at
        the other columns q, the projection's row at q is
        e_q - sum_r z_r[q] e_(p_r), and the projection of [e_c, e_d]
        gives the structure constants."""
        from liecap.lie import LieAlgebra
        from liecap.linalg import Matrix

        rref = s.basis.data
        pivots = [next(j for j, x in enumerate(z) if x) for z in rref]
        section = [q for q in range(self.n) if q not in pivots]
        rows = []
        for q in section:
            row = [Fraction(int(j == q)) for j in range(self.n)]
            for z, p in zip(rref, pivots):
                row[p] -= z[q]
            rows.append(row)
        projection = Matrix.from_rows(rows, cols=self.n)
        columns = projection.transpose().data
        consts = {}
        for a, b in itertools.combinations(range(len(section)), 2):
            out = [Fraction(0)] * len(section)
            for t, x in self.basis[section[a]][section[b]]:
                for r, y in enumerate(columns[t]):
                    if y:
                        out[r] += x * y
            consts[(a, b)] = out
        labels = [self.labels[c] for c in section]
        return LieAlgebra(len(section), consts, labels), projection


def filiform(n):
    """L_n: [e_1, e_i] = e_{i+1} for 1 < i < n, nilpotent of class n - 1."""
    from liecap.lie import LieAlgebra
    from liecap.linalg import unit_vector

    return LieAlgebra(n, {(0, i): unit_vector(n, i + 1) for i in range(1, n - 1)})


def invariants(algebra):
    """The dimensions of [L, L], Z(L), L ^ L, M(L) and Z^(L) and the
    capability verdict of mode "both": none of them depends on the basis."""
    from liecap.capability import decide_capability
    from liecap.exterior import exterior_center, exterior_square_dim, multiplier_dim

    return (
        algebra.derived_subalgebra().dim,
        algebra.center().dim,
        exterior_square_dim(algebra),
        multiplier_dim(algebra),
        exterior_center(algebra).dim,
        decide_capability(algebra, mode="both").capable,
    )


@pytest.fixture(scope="session")
def frozen_catalog():
    from liecap.capability import catalog

    return catalog()


def central_extension(algebra, functionals):
    """E = L + Q^t with [x, y]_E = [x, y] + F P(x ^ y) and Q^t central,
    where P is the projection of ``exterior_square(L)`` and the t rows of
    F are ``functionals`` on L ^ L.  omega = F P kills im d3, so omega is
    a 2-cocycle and E is a Lie algebra, nilpotent when L is.  The new
    basis vectors come last."""
    from liecap.exterior import exterior_square
    from liecap.lie import LieAlgebra

    n, t = algebra.dim, len(functionals)
    projection = exterior_square(algebra).projection
    brackets = {}
    for column, (i, j) in zip(projection.transpose().data, itertools.combinations(range(n), 2)):
        # omega(e_i ^ e_j) = F times the column of e_i ^ e_j in P
        omega = [sum(f * p for f, p in zip(row, column)) for row in functionals]
        brackets[(i, j)] = list(algebra.bracket_basis(i, j)) + omega
    return LieAlgebra(n + t, brackets)


@st.composite
def central_extensions(draw):
    """A nilpotent algebra of dimension 5 to 8 built from A(2) or A(3) by
    central extensions of 1 or 2 dimensions each, with functional
    entries in [-2, 2], together with a scrambled copy of it."""
    from liecap.lie import abelian, scramble
    from liecap.exterior import exterior_square

    algebra = abelian(draw(st.integers(2, 3)))
    target = draw(st.integers(5, 8))
    while algebra.dim < target:
        t = draw(st.integers(1, min(2, target - algebra.dim)))
        width = exterior_square(algebra).quotient_dim
        functionals = [[draw(st.integers(-2, 2)) for _ in range(width)] for _ in range(t)]
        algebra = central_extension(algebra, functionals)
    return algebra, scramble(algebra, draw(st.integers(0, 2**16)))
