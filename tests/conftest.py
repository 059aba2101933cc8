"""Shared helpers: small independent oracles the library results are
checked against.  The linear-algebra oracles deliberately avoid the
library's own elimination code paths; the exterior-square oracle is an
independent construction that shares only that (separately tested)
elimination core with the library, the symplectic-basis oracle is the
direct matrix-vector form of the library's Gram-column pass, and the
commutator oracle works in ``Fraction`` from the public bracket alone."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest


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
    from liecap.linalg import Matrix, SpanBuilder, Subspace, kernel_basis

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
    reduced = dict(zip(pivots, sb.rref_rows()))
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
    center = kernel_basis(Matrix.from_rows(rows, cols=n)) if rows else Subspace.full(n)
    return quotient_dim, quotient_dim - algebra.derived_subalgebra().dim, center


def matrix_symplectic_basis(form):
    """Symplectic Gram-Schmidt taking every form value f(x, y) as
    x . (G y), a full Gram matrix-vector product.

    The same pair selection as the library (ascending scan, first
    nonzero pairing wins), without its Gram-column shortcut; the
    differential tests compare the two on pairs and radical.
    """
    from liecap.linalg import Subspace, unit_vector, vec_add, vec_scale, vec_sub

    n = form.dim
    working = [unit_vector(n, i) for i in range(n)]
    pairs = []
    while True:
        hit = None
        for ai in range(len(working)):
            for bi in range(ai + 1, len(working)):
                if form.value(working[ai], working[bi]):
                    hit = (ai, bi)
                    break
            if hit:
                break
        if hit is None:
            break
        ai, bi = hit
        a = working[ai]
        c = form.value(a, working[bi])
        b = vec_scale(1 / c, working[bi])
        rest = []
        for t, v in enumerate(working):
            if t in (ai, bi):
                continue
            v = vec_add(v, vec_scale(form.value(v, a), b))
            v = vec_sub(v, vec_scale(form.value(v, b), a))
            rest.append(v)
        pairs.append((a, b))
        working = rest
    return pairs, Subspace.span(n, working)


class FractionBracketOracle:
    """The commutator computations of ``LieAlgebra`` redone in
    ``Fraction`` arithmetic from the public ``bracket`` alone: ``ad``
    reads the basis brackets [e_i, e_j] once and extends them linearly,
    and ``change_basis`` brackets the new basis vectors directly.  Used
    for a differential test of the library's integer table."""

    def __init__(self, algebra):
        from liecap.linalg import unit_vector

        self.n = n = algebra.dim
        self.bracket = algebra.bracket
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
        from liecap.linalg import Matrix, Subspace, kernel_basis

        n = self.n
        rows = []
        for j in range(n):
            block = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for t, x in self.basis[i][j]:
                    block[t][i] = x
            rows.extend(block)
        return kernel_basis(Matrix.from_rows(rows, cols=n)) if rows else Subspace.full(n)

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
        coordinates y of w = sum_k y_k f_k solve p^T y = w."""
        from liecap.lie import LieAlgebra

        to_f = p.inverse().transpose()
        f = p.data
        consts = {
            (i, j): to_f.mul_vec(self.bracket(f[i], f[j])) for i in range(self.n) for j in range(i + 1, self.n)
        }
        return LieAlgebra(self.n, consts)


@pytest.fixture(scope="session")
def frozen_catalog():
    from liecap.capability import catalog

    return catalog()
