"""Exact linear algebra over the rationals.

Everything else in this package reduces to the primitives here: reduced
row echelon form, kernels, canonical quotient projections and subspace
membership, all over ``fractions.Fraction``.  There are no floats and no
tolerances; two values are equal exactly when their reduced fractions
are equal, and every function is deterministic.

Kernels and quotients share one canonical section: the rows of the
projection that kills a row space are a basis of its right kernel.

The elimination core, ``SpanBuilder``, works on integer rows, so the hot
loops run on plain ``int``.  ``add_int_row`` takes rows that are already
integers: the commutator, center and exterior-square code feeds it rows
computed from ``LieAlgebra``'s one integer table of structure constants
(every bracket over one common denominator).  ``add`` scales a rational
row by the lcm of its own denominators first.  Each stored row is
divided by its gcd, and results are converted back to fractions at the
end.  This is an implementation detail only; every public value is an
exact rational.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

Scalar = Fraction | int | str
Vector = tuple[Fraction, ...]


def frac(x: Scalar) -> Fraction:
    """Coerce an int, string like ``"3/4"``, or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vector(values: Iterable[Scalar]) -> Vector:
    return tuple(frac(x) for x in values)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vector(n: int, i: int) -> Vector:
    if not 0 <= i < n:
        raise ValueError(f"unit index {i} out of range for dimension {n}")
    v = [Fraction(0)] * n  # one shared zero: identity matrices stay small
    v[i] = Fraction(1)
    return tuple(v)


def vec_add(x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vec_sub(x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def vec_scale(c: Fraction, x: Sequence[Fraction]) -> Vector:
    return tuple(c * a for a in x)


def dot(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(x, y, strict=True)), Fraction(0))


# ---------------------------------------------------------------------------
# integer elimination core


def _scale_to_int(vec: Sequence[Fraction]) -> list[int]:
    """Multiply a rational row by the lcm of its denominators."""
    den = 1
    for x in vec:
        d = x.denominator
        if d != 1:
            den = den * d // math.gcd(den, d)
    if den == 1:
        return [x.numerator for x in vec]
    return [x.numerator * (den // x.denominator) for x in vec]


def _normalize_int(row: list[int]) -> list[int] | None:
    """Divide by the gcd and make the leading entry positive.  None if zero."""
    g = 0
    lead = 0
    for v in row:
        if v:
            if lead == 0:
                lead = v
            g = math.gcd(g, v)
    if g == 0:
        return None
    if lead < 0:
        g = -g
    if g == 1:
        return row
    return [v // g for v in row]


class SpanBuilder:
    """Incremental row-space builder over the rationals.

    Rows are fed one at a time; ``add`` reports whether the row enlarged
    the span.  The final reduced row echelon basis is canonical (it does
    not depend on insertion order) so subspaces built this way compare
    bit-identically.
    """

    def __init__(self, ncols: int):
        if ncols < 0:
            raise ValueError("negative column count")
        self.ncols = ncols
        # pivot column -> normalized integer row with its first nonzero there
        self._pivots: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, vec: Iterable[Scalar]) -> bool:
        row = _scale_to_int([frac(x) for x in vec])
        if len(row) != self.ncols:
            raise ValueError("row length does not match column count")
        return self.add_int_row(row)

    def add_int_row(self, row: list[int]) -> bool:
        """Add a row already given by integer entries.  The list is consumed."""
        reduced = self._reduce(row)
        if reduced is None:
            return False
        col, rest = reduced
        self._pivots[col] = _normalize_int(rest)  # type: ignore[assignment]
        return True

    def contains(self, vec: Iterable[Scalar]) -> bool:
        row = _scale_to_int([frac(x) for x in vec])
        return self._reduce(row) is None

    def _reduce(self, row: list[int]) -> tuple[int, list[int]] | None:
        pivots = self._pivots
        ncols = self.ncols
        c = 0
        steps = 0
        while c < ncols:
            v = row[c]
            if v:
                p = pivots.get(c)
                if p is None:
                    return c, row
                pv = p[c]
                g = math.gcd(v, pv)
                a = pv // g
                b = v // g
                if a == 1:
                    row[c:] = [x - b * y for x, y in zip(row[c:], p[c:])]
                else:
                    row[c:] = [a * x - b * y for x, y in zip(row[c:], p[c:])]
                # keep entries small: cross-multiplication compounds quickly
                steps += 1
                if steps % 8 == 0:
                    nr = _normalize_int(row)
                    if nr is None:
                        return None
                    row = nr
            c += 1
        return None

    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(sorted(self._pivots))

    def _reduced_pivot_rows(self) -> dict[int, list[int]]:
        """Jordan step: clear every pivot column from the other rows."""
        rows = {c: list(r) for c, r in self._pivots.items()}
        for c in sorted(rows, reverse=True):
            prow = rows[c]
            pv = prow[c]
            for d in rows:
                drow = rows[d]
                if d < c and drow[c]:
                    v = drow[c]
                    g = math.gcd(v, pv)
                    a = pv // g
                    b = v // g
                    if a == 1:
                        merged = [x - b * y for x, y in zip(drow, prow)]
                    else:
                        merged = [a * x - b * y for x, y in zip(drow, prow)]
                    rows[d] = _normalize_int(merged)  # type: ignore[assignment]
        return rows

    def rref_rows(self) -> list[Vector]:
        """Canonical lead-1 reduced rows, sorted by pivot column."""
        rows = self._reduced_pivot_rows()
        out = []
        for c in sorted(rows):
            r = rows[c]
            lead = r[c]
            out.append(tuple(Fraction(v, lead) for v in r))
        return out

    def subspace(self) -> "Subspace":
        return Subspace(self.ncols, Matrix.from_rows(self.rref_rows(), cols=self.ncols))


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of Fractions, row major."""

    rows: int
    cols: int
    data: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.data) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.data:
            if len(r) != self.cols:
                raise ValueError("ragged matrix rows")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> "Matrix":
        data = tuple(vector(r) for r in rows)
        if cols is None:
            if not data:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(data[0])
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(unit_vector(n, i) for i in range(n)))

    def row(self, i: int) -> Vector:
        return self.data[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(self.column(j) for j in range(self.cols)))

    def mul_vec(self, v: Sequence[Scalar]) -> Vector:
        w = vector(v)
        if len(w) != self.cols:
            raise ValueError("vector length does not match matrix columns")
        return tuple(dot(r, w) for r in self.data)

    def rank(self) -> int:
        sb = SpanBuilder(self.cols)
        for r in self.data:
            sb.add(r)
        return sb.rank

    def inverse(self) -> "Matrix":
        """Exact inverse; raises ValueError on a non-square or singular matrix."""
        if self.rows != self.cols:
            raise ValueError("only square matrices have inverses")
        n = self.rows
        aug = [list(self.data[i]) + list(unit_vector(n, i)) for i in range(n)]
        sb = SpanBuilder(2 * n)
        for r in aug:
            sb.add(r)
        if sb.pivot_cols() != tuple(range(n)):
            raise ValueError("matrix is singular")
        reduced = sb.rref_rows()
        return Matrix.from_rows([r[n:] for r in reduced], cols=n)


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n held as a canonical RREF basis (no zero rows)."""

    ambient_dim: int
    basis: Matrix

    def __post_init__(self) -> None:
        if self.basis.cols != self.ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        # light canonical-form check; span() is the safe constructor
        last = -1
        for r in self.basis.data:
            piv = next((j for j, x in enumerate(r) if x), None)
            if piv is None:
                raise ValueError("zero row in subspace basis")
            if piv <= last or r[piv] != 1:
                raise ValueError("subspace basis is not in reduced echelon form")
            last = piv

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence[Scalar]] = ()) -> "Subspace":
        sb = SpanBuilder(ambient_dim)
        for v in vectors:
            sb.add(v)
        return sb.subspace()

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix(0, ambient_dim, ()))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(r) if x) for r in self.basis.data)

    def contains(self, v: Sequence[Scalar]) -> bool:
        return self.coordinates(v) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains(r) for r in other.basis.data)

    def coordinates(self, v: Sequence[Scalar]) -> Vector | None:
        """Coefficients of v in the RREF basis, or None if v is outside."""
        w = vector(v)
        if len(w) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        coords = tuple(w[p] for p in self.pivot_cols())
        rebuilt = zero_vector(self.ambient_dim)
        for c, r in zip(coords, self.basis.data):
            rebuilt = vec_add(rebuilt, vec_scale(c, r))
        return coords if rebuilt == w else None


# ---------------------------------------------------------------------------
# kernels and quotients


def kernel_basis(m: Matrix) -> Subspace:
    """Right kernel {x : m x = 0} as a subspace of Q^cols: the span of
    the rows of the canonical projection that kills m's row space."""
    return Subspace.span(m.cols, quotient_with_section(m.cols, m.data).projection.data)


class Quotient(NamedTuple):
    """Quotient of Q^ambient by the span of relation vectors.

    ``section_cols`` are the ambient coordinates (the non-pivot columns of
    the relation RREF) whose unit vectors represent the quotient basis;
    ``projection`` maps ambient coordinates onto quotient coordinates and
    its kernel is exactly the relation span.
    """

    dim: int
    projection: Matrix
    section_cols: tuple[int, ...]


def quotient_with_section(ambient_dim: int, relations: Iterable[Sequence[Scalar]]) -> Quotient:
    sb = SpanBuilder(ambient_dim)
    for r in relations:
        sb.add(r)
    return _quotient_from_builder(sb)


def _quotient_from_builder(sb: SpanBuilder) -> Quotient:
    ambient_dim = sb.ncols
    pivots = sb.pivot_cols()
    pivot_set = set(pivots)
    section = tuple(j for j in range(ambient_dim) if j not in pivot_set)
    reduced = sb._reduced_pivot_rows()
    rows = []
    for s, q in enumerate(section):
        row = [Fraction(0)] * ambient_dim
        row[q] = Fraction(1)
        for p in pivots:
            pr = reduced[p]
            if pr[q]:
                row[p] = Fraction(-pr[q], pr[p])
        rows.append(row)
    projection = Matrix(len(section), ambient_dim, tuple(tuple(r) for r in rows))
    return Quotient(len(section), projection, section)


def random_invertible(n: int, rng: random.Random) -> Matrix:
    """Deterministic (given rng) random invertible matrix with small
    rational entries; used for change-of-basis scrambles."""
    if n == 0:
        return Matrix(0, 0, ())
    while True:
        data = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
            for _ in range(n)
        ]
        m = Matrix.from_rows(data, cols=n)
        if m.rank() == n:
            return m
