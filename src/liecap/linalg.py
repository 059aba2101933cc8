"""Exact linear algebra over the rationals.

Everything else in this package reduces to the primitives here: reduced
row echelon form, kernels, canonical quotient projections and subspace
membership.  There are no floats and no tolerances; two values are equal
exactly when their reduced fractions are equal, and every function is
deterministic.

Kernels and quotients share one canonical section.  ``_projection_rows``
is the one maker of the projection that kills a row space: integer
rows over one common denominator, which are also a basis of its right
kernel.  ``_projection_matrix`` turns them into the public ``Fraction``
projection; ``exterior_square`` checks them as they are, and
``_kernel_from_builder`` eliminates them once more on ints:
``kernel_basis``, ``LieAlgebra.center`` and the exterior center all end
there.

The public values (``Matrix`` entries, ``Subspace`` bases, vectors) are
``fractions.Fraction``s, but the work runs on plain ``int``.  The
elimination core, ``SpanBuilder``, stores integer rows, each divided by
its gcd, and ``SpanBuilder._reduced_rows`` hands out its reduced rows
over the lcm of their leads, the one common denominator that the
subspaces and the projections read.
``add_int_row`` takes rows that are already integers: the callers in
``lie``, ``decompose`` and ``exterior`` feed it rows computed from
``LieAlgebra``'s one integer table of structure constants (every
bracket over one common denominator), from a projection or from the
integer rows of a ``Subspace``.  A ``Subspace`` holds its canonical
basis that way, as int rows over one common denominator, and makes its
``Fraction`` ``basis`` only when it is read.  Membership has one rule,
``Subspace._int_coordinates``: an int row lies in the subspace exactly
when it is rebuilt from the rows at its own pivot entries.
``contains``, ``coordinates``, ``contains_subspace`` and the certified
``[L, L]`` coordinates of ``lie`` all go through it.  ``add``,
``coordinates`` and ``lie`` bring rational rows to ints with
``_over_common_denominator``, the one helper for that.

``Matrix`` and ``Subspace`` are plain classes on ``_Record``, which
makes them immutable, comparable and hashable without ``dataclasses``:
that module imports ``inspect``, ``ast`` and ``dis``, which a fresh
interpreter would load for every ``liecap`` command.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

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


def vec_scale(c: Fraction, x: Sequence[Fraction]) -> Vector:
    return tuple(c * a for a in x)


def dot(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(x, y, strict=True)), Fraction(0))


# ---------------------------------------------------------------------------
# integer elimination core


def _over_common_denominator(rows: Iterable[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """``(d, [d * row, ...])`` for the lcm d of every denominator in rows."""
    rows = list(rows)
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def _combine(coeffs: Sequence[int], rows: Sequence[Sequence[int]], width: int) -> list[int]:
    """sum_t coeffs[t] rows[t], an int row of length ``width``: the
    combination of the rows at the nonzero coefficients, skipping zero
    rows, in one whole-row pass per row; ``zip`` stops at the shorter of
    coeffs and rows.  The one row kernel of the package: on ``forms[r]``
    of ``lie._DerivedCoordinates`` it is the bracket kernel, entry b
    being d [w, e_b]_r."""
    out = None
    for c, row in zip(coeffs, rows):
        if c and any(row):
            out = [c * x for x in row] if out is None else [y + c * x for y, x in zip(out, row)]
    return [0] * width if out is None else out


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
        return self.add_int_row(_over_common_denominator([[frac(x) for x in vec]])[1][0])

    def add_int_row(self, row: list[int]) -> bool:
        """Add a row already given by integer entries.  The list is consumed."""
        if len(row) != self.ncols:
            raise ValueError("row length does not match column count")
        reduced = self._reduce(row)
        if reduced is None:
            return False
        col, rest = reduced
        self._pivots[col] = _normalize_int(rest)  # type: ignore[assignment]
        return True

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

    def _reduced_rows(self) -> tuple[int, dict[int, list[int]]]:
        """``(d, {pivot column: row})``: the reduced row echelon rows,
        each d times its lead-1 row, for the lcm d of the leads.

        The Jordan step clears every pivot column from the other rows,
        each kept divided by its gcd with a positive lead; d is then the
        lcm of every denominator of the lead-1 rows, so the rows are
        canonical."""
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
        d = math.lcm(*(r[c] for c, r in rows.items()))
        return d, {c: r if r[c] == d else [x * (d // r[c]) for x in r] for c, r in rows.items()}

    def rref_rows(self) -> list[Vector]:
        """Canonical lead-1 reduced rows, sorted by pivot column."""
        d, rows = self._reduced_rows()
        return [tuple(Fraction(x, d) for x in rows[c]) for c in sorted(rows)]

    def subspace(self) -> "Subspace":
        d, rows = self._reduced_rows()
        return Subspace._from_rref_ints(self.ncols, d, [rows[c] for c in sorted(rows)])


# ---------------------------------------------------------------------------
# matrices


class _Record:
    """Base of the immutable value classes: ``__init__`` sets each
    attribute once through ``object.__setattr__``, after which assigning
    or deleting one raises.  A value equals, and hashes as, a value of its
    own class with the same ``_key()``, by default the ``_fields``, the
    constructor's arguments."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild a value through its constructor
        return type(self), tuple(getattr(self, f) for f in self._fields)


_set = object.__setattr__


class Matrix(_Record):
    """Immutable dense matrix of Fractions, row major."""

    __slots__ = ("rows", "cols", "data")
    _fields = __slots__

    def __init__(self, rows: int, cols: int, data: tuple[tuple[Fraction, ...], ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        if len(data) != rows:
            raise ValueError("row count mismatch")
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged matrix rows")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "data", data)

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
        """Exact inverse; raises ValueError on a non-square or singular matrix.

        No caller in this package (``LieAlgebra.change_basis`` solves on
        ints): it stays as public ``Matrix`` API, and the ``Fraction``
        oracle of the tests inverts with it."""
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


class Subspace(_Record):
    """A subspace of Q^n held as its canonical RREF basis (no zero rows).

    The basis is kept on ints: ``_rows`` holds d times the lead-1 RREF
    rows, for the lcm d (``_den``) of their denominators, which is the
    lcm of the leads of the reduced rows of ``SpanBuilder``.  That form
    is canonical, so equality and the hash read it.  ``basis``, the
    ``Fraction`` matrix of the rows, is made when it is first read.
    ``Subspace(n, basis)`` checks that ``basis`` is in reduced echelon
    form; ``span`` is the safe constructor."""

    __slots__ = ("ambient_dim", "_den", "_rows", "_basis")
    _fields = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.cols != ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        pivots: list[int] = []
        for r in basis.data:
            piv = next((j for j, x in enumerate(r) if x), None)
            if piv is None:
                raise ValueError("zero row in subspace basis")
            if (pivots and piv <= pivots[-1]) or r[piv] != 1:
                raise ValueError("subspace basis is not in reduced echelon form")
            pivots.append(piv)
        # reduced: each pivot column is zero outside its own row
        if any(sum(1 for p in pivots if r[p]) != 1 for r in basis.data):
            raise ValueError("subspace basis is not in reduced echelon form")
        den, rows = _over_common_denominator(basis.data)
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "_den", den)
        _set(self, "_rows", tuple(map(tuple, rows)))
        _set(self, "_basis", basis)

    @classmethod
    def _from_rref_ints(cls, ambient_dim: int, den: int, rows: Iterable[Sequence[int]]) -> "Subspace":
        """The subspace with the RREF rows rows / den, from a caller that
        holds them on ints over a positive common denominator; the form
        is not checked.  Dividing den and every entry by their gcd leaves
        den as the lcm of the denominators, the canonical form."""
        rows = list(rows)
        g = math.gcd(den, *(x for r in rows for x in r))
        s = cls.__new__(cls)
        _set(s, "ambient_dim", ambient_dim)
        _set(s, "_den", den // g)
        _set(s, "_rows", tuple(tuple(r) if g == 1 else tuple(x // g for x in r) for r in rows))
        _set(s, "_basis", None)
        return s

    def _key(self) -> tuple:
        return (self.ambient_dim, self._den, self._rows)

    @property
    def basis(self) -> Matrix:
        if self._basis is None:
            _set(self, "_basis", _projection_matrix(self.ambient_dim, self._den, self._rows))
        return self._basis

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence[Scalar]] = ()) -> "Subspace":
        sb = SpanBuilder(ambient_dim)
        for v in vectors:
            sb.add(v)
        return sb.subspace()

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._from_rref_ints(ambient_dim, 1, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        unit = [[int(i == j) for j in range(ambient_dim)] for i in range(ambient_dim)]
        return cls._from_rref_ints(ambient_dim, 1, unit)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def is_zero(self) -> bool:
        return not self._rows

    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(r) if x) for r in self._rows)

    def contains(self, v: Sequence[Scalar]) -> bool:
        return self.coordinates(v) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        """Whether other lies in this subspace, on the int rows."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return None not in self._int_coordinates(other._rows)

    def coordinates(self, v: Sequence[Scalar]) -> Vector | None:
        """Coefficients of v in the RREF basis, or None if v is outside."""
        w = vector(v)
        if len(w) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        d, rows = _over_common_denominator([w])
        coords = next(self._int_coordinates(rows))
        return None if coords is None else tuple(Fraction(x, d) for x in coords)

    def _int_coordinates(self, rows: Iterable[Sequence[int]]) -> Iterator[list[int] | None]:
        """For each int row w in turn, its coordinates [w[p] for the pivots
        p] in the int rows r_p when w lies in the subspace, else None.  The
        one membership rule: w lies in it exactly when it is rebuilt from
        the r_p at its own entries w[p], as d w = sum_p w[p] r_p."""
        pivots = self.pivot_cols()
        d = self._den
        for w in rows:
            coords = [w[p] for p in pivots]
            yield coords if _combine(coords, self._rows, self.ambient_dim) == [d * x for x in w] else None


# ---------------------------------------------------------------------------
# kernels and quotients


def kernel_basis(m: Matrix) -> Subspace:
    """Right kernel {x : m x = 0} as a subspace of Q^cols; see
    ``_kernel_from_builder``."""
    sb = SpanBuilder(m.cols)
    for r in m.data:
        sb.add(r)
    return _kernel_from_builder(sb)


def _projection_rows(sb: SpanBuilder) -> tuple[tuple[int, ...], int, list[list[int]]]:
    """``(section, d, rows)``: the section columns of the rows fed to
    ``sb`` and d times the canonical projection's row at each, on ints
    over one common denominator d.  The one maker of a projection.

    With r_p the lead-1 reduced row led by p, the row at section column
    q is e_q - sum_p r_p[q] e_p, and d is the common denominator of the
    r_p that ``SpanBuilder._reduced_rows`` gives.  These rows kill every
    r_p, so they are also a basis of the right kernel."""
    d, reduced = sb._reduced_rows()
    section = tuple(j for j in range(sb.ncols) if j not in reduced)
    rows = []
    for q in section:
        row = [0] * sb.ncols
        row[q] = d
        for p, r in reduced.items():
            if r[q]:
                row[p] = -r[q]
        rows.append(row)
    return section, d, rows


def _projection_matrix(ncols: int, d: int, rows: Sequence[Sequence[int]]) -> Matrix:
    """The public ``Fraction`` matrix of int rows over the denominator d:
    a projection, or the basis of a ``Subspace``."""
    zero = Fraction(0)  # one shared zero: the projection is sparse
    return Matrix(len(rows), ncols, tuple(tuple(Fraction(x, d) if x else zero for x in row) for row in rows))


def _kernel_from_builder(sb: SpanBuilder) -> Subspace:
    """The right kernel of the rows fed to ``sb``: the span of the
    canonical projection rows, eliminated once on ints.  Every kernel in
    the package ends here."""
    kernel = SpanBuilder(sb.ncols)
    for row in _projection_rows(sb)[2]:
        kernel.add_int_row(row)
    return kernel.subspace()


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
