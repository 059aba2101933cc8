"""Exact linear algebra over the rationals.

Everything else in this package reduces to the primitives here: reduced
row echelon form, kernels, canonical quotient projections and subspace
membership.  There are no floats and no tolerances; two values are equal
exactly when their reduced fractions are equal, and every function is
deterministic.

Kernels and quotients share one canonical section.  ``_projection_rows``
is the one maker of the projection that kills a row space: integer
rows over one common denominator, which are also a basis of its right
kernel.  It reads the reduced rows of a ``SpanBuilder`` or of a
``Subspace``, which hold them in the same form.  ``Matrix._from_ints``
turns them into the public projection, and ``exterior_square`` checks
them as they are.
``_kernel`` eliminates a kernel's equations once, with their columns
reversed, and reads the kernel's RREF straight off the projection rows:
``kernel_basis``, ``LieAlgebra.center`` and the exterior center all end
there.  An image is read off the same way: ``Subspace._image`` maps
RREF coordinate rows through an RREF basis, which gives RREF rows
without a second elimination: ``LieAlgebra.bracket_span``, and
``exterior._square_center`` and ``exterior_center``, which read Z^(L1)
off the center's basis and Z^(L) off that of [L, L].

The public values (``Matrix`` entries, ``Subspace`` bases, vectors) are
``fractions.Fraction``s, but the work runs on plain ``int``.  The
elimination core, ``SpanBuilder``, stores integer rows, each divided by
its gcd, and ``SpanBuilder._reduced_rows`` hands out its reduced rows
over the lcm of their leads, the one common denominator that the
subspaces and the projections read.  The core has one elimination
step, ``_cross``: a x - b y clears the entry of x at the positive lead
of y by the least cross-multiplication.  ``add_int_row``, the one
forward reduction, and the Jordan step of ``_reduced_rows`` both take
it.
``add_int_row`` takes rows that are already integers: the callers in
``lie``, ``decompose`` and ``exterior`` feed it rows computed from
``LieAlgebra``'s one integer table of structure constants (every
bracket over one common denominator), from a projection or from the
integer rows of a ``Subspace``.  A ``Subspace`` holds its canonical
basis that way, as int rows over one common denominator.  The one lazy
boundary to ``Fraction`` is ``Matrix._from_ints``: a matrix of int rows
over one positive denominator, which makes its ``Fraction`` ``data``
the first time it is read.  A ``Subspace`` basis, a projection, the
commutator map of an exterior square and the ``basis_change`` of a
``Decomposition`` are all made that way.  Membership has one rule,
``Subspace._int_coordinates``: an int row lies in the subspace exactly
when it is rebuilt from the rows at its own pivot entries.
``contains``, ``coordinates``, ``contains_subspace`` and the certified
``[L, L]`` coordinates of ``lie``, which build ``[L, L]`` by it, all go
through it.  ``Subspace(n, basis)`` accepts a basis exactly when it is
the canonical basis of its own span, as ``SpanBuilder`` eliminates it.
``add``, ``coordinates`` and ``lie`` bring rational rows to ints with
``_over_common_denominator``, the one helper for that, and ``_lowest``
is the one rule that brings int rows over a denominator to lowest terms:
``Subspace``, ``LieAlgebra``'s table and ``decompose`` call it.

``Matrix``, ``Subspace`` and, in the other modules, ``LieAlgebra`` and
``ExteriorSquare`` are plain classes on ``_Record``, which makes them
immutable, comparable and hashable without ``dataclasses``:
that module imports ``inspect``, ``ast`` and ``dis``, which a fresh
interpreter would load for every ``liecap`` command.  ``_Record.__init__``
is the one writer of their fields; only ``Matrix.data``, which makes its
``Fraction``s on first read, writes one again.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import mul
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
    v = [Fraction(0)] * n  # one shared zero
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


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(mul, x, y))


def _lowest(d: int, rows: Iterable[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(d', rows')``: the int rows rows / d, over a nonzero d, in lowest
    terms, rows' / d' with d' > 0 the lcm of their reduced denominators.
    The one lowest-terms rule of the package."""
    rows = tuple(map(tuple, rows))
    g = math.gcd(d, *(math.gcd(*r) for r in rows))
    if d < 0:
        g = -g
    return d // g, rows if g == 1 else tuple(tuple(x // g for x in r) for r in rows)


def _normalize_int(row: list[int]) -> list[int]:
    """A nonzero int row divided by its gcd, signed so that its lead is
    positive.  The sign rule keeps every pivot lead positive, so the
    ``a == 1`` shortcut of ``_cross`` applies whenever the lead divides
    the entry it clears."""
    g = math.gcd(*row)
    if next(filter(None, row)) < 0:
        g = -g
    return row if g == 1 else [v // g for v in row]


def _cross(v: int, pv: int, x: Iterable[int], y: Iterable[int]) -> list[int]:
    """a x - b y for the least a > 0 and b with a v = b pv, the entry v
    of x and the positive lead pv of y: the one elimination step, which
    clears the entry of x at the lead's column."""
    g = math.gcd(v, pv)
    a = pv // g
    b = v // g
    if a == 1:
        return [s - b * t for s, t in zip(x, y)]
    return [a * s - b * t for s, t in zip(x, y)]


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
        """Add a row already given by integer entries and report whether
        it enlarged the span.  The list is consumed.

        The one forward reduction: each nonzero entry at a pivot is
        cleared with ``_cross``.  A row that vanishes does not enlarge the
        span; one that reaches a nonzero entry with no pivot is stored
        there, divided by its gcd."""
        if len(row) != self.ncols:
            raise ValueError("row length does not match column count")
        steps = 0
        for c in range(self.ncols):
            if row[c]:
                p = self._pivots.get(c)
                if p is None:
                    self._pivots[c] = _normalize_int(row)
                    return True
                rest = _cross(row[c], p[c], row[c:], p[c:])
                if not any(rest):
                    return False
                row[c:] = rest
                # keep entries small: cross-multiplication compounds quickly.
                # Dividing at every step instead measured slower on scrambled
                # H(m)+A(k) files (median +4%) and on filiform L_12 (+13%), and
                # faster only on L_14 (-2%), over 6 in-process runs on 2 vCPU
                steps += 1
                if steps % 8 == 0:
                    row = _normalize_int(row)
        return False

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
            for d in rows:
                drow = rows[d]
                if d < c and drow[c]:
                    rows[d] = _normalize_int(_cross(drow[c], prow[c], drow, prow))
        d = math.lcm(*(r[c] for c, r in rows.items()))
        return d, {c: r if r[c] == d else [x * (d // r[c]) for x in r] for c, r in rows.items()}

    def subspace(self) -> "Subspace":
        d, rows = self._reduced_rows()
        return Subspace._from_rref_ints(self.ncols, d, [rows[c] for c in sorted(rows)])


# ---------------------------------------------------------------------------
# matrices


_set = object.__setattr__


class _Record:
    """Base of the immutable value classes: ``_Record.__init__`` sets each
    stored field once, in the order of the class's ``__slots__`` other
    than ``__weakref__``, or of its ``_fields`` when it has no slots,
    after which assigning or deleting one raises.  It is the one writer
    of a value's fields; a subclass checks its arguments and hands it
    every field.  A value equals, and hashes as, a value of its own
    class with the same ``_key()``, by default the ``_fields``, the
    constructor's arguments."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        # a "__weakref__" slot, which lets a value key a weak memo, is no field
        names = [name for name in self.__slots__ if name != "__weakref__"] or self._fields
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} values, {len(values)} given")
        for name, value in zip(names, values):
            _set(self, name, value)

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


class Matrix(_Record):
    """Immutable dense matrix of Fractions, row major.

    ``Matrix(rows, cols, data)`` checks and holds its ``Fraction`` rows.
    ``_from_ints`` holds int rows over one positive denominator instead,
    and makes ``data`` from them the first time it is read: the one place
    where the package turns int rows into ``Fraction`` matrices.  Either
    way equality, the hash, ``repr``, copy and pickle read ``data``."""

    __slots__ = ("rows", "cols", "_data", "_den", "_ints")
    _fields = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple[tuple[Fraction, ...], ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        if len(data) != rows:
            raise ValueError("row count mismatch")
        if any(len(r) != cols for r in data):
            raise ValueError("ragged matrix rows")
        _Record.__init__(self, rows, cols, data, None, None)

    @classmethod
    def _from_ints(cls, cols: int, d: int, rows: Sequence[Sequence[int]]) -> "Matrix":
        """The matrix rows / d, for int rows of length ``cols`` over a
        positive denominator d, from a caller that hands the rows over;
        nothing is checked."""
        m = cls.__new__(cls)
        _Record.__init__(m, len(rows), cols, None, d, rows)
        return m

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._data is None:
            d = self._den
            zero = Fraction(0)  # one shared zero: projections and bases are sparse
            _set(self, "_data", tuple(tuple(Fraction(x, d) if x else zero for x in row) for row in self._ints))
        return self._data

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
        return cls._from_ints(n, 1, [[int(i == j) for j in range(n)] for i in range(n)])

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
        d, ints = _over_common_denominator(self.data)
        sb = SpanBuilder(2 * n)
        for i, r in enumerate(ints):
            sb.add_int_row(r + [d * (i == j) for j in range(n)])
        if sb.pivot_cols() != tuple(range(n)):
            raise ValueError("matrix is singular")
        d, reduced = sb._reduced_rows()
        return Matrix._from_ints(n, d, [reduced[i][n:] for i in range(n)])


# ---------------------------------------------------------------------------
# subspaces


class Subspace(_Record):
    """A subspace of Q^n held as its canonical RREF basis (no zero rows).

    The basis is kept on ints: ``_rows`` holds d times the lead-1 RREF
    rows, for the lcm d (``_den``) of their denominators, which is the
    lcm of the leads of the reduced rows of ``SpanBuilder``.  That form
    is canonical, so equality and the hash read it.  ``basis`` is the
    matrix of the rows, built by ``Matrix._from_ints`` from those int
    rows, so its ``Fraction``s are made only when it is read.
    ``Subspace(n, basis)`` accepts ``basis`` exactly when it is the
    canonical basis of its own span, which ``span`` eliminates; ``span``
    is the safe constructor."""

    __slots__ = ("ambient_dim", "_den", "_rows", "basis")
    _fields = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.cols != ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        # accepted exactly when it is the canonical basis of its own span
        canonical = Subspace.span(ambient_dim, basis.data)
        if canonical.basis != basis:
            raise ValueError("subspace basis is not in reduced echelon form")
        _Record.__init__(self, ambient_dim, canonical._den, canonical._rows, basis)

    @classmethod
    def _from_rref_ints(cls, ambient_dim: int, den: int, rows: Iterable[Sequence[int]]) -> "Subspace":
        """The subspace with the RREF rows rows / den, from a caller that
        holds them on ints over a positive common denominator; the form
        is not checked.  In lowest terms, den is the lcm of the
        denominators, the canonical form."""
        den, rows = _lowest(den, rows)
        s = cls.__new__(cls)
        _Record.__init__(s, ambient_dim, den, rows, Matrix._from_ints(ambient_dim, den, rows))
        return s

    def _key(self) -> tuple:
        return (self.ambient_dim, self._den, self._rows)

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

    def _image(self, d: int, coords: Iterable[Sequence[int]]) -> "Subspace":
        """The subspace with the RREF coordinate rows coords / d in this
        basis, for int rows over a positive common denominator d.  A
        coordinate row c led by t maps to sum_r c[r] r_r, which vanishes
        before the pivot of r_t, holds d D there and 0 at every other
        pivot: the mapped rows are RREF rows over d D, for this basis's
        denominator D, and are not eliminated again.  ``bracket_span``,
        ``exterior._square_center`` and ``exterior_center`` read their
        images off here."""
        n = self.ambient_dim
        return Subspace._from_rref_ints(n, d * self._den, [_combine(c, self._rows, n) for c in coords])


# ---------------------------------------------------------------------------
# kernels and quotients


def kernel_basis(m: Matrix) -> Subspace:
    """Right kernel {x : m x = 0} as a subspace of Q^cols; see
    ``_kernel``."""
    return _kernel(m.cols, (_over_common_denominator([r])[1][0] for r in m.data))


def _projection_rows(
    ncols: int, d: int, reduced: dict[int, Sequence[int]]
) -> tuple[tuple[int, ...], int, list[list[int]]]:
    """``(section, d, rows)``: the section columns of a row space of
    Q^ncols and d times the canonical projection's row at each, on ints
    over one common denominator d.  The one maker of a projection.

    ``(d, reduced)`` is the row space in the form that
    ``SpanBuilder._reduced_rows`` gives, {p: d r_p} for the lead-1
    reduced rows r_p led by p; a ``Subspace`` holds the same form.  The
    row at section column q is e_q - sum_p r_p[q] e_p.  These rows kill
    every r_p, so they are also a basis of the right kernel."""
    section = tuple(j for j in range(ncols) if j not in reduced)
    rows = []
    for q in section:
        row = [0] * ncols
        row[q] = d
        for p, r in reduced.items():
            if r[q]:
                row[p] = -r[q]
        rows.append(row)
    return section, d, rows


def _kernel(ncols: int, rows: Iterable[Sequence[int]]) -> Subspace:
    """The right kernel of the int rows of length ``ncols``, from one
    elimination.  Every kernel in the package ends here.

    The rows are eliminated with their columns reversed.  There, the
    projection row at section column q is d e_q minus entries at pivot
    columns before q.  Read back in the original column order, it leads
    with d at the column of q, and no other projection row has an entry
    there: the projection rows, reversed in order and in columns, are
    the kernel's RREF rows over the one denominator d."""
    sb = SpanBuilder(ncols)
    for row in rows:
        sb.add_int_row(list(reversed(row)))
    _, d, kernel = _projection_rows(ncols, *sb._reduced_rows())
    return Subspace._from_rref_ints(ncols, d, [row[::-1] for row in reversed(kernel)])


def random_invertible(n: int, rng: random.Random) -> Matrix:
    """Deterministic (given rng) random invertible matrix with small
    rational entries; used for change-of-basis scrambles."""
    while True:
        data = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
            for _ in range(n)
        ]
        m = Matrix.from_rows(data, cols=n)
        if m.rank() == n:
            return m
