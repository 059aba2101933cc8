"""Finite-dimensional Lie algebras presented by structure constants.

An algebra of dimension n is stored as the sparse table of brackets
``[e_i, e_j] = sum_k c[k] e_k`` for i < j; the bracket of arbitrary
vectors is the bilinear, antisymmetric extension.  ``validate`` checks
the Jacobi identity and reports the first offending basis triple, so a
structurally well-formed but non-Lie table can be constructed and then
rejected with a witness.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import lcm
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .linalg import (
    Fraction,
    Matrix,
    Scalar,
    SpanBuilder,
    Subspace,
    Vector,
    _quotient_from_builder,
    quotient_with_section,
    random_invertible,
    unit_vector,
    vector,
    zero_vector,
)


class InvalidAlgebraError(ValueError):
    """Structure constants that do not define a Lie algebra."""


_UNCHECKED = object()
T = TypeVar("T")


class LieAlgebra:
    """A Lie algebra over Q given by structure constants.

    Instances are immutable and hashable; equality compares dimensions
    and bracket tables (labels are presentation only).  All derived
    computations are exact and deterministic; the Jacobi verdict, the
    derived subalgebra, the lower central series and the H(m) + A(k)
    decomposition are computed at most once per instance.
    """

    __slots__ = ("dim", "labels", "_table", "_key", "_hash", "_jacobi", "_derived", "_series", "_decomposition")

    def __init__(
        self,
        dim: int,
        brackets: Mapping[tuple[int, int], Sequence[Scalar]],
        labels: Sequence[str] | None = None,
    ):
        if dim < 0:
            raise ValueError("negative dimension")
        if labels is None:
            labels = tuple(f"e{i + 1}" for i in range(dim))
        else:
            labels = tuple(labels)
            if len(labels) != dim:
                raise ValueError("label count does not match dimension")
        table: dict[tuple[int, int], Vector] = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise InvalidAlgebraError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
            vec = vector(coeffs)
            if len(vec) != dim:
                raise InvalidAlgebraError(f"bracket ({i}, {j}) has {len(vec)} coefficients, expected {dim}")
            if any(vec):
                table[(i, j)] = vec
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_table", table)
        key = (dim, tuple(sorted(table.items())))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        for slot in ("_jacobi", "_derived", "_series", "_decomposition"):
            object.__setattr__(self, slot, _UNCHECKED)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LieAlgebra is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LieAlgebra) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<LieAlgebra dim={self.dim} brackets={len(self._table)}>"

    def _memo(self, slot: str, compute: Callable[[], T]) -> T:
        """The value held in ``slot``, computed on first use.  A value is
        stored only when ``compute`` returns, never when it raises."""
        value = getattr(self, slot)
        if value is _UNCHECKED:
            value = compute()
            object.__setattr__(self, slot, value)
        return value

    @property
    def brackets(self) -> Mapping[tuple[int, int], Vector]:
        return MappingProxyType(self._table)

    # -- bracket ------------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] as a coordinate vector."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise ValueError("basis index out of range")
        if i == j:
            return zero_vector(self.dim)
        if i < j:
            return self._table.get((i, j), zero_vector(self.dim))
        c = self._table.get((j, i))
        return zero_vector(self.dim) if c is None else tuple(-x for x in c)

    def _integer_table(
        self,
    ) -> tuple[int, dict[tuple[int, int], list[int]], list[list[tuple[int, int, list[int]]]]]:
        """The brackets over one common denominator d, as ``(d, table, ad)``.

        ``table[(i, j)]`` is d [e_i, e_j] as ints for the stored i < j,
        and the adjoint index ``ad[i]`` lists ``(j, sign, c)`` with
        [e_i, e_j] = sign c / d for every nonzero bracket at e_i.  It is
        recomputed on each call rather than kept on the instance: every
        consumer runs once per algebra.
        """
        d, rows = _over_common_denominator(self._table.values())
        table = dict(zip(self._table, rows))
        ad: list[list[tuple[int, int, list[int]]]] = [[] for _ in range(self.dim)]
        for (a, b), c in table.items():
            ad[a].append((b, 1, c))
            ad[b].append((a, -1, c))
        return d, table, ad

    def _ad_rows(self, vectors: Iterable[Sequence[Fraction]]) -> Iterator[list[int]]:
        """A positive integer multiple of [e_i, v] for every v in
        ``vectors`` and every basis index i, in that order: enough for
        spans, containment and zero tests."""
        _, _, ad = self._integer_table()
        _, ints = _over_common_denominator(vectors)
        for w in ints:
            for entries in ad:
                out = [0] * self.dim
                _accumulate(out, entries, w, 1)
                yield out

    def bracket(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
        """Bilinear antisymmetric extension of the structure constants."""
        xv = vector(x)
        yv = vector(y)
        if len(xv) != self.dim or len(yv) != self.dim:
            raise ValueError("vector length does not match algebra dimension")
        out = [Fraction(0)] * self.dim
        for (i, j), c in self._table.items():
            coef = xv[i] * yv[j] - xv[j] * yv[i]
            if coef:
                for k, v in enumerate(c):
                    if v:
                        out[k] += coef * v
        return tuple(out)

    # -- validation ---------------------------------------------------------

    def validate(self) -> tuple[int, int, int] | None:
        """First basis triple violating the Jacobi identity, or None.

        Antisymmetry holds by construction (only i < j brackets are
        stored), so the Jacobi identity is the whole check.  The check
        runs on integer-rescaled constants (each Jacobi term scales by
        the same square factor, so vanishing is unaffected) and the
        verdict is cached on the instance.
        """
        return self._memo("_jacobi", self._first_jacobi_violation)

    def _first_jacobi_violation(self) -> tuple[int, int, int] | None:
        _, table, ad = self._integer_table()
        for i, j, k in combinations(range(self.dim), 3):
            bij = table.get((i, j))
            bjk = table.get((j, k))
            bik = table.get((i, k))
            if bij is None and bjk is None and bik is None:
                continue
            out = [0] * self.dim
            if bjk is not None:
                _accumulate(out, ad[i], bjk, 1)
            if bik is not None:
                # [e_k, e_i] = -[e_i, e_k]
                _accumulate(out, ad[j], bik, -1)
            if bij is not None:
                _accumulate(out, ad[k], bij, 1)
            if any(out):
                return (i, j, k)
        return None

    def require_valid(self) -> None:
        violation = self.validate()
        if violation is not None:
            raise InvalidAlgebraError(f"Jacobi identity fails at basis triple {violation}")

    # -- subobjects ----------------------------------------------------------

    def derived_subalgebra(self) -> Subspace:
        """[L, L]: the span of all basis brackets."""
        return self._memo("_derived", lambda: Subspace.span(self.dim, self._table.values()))

    def center(self) -> Subspace:
        """{x : [x, y] = 0 for all y}: the kernel of the equations
        [x, e_j]_k = 0, eliminated once on ints and read off the
        canonical quotient section."""
        n = self.dim
        _, _, ad = self._integer_table()
        sb = SpanBuilder(n)
        for entries in ad:
            # row k of e_j holds d [e_j, e_i]_k = -d [e_i, e_j]_k at column i
            for k in range(n):
                row = [0] * n
                for i, sign, c in entries:
                    row[i] = sign * c[k]
                if any(row):
                    sb.add_int_row(row)
        return Subspace.span(n, _quotient_from_builder(sb).projection.data)

    def bracket_span(self, s: Subspace) -> Subspace:
        """[L, S] for a subspace S."""
        if s.ambient_dim != self.dim:
            raise ValueError("ambient dimension mismatch")
        sb = SpanBuilder(self.dim)
        for row in self._ad_rows(s.basis.data):
            if any(row):
                sb.add_int_row(row)
        return sb.subspace()

    def lower_central_series(self) -> list[Subspace]:
        """L^1 = L, L^{i+1} = [L, L^i], listed until it stabilizes.
        Each call returns a fresh list."""
        return list(self._memo("_series", self._series_terms))

    def _series_terms(self) -> tuple[Subspace, ...]:
        series = [Subspace.full(self.dim)]
        nxt = self.derived_subalgebra()  # L^2 = [L, L]
        while nxt != series[-1]:
            series.append(nxt)
            if nxt.is_zero():
                break
            nxt = self.bracket_span(nxt)
        return tuple(series)

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].is_zero()

    def is_ideal(self, s: Subspace) -> bool:
        if s.ambient_dim != self.dim:
            raise ValueError("ambient dimension mismatch")
        sb = SpanBuilder(self.dim)
        for row in s.basis.data:
            sb.add(row)
        # a row outside S enlarges the span
        return not any(sb.add_int_row(row) for row in self._ad_rows(s.basis.data))

    def is_central_ideal(self, s: Subspace) -> bool:
        if s.ambient_dim != self.dim:
            raise ValueError("ambient dimension mismatch")
        return not any(any(row) for row in self._ad_rows(s.basis.data))

    # -- constructions -------------------------------------------------------

    def quotient(self, ideal: Subspace) -> tuple["LieAlgebra", Matrix]:
        """L / N for an ideal N, with the projection onto quotient
        coordinates.

        Quotient coordinates are the non-pivot columns of the RREF of
        N's basis, so the construction is canonical: representatives of
        the quotient basis are the ambient unit vectors at those
        columns, and their labels are carried over.
        """
        if not self.is_ideal(ideal):
            raise ValueError("subspace is not an ideal")
        q = quotient_with_section(self.dim, ideal.basis.data)
        consts: dict[tuple[int, int], Vector] = {}
        for s in range(q.dim):
            for t in range(s + 1, q.dim):
                w = self.bracket_basis(q.section_cols[s], q.section_cols[t])
                consts[(s, t)] = q.projection.mul_vec(w)
        labels = tuple(self.labels[c] for c in q.section_cols)
        return LieAlgebra(q.dim, consts, labels), q.projection

    def change_basis(self, p: Matrix) -> "LieAlgebra":
        """The same algebra written in the basis f_i = sum_j p[i][j] e_j.

        Raises ValueError if p is not square invertible of matching size.
        """
        n = self.dim
        if p.rows != n or p.cols != n:
            raise ValueError("change of basis matrix has wrong shape")
        # rescale everything to integers and undo the scaling once per entry
        dq, qi = _over_common_denominator(p.inverse().transpose().data)
        dp, pi = _over_common_denominator(p.data)
        dt, ti, _ = self._integer_table()
        scale = Fraction(1, dp * dp * dt * dq)
        consts: dict[tuple[int, int], Vector] = {}
        for i in range(n):
            ri = pi[i]
            for j in range(i + 1, n):
                rj = pi[j]
                w = [0] * n
                for (a, b), c in ti.items():
                    coef = ri[a] * rj[b] - ri[b] * rj[a]
                    if coef:
                        for t, x in enumerate(c):
                            if x:
                                w[t] += coef * x
                if any(w):
                    consts[(i, j)] = tuple(
                        scale * sum(qr[t] * w[t] for t in range(n)) for qr in qi
                    )
        return LieAlgebra(self.dim, consts)


def _over_common_denominator(rows: Iterable[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """``(d, [d * row, ...])`` for the lcm d of every denominator in rows."""
    rows = list(rows)
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def _accumulate(out: list[int], entries: list[tuple[int, int, list[int]]], w: Sequence[int], sign: int) -> None:
    """out += sign d [e_i, w] for the adjoint index ``entries`` of e_i."""
    for j, s, c in entries:
        coef = sign * s * w[j]
        if coef:
            for t, x in enumerate(c):
                if x:
                    out[t] += coef * x


# ---------------------------------------------------------------------------
# standard families


def abelian(n: int) -> LieAlgebra:
    """A(n): the n-dimensional algebra with all brackets zero."""
    if n < 0:
        raise ValueError("negative dimension")
    return LieAlgebra(n, {}, labels=tuple(f"x{i + 1}" for i in range(n)))


def heisenberg(m: int) -> LieAlgebra:
    """H(m): dimension 2m + 1, basis a_1..a_m, b_1..b_m, z with
    [a_i, b_i] = z the only nonzero brackets."""
    if m < 1:
        raise ValueError("Heisenberg algebras need m >= 1")
    dim = 2 * m + 1
    labels = tuple(
        [f"a{i + 1}" for i in range(m)] + [f"b{i + 1}" for i in range(m)] + ["z"]
    )
    z = unit_vector(dim, 2 * m)
    return LieAlgebra(dim, {(i, m + i): z for i in range(m)}, labels=labels)


def direct_sum(left: LieAlgebra, right: LieAlgebra) -> LieAlgebra:
    """Block-diagonal direct sum; labels get ".1" / ".2" suffixes."""
    n1, n2 = left.dim, right.dim
    dim = n1 + n2
    consts: dict[tuple[int, int], Vector] = {}
    for (i, j), c in left.brackets.items():
        consts[(i, j)] = tuple(c) + zero_vector(n2)
    for (i, j), c in right.brackets.items():
        consts[(n1 + i, n1 + j)] = zero_vector(n1) + tuple(c)
    labels = tuple(f"{s}.1" for s in left.labels) + tuple(f"{s}.2" for s in right.labels)
    return LieAlgebra(dim, consts, labels=labels)


def scramble(algebra: LieAlgebra, seed: int) -> LieAlgebra:
    """Rewrite the algebra in a seeded random invertible rational basis."""
    rng = random.Random(seed)
    return algebra.change_basis(random_invertible(algebra.dim, rng))

