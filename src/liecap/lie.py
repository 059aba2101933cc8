"""Finite-dimensional Lie algebras presented by structure constants.

An algebra of dimension n is stored as the sparse table of brackets
``[e_i, e_j] = sum_k c[k] e_k`` for i < j, held in ints over one common
denominator; the bracket of arbitrary vectors is the bilinear,
antisymmetric extension.  ``validate`` checks the Jacobi identity, in the
coordinates of the derived subalgebra, and reports the first offending
basis triple, so a structurally well-formed but non-Lie table can be
constructed and then rejected with a witness.  The derived subalgebra
is built by the walk that certifies those coordinates: one pass over
the bracket rows with the membership rule of ``Subspace``.

A ``LieAlgebra`` is immutable, so every invariant of it is computed at
most once per instance: a function under ``_once`` keeps its value in
the instance's one memo dict, and a module built on this one memoizes
its own invariants of an algebra the same way.  The memo lives and dies
with the instance and is not shared between equal algebras.  A shared cache
(``functools.lru_cache`` on these methods) keeps algebras and their
invariants alive after their last use, and it raised the peak memory
of ``analyze --method formula`` on scrambled H(m) + A(k) by about 6%.
The ``exterior`` caches are shared instead, since ``verify-paper``
builds equal algebras again and again.
"""

from __future__ import annotations

import random
from functools import update_wrapper
from itertools import combinations, takewhile
from math import gcd, lcm
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence, TypeVar

from .linalg import (
    Fraction,
    Matrix,
    Scalar,
    SpanBuilder,
    Subspace,
    Vector,
    _combine,
    _dot,
    _kernel,
    _lowest,
    _over_common_denominator,
    _projection_rows,
    _Record,
    _set,
    random_invertible,
    vector,
    zero_vector,
)


class InvalidAlgebraError(ValueError):
    """Structure constants that do not define a Lie algebra."""


class DerivedBasisError(RuntimeError):
    """A basis bracket is not recomposed from the basis of [L, L];
    indicates a defect."""


class _DerivedCoordinates(NamedTuple):
    """The bracket in the coordinates of [L, L] = span(z_1..z_m), where
    z_r is the RREF basis of the derived subalgebra with pivot column p_r.

    ``derived`` is [L, L] itself, the ``Subspace`` that
    ``LieAlgebra.derived_subalgebra`` returns, built by the walk that
    certifies the forms.  ``forms`` holds m dense alternating n x n int
    matrices, ``forms[r][a][b] = d [e_a, e_b]_r``: the coordinates of [e_a, e_b]
    times the common denominator d of the integer table, which the
    algebra holds as ``_den``.  It is the one stored form of the bracket,
    which ``validate``, ``center``, ``bracket_span``, ``_change_basis``,
    ``decompose._gram`` and ``exterior_square`` read, and that nothing
    mutates.  For an int vector w, [w, e_b]_r is entry b of the
    combination of the rows of ``forms[r]`` at the nonzero entries of w,
    ``linalg._combine(w, forms[r], n)``: the one bracket kernel.  With
    D z_r the int row that the derived ``Subspace`` holds over its
    denominator D, ``beta[r][b]`` is d D times the coordinates of
    [z_r, e_b], for every b with [z_r, e_b] != 0; a missing b has
    [z_r, e_b] = 0.
    """

    derived: Subspace
    forms: list[list[list[int]]]
    beta: list[dict[int, list[int]]]

    def jacobiator(self, i: int, j: int, k: int) -> list[int]:
        """-d^2 D times the coordinates of the Jacobiator
        [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]] for
        i < j < k: zero exactly when the Jacobiator is, since it lies in
        [L, L]."""
        out = [0] * len(self.beta)
        for p, q, col, sign in ((i, j, k, 1), (j, k, i, 1), (i, k, j, -1)):
            for g, b in zip(self.forms, self.beta):
                x = g[p][q]
                if x:
                    for s, y in enumerate(b.get(col, ())):
                        out[s] += sign * x * y
        return out


class _AbelianSplit(NamedTuple):
    """The canonical split L = L1 + A into an ideal L1 that contains
    [L, L] and an abelian direct factor A.

    ``factor`` is A: the span of the RREF rows of the center that enlarge
    the span of [L, L], so A is central with A and [L, L] meeting in 0.
    The split basis is ``basis`` / ``den``, int rows over one common
    denominator: the RREF basis of [L, L] (its first dim [L, L] rows),
    the unit vectors at the non-pivot columns of the RREF of [L, L] + A,
    which complete it to a complement of A, and then the rows of A: its
    first dim - k rows span L1.
    """

    factor: Subspace
    den: int
    basis: list[list[int]]


T = TypeVar("T")


def _once(compute: Callable[["LieAlgebra"], T]) -> Callable[["LieAlgebra"], T]:
    """Compute an invariant of an algebra at most once per instance.

    The value of ``compute(algebra)`` is kept in ``algebra._memo``, the
    one memo of the instance, keyed by ``compute`` itself; it is stored
    only when ``compute`` returns, never when it raises, so a failure is
    raised afresh on the next call.  The result is a plain function with
    the name and docstring of ``compute``."""

    def once(algebra: "LieAlgebra") -> T:
        memo = algebra._memo
        if compute not in memo:
            memo[compute] = compute(algebra)
        return memo[compute]

    return update_wrapper(once, compute)


class LieAlgebra(_Record):
    """A Lie algebra over Q given by structure constants.

    Instances are immutable, comparable and hashable through
    ``linalg._Record``; equality compares dimensions and bracket tables
    (labels are presentation only).  The table is stored once, as ints:
    the lcm d of the reduced denominators and the int tuple d [e_i, e_j]
    of every nonzero bracket with i < j.  That is canonical, so it serves
    as the key, whose hash is kept.  All derived computations are exact
    and deterministic.  The Jacobi verdict, the derived subalgebra with
    the brackets in its certified coordinates, the center, the lower
    central series and the split L = L1 + A off an abelian direct factor
    are computed at most once per instance, each kept by ``_once`` in the
    one dict ``_memo``.
    """

    __slots__ = (
        "dim",
        "labels",
        "_den",
        "_rows",
        "_hash",
        "_memo",
    )

    def __init__(
        self,
        dim: int,
        brackets: Mapping[tuple[int, int], Sequence[Scalar]],
        labels: Sequence[str] | None = None,
    ):
        if dim < 0:
            raise ValueError("negative dimension")
        table: dict[tuple[int, int], Vector] = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise InvalidAlgebraError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
            vec = vector(coeffs)
            if len(vec) != dim:
                raise InvalidAlgebraError(f"bracket ({i}, {j}) has {len(vec)} coefficients, expected {dim}")
            table[(i, j)] = vec
        den, rows = _over_common_denominator(table.values())
        self._set_table(dim, den, dict(zip(table, rows)), labels)

    @classmethod
    def _from_int_rows(
        cls,
        dim: int,
        den: int,
        rows: Mapping[tuple[int, int], Sequence[int]],
        labels: Sequence[str] | None = None,
    ) -> "LieAlgebra":
        """The algebra with [e_i, e_j] = rows[(i, j)] / den for i < j, from
        a caller that already holds its brackets as ints over a positive
        common denominator; the keys and row lengths are not checked."""
        algebra = cls.__new__(cls)
        algebra._set_table(dim, den, rows, labels)
        return algebra

    def _set_table(
        self,
        dim: int,
        den: int,
        rows: Mapping[tuple[int, int], Sequence[int]],
        labels: Sequence[str] | None,
    ) -> None:
        """Store the integer table in its canonical form, in lowest terms
        by ``linalg._lowest``, which leaves den as the lcm of the reduced
        denominators of the brackets.  Zero brackets are dropped."""
        if labels is None:
            labels = tuple(f"e{i + 1}" for i in range(dim))
        else:
            labels = tuple(labels)
            if len(labels) != dim:
                raise ValueError("label count does not match dimension")
        den, reduced = _lowest(den, rows.values())
        stored = {key: c for key, c in zip(rows, reduced) if any(c)}
        key_hash = hash((dim, den, tuple(sorted(stored.items()))))
        for name, value in zip(self.__slots__, (dim, labels, den, MappingProxyType(stored), key_hash, {})):
            _set(self, name, value)

    def _key(self) -> tuple:
        # the tables compare as dicts, in any order; the kept hash reads them sorted
        return (self.dim, self._den, self._rows)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<LieAlgebra dim={self.dim} brackets={len(self._rows)}>"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild the table; the memo is not carried
        return LieAlgebra._from_int_rows, (self.dim, self._den, dict(self._rows), self.labels)

    @property
    def brackets(self) -> Mapping[tuple[int, int], Vector]:
        """The nonzero [e_i, e_j] for i < j, as a read-only mapping built
        on each call."""
        d = self._den
        return MappingProxyType({key: tuple(Fraction(x, d) for x in c) for key, c in self._rows.items()})

    # -- bracket ------------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] as a coordinate vector."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise ValueError("basis index out of range")
        c = self._rows.get((min(i, j), max(i, j)))  # None for i == j
        if c is None:
            return zero_vector(self.dim)
        d = self._den if i < j else -self._den
        return tuple(Fraction(x, d) for x in c)

    def bracket(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
        """Bilinear antisymmetric extension of the structure constants."""
        xv = vector(x)
        yv = vector(y)
        if len(xv) != self.dim or len(yv) != self.dim:
            raise ValueError("vector length does not match algebra dimension")
        out = [Fraction(0)] * self.dim
        for (i, j), c in self._rows.items():
            coef = xv[i] * yv[j] - xv[j] * yv[i]
            if coef:
                for k, v in enumerate(c):
                    if v:
                        out[k] += coef * v
        return tuple(x / self._den for x in out)

    # -- validation ---------------------------------------------------------

    @_once
    def validate(self) -> tuple[int, int, int] | None:
        """First basis triple violating the Jacobi identity, or None.

        Antisymmetry holds by construction (only i < j brackets are
        stored), so the Jacobi identity is the whole check.  Every
        Jacobiator lies in [L, L], so it is evaluated in the m = dim [L, L]
        coordinates of that subspace, on the integer forms (each term
        scales by the same factor, so vanishing is unaffected): the pass
        costs O(n^3 m^2), not O(n^5).  A triple is skipped when none of
        its three pairs has a stored bracket, since then every term of
        its Jacobiator is zero.  The verdict is cached on the
        instance.  Raises DerivedBasisError if a bracket escapes the
        computed [L, L], a defect.
        """
        coords = self._derived_coordinates()
        # every term of a Jacobiator carries a beta factor: when [L, L] is
        # central, as in every 2-step nilpotent algebra, all of them vanish
        if not any(x for row in coords.beta for col in row.values() for x in col):
            return None
        rows = self._rows
        for i, j, k in combinations(range(self.dim), 3):
            if (i, j) not in rows and (j, k) not in rows and (i, k) not in rows:
                continue
            if any(coords.jacobiator(i, j, k)):
                return (i, j, k)
        return None

    @_once
    def _derived_coordinates(self) -> _DerivedCoordinates:
        """[L, L] and the bracket in its coordinates; see
        ``_DerivedCoordinates``.  One walk over the stored bracket rows
        builds [L, L] with the one membership rule,
        ``Subspace._int_coordinates``, the pivots read once per basis: a
        row that the current RREF basis rebuilds yields its coordinates,
        its entries at the pivot columns, and a row that it does not
        rebuild goes to one ``SpanBuilder``, whose basis is read again and
        certifies the rows read before it again.  So every bracket is
        certified in the final basis, in ints, as its form entries are
        read off.  beta expands each D z_r through the forms, since
        D d [z_r, e_b] = sum_t (D z_r)_t d [e_t, e_b].  Computed once per
        instance.  Raises DerivedBasisError if a bracket is not recomposed
        from the basis it enlarged, a defect."""
        n = self.dim
        keys, brackets = list(self._rows), list(self._rows.values())
        sb = SpanBuilder(n)
        coords: list[list[int]] = []
        # every stored row is nonzero, so the first one enlarges the zero basis
        derived = None if brackets else sb.subspace()
        while len(coords) < len(brackets):
            # the first row the basis does not rebuild enlarges it
            if not sb.add_int_row(list(brackets[len(coords)])):
                raise DerivedBasisError(f"bracket {keys[len(coords)]} is not recomposed from the basis of [L, L]")
            derived = sb.subspace()
            # the coordinates of the longest run of rows the basis rebuilds
            coords = list(takewhile(lambda a: a is not None, derived._int_coordinates(brackets)))
        forms = [[[0] * n for _ in range(n)] for _ in range(derived.dim)]
        for (i, j), a in zip(keys, coords):
            for g, x in zip(forms, a):
                if x:
                    g[i][j] = x
                    g[j][i] = -x
        beta = []
        for z in derived._rows:
            rows = [_combine(z, g, n) for g in forms]  # rows[s][b] = d D [z_r, e_b]_s
            beta.append({b: list(c) for b, c in enumerate(zip(*rows)) if any(c)} if any(map(any, rows)) else {})
        return _DerivedCoordinates(derived, forms, beta)

    def require_valid(self) -> None:
        violation = self.validate()
        if violation is not None:
            raise InvalidAlgebraError(f"Jacobi identity fails at basis triple {violation}")

    # -- subobjects ----------------------------------------------------------

    def derived_subalgebra(self) -> Subspace:
        """[L, L]: the span of all basis brackets, as
        ``_derived_coordinates`` builds and certifies it."""
        return self._derived_coordinates().derived

    @_once
    def center(self) -> Subspace:
        """{x : [x, y] = 0 for all y}, eliminated once per instance on ints
        by ``linalg._kernel``, the one kernel route of the package, which
        reads the kernel off that one elimination.  [e_j, x] lies in
        [L, L], so it vanishes exactly when its m = dim [L, L] certified
        coordinates do: row j of the form r, d [e_j, e_i]_r for every i,
        is the equation of the coordinate r, and x is in the center when
        it solves the nonzero rows of the forms, n m equations instead of
        n^2.  Raises
        DerivedBasisError if a bracket escapes the computed [L, L], a
        defect."""
        forms = self._derived_coordinates().forms
        return _kernel(self.dim, (g[j] for j in range(self.dim) for g in forms if any(g[j])))

    @_once
    def _abelian_split(self) -> _AbelianSplit:
        """The canonical split L = L1 + A; see ``_AbelianSplit``.  Computed
        once per instance, from the center and [L, L] alone, eliminated
        on their int rows."""
        n = self.dim
        derived = self.derived_subalgebra()
        center = self.center()
        sb = SpanBuilder(n)
        for z in derived._rows:
            sb.add_int_row(list(z))
        factor = [row for row in center._rows if sb.add_int_row(list(row))]
        pivots = set(sb.pivot_cols())
        den = lcm(derived._den, center._den)
        sd, sc = den // derived._den, den // center._den
        basis = [[sd * x for x in z] for z in derived._rows]
        basis += [[den * (t == i) for t in range(n)] for i in range(n) if i not in pivots]
        basis += [[sc * x for x in a] for a in factor]
        return _AbelianSplit(Subspace._from_rref_ints(n, center._den, factor), den, basis)

    def bracket_span(self, s: Subspace) -> Subspace:
        """[L, S] for a subspace S.  It lies in [L, L], so the brackets
        [w, e_b] of the rows w of S are eliminated in their m = dim [L, L]
        coordinates, and at rank m they span [L, L] itself; otherwise the
        reduced coordinate rows are mapped back through the derived basis
        rows, which gives the RREF of [L, S] in Q^n without eliminating
        again (``Subspace._image``).  Raises DerivedBasisError if a
        bracket escapes the computed [L, L], a defect."""
        if s.ambient_dim != self.dim:
            raise ValueError("ambient dimension mismatch")
        n = self.dim
        derived, forms, _ = self._derived_coordinates()
        sb = SpanBuilder(derived.dim)
        for w in s._rows:
            for col in zip(*[_combine(w, g, n) for g in forms]):
                if any(col) and sb.add_int_row(list(col)) and sb.rank == derived.dim:
                    return derived
        d, rows = sb._reduced_rows()
        return derived._image(d, [rows[c] for c in sorted(rows)])

    def lower_central_series(self) -> list[Subspace]:
        """L^1 = L, L^{i+1} = [L, L^i], listed until it stabilizes.
        Each call returns a fresh list."""
        return list(self._series_terms())

    @_once
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
        return s.contains_subspace(self.bracket_span(s))

    def is_central_ideal(self, s: Subspace) -> bool:
        return self.bracket_span(s).is_zero()

    # -- constructions -------------------------------------------------------

    def quotient(self, ideal: Subspace) -> tuple["LieAlgebra", Matrix]:
        """L / N for an ideal N, with the projection onto quotient
        coordinates.

        Quotient coordinates are the non-pivot columns of the RREF of
        N's basis, so the construction is canonical: representatives of
        the quotient basis are the ambient unit vectors at those
        columns, and their labels are carried over.  One change of basis
        writes L in those q = dim L / N unit vectors followed by N's RREF
        rows; the projection kills N and sends the unit vectors to the
        quotient basis, so the first q coordinates of a bracket of the
        first q vectors are its image in L / N.
        """
        if not self.is_ideal(ideal):
            raise ValueError("subspace is not an ideal")
        n = self.dim
        cols, d, rows = _projection_rows(n, ideal._den, dict(zip(ideal.pivot_cols(), ideal._rows)))
        # the unit vectors at cols, over the denominator of N's rows
        section = [[ideal._den * (t == c) for t in range(n)] for c in cols]
        rewritten = self._change_basis(ideal._den, [*section, *ideal._rows])
        quotient = rewritten._leading_block(len(cols), [self.labels[c] for c in cols])
        return quotient, Matrix._from_ints(n, d, rows)

    def change_basis(self, p: Matrix) -> "LieAlgebra":
        """The same algebra written in the basis f_i = sum_j p[i][j] e_j.

        Works on ints in the certified coordinates of [L, L] (see
        ``_DerivedCoordinates``): [f_i, f_j] is formed as an m-vector,
        m = dim [L, L], of the Gram products (p_i G_r) . p_j with the
        forms G_r, where the row p_i G_r comes from the bracket kernel and
        an f_i with p_i G_r = 0 for every r brackets to zero.  The m basis
        vectors z_r of [L, L] are written in the f basis once: forward
        elimination of [p^T | Z^T], then back substitution on the m
        right-hand sides only.  That costs O(n^3 m), not O(n^4).  Raises
        ValueError if p is not square invertible of matching size, and
        DerivedBasisError if a bracket escapes the computed [L, L], a
        defect.
        """
        if p.rows != self.dim or p.cols != self.dim:
            raise ValueError("change of basis matrix has wrong shape")
        return self._change_basis(*_over_common_denominator(p.data))

    def _change_basis(self, dp: int, pi: Sequence[Sequence[int]]) -> "LieAlgebra":
        """``change_basis`` on ints, for p = pi / dp with n int rows pi of
        length n over a positive common denominator dp."""
        n = self.dim
        derived, forms, _ = self._derived_coordinates()
        # row k of [dp p^T | D Z^T]; forward elimination leaves row k led by column k
        sb = SpanBuilder(n + derived.dim)
        for k in range(n):
            sb.add_int_row([row[k] for row in pi] + [z[k] for z in derived._rows])
        if sb.pivot_cols() != tuple(range(n)):
            raise ValueError("matrix is singular")
        # back substitution on the m right-hand sides only: ys[r] / dy is
        # D / dp times the coordinates of z_r in the f basis
        ys = [[0] * n for _ in forms]
        dy = 1
        for k in range(n - 1, -1, -1):
            u = sb._pivots[k]  # zero before column k, its lead u[k] > 0
            if not any(u[k + 1 :]):
                continue  # u[k] y[k] = 0 for every r
            # y[k] is still 0, so u . y runs over the solved y[t], t > k
            num = [b * dy - _dot(u[:n], y) for b, y in zip(u[n:], ys)]
            g = gcd(u[k], *num)
            f = u[k] // g
            if f != 1:
                ys = [[f * x for x in y] for y in ys]
                dy *= f
            for y, x in zip(ys, num):
                y[k] = x // g
        ts = [[_combine(row, g, n) for g in forms] for row in pi]  # ts[i][r][b] = dp d [f_i, e_b]_r
        # [f_i, f_j] = 0 unless both brackets [f_i, -] and [f_j, -] are nonzero
        live = [i for i, t in enumerate(ts) if any(map(any, t))]
        consts: dict[tuple[int, int], list[int]] = {}
        for k, i in enumerate(live):
            for j in live[k + 1 :]:
                w = [_dot(tr, pi[j]) for tr in ts[i]]  # dp^2 d [f_i, f_j]_r
                if any(w):
                    consts[(i, j)] = _combine(w, ys, n)
        # [f_i, f_j] = sum_r w_r / (dp^2 d) z_r, and z_r = dp ys[r] / (dy D)
        return LieAlgebra._from_int_rows(n, dp * self._den * derived._den * dy, consts)

    def _leading_block(self, size: int, labels: Sequence[str] | None = None) -> "LieAlgebra":
        """The brackets among the first ``size`` basis vectors, cut to
        their first ``size`` coordinates: the algebra those vectors span
        modulo the span of the rest, when that span is an ideal."""
        block = {(i, j): c[:size] for (i, j), c in self._rows.items() if j < size}
        return LieAlgebra._from_int_rows(size, self._den, block, labels)


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
    z = [0] * (2 * m) + [1]
    return LieAlgebra._from_int_rows(dim, 1, {(i, m + i): z for i in range(m)}, labels)


def direct_sum(left: LieAlgebra, right: LieAlgebra) -> LieAlgebra:
    """Block-diagonal direct sum; labels get ".1" / ".2" suffixes."""
    n1, n2 = left.dim, right.dim
    den = lcm(left._den, right._den)
    sl, sr = den // left._den, den // right._den
    consts: dict[tuple[int, int], list[int]] = {}
    for (i, j), c in left._rows.items():
        consts[(i, j)] = [sl * x for x in c] + [0] * n2
    for (i, j), c in right._rows.items():
        consts[(n1 + i, n1 + j)] = [0] * n1 + [sr * x for x in c]
    labels = tuple(f"{s}.1" for s in left.labels) + tuple(f"{s}.2" for s in right.labels)
    return LieAlgebra._from_int_rows(n1 + n2, den, consts, labels)


def scramble(algebra: LieAlgebra, seed: int) -> LieAlgebra:
    """Rewrite the algebra in a seeded random invertible rational basis."""
    rng = random.Random(seed)
    return algebra.change_basis(random_invertible(algebra.dim, rng))

