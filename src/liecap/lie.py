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
with the instance and is not shared between equal algebras, so what an
instance computes never depends on which equal algebras are alive.  A
cache that holds its keys (a ``functools`` LRU cache on these methods)
keeps algebras and their invariants alive after their last use, and it
raised the peak memory of ``analyze --method formula`` on scrambled
H(m) + A(k) by about 6%.  The ``exterior`` results are shared instead,
through ``_shared``, since different algebras share equal factors L1
and equal quotients: with per-instance memos, ``verify-paper``, which
builds each of its own algebras once, builds 64 exterior squares
instead of 14.  ``_shared`` keeps a value only while an algebra equal
to the one it was computed for is alive, so it needs no capacity.
"""

from __future__ import annotations

import random
from functools import update_wrapper
from itertools import combinations, takewhile
from math import lcm
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence, TypeVar
from weakref import WeakKeyDictionary

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
    which ``validate``, ``center``, ``bracket_span``, ``_gram_products``,
    ``decompose._gram`` and ``exterior_square`` read, and that nothing
    mutates.  For an int vector w, [w, e_b]_r is entry b of the
    combination of the rows of ``forms[r]`` at the nonzero entries of w,
    ``linalg._combine(w, forms[r], n)``: the one bracket kernel.
    """

    derived: Subspace
    forms: list[list[list[int]]]


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


def _shared(compute: Callable[["LieAlgebra"], T]) -> Callable[["LieAlgebra"], T]:
    """Share an invariant of an algebra between equal algebras while one
    of them is alive.

    The value of ``compute(algebra)`` is kept in a
    ``weakref.WeakKeyDictionary`` keyed by the algebra: a call with an
    algebra equal to a live key returns the stored value, and the entry
    goes when its key is collected.  As under ``_once``, a value is
    stored only when ``compute`` returns, never when it raises, and the
    result is a plain function with the name and docstring of
    ``compute``.  A value must not reference its key algebra, or the
    entry would never go."""
    memo: WeakKeyDictionary = WeakKeyDictionary()

    def shared(algebra: "LieAlgebra") -> T:
        value = memo.get(algebra, memo)  # the memo itself marks a miss
        if value is memo:
            value = memo[algebra] = compute(algebra)
        return value

    return update_wrapper(shared, compute)


class LieAlgebra(_Record):
    """A Lie algebra over Q given by structure constants.

    Instances are immutable, comparable and hashable through
    ``linalg._Record``, and weakly referable, so that ``_shared`` can
    key them; equality compares dimensions and bracket tables (labels
    are presentation only).  The table is stored once, as ints:
    the lcm d of the reduced denominators and the int tuple d [e_i, e_j]
    of every nonzero bracket with i < j.  That is canonical, so it serves
    as the key, whose hash is kept.  All derived computations are exact
    and deterministic.  The Jacobi verdict, the derived subalgebra with
    the brackets in its certified coordinates, the center and the lower
    central series are computed at most once per instance, each kept by
    ``_once`` in the one dict ``_memo``.
    """

    __slots__ = (
        "dim",
        "labels",
        "_den",
        "_rows",
        "_hash",
        "_memo",
        "__weakref__",
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
        _Record.__init__(self, dim, labels, den, MappingProxyType(stored), key_hash, {})

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
        costs O(n^3 m^2), not O(n^5).  Its table beta expands the int row
        D z_r of each basis vector of [L, L], over the derived denominator
        D, through the forms: ``beta[r][b]`` is d D times the coordinates
        of [z_r, e_b] for every b with [z_r, e_b] != 0, and a missing b
        has [z_r, e_b] = 0.  The signed sum of the terms
        ``forms[r][p][q] * beta[r][col]`` of a triple i < j < k is -d^2 D
        times the coordinates of its Jacobiator
        [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]].  A
        triple is skipped when none of its three pairs has a stored
        bracket, since then every term of its Jacobiator is zero.  The
        verdict is cached on the instance.  Raises DerivedBasisError if a
        bracket escapes the computed [L, L], a defect.
        """
        n = self.dim
        derived, forms = self._derived_coordinates()
        beta = [{b: c for b, c in enumerate(zip(*[_combine(z, g, n) for g in forms])) if any(c)} for z in derived._rows]
        # every term of a Jacobiator carries a beta factor: when [L, L] is
        # central, as in every 2-step nilpotent algebra, all of them vanish
        if not any(beta):
            return None
        rows = self._rows
        for i, j, k in combinations(range(n), 3):
            if (i, j) not in rows and (j, k) not in rows and (i, k) not in rows:
                continue
            out = [0] * len(forms)
            for p, q, col, sign in ((i, j, k, 1), (j, k, i, 1), (i, k, j, -1)):
                for g, b in zip(forms, beta):
                    x = g[p][q]
                    if x:
                        for s, y in enumerate(b.get(col, ())):
                            out[s] += sign * x * y
            if any(out):
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
        read off.  Computed once per instance.  Raises DerivedBasisError
        if a bracket is not recomposed from the basis it enlarged, a
        defect."""
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
        return _DerivedCoordinates(derived, forms)

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
        derived, forms = self._derived_coordinates()
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
        columns, and their labels are carried over.  The projection
        (``linalg._projection_rows``, int rows over one denominator d)
        kills N and sends those unit vectors to the quotient basis, so
        the bracket of the classes of e_a and e_b, for section columns
        a < b, is the projection of the stored row d [e_a, e_b]: its dot
        product with each projection row, over d times the algebra's
        denominator.
        """
        if not self.is_ideal(ideal):
            raise ValueError("subspace is not an ideal")
        n = self.dim
        cols, d, rows = _projection_rows(n, ideal._den, dict(zip(ideal.pivot_cols(), ideal._rows)))
        consts = {}
        for (s, a), (t, b) in combinations(enumerate(cols), 2):
            c = self._rows.get((a, b))
            if c:
                consts[(s, t)] = [_dot(r, c) for r in rows]
        quotient = LieAlgebra._from_int_rows(len(cols), d * self._den, consts, [self.labels[c] for c in cols])
        return quotient, Matrix._from_ints(n, d, rows)

    def change_basis(self, p: Matrix) -> "LieAlgebra":
        """The same algebra written in the basis f_i = sum_j p[i][j] e_j.

        Works on ints in the certified coordinates of [L, L] (see
        ``_DerivedCoordinates``): [f_i, f_j] is formed as an m-vector,
        m = dim [L, L], of the Gram products of the rows of p
        (``_gram_products``).  The m basis vectors z_r of [L, L] are
        written in the f basis by one elimination of [p^T | Z^T], read
        off its reduced rows (``SpanBuilder._reduced_rows``).  Raises
        ValueError if p is not square invertible of matching size, and
        DerivedBasisError if a bracket escapes the computed [L, L], a
        defect.
        """
        if p.rows != self.dim or p.cols != self.dim:
            raise ValueError("change of basis matrix has wrong shape")
        n = self.dim
        dp, pi = _over_common_denominator(p.data)
        derived = self.derived_subalgebra()
        # row k of [dp p^T | D Z^T]; p is invertible exactly when the pivots are the first n columns
        sb = SpanBuilder(n + derived.dim)
        for k in range(n):
            sb.add_int_row([row[k] for row in pi] + [z[k] for z in derived._rows])
        if sb.pivot_cols() != tuple(range(n)):
            raise ValueError("matrix is singular")
        # reduced row k is dy (e_k | x_k), x_k[r] being D / dp times coordinate k of z_r
        dy, reduced = sb._reduced_rows()
        xs = list(zip(*(reduced[k][n:] for k in range(n))))  # xs[r][k] = dy x_k[r]
        consts = {key: _combine(w, xs, n) for key, w in self._gram_products(pi).items()}
        # [f_i, f_j] = sum_r w_r / (dp^2 d) z_r, and z_r = dp / (dy D) sum_k xs[r][k] f_k
        return LieAlgebra._from_int_rows(n, dp * self._den * derived._den * dy, consts)

    def _gram_products(self, rows: Sequence[Sequence[int]]) -> dict[tuple[int, int], list[int]]:
        """The nonzero brackets [v_i, v_j], i < j, of the int vectors
        v_i = rows[i], keyed by (i, j): entry r is the Gram product
        (v_i G_r) . v_j with the certified forms G_r (see
        ``_DerivedCoordinates``), which is d times coordinate r of
        [v_i, v_j] on the RREF basis of [L, L], for the algebra's
        denominator d.  The row v_i G_r comes from the bracket kernel,
        and a v_i with v_i G_r = 0 for every r brackets to zero with
        every vector, so it takes part in no dot product.  The one
        routine that brackets vectors: ``change_basis``, the split of
        ``exterior`` and the certificate of ``decompose`` read it.
        Raises DerivedBasisError if a bracket escapes the computed
        [L, L], a defect."""
        n = self.dim
        forms = self._derived_coordinates().forms
        ts = [[_combine(v, g, n) for g in forms] for v in rows]  # ts[i][r][b] = d [v_i, e_b]_r
        live = [i for i, t in enumerate(ts) if any(map(any, t))]
        products = {}
        for k, i in enumerate(live):
            for j in live[k + 1 :]:
                w = [_dot(t, rows[j]) for t in ts[i]]
                if any(w):
                    products[(i, j)] = w
        return products


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

