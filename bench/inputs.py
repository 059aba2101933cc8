"""Seeded benchmark inputs and the answers expected for them.

Every algebra is a direct sum H(m_1) + ... + H(m_r) + A(k), written in a
random rational basis drawn from the seed.  The structure constants, the
change of basis and the expected dimensions are all computed here, with
plain ``fractions.Fraction`` arithmetic, so that nothing in ``liecap``
(in particular ``scramble`` or ``change_basis``) can alter a workload or
its reference answers.  The program under test only ever sees the JSON
files written by ``write_algebra``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

Table = dict[tuple[int, int], dict[int, Fraction]]


@dataclass(frozen=True)
class Family:
    """H(heis[0]) + H(heis[1]) + ... + A(abelian)."""

    heis: tuple[int, ...]
    abelian: int

    @property
    def dim(self) -> int:
        return sum(2 * m + 1 for m in self.heis) + self.abelian

    @property
    def name(self) -> str:
        return "+".join([f"H({m})" for m in self.heis] + ([f"A({self.abelian})"] if self.abelian else []))


def canonical_table(family: Family) -> Table:
    """Constants in the standard basis: a_1..a_m, b_1..b_m, z per
    Heisenberg summand, then the abelian basis; [a_i, b_i] = z."""
    table: Table = {}
    base = 0
    for m in family.heis:
        z = base + 2 * m
        for i in range(m):
            table[(base + i, base + m + i)] = {z: Fraction(1)}
        base += 2 * m + 1
    return table


def _inverse(p: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Gauss-Jordan inverse, or None when p is singular."""
    n = len(p)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(p)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            factor = aug[r][col]
            if r != col and factor:
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def random_basis(n: int, rng: random.Random) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """A random invertible matrix with entries a/b, |a| <= 3, b in {1, 2},
    and its inverse."""
    while True:
        p = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        inv = _inverse(p)
        if inv is not None:
            return p, inv


def change_basis(table: Table, p: list[list[Fraction]], pinv: list[list[Fraction]]) -> Table:
    """Constants in the basis f_i = sum_a p[i][a] e_a.

    [f_i, f_j] = sum_(a<b) (p[i][a] p[j][b] - p[i][b] p[j][a]) [e_a, e_b],
    and e_t = sum_s pinv[t][s] f_s rewrites the result in the f basis.
    """
    n = len(p)
    out: Table = {}
    for i in range(n):
        for j in range(i + 1, n):
            w: dict[int, Fraction] = {}
            for (a, b), c in table.items():
                coef = p[i][a] * p[j][b] - p[i][b] * p[j][a]
                if coef:
                    for t, x in c.items():
                        w[t] = w.get(t, Fraction(0)) + coef * x
            coeffs: dict[int, Fraction] = {}
            for t, x in w.items():
                if x:
                    for s, y in enumerate(pinv[t]):
                        if y:
                            coeffs[s] = coeffs.get(s, Fraction(0)) + x * y
            coeffs = {s: v for s, v in coeffs.items() if v}
            if coeffs:
                out[(i, j)] = coeffs
    return out


def algebra_json(dim: int, table: Table) -> str:
    """The liecap file format: rationals as strings, sorted keys."""
    brackets = [
        {"i": i, "j": j, "coeffs": {str(t): str(v) for t, v in sorted(table[(i, j)].items())}}
        for (i, j) in sorted(table)
    ]
    return json.dumps({"dim": dim, "brackets": brackets}, indent=1) + "\n"


def write_algebra(path: Path, family: Family, rng: random.Random) -> None:
    """Write ``family`` in a fresh random basis drawn from ``rng``."""
    p, pinv = random_basis(family.dim, rng)
    path.write_text(algebra_json(family.dim, change_basis(canonical_table(family), p, pinv)))


# ---------------------------------------------------------------------------
# expected answers, from the closed forms of the source paper


def heisenberg_multiplier(m: int) -> int:
    return 2 if m == 1 else 2 * m * m - m - 1


def multiplier_dim(family: Family) -> int:
    """dim M of a direct sum: the summands' multipliers plus the product
    of every pair of abelianization dimensions (2m for H(m), k for A(k))."""
    parts = [(heisenberg_multiplier(m), 2 * m) for m in family.heis]
    k = family.abelian
    parts.append((k * (k - 1) // 2, k))
    total = sum(mult for mult, _ in parts)
    for x in range(len(parts)):
        for y in range(x + 1, len(parts)):
            total += parts[x][1] * parts[y][1]
    return total


def exterior_square_dim(family: Family) -> int:
    """dim(L ^ L) = dim M(L) + dim [L, L]; each H(m) adds one to [L, L]."""
    return multiplier_dim(family) + len(family.heis)
