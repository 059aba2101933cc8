"""Capability decisions: closed-form classification cross-checked against
the constructive exterior center.

An algebra L is capable when it is the central quotient E/Z(E) of some
algebra E, which happens exactly when its exterior center Z^(L) is zero.
For the classified families the verdict has a closed form:

  * A(n) is capable for every n except n = 1;
  * H(m) + A(k) is capable exactly when m = 1 (any k), so in particular
    H(1) is capable and H(m) is not for m >= 2.

``classify`` is the one place the family is decided, by value: dim
[L, L] = 0 is abelian, and only a nilpotent algebra with dim [L, L] = 1
reaches the certified decomposition, which places it in the second
family.  Outside these families (dim [L, L] >= 2, or not nilpotent) it
returns "unclassified" and only the constructive verdict is available.
The closed-form multipliers and the ``analyze`` report read its verdict.
"""

from __future__ import annotations

from typing import NamedTuple

from . import exterior
from .decompose import heisenberg_decompose
from .lie import LieAlgebra, abelian, direct_sum, heisenberg, scramble


class CapabilityDisagreement(RuntimeError):
    """Closed form and constructive verdicts disagree; indicates a defect."""


class ClassVerdict(NamedTuple):
    """Outcome of classification, optionally checked against the oracle.

    ``family`` is "abelian", "heisenberg-sum" or "unclassified"; the
    relevant parameters (n, or m and k) are filled in when known.
    ``capable`` is None when no method was able to decide.
    """

    family: str
    n: int | None = None
    m: int | None = None
    k: int | None = None
    capable: bool | None = None
    reasons: tuple[str, ...] = ()
    oracle_agreement: bool | None = None


def classify(algebra: LieAlgebra) -> ClassVerdict:
    """Closed-form classification; never constructs an exterior square.
    An error raised by the decomposition is a defect and propagates."""
    algebra.require_valid()
    if not algebra.is_nilpotent():
        return ClassVerdict(
            family="unclassified",
            reasons=("not nilpotent: no closed-form capability criterion applies",),
        )
    n = algebra.dim
    derived_dim = algebra.derived_subalgebra().dim
    if derived_dim >= 2:
        return ClassVerdict(
            family="unclassified",
            reasons=("dim [L, L] >= 2: outside the classified families",),
        )
    if derived_dim == 0:
        if n == 0:
            reason = "the zero algebra is the central quotient of any abelian algebra"
        else:
            reason = f"A({n}): abelian algebras are capable exactly when dim >= 2"
        return ClassVerdict(family="abelian", n=n, capable=n != 1, reasons=(reason,))
    dec = heisenberg_decompose(algebra)
    return ClassVerdict(
        family="heisenberg-sum",
        m=dec.m,
        k=dec.k,
        capable=dec.m == 1,
        reasons=(f"H({dec.m})+A({dec.k}): Heisenberg sums are capable exactly when m = 1",),
    )


def decide_capability(algebra: LieAlgebra, mode: str = "both") -> ClassVerdict:
    """Decide capability by "classify", "oracle", or "both".

    In "both" mode a disagreement on a classified algebra raises
    CapabilityDisagreement; agreement is recorded on the verdict.
    """
    if mode not in ("classify", "oracle", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    verdict = classify(algebra)
    if mode == "classify":
        return verdict
    return _with_construction(verdict, exterior.is_capable(algebra), mode)


def _with_construction(verdict: ClassVerdict, constructed: bool, mode: str) -> ClassVerdict:
    """Combine the closed-form verdict with the constructed one ("oracle"
    or "both" mode); ``constructed`` is whether Z^(L) is zero."""
    if mode == "oracle":
        reason = f"constructed exterior center is {'zero' if constructed else 'nonzero'}"
        return verdict._replace(capable=constructed, reasons=(reason,))
    if verdict.capable is None:
        reasons = verdict.reasons + ("verdict taken from the constructed exterior center",)
        return verdict._replace(capable=constructed, reasons=reasons)
    if verdict.capable != constructed:
        raise CapabilityDisagreement(
            f"closed form says capable={verdict.capable}, construction says {constructed}"
        )
    return verdict._replace(oracle_agreement=True)


# ---------------------------------------------------------------------------
# frozen test corpus

_SCRAMBLES_PER_ALGEBRA = 10
_SEED_BASE = 20_300  # fixed; changing it would change the corpus


def named_members() -> list[tuple[str, LieAlgebra]]:
    """The catalog's members in their canonical bases, in catalog order:
    A(n), H(m) and H(m)+A(k) for small parameters, then H(1)+H(1), the
    lone dim [L, L] = 2 member."""
    members: list[tuple[str, LieAlgebra]] = []
    for n in range(1, 7):
        members.append((f"A({n})", abelian(n)))
    for m in range(1, 4):
        members.append((f"H({m})", heisenberg(m)))
    for m in range(1, 4):
        for k in range(1, 4):
            members.append((f"H({m})+A({k})", direct_sum(heisenberg(m), abelian(k))))
    members.append(("H(1)+H(1)", direct_sum(heisenberg(1), heisenberg(1))))
    return members


def catalog() -> list[tuple[str, LieAlgebra]]:
    """The frozen corpus: the named members, each but H(1)+H(1) followed
    by ten seeded scrambles of it."""
    *scrambled, last = named_members()
    members: list[tuple[str, LieAlgebra]] = []
    for idx, (name, algebra) in enumerate(scrambled):
        members.append((name, algebra))
        for s in range(_SCRAMBLES_PER_ALGEBRA):
            seed = _SEED_BASE + 100 * idx + s
            members.append((f"{name} scramble{s}", scramble(algebra, seed)))
    members.append(last)
    return members
