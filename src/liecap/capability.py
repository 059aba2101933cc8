"""Capability decisions: closed-form classification cross-checked against
the constructive exterior center.

An algebra L is capable when it is the central quotient E/Z(E) of some
algebra E, which happens exactly when its exterior center Z^(L) is zero.
For the classified families the verdict has a closed form:

  * A(n) is capable for every n except n = 1;
  * H(m) + A(k) is capable exactly when m = 1 (any k), so in particular
    H(1) is capable and H(m) is not for m >= 2.

Everything nilpotent with dim [L, L] = 1 lands in the second family via
the certified decomposition.  Outside these families (dim [L, L] >= 2,
or not nilpotent) classification returns "unclassified" and only the
constructive verdict is available.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exterior
from .decompose import AbelianAlgebraError, heisenberg_decompose
from .lie import LieAlgebra, abelian, direct_sum, heisenberg, scramble


class CapabilityDisagreement(RuntimeError):
    """Closed form and constructive verdicts disagree; indicates a defect."""


@dataclass(frozen=True)
class ClassVerdict:
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
    """Closed-form classification; never constructs an exterior square."""
    algebra.require_valid()
    if not algebra.is_nilpotent():
        return ClassVerdict(
            family="unclassified",
            reasons=("not nilpotent: no closed-form capability criterion applies",),
        )
    n = algebra.dim
    try:
        dec = heisenberg_decompose(algebra)
    except AbelianAlgebraError:
        if n == 0:
            return ClassVerdict(
                family="abelian",
                n=0,
                capable=True,
                reasons=("the zero algebra is the central quotient of any abelian algebra",),
            )
        return ClassVerdict(
            family="abelian",
            n=n,
            capable=n >= 2,
            reasons=(f"A({n}): abelian algebras are capable exactly when dim >= 2",),
        )
    except ValueError:
        return ClassVerdict(
            family="unclassified",
            reasons=("dim [L, L] >= 2: outside the classified families",),
        )
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
    constructed = exterior.is_capable(algebra)
    if mode == "oracle":
        reason = (
            "constructed exterior center is zero"
            if constructed
            else "constructed exterior center is nonzero"
        )
        return ClassVerdict(
            family=verdict.family,
            n=verdict.n,
            m=verdict.m,
            k=verdict.k,
            capable=constructed,
            reasons=(reason,),
        )
    if verdict.capable is None:
        return ClassVerdict(
            family=verdict.family,
            n=verdict.n,
            m=verdict.m,
            k=verdict.k,
            capable=constructed,
            reasons=verdict.reasons + ("verdict taken from the constructed exterior center",),
            oracle_agreement=None,
        )
    if verdict.capable != constructed:
        raise CapabilityDisagreement(
            f"closed form says capable={verdict.capable}, construction says {constructed}"
        )
    return ClassVerdict(
        family=verdict.family,
        n=verdict.n,
        m=verdict.m,
        k=verdict.k,
        capable=verdict.capable,
        reasons=verdict.reasons,
        oracle_agreement=True,
    )


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
