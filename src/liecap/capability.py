"""Capability decisions: closed-form classification cross-checked against
the constructive exterior center.

An algebra L is capable when it is the central quotient E/Z(E) of some
algebra E, which happens exactly when its exterior center Z^(L) is zero.
For the classified families the verdict has a closed form:

  * A(n) is capable for every n except n = 1;
  * H(m) + A(k) is capable exactly when m = 1 (any k), so in particular
    H(1) is capable and H(m) is not for m >= 2.

``_FAMILIES`` is the one table of the classified families: each record
holds the family's name, its dim [L, L], a certified recognizer that
returns its parameters or None, the closed forms for the verdict and
dim M, and its description and reason.  ``classify`` keeps the
nilpotency guard and takes the first record with the algebra's dim
[L, L] whose recognizer accepts it, so the family is decided by value:
dim [L, L] = 0 is abelian, and only dim [L, L] = 1 reaches the
certified decomposition.  Outside the table (dim [L, L] >= 2, or not
nilpotent) it returns "unclassified" and only the constructive verdict
is available.  ``classified_multiplier`` and the ``analyze`` report
read the record of the verdict's family and name none.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import exterior
from .decompose import heisenberg_decompose
from .lie import LieAlgebra, abelian, direct_sum, heisenberg, scramble
from .multiplier import abelian_multiplier_dim, direct_sum_multiplier_dim, heisenberg_multiplier_dim


class CapabilityDisagreement(RuntimeError):
    """Closed form and constructive verdicts disagree; indicates a defect."""


class ClassVerdict(NamedTuple):
    """Outcome of classification, optionally checked against the oracle.

    ``family`` is the name of a record of ``_FAMILIES`` ("abelian",
    "heisenberg-sum") or "unclassified"; the parameters its recognizer
    returns (n, or m and k) are filled in when known.  ``capable`` is
    None when no method was able to decide.
    """

    family: str
    n: int | None = None
    m: int | None = None
    k: int | None = None
    capable: bool | None = None
    reasons: tuple[str, ...] = ()
    oracle_agreement: bool | None = None

    @property
    def parameters(self) -> dict[str, int]:
        """The parameters that are filled in, in the order n, m, k."""
        return {key: value for key, value in (("n", self.n), ("m", self.m), ("k", self.k)) if value is not None}


class MultiplierReport(NamedTuple):
    description: str
    dim_multiplier: int
    dim_exterior_square: int
    method: str


class _Family(NamedTuple):
    """One classified family of nilpotent algebras with dim [L, L] =
    ``derived``.  ``recognize`` returns the ClassVerdict parameters of
    such an algebra in the family, certified, or None; the closed forms
    and texts take those parameters as keywords."""

    name: str
    derived: int
    recognize: Callable[[LieAlgebra], dict[str, int] | None]
    capable: Callable[..., bool]
    dim_multiplier: Callable[..., int]
    description: Callable[..., str]
    reason: Callable[..., str]


_ZERO_ALGEBRA = "the zero algebra is the central quotient of any abelian algebra"

# in order: classify takes the first record with the algebra's dim [L, L] that accepts it
_FAMILIES = (
    _Family(
        "abelian",
        0,
        lambda algebra: {"n": algebra.dim},
        lambda n: n != 1,
        abelian_multiplier_dim,
        lambda n: f"A({n})",
        lambda n: f"A({n}): abelian algebras are capable exactly when dim >= 2" if n else _ZERO_ALGEBRA,
    ),
    _Family(
        "heisenberg-sum",
        1,
        # m and k of the certified decomposition (m, k, basis_change): every
        # nilpotent algebra with dim [L, L] = 1 is H(m)+A(k), so an error is a defect
        lambda algebra: dict(zip(("m", "k"), heisenberg_decompose(algebra))),
        lambda m, k: m == 1,
        # H(m) / [H(m), H(m)] has dim 2m
        lambda m, k: direct_sum_multiplier_dim(heisenberg_multiplier_dim(m), abelian_multiplier_dim(k), 2 * m, k),
        lambda m, k: f"H({m})+A({k})",
        lambda m, k: f"H({m})+A({k}): Heisenberg sums are capable exactly when m = 1",
    ),
)


def classify(algebra: LieAlgebra) -> ClassVerdict:
    """Closed-form classification; never constructs an exterior square.
    A nilpotent algebra gets the verdict of the first record of
    ``_FAMILIES`` with its dim [L, L] whose recognizer accepts it.  An
    error raised by a recognizer is a defect and propagates."""
    algebra.require_valid()
    reason = "not nilpotent: no closed-form capability criterion applies"
    if algebra.is_nilpotent():
        derived = algebra.derived_subalgebra().dim
        for family in _FAMILIES:
            if family.derived == derived and (params := family.recognize(algebra)) is not None:
                reasons = (family.reason(**params),)
                return ClassVerdict(family.name, capable=family.capable(**params), reasons=reasons, **params)
        # the records take every nilpotent algebra with dim [L, L] <= 1
        reason = "dim [L, L] >= 2: outside the classified families"
    return ClassVerdict(family="unclassified", reasons=(reason,))


def classified_multiplier(algebra: LieAlgebra) -> MultiplierReport:
    """Closed-form multiplier dimension for the family ``classify`` finds.

    An unclassified algebra (dim [L, L] >= 2, or not nilpotent) has no
    closed form here and raises ValueError; use the constructive path
    instead.
    """
    verdict = classify(algebra)
    report = _closed_forms(verdict)
    if report is None:
        raise ValueError(f"no closed form: {verdict.reasons[0]}")
    return report


def _closed_forms(verdict: ClassVerdict) -> MultiplierReport | None:
    """The closed forms of the record named ``verdict.family``, or None
    when no record has that name.  dim(L ^ L) = dim M(L) + dim [L, L]
    for any finite-dimensional L, so no record needs a form for it."""
    for family in _FAMILIES:
        if family.name == verdict.family:
            params = verdict.parameters
            dim_m = family.dim_multiplier(**params)
            return MultiplierReport(family.description(**params), dim_m, dim_m + family.derived, "closed-form")
    return None


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
