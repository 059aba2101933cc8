"""The per-instance memo of ``LieAlgebra``: every invariant kept by
``lie._once`` is computed once, returned again as the identical object,
and never stored when its computation raises."""

from __future__ import annotations

import pytest

from liecap import decompose, lie
from liecap.decompose import heisenberg_decompose
from liecap.lie import LieAlgebra, abelian, direct_sum, heisenberg, scramble

# every function that _once returns runs this one code object
_ONCE_CODE = lie._once(lambda algebra: None).__code__


def _filiform():
    # [L, L] is not central, so validate evaluates its triples
    return scramble(LieAlgebra(5, {(0, 1): (0, 0, 1, 0, 0), (0, 2): (0, 0, 0, 1, 0), (0, 3): (0, 0, 0, 0, 1)}), 3)


def _not_lie():
    # validate returns a witness triple, a fresh tuple on every computation
    return LieAlgebra(3, {(0, 1): (0, 1, 0), (1, 2): (1, 0, 0)})


# (memoized function, call, algebra, (owner, name) of a dependency it calls)
MEMOIZED = [
    ("validate", LieAlgebra.validate, _not_lie, (LieAlgebra, "_derived_coordinates")),
    ("_derived_coordinates", LieAlgebra._derived_coordinates, _filiform, (lie, "SpanBuilder")),
    ("center", LieAlgebra.center, _filiform, (lie, "_kernel")),
    ("_series_terms", LieAlgebra.lower_central_series, _filiform, (LieAlgebra, "bracket_span")),
    (
        "_certified_decomposition",
        heisenberg_decompose,
        lambda: scramble(direct_sum(heisenberg(2), abelian(1)), 5),
        (decompose, "_gram"),
    ),
]
# invariants kept in the memo of another: [L, L] is a field of the
# derived coordinates, which build it
THROUGH = [
    ("derived_subalgebra", LieAlgebra.derived_subalgebra, _filiform, (lie, "SpanBuilder")),
]


def test_every_once_function_is_covered():
    found = {name for owner in (LieAlgebra, decompose) for name, f in vars(owner).items()
             if getattr(f, "__code__", None) is _ONCE_CODE}
    assert found == {row[0] for row in MEMOIZED}


@pytest.mark.parametrize(
    "call, make, dependency", [row[1:] for row in MEMOIZED + THROUGH], ids=[row[0] for row in MEMOIZED + THROUGH]
)
def test_memo_keeps_values_and_never_failures(monkeypatch, call, make, dependency):
    algebra = make()
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("injected failure")

    # a failure is raised again on the next call: it was not stored
    monkeypatch.setattr(*dependency, failing)
    for count in (1, 2):
        with pytest.raises(RuntimeError, match="injected failure"):
            call(algebra)
        assert len(calls) == count
    monkeypatch.undo()

    first = call(algebra)
    again = call(algebra)
    if call is LieAlgebra.lower_central_series:
        # a fresh list each time, over the identical stored terms
        assert again is not first and again == first
        assert all(x is y for x, y in zip(first, again))
    else:
        assert again is first
    assert first is not None
