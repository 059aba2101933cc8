"""The README's Python API example runs and gives the values its
comments state, the README's count of source mutants is the length of
the table in ``tools/mutants.py``, and the package version is the one
pyproject.toml declares."""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# expression -> the value its README comment starts with
STATED = {
    "multiplier_dim(L)": 20,
    "sq.quotient_dim": 21,
    "sq.commutator(w)": (Fraction(1, 1),),
    "is_capable(L)": False,
    "(dec.m, dec.k)": (2, 3),
}


def _api_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python API") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_api_example_values():
    source = _api_example()
    lines = source.splitlines()
    namespace: dict = {}
    seen = {}
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            if code in STATED:
                comment = lines[stmt.end_lineno - 1].split("#", 1)[1].strip()
                assert comment.startswith(repr(STATED[code])), (code, comment)
                seen[code] = value
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert seen == STATED


def test_public_names_resolve():
    import liecap

    assert [name for name in liecap.__all__ if not hasattr(liecap, name)] == []


def test_readme_counts_the_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    stated = re.findall(r"table\s+of\s+(\d+)\s+source\s+mutants", README.read_text(encoding="utf-8"))
    assert stated == [str(len(mutants.MUTANTS))]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_version_matches_pyproject():
    import tomllib

    import liecap

    with open(ROOT / "pyproject.toml", "rb") as f:
        assert liecap.__version__ == tomllib.load(f)["project"]["version"]
