"""Command line surface: parsing, reports, exit codes and diagnostics."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import raw_jacobi_residual
from liecap import cli, exterior, lie
from liecap.cli import (
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_USAGE,
    algebra_to_doc,
    build_report,
    main,
    parse_expression,
)
from liecap.lie import DerivedBasisError, LieAlgebra, abelian, direct_sum, heisenberg, scramble
from liecap.linalg import Matrix, Subspace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_expression():
    assert parse_expression("A(3)").dim == 3
    assert parse_expression("H(2) + A(1)").dim == 6
    assert parse_expression(" H(1)+H(1) ").dim == 6


def test_validate_good_file(tmp_path, capsys):
    doc = {
        "dim": 3,
        "labels": ["a1", "b1", "z"],
        "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}],
    }
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == EXIT_OK
    assert out.startswith("ok: dim=3")


def test_validate_counts_the_stored_brackets(tmp_path, capsys, monkeypatch):
    # the count is read off the int table: building every Fraction of
    # the brackets only to count them took half of validate on n = 64
    algebra = scramble(direct_sum(heisenberg(2), abelian(1)), 3)
    count = len(algebra.brackets)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(algebra_to_doc(algebra)))
    monkeypatch.setattr(LieAlgebra, "brackets", property(lambda self: pytest.fail("validate built the brackets")))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == EXIT_OK
    assert out == f"ok: dim=6 brackets={count}\n"


def test_validate_reports_jacobi_triple(tmp_path, capsys):
    doc = {
        "dim": 3,
        "brackets": [
            {"i": 0, "j": 1, "coeffs": {"2": "1"}},
            {"i": 0, "j": 2, "coeffs": {"0": "1"}},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code == EXIT_INVALID
    assert "(0, 1, 2)" in err


@pytest.mark.parametrize("seed", [None, 5])
def test_validate_witness_with_noncentral_derived_line(tmp_path, capsys, seed):
    # [e1,e2] = e4 and [e3,e4] = e4: dim [L, L] = 1, but z = e4 is not
    # central and the Jacobi identity fails at (0, 1, 2)
    algebra = LieAlgebra(4, {(0, 1): (0, 0, 0, 1), (2, 3): (0, 0, 0, 1)})
    if seed is not None:
        algebra = scramble(algebra, seed)
    assert algebra.derived_subalgebra().dim == 1
    table = dict(algebra.brackets)
    expected = next(t for t in combinations(range(4), 3) if any(raw_jacobi_residual(4, table, *t)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(algebra_to_doc(algebra)))
    code, _, err = run(capsys, "validate", str(path))
    assert code == EXIT_INVALID
    assert err == f"invalid: Jacobi identity fails at basis triple {expected}\n"


def test_analyze_reports_jacobi_triple(tmp_path, capsys):
    # [e1,e2] = e4 and [e3,e4] = e4 fails the Jacobi identity at (0, 1, 2)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(algebra_to_doc(LieAlgebra(4, {(0, 1): (0, 0, 0, 1), (2, 3): (0, 0, 0, 1)}))))
    code, out, err = run(capsys, "analyze", str(path), "--json")
    assert code == EXIT_INVALID
    doc = {"input": {"source": str(path)}, "validation": {"ok": False, "jacobi_violation": [0, 1, 2]}}
    assert out == json.dumps(doc, indent=2) + "\n"
    assert err == ""
    code, out, err = run(capsys, "analyze", str(path))
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "validation: Jacobi identity fails at basis triple (0, 1, 2)\n"


def test_capability_disagreement_exits_3(capsys, monkeypatch):
    # a closed form that calls H(1) incapable contradicts its exterior
    # center, which is zero: a defect, never a verdict
    classify = cli.classify
    monkeypatch.setattr(cli, "classify", lambda algebra: classify(algebra)._replace(capable=False))
    code, out, err = run(capsys, "analyze", "H(1)")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal check failed: closed form says capable=False, construction says True\n"


def test_derived_basis_defect_exits_3(tmp_path, capsys, monkeypatch):
    # a derived basis that loses its last row each time the derived pass
    # reads it leaves brackets outside it: a defect, never a verdict
    algebra = scramble(direct_sum(direct_sum(heisenberg(1), heisenberg(1)), abelian(2)), 9)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(algebra_to_doc(algebra)))

    class Truncating(lie.SpanBuilder):
        def subspace(self):
            basis = super().subspace().basis
            return Subspace(self.ncols, Matrix.from_rows(basis.data[:-1], cols=basis.cols))

    monkeypatch.setattr(lie, "SpanBuilder", Truncating)
    with pytest.raises(DerivedBasisError):
        algebra.validate()
    for argv in (["validate", str(path)], ["analyze", str(path), "--method", "formula"]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err.startswith("internal check failed: ")


def test_analyze_heisenberg_sum_json(capsys):
    code, out, _ = run(capsys, "analyze", "H(2)+A(3)", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["input"]["dim"] == 8
    assert doc["validation"]["ok"] is True
    assert doc["decomposition"] == {"m": 2, "k": 3}
    assert doc["multiplier_dim"] == {"formula": 20, "oracle": 20}
    assert doc["exterior_square_dim"] == {"formula": 21, "oracle": 21}
    assert doc["exterior_center_dim"] == 1
    assert doc["capability"]["capable"] is False
    assert doc["capability"]["oracle_agreement"] is True


def test_analyze_abelian_json(capsys):
    code, out, _ = run(capsys, "analyze", "A(1)", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["capability"]["capable"] is False
    assert doc["capability"]["family"] == "abelian"
    code, out, _ = run(capsys, "analyze", "A(4)", "--json")
    doc = json.loads(out)
    assert doc["capability"]["capable"] is True
    assert doc["multiplier_dim"] == {"formula": 6, "oracle": 6}


def test_analyze_single_method_leaves_other_null(capsys):
    _, out, _ = run(capsys, "analyze", "H(1)", "--method", "formula", "--json")
    doc = json.loads(out)
    assert doc["multiplier_dim"] == {"formula": 2, "oracle": None}
    _, out, _ = run(capsys, "analyze", "H(1)", "--method", "oracle", "--json")
    doc = json.loads(out)
    assert doc["multiplier_dim"] == {"formula": None, "oracle": 2}


def test_analyze_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "analyze", "H(2)", "--json")
    _, second, _ = run(capsys, "analyze", "H(2)", "--json")
    assert first == second


def test_analyze_text_report(capsys):
    code, out, _ = run(capsys, "analyze", "H(1)")
    assert code == EXIT_OK
    assert "capable: yes" in out
    assert "dim M (formula): 2" in out


def test_scramble_deterministic_and_round_trips(tmp_path, capsys):
    code, first, _ = run(capsys, "scramble", "H(2)+A(1)", "--seed", "9")
    assert code == EXIT_OK
    _, second, _ = run(capsys, "scramble", "H(2)+A(1)", "--seed", "9")
    assert first == second
    path = tmp_path / "scrambled.json"
    path.write_text(first)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["decomposition"] == {"m": 2, "k": 1}
    assert doc["multiplier_dim"]["oracle"] == doc["multiplier_dim"]["formula"] == 9


def test_scramble_requires_seed(capsys):
    code, _, _ = run(capsys, "scramble", "H(1)")
    assert code == EXIT_USAGE


def test_verify_paper(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == EXIT_OK
    assert "pass" in out


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert len(doc["checks"]) >= 50
    assert all(c["pass"] for c in doc["checks"])


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"0": "1.5"}}]}, "rational"),
        ({"dim": 2, "brackets": [{"i": 1, "j": 0, "coeffs": {"0": "1"}}]}, "i < j"),
        ({"dim": 2, "brackets": [{"i": 0, "j": 5, "coeffs": {"0": "1"}}]}, "i < j"),
        ({"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"7": "1"}}]}, "range"),
        ({"dim": -1, "brackets": []}, "dim"),
        ({"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"²": "1"}}]}, "basis index"),
        ('{"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1", "2": "5"}}]}', "duplicate key"),
        # integers past Python's int-string conversion limit (4,300 digits)
        pytest.param('{"dim": ' + "1" * 5000 + ', "brackets": []}', "too many digits", id="long-dim"),
        pytest.param(
            {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"1" * 5000: "1"}}]},
            "too many digits",
            id="long-key",
        ),
        pytest.param(
            {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1" * 5000}}]},
            "too many digits",
            id="long-coefficient",
        ),
        # a non-ASCII decimal digit is not an exact rational string
        pytest.param(
            {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "\u0663"}}]},
            "rational",
            id="arabic-indic-coefficient",
        ),
        # "1" and "01" alias one index: the key order must not pick the algebra
        pytest.param(
            {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1", "01": "0"}}]},
            "given twice",
            id="aliased-key-last-zero",
        ),
        pytest.param(
            {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"01": "0", "1": "1"}}]},
            "given twice",
            id="aliased-key-first-zero",
        ),
        pytest.param(b"[" * 100_000, "nested too deeply", id="deep-nesting"),
        pytest.param(
            '{"dim": 1, "labels": ' + "[" * 5000 + "]" * 5000 + "}",
            "nested too deeply",
            id="deep-labels",
        ),
        pytest.param(b"\xff\xfe{", "not UTF-8", id="not-utf-8"),
        pytest.param(
            {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}, {"i": 0, "j": 1, "coeffs": {}}]},
            "duplicate bracket entry (0, 1)",
            id="duplicate-entry",
        ),
        # the whole string must match: int() would strip the newline
        pytest.param(
            {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "3\n"}}]},
            "rational",
            id="trailing-newline-int",
        ),
        pytest.param(
            {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1/2\n"}}]},
            "rational",
            id="trailing-newline-fraction",
        ),
        # JSON true and 1.0 equal 1: a value read once per file must not
        # hand either the reading of a 1 met before
        pytest.param(
            {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": 1, "2": True}}]},
            "not an exact rational string",
            id="true-after-int",
        ),
        pytest.param(
            {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1", "2": True}}]},
            "not an exact rational string",
            id="true-after-string",
        ),
        pytest.param(
            {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": 1.0}}]},
            "not an exact rational string",
            id="float-one",
        ),
    ],
)
def test_file_diagnostics(tmp_path, capsys, doc, message):
    path = tmp_path / "in.json"
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == EXIT_INVALID
    assert message in err


def test_coefficient_spellings_load_to_one_algebra(tmp_path):
    # [e1, e2] = 1/2 e4 and [e1, e3] = 3 e4, with zero entries and a zero bracket spelled out
    spellings = [
        [{"3": "1/2"}, {"3": "3"}, {}],
        [{"3": "2/4"}, {"3": 3}, {"0": "-0"}],
        [{"3": "+1/2", "0": "-0"}, {"3": "+3", "1": "0/7"}, {"2": 0}],
        [{"3": "5/10", "2": "0/7"}, {"3": "6/2", "0": "0"}, {"0": "0/3", "3": "-0/9"}],
    ]
    loaded = []
    for idx, coeffs in enumerate(spellings):
        pairs = [(0, 1), (0, 2), (1, 2)]
        doc = {"dim": 4, "brackets": [{"i": i, "j": j, "coeffs": c} for (i, j), c in zip(pairs, coeffs)]}
        path = tmp_path / f"in{idx}.json"
        path.write_text(json.dumps(doc))
        loaded.append(cli.load_algebra_file(str(path)))
    plain = LieAlgebra(4, {(0, 1): (0, 0, 0, Fraction(1, 2)), (0, 2): (0, 0, 0, 3)})
    for algebra in loaded:
        assert algebra == plain and hash(algebra) == hash(plain)
        assert algebra._key() == plain._key()


def _spelled(value: Fraction, data) -> object:
    """``value`` in one of the spellings an algebra file may use: a JSON
    int, "p", "+p", "p/q" left unreduced, and for zero also "-0" and
    "0/q"."""
    p, q = value.numerator, value.denominator
    t = data.draw(st.integers(1, 4))
    plus = "+" if p >= 0 else ""
    choices = [f"{p * t}/{q * t}", f"{plus}{p * t}/{q * t}"]
    if q == 1:
        choices += [p, str(p), f"{plus}{p}"]
    if p == 0:
        choices += ["-0", f"0/{q * t}", f"-0/{t}"]
    return data.draw(st.sampled_from(choices))


@pytest.fixture(scope="module")
def spelled_file(tmp_path_factory):
    return tmp_path_factory.mktemp("spelled") / "in.json"


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_loader_matches_fraction_reading(spelled_file, data):
    # the table as Fractions, and an algebra file that writes every entry in
    # a drawn spelling; the Fraction constructor is the independent reading
    dim = data.draw(st.integers(0, 8))
    pool = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))  # small, so strings repeat
    pairs = list(combinations(range(dim), 2))
    table = {
        ij: tuple(data.draw(st.lists(pool, min_size=dim, max_size=dim)))
        for ij in data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6) if pairs else st.just([]))
    }
    # zero brackets spelled out, with nothing but zero entries
    for ij in data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2) if pairs else st.just([])):
        table.setdefault(ij, (Fraction(0),) * dim)
    brackets = []
    for (i, j), c in table.items():
        coeffs = {}
        for k, x in enumerate(c):
            if x or data.draw(st.booleans()):  # a zero entry spelled out, or left out
                key = data.draw(st.sampled_from([str(k), f"0{k}"]))  # "01" names index 1
                coeffs[key] = _spelled(x, data)
        brackets.append({"i": i, "j": j, "coeffs": coeffs})
    brackets = data.draw(st.permutations(brackets))
    spelled_file.write_text(json.dumps({"dim": dim, "brackets": brackets}))
    assert cli.load_algebra_file(str(spelled_file))._key() == LieAlgebra(dim, table)._key()


def test_input_size_is_bounded(tmp_path, capsys, monkeypatch):
    text = json.dumps({"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}]})
    path = tmp_path / "in.json"
    path.write_text(text)
    monkeypatch.setattr(cli, "_MAX_INPUT_BYTES", len(text))
    code, _, _ = run(capsys, "analyze", str(path))
    assert code == EXIT_OK
    path.write_text(text + " ")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == EXIT_INVALID
    assert f"larger than {len(text)} bytes" in err


@pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero")
def test_endless_device_is_bounded(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_MAX_INPUT_BYTES", 1024)
    code, _, err = run(capsys, "analyze", "/dev/zero")
    assert code == EXIT_INVALID
    assert err.startswith("error: /dev/zero: larger than 1024 bytes")


def test_small_file_does_not_reserve_the_input_limit(tmp_path, monkeypatch):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(algebra_to_doc(heisenberg(1))))
    cli.load_algebra_file(str(path))  # imports and caches outside the trace
    tracemalloc.start()
    try:
        algebra = cli.load_algebra_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert algebra == heisenberg(1)
    assert peak < cli._MAX_INPUT_BYTES // 16
    # the chunks add up to the whole file, and the bound holds across them
    monkeypatch.setattr(cli, "_READ_CHUNK", 5)
    assert cli.load_algebra_file(str(path)) == algebra
    monkeypatch.setattr(cli, "_MAX_INPUT_BYTES", path.stat().st_size - 1)
    with pytest.raises(cli.InputError, match=f"larger than {path.stat().st_size - 1} bytes"):
        cli.load_algebra_file(str(path))


# validate under an address-space limit of the interpreter's own size plus
# 16 MiB: enough for a small file, far less than the 64 MiB input limit
_UNDER_LIMIT = """
import resource, sys
from liecap import cli
size = next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("VmSize:"))
limit = (size + 16 * 1024) * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_validate_runs_under_a_small_address_space_limit(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(algebra_to_doc(heisenberg(1))))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", _UNDER_LIMIT, "validate", str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "ok: dim=3 brackets=1\n", "")


def test_not_json_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("not json at all")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == EXIT_INVALID
    assert "JSON" in err


def test_unknown_input_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "B(3)")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "analyze", "/no/such/file.json")
    assert code == EXIT_USAGE


def test_over_long_path_is_usage_error(capsys):
    # before Python 3.13, Path.exists() raises "File name too long" here
    code, _, err = run(capsys, "analyze", "x" * 5000)
    assert code == EXIT_USAGE
    assert "not a builtin expression or readable file" in err


def test_unrecognized_argument_echo_is_bounded(capsys):
    argument = "B(" + "9" * 4997 + ")"
    code, _, err = run(capsys, "analyze", argument)
    assert code == EXIT_USAGE
    assert err.startswith("usage error: not a builtin expression or readable file: B(999")
    assert "(5000 characters)" in err
    assert len(err) < 200


@pytest.mark.parametrize(
    "argv",
    [["verify-paper"], ["verify-paper", "--json"], ["scramble", "H(2)+A(3)", "--seed", "9"]],
    ids=["verify-paper", "verify-paper-json", "scramble"],
)
def test_closed_stdout_exits_quietly(argv):
    # stdout is a pipe whose reader has already gone, as after `| head`
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "liecap.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == EXIT_USAGE


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every verify-paper run starts a fresh interpreter and pays for each
    # module liecap imports: dataclasses alone pulls in inspect, ast and
    # dis.  Only the modules the import adds count, whatever site loaded
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys; before = set(sys.modules); import liecap.cli; print(*sorted(set(sys.modules) - before))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "liecap.cli" in added
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize("expression", ["A(\u0663)", "H(\u0661)+A(2)", "A(\uff13)"])
def test_non_ascii_digits_are_not_expressions(capsys, expression):
    code, _, err = run(capsys, "analyze", expression)
    assert code == EXIT_USAGE
    assert "not a builtin expression" in err
    code, _, _ = run(capsys, "scramble", expression, "--seed", "1")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "expression", ["A(1000000000)", "H(1000000000)", "H(32)", "A(40)+A(25)", "A(" + "9" * 5000 + ")"]
)
def test_expression_dimension_is_bounded(capsys, monkeypatch, expression):
    # refused before any algebra is built
    monkeypatch.setattr(cli, "abelian", None)
    monkeypatch.setattr(cli, "heisenberg", None)
    for argv in (["analyze", expression], ["scramble", expression, "--seed", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: dimension ")
        assert err.endswith(f"exceeds the limit of {cli._MAX_DIM}\n")


def test_file_dimension_is_bounded(tmp_path, capsys):
    path = tmp_path / "in.json"
    for dim in (cli._MAX_DIM + 1, 10**9):
        path.write_text(json.dumps({"dim": dim, "brackets": []}))
        code, _, err = run(capsys, "validate", str(path))
        assert code == EXIT_INVALID
        assert err == f"error: {path}: dimension {dim} exceeds the limit of {cli._MAX_DIM}\n"
    path.write_text(json.dumps({"dim": cli._MAX_DIM, "brackets": []}))
    assert run(capsys, "validate", str(path))[0] == EXIT_OK


def test_heisenberg_zero_rejected(capsys):
    code, _, err = run(capsys, "analyze", "H(0)")
    assert code == EXIT_USAGE
    assert "m >= 1" in err


@pytest.mark.parametrize("method, calls", [("both", 1), ("oracle", 1), ("formula", 0)])
@pytest.mark.parametrize(
    "algebra",
    [scramble(direct_sum(heisenberg(2), abelian(1)), 81), direct_sum(heisenberg(1), heisenberg(1))],
    ids=["classified", "unclassified"],
)
def test_exterior_center_is_built_once_per_report(monkeypatch, algebra, method, calls):
    built = []
    exterior_center = exterior.exterior_center

    def counted_exterior_center(alg):
        built.append(alg)
        return exterior_center(alg)

    monkeypatch.setattr(exterior, "exterior_center", counted_exterior_center)
    report = build_report(algebra, "input", method)
    assert len(built) == calls
    assert (report["exterior_center_dim"] is None) == (calls == 0)



# -- the exit-code contract under random input ----------------------------------
# Every input maps to exit 0, 1, 2 or 3 and no exception escapes main().
# Documents stay at dim <= 5 and expressions at parameters <= 4, so each
# example costs milliseconds.


def _mostly(good, junk):
    """``good`` four times in five, ``junk`` otherwise."""
    return st.integers(0, 4).flatmap(lambda r: junk if r == 0 else good)


_scalars = st.one_of(
    st.sampled_from(["0", "1", "-1", "01", "1/0", "1/2", "-3/4", "1.5", "", "x", "\u0663"]),
    st.integers(-3, 3),
    st.floats(allow_nan=False, width=16),
    st.booleans(),
    st.none(),
)
_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
_keys = _mostly(st.sampled_from(["0", "1", "2", "3", "4", "01"]), st.sampled_from(["5", "-1", "1/0", "\u00b2", "x"]))
_coeffs = _mostly(
    st.dictionaries(_keys, _mostly(st.sampled_from(["1", "-1", "2", "1/2"]), _values), min_size=1, max_size=3),
    _values,
)
_index = st.one_of(st.integers(-1, 6), st.booleans(), st.just("0"), st.floats(0, 4, width=16))
_pairs = st.sampled_from(list(combinations(range(5), 2)))
_brackets = _mostly(
    st.builds(lambda ij, c: {"i": ij[0], "j": ij[1], "coeffs": c}, _pairs, _coeffs),
    st.one_of(st.fixed_dictionaries({"i": _index, "j": _index, "coeffs": _coeffs}), _values),
)
_documents = _mostly(
    st.fixed_dictionaries(
        {
            "dim": _mostly(st.integers(3, 5), st.one_of(st.integers(-1, 2), _scalars)),
            "brackets": _mostly(st.lists(_brackets, max_size=4), _values),
        },
        optional={"labels": st.one_of(st.lists(st.sampled_from(["a", "b", "z"]), max_size=5), _values)},
    ),
    _values,
)
_terms = st.builds("{}({})".format, st.sampled_from("AH"), st.integers(0, 4))
_expressions = st.one_of(
    st.lists(_terms, min_size=1, max_size=3).map(" + ".join),
    # a NUL byte cannot come from a shell, but main() takes any string
    st.text(st.sampled_from("AH()+0123456789 x-,\u0663\x00"), max_size=12),
)
_inputs = st.one_of(
    _documents.map(lambda doc: ("file", json.dumps(doc).encode())),
    _expressions.map(lambda text: ("arg", text)),
)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.json"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_inputs)
@example(("file", b"[" * 100_000))
@example(("file", b'{"dim": 1, "labels": ' + b"[" * 5000 + b"]" * 5000 + b"}"))
@example(("file", b"\xff\xfe{"))
def test_exit_code_contract(fuzz_file, given_input):
    kind, payload = given_input
    if kind == "file":
        fuzz_file.write_bytes(payload)
        target = str(fuzz_file)
    else:
        target = payload
    runs = [["validate", target]] + [["analyze", target, "--method", m] for m in ("formula", "oracle", "both")]
    for argv in runs:
        assert main(argv) in (EXIT_OK, EXIT_INVALID, EXIT_USAGE, EXIT_INTERNAL), argv


# --json output of analyze (every named catalog member, seeded scrambles)
# and of verify-paper, pinned byte for byte: a change to how L ^ L is
# built may change its internal coordinates, never this output.
PINNED = json.loads((Path(__file__).parent / "pinned_cli_output.json").read_text())


@pytest.mark.parametrize("expression", list(PINNED["analyze"]))
def test_analyze_json_is_pinned(capsys, expression):
    code, out, _ = run(capsys, "analyze", expression, "--json")
    assert code == EXIT_OK
    assert out == PINNED["analyze"][expression]


@pytest.mark.parametrize("scramble_args", list(PINNED["scramble"]))
def test_scrambled_analyze_json_is_pinned(tmp_path, monkeypatch, capsys, scramble_args):
    expression, seed = scramble_args.split(" --seed ")
    _, scrambled, _ = run(capsys, "scramble", expression, "--seed", seed)
    monkeypatch.chdir(tmp_path)  # the report echoes the path it was given
    Path("scrambled.json").write_text(scrambled)
    code, out, _ = run(capsys, "analyze", "scrambled.json", "--json")
    assert code == EXIT_OK
    assert out == PINNED["scramble"][scramble_args]


# Algebras of nilpotency class above 2, or not nilpotent, written in a
# non-canonical basis: there [L, L] is not central, so validate checks
# triples and the lower central series goes past L^3.  Each entry is
# (dim, d, {(i, j): d [e_i, e_j]}).
DEEP_TABLES = {
    "L_7 scrambled": (7, 24, {
        (0, 1): (-1, -18, 20, -13, 5, 6, 1), (0, 2): (-32, -24, 40, -8, -8, 24, -16),
        (0, 3): (-24, -24, 24, -48, 0, 24, -24), (0, 4): (-8, 0, -8, -8, -8, 0, 8),
        (0, 5): (25, -30, 4, -11, 19, -6, 23), (0, 6): (8, 24, -16, 80, -16, -24, 40),
        (1, 4): (-1, -18, 20, -13, 5, 6, 1), (1, 5): (1, 18, -20, 13, -5, -6, -1),
        (2, 4): (-32, -24, 40, -8, -8, 24, -16), (2, 5): (32, 24, -40, 8, 8, -24, 16),
        (3, 4): (-24, -24, 24, -48, 0, 24, -24), (3, 5): (24, 24, -24, 48, 0, -24, 24),
        (4, 5): (-17, 30, 4, 19, -11, 6, -31), (4, 6): (-8, -24, 16, -80, 16, 24, -40),
        (5, 6): (8, 24, -16, 80, -16, -24, 40),
    }),
    "sl2 scrambled": (3, 3, {(0, 1): (4, 0, 6), (0, 2): (0, 6, 0), (1, 2): (8, 0, 4)}),
    "r2+A(2) scrambled": (4, 4, {(0, 1): (-3, 4, 3, -3), (1, 2): (3, -4, -3, 3)}),
}


@pytest.mark.parametrize("name", list(PINNED["file"]))
def test_deep_file_analyze_json_is_pinned(tmp_path, monkeypatch, capsys, name):
    dim, den, table = DEEP_TABLES[name]
    brackets = [
        {"i": i, "j": j, "coeffs": {str(k): str(Fraction(x, den)) for k, x in enumerate(c) if x}}
        for (i, j), c in table.items()
    ]
    monkeypatch.chdir(tmp_path)  # the report echoes the path it was given
    Path("deep.json").write_text(json.dumps({"dim": dim, "brackets": brackets}))
    code, out, _ = run(capsys, "analyze", "deep.json", "--json")
    assert code == EXIT_OK
    assert out == PINNED["file"][name]


def test_verify_paper_json_is_pinned(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == EXIT_OK
    assert out == PINNED["verify-paper"]
