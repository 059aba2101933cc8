"""Command line interface.

Subcommands: validate, analyze, scramble, verify-paper.  Exit codes:
0 success, 1 validation or check failure, 2 usage error (also a stdout
closed before the output is written), 3 internal self-check failure.
All output is deterministic; --json output is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys
from math import lcm
from operator import itemgetter, mul
from typing import Any

from . import capability, exterior
from .capability import CapabilityDisagreement, classify, decide_capability, named_members
from .decompose import DecompositionCheckError
from .exterior import ConstructionError
from .linalg import Subspace
from .lie import (
    DerivedBasisError,
    InvalidAlgebraError,
    LieAlgebra,
    abelian,
    direct_sum,
    heisenberg,
    scramble,
)
from .multiplier import (
    abelian_multiplier_dim,
    direct_sum_multiplier_dim,
    heisenberg_exterior_square_dim,
    heisenberg_multiplier_dim,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# ASCII digits only: \d would also match digits such as "٣"
_DENOMINATOR = r"(/[1-9][0-9]*)?"
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+" + _DENOMINATOR)  # whole string, by fullmatch
_DENOMINATOR_RE = re.compile(_DENOMINATOR)
_EXPR_RE = re.compile(r"^\s*[AH]\([0-9]+\)(\s*\+\s*[AH]\([0-9]+\))*\s*$")
_TERM_RE = re.compile(r"([AH])\(([0-9]+)\)")
# Inputs are read up to this size, so a huge file or an endless device
# exits 1 with a message instead of exhausting memory.  They are read in
# chunks, so that a small file does not reserve the whole limit up front.
_MAX_INPUT_BYTES = 64 * 1024 * 1024
_READ_CHUNK = 1024 * 1024
# Larger algebras are refused before they are built: the Jacobi pass
# walks C(n, 3) triples and L ^ L has C(n, 2) columns, so without a bound
# an input like A(100000) never finishes.
_MAX_DIM = 64
# An error message quotes at most this many bytes, in UTF-8, of an argument
# or of a key, value or integer read from a file.
_MAX_ECHO = 80


class InputError(Exception):
    """Bad algebra input; maps to exit code 1."""


class UsageError(Exception):
    """Bad invocation; maps to exit code 2."""


# ---------------------------------------------------------------------------
# input handling


def parse_expression(text: str) -> LieAlgebra:
    """Builtin expressions: terms A(n) or H(m) joined by '+'."""
    params = []
    for kind, num in _TERM_RE.findall(text):
        try:
            value = int(num)
        except ValueError:  # longer than the int-string conversion limit
            raise UsageError(f"dimension exceeds the limit of {_MAX_DIM}") from None
        if kind == "H" and value < 1:
            raise UsageError("H(m) needs m >= 1")
        params.append((kind, value))
    dim = sum(value if kind == "A" else 2 * value + 1 for kind, value in params)
    if dim > _MAX_DIM:
        raise UsageError(f"dimension {_echo(dim)} exceeds the limit of {_MAX_DIM}")
    terms = [abelian(value) if kind == "A" else heisenberg(value) for kind, value in params]
    algebra = terms[0]
    for t in terms[1:]:
        algebra = direct_sum(algebra, t)
    return algebra


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """``object_pairs_hook`` that rejects a repeated key in a JSON object;
    plain ``json.loads`` keeps the last value silently."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise InputError(f"duplicate key {_echo(repr(key))} in a JSON object")
            seen.add(key)
    return obj


def _rational(text: str, k: int, where: str) -> tuple[int, int]:
    """The int pair (p, q) of the coefficient string ``"p"`` or ``"p/q"``
    at index ``k``, or InputError."""
    if not _RATIONAL_RE.fullmatch(text):
        raise InputError(f"{where}: coefficient {_echo(repr(text))} is not an exact rational string")
    num, _, den = text.partition("/")
    try:
        return int(num), int(den) if den else 1
    except ValueError:  # longer than the int-string conversion limit
        raise InputError(f"{where}: coefficient {k} has too many digits") from None


def load_algebra_file(path: str) -> LieAlgebra:
    try:
        with open(path, "rb") as f:
            data = bytearray()
            for chunk in iter(functools.partial(f.read, _READ_CHUNK), b""):
                data += chunk
                if len(data) > _MAX_INPUT_BYTES:
                    break
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
        raise UsageError(f"cannot read {path}: {e}") from None
    if len(data) > _MAX_INPUT_BYTES:
        raise InputError(f"{path}: larger than {_MAX_INPUT_BYTES} bytes")
    try:
        raw = data.decode("utf-8")
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    try:
        doc = json.loads(raw, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: not valid JSON ({e})") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    except ValueError:
        # the other ValueError json raises: an integer literal longer than
        # the int-string conversion limit (4,300 digits by default)
        raise InputError(f"{path}: an integer literal has too many digits") from None
    except InputError as e:
        raise InputError(f"{path}: {e}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise InputError(f"{path}: 'dim' must be a non-negative integer")
    if dim > _MAX_DIM:
        raise InputError(f"{path}: dimension {_echo(dim)} exceeds the limit of {_MAX_DIM}")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != dim or not all(isinstance(s, str) for s in labels):
            raise InputError(f"{path}: 'labels' must be a list of {dim} strings")
        # the reports print labels as they are, joined by spaces: a label
        # with a newline would forge a line, one with a space read as two
        for label in labels:
            if label.split() != [label] or not label.isprintable():
                raise InputError(f"{path}: label {_echo(repr(label))} is not one printable word")
    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise InputError(f"{path}: 'brackets' must be a list")
    den, rows = _bracket_rows(path, dim, brackets)
    return LieAlgebra._from_int_rows(dim, den, rows, labels)


def _bracket_rows(path: str, dim: int, brackets: list[Any]) -> tuple[int, dict[tuple[int, int], list[int]]]:
    """The common denominator and the int rows of a file's brackets, or
    InputError.  Each bracket is checked as it is met, and a bracket whose
    keys are not the canonical "0" ... "dim-1" is respelled key by key.
    The values are read in passes over the whole file: one alphabet check
    of the joined values, then ``str.partition`` and ``int`` over the
    distinct values and one check and ``int`` per distinct denominator.
    If a pass fails, the values are walked in file order and the first bad
    one is worded, so an entry or key defect is reported before any value
    defect."""
    keys = [str(k) for k in range(dim)]
    canonical = set(keys)
    table: dict[tuple[int, int], dict[str, Any]] = {}
    values: list[Any] = []
    for idx, entry in enumerate(brackets):
        if type(entry) is not dict:
            raise InputError(f"{path}: brackets[{idx}] must be an object")
        i, j, coeffs = entry.get("i"), entry.get("j"), entry.get("coeffs", {})
        # type() is: a JSON true is an int, and not an index
        if type(i) is not int or type(j) is not int:
            raise InputError(f"{path}: brackets[{idx}]: 'i' and 'j' must be integers")
        if not 0 <= i < j < dim:
            raise InputError(f"{path}: brackets[{idx}]: need 0 <= i < j < dim, got {_echo((i, j))}")
        if type(coeffs) is not dict:
            raise InputError(f"{path}: brackets[{idx}]: 'coeffs' must be an object")
        if not coeffs.keys() <= canonical:  # "01", "²", too long, out of range
            coeffs = _respelled(f"{path}: brackets[{idx}]", dim, coeffs)
        if (i, j) in table:
            raise InputError(f"{path}: duplicate bracket entry ({i}, {j})")
        table[(i, j)] = coeffs
        values += coeffs.values()
    try:
        text, ints = "".join(values), False
    except TypeError:  # a value that is not a string: an int reads as its string, any other fails the alphabet check
        text, ints = "".join(map(str, values)), True
    try:
        # the ASCII alphabet of the format: no space, "_", newline or other digits
        if not text.isascii() or text.encode().translate(None, b"0123456789+-/"):
            raise ValueError
        strings = list(set(values))  # strings and ints only, so a JSON true is not taken for a 1
        texts = list(map(str, strings)) if ints else strings
        # each tuple partition makes is dropped at once: kept, they would set off
        # the garbage collector about twice per file
        heads = list(map(itemgetter(0), map(str.partition, texts, itertools.repeat("/"))))
        tails = list(map(str.removeprefix, texts, heads))  # "" or "/q"
        nums = list(map(int, heads))  # in this alphabet, int() takes exactly [+-]?[0-9]+
        qs: dict[str, int] = {}
        for tail in set(tails):
            if not _DENOMINATOR_RE.fullmatch(tail):
                raise ValueError
            qs[tail] = int(tail[1:]) if tail else 1
    except ValueError:  # a malformed value, or longer than the int-string conversion limit
        for idx, coeffs in enumerate(table.values()):  # the table holds the brackets in file order
            for key, val in coeffs.items():
                if type(val) is str:
                    _rational(val, int(key), f"{path}: brackets[{idx}]")
                elif type(val) is not int:
                    raise InputError(f"{path}: brackets[{idx}]: coefficient {_echo(val)} is not an exact rational string")
        raise  # not reached: the walk words every value the passes reject
    den = lcm(1, *qs.values())
    scale = {tail: den // q for tail, q in qs.items()}
    scaled = dict(zip(strings, map(mul, nums, map(scale.__getitem__, tails))))
    scaled[None] = 0  # coeffs.get of a key the bracket leaves out
    return den, {ij: list(map(scaled.__getitem__, map(coeffs.get, keys))) for ij, coeffs in table.items()}


def _respelled(where: str, dim: int, coeffs: dict[str, Any]) -> dict[str, Any]:
    """``coeffs`` with each key in its canonical spelling, or InputError."""
    respelled: dict[str, Any] = {}
    for key, val in coeffs.items():
        # str.isdigit alone accepts digits such as "²" that int() rejects
        if not (key.isascii() and key.isdigit()):
            raise InputError(f"{where}: coefficient key {_echo(repr(key))} is not a basis index")
        try:
            k = int(key)
        except ValueError:  # longer than the int-string conversion limit
            raise InputError(f"{where}: coefficient key has too many digits") from None
        if not 0 <= k < dim:
            raise InputError(f"{where}: coefficient index {_echo(k)} out of range")
        if str(k) in respelled:  # "1" and "01" name one index
            raise InputError(f"{where}: coefficient index {k} is given twice")
        respelled[str(k)] = val
    return respelled


def load_input(text: str) -> tuple[LieAlgebra, str]:
    if _EXPR_RE.match(text):
        return parse_expression(text), text.strip()
    if os.path.exists(text):  # False also for a name the file system cannot hold
        return load_algebra_file(text), text
    raise UsageError(f"not a builtin expression or readable file: {_echo(text)}")


def _echo(value: object) -> str:
    """A string as an error message quotes it, or the repr of any other
    value (an int, a pair of ints, a list read from a file), escaped by
    ``_printable``: a long one is cut to a prefix and the length of the
    escaped text, so it cannot flood stderr.  The prefix is at most
    ``_MAX_ECHO`` bytes of the escaped text in UTF-8, and a character
    cut at its end is dropped whole."""
    text = _printable(value if isinstance(value, str) else repr(value))
    # more than _MAX_ECHO characters are more than _MAX_ECHO bytes
    data = text[: _MAX_ECHO + 1].encode()
    return text if len(data) <= _MAX_ECHO else f"{data[:_MAX_ECHO].decode('utf-8', 'ignore')}... ({len(text)} characters)"


def _printable(text: str) -> str:
    """text with each character that is not printable replaced by the
    escape that ``repr`` gives it (``\\n``, ``\\x1b``, ``\\udcff``), so a
    path or an argument printed in a report or a diagnostic stays on its
    one line; printable characters, ASCII or not, are kept.  The result
    is printable, so escaping it again changes nothing: the one escape
    of every text the CLI prints from outside, whole for a path and
    through ``_echo`` for a quote."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def algebra_to_doc(algebra: LieAlgebra) -> dict[str, Any]:
    brackets = []
    for (i, j), c in sorted(algebra.brackets.items()):
        coeffs = {str(k): str(v) for k, v in enumerate(c) if v}
        brackets.append({"i": i, "j": j, "coeffs": coeffs})
    return {"dim": algebra.dim, "labels": list(algebra.labels), "brackets": brackets}


# ---------------------------------------------------------------------------
# analyze


def build_report(algebra: LieAlgebra, source: str, method: str) -> dict[str, Any]:
    derived = algebra.derived_subalgebra()
    series = algebra.lower_central_series()
    report: dict[str, Any] = {
        "input": {"source": source, "dim": algebra.dim, "labels": list(algebra.labels)},
        "validation": {"ok": True},
        "dims": {
            "dim": algebra.dim,
            "derived": derived.dim,
            "center": algebra.center().dim,
            "lower_central_series": [s.dim for s in series],
            "nilpotent": series[-1].is_zero(),
        },
    }

    verdict = classify(algebra)
    report["decomposition"] = None if verdict.m is None else {"m": verdict.m, "k": verdict.k}

    closed = capability._closed_forms(verdict) if method in ("formula", "both") else None
    oracle_m = oracle_ext = center_dim = None
    if method in ("oracle", "both"):
        oracle_m, oracle_ext = exterior.multiplier_dim(algebra), exterior.exterior_square_dim(algebra)
        center_dim = exterior.exterior_center(algebra).dim
        verdict = capability._with_construction(verdict, center_dim == 0, method)

    report["multiplier_dim"] = {"formula": closed and closed.dim_multiplier, "oracle": oracle_m}
    report["exterior_square_dim"] = {"formula": closed and closed.dim_exterior_square, "oracle": oracle_ext}
    report["exterior_center_dim"] = center_dim

    report["capability"] = {
        "capable": verdict.capable,
        "family": verdict.family,
        "parameters": verdict.parameters,
        "method": method,
        "reasons": list(verdict.reasons),
        "oracle_agreement": verdict.oracle_agreement,
    }
    return report


def render_report(report: dict[str, Any]) -> str:
    lines = []
    lines.append(f"source: {_printable(report['input']['source'])}")
    lines.append(f"dim: {report['input']['dim']}")
    if report["input"]["labels"]:
        lines.append("labels: " + " ".join(report["input"]["labels"]))
    dims = report["dims"]
    lines.append(f"derived dim: {dims['derived']}")
    lines.append(f"center dim: {dims['center']}")
    lines.append("lower central series dims: " + " ".join(str(d) for d in dims["lower_central_series"]))
    lines.append(f"nilpotent: {'yes' if dims['nilpotent'] else 'no'}")
    if report["decomposition"] is not None:
        lines.append(f"decomposition: m={report['decomposition']['m']} k={report['decomposition']['k']}")
    for label, key in (("dim M", "multiplier_dim"), ("dim L^L", "exterior_square_dim")):
        for method in ("formula", "oracle"):
            value = report[key][method]
            if value is not None:
                lines.append(f"{label} ({method}): {value}")
    if report["exterior_center_dim"] is not None:
        lines.append(f"exterior center dim: {report['exterior_center_dim']}")
    cap = report["capability"]
    capable = cap["capable"]
    lines.append("capable: " + ("undecided" if capable is None else ("yes" if capable else "no")))
    lines.append(f"family: {cap['family']}")
    for reason in cap["reasons"]:
        lines.append(f"reason: {reason}")
    if cap["oracle_agreement"] is not None:
        lines.append(f"oracle agreement: {'yes' if cap['oracle_agreement'] else 'no'}")
    return "\n".join(lines)


def cmd_analyze(args: argparse.Namespace) -> int:
    algebra, source = load_input(args.algebra)
    violation = algebra.validate()
    if violation is not None:
        if args.json:
            doc = {"input": {"source": source}, "validation": {"ok": False, "jacobi_violation": list(violation)}}
            print(json.dumps(doc, indent=2))
        else:
            print(f"validation: Jacobi identity fails at basis triple {violation}", file=sys.stderr)
        return EXIT_INVALID
    report = build_report(algebra, source, args.method)
    print(json.dumps(report, indent=2) if args.json else render_report(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate / scramble


def cmd_validate(args: argparse.Namespace) -> int:
    algebra = load_algebra_file(args.file)
    violation = algebra.validate()
    if violation is not None:
        print(f"invalid: Jacobi identity fails at basis triple {violation}", file=sys.stderr)
        return EXIT_INVALID
    print(f"ok: dim={algebra.dim} brackets={len(algebra._rows)}")
    return EXIT_OK


def cmd_scramble(args: argparse.Namespace) -> int:
    if not _EXPR_RE.match(args.expression):
        raise UsageError(f"scramble takes a builtin expression, got: {_echo(args.expression)}")
    algebra = parse_expression(args.expression)
    scrambled = scramble(algebra, args.seed)
    print(json.dumps(algebra_to_doc(scrambled), indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-paper: the published closed-form results vs the construction


def _verify_checks() -> list[dict[str, Any]]:
    checks: list[dict[str, Any]] = []

    def add(claim: str, expected: Any, computed: Any) -> None:
        checks.append(
            {
                "claim": claim,
                "expected": str(expected),
                "computed": str(computed),
                "pass": str(expected) == str(computed),
            }
        )

    # each algebra is built once, keyed by the expression the checks print
    build = functools.cache(parse_expression)
    for n in range(1, 8):
        add(f"dim M(A({n}))", abelian_multiplier_dim(n), exterior.multiplier_dim(build(f"A({n})")))
        add(
            f"commutator map of A({n}) is zero",
            True,
            exterior.exterior_square(build(f"A({n})")).commutator_map.rank() == 0,
        )
    for m in (1, 2, 3):
        add(f"dim M(H({m}))", heisenberg_multiplier_dim(m), exterior.multiplier_dim(build(f"H({m})")))
        add(
            f"dim(H({m}) ^ H({m}))",
            heisenberg_exterior_square_dim(m),
            exterior.exterior_square_dim(build(f"H({m})")),
        )

    parts = [f"A({n})" for n in (1, 2, 3)] + [f"H({m})" for m in (1, 2)]
    for name1, name2 in itertools.combinations_with_replacement(parts, 2):
        l1, l2 = build(name1), build(name2)
        expected = direct_sum_multiplier_dim(
            exterior.multiplier_dim(l1),
            exterior.multiplier_dim(l2),
            l1.dim - l1.derived_subalgebra().dim,
            l2.dim - l2.derived_subalgebra().dim,
        )
        computed = exterior.multiplier_dim(build(f"{name1}+{name2}"))
        add(f"dim M({name1}+{name2}) from summands", expected, computed)

    add("dim M(H(1)+A(1))", 4, exterior.multiplier_dim(build("H(1)+A(1)")))

    expected_capability = [(f"A({n})", n >= 2) for n in range(1, 7)]
    expected_capability += [(f"H({m})", m == 1) for m in (1, 2, 3)]
    expected_capability += [(f"H({m})+A({k})", m == 1) for m in (1, 2, 3) for k in (1, 2, 3)]
    for name, expected in expected_capability:
        verdict = decide_capability(build(name), "both")  # raises on disagreement
        add(f"{name} capable", expected, verdict.capable)

    for n in range(2, 7):
        add(f"dim Z^(A({n}))", 0, exterior.exterior_center(build(f"A({n})")).dim)
    add("dim Z^(H(1))", 0, exterior.exterior_center(build("H(1)")).dim)
    for m in (2, 3):
        hm = build(f"H({m})")
        add(
            f"Z^(H({m})) equals the derived subalgebra",
            True,
            exterior.exterior_center(hm) == hm.derived_subalgebra(),
        )

    for name, _ in named_members():
        algebra = build(name)
        zc = exterior.exterior_center(algebra)
        quotient, _ = algebra.quotient(zc)
        add(
            f"dim({name} ^ {name}) survives the quotient by Z^",
            exterior.exterior_square_dim(algebra),
            exterior.exterior_square_dim(quotient),
        )

    h1 = build("H(1)")
    add("dim((H(1)/Z) ^ (H(1)/Z))", 1, exterior.quotient_exterior_dim(h1, h1.derived_subalgebra()))
    for m in (2, 3):
        hm = build(f"H({m})")
        add(
            f"derived subalgebra of H({m}) inside Z^",
            True,
            exterior.ideal_in_exterior_center(hm, hm.derived_subalgebra()),
        )
    h1a1 = build("H(1)+A(1)")
    apart = Subspace.span(4, [(0, 0, 0, 1)])
    add("abelian summand of H(1)+A(1) inside Z^", False, exterior.ideal_in_exterior_center(h1a1, apart))
    return checks


def cmd_verify_paper(args: argparse.Namespace) -> int:
    checks = _verify_checks()
    all_pass = all(c["pass"] for c in checks)
    if args.json:
        print(json.dumps({"checks": checks, "all_pass": all_pass}, indent=2))
    else:
        width = max(len(c["claim"]) for c in checks)
        for c in checks:
            status = "ok" if c["pass"] else "FAIL"
            line = f"{c['claim']:<{width}}  expected {c['expected']:>5}  computed {c['computed']:>5}  {status}"
            print(line)
        print(f"{len(checks)} checks, {'all passed' if all_pass else 'FAILURES above'}")
    return EXIT_OK if all_pass else EXIT_INVALID


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="liecap",
        description="Exact exterior squares, Schur multipliers and capability of Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a JSON structure-constant file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="full report for a file or builtin expression like H(2)+A(3)")
    p.add_argument("algebra")
    p.add_argument("--method", choices=("formula", "oracle", "both"), default="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scramble", help="emit a builtin algebra in a seeded random basis")
    p.add_argument("expression")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_scramble)

    p = sub.add_parser("verify-paper", help="check the published closed forms against the construction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout must fail here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): send what is still buffered
        # to devnull so that the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except UsageError as e:
        print(f"usage error: {_printable(str(e))}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, InvalidAlgebraError) as e:
        print(f"error: {_printable(str(e))}", file=sys.stderr)
        return EXIT_INVALID
    except (ConstructionError, DecompositionCheckError, DerivedBasisError, CapabilityDisagreement) as e:
        print(f"internal check failed: {_printable(str(e))}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
