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
from pathlib import Path
from typing import Any

from . import exterior
from .capability import CapabilityDisagreement, _with_construction, classify, decide_capability, named_members
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
    classified_multiplier,
    direct_sum_multiplier_dim,
    heisenberg_exterior_square_dim,
    heisenberg_multiplier_dim,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# ASCII digits only: \d would also match digits such as "٣"
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")  # whole string, by fullmatch
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
# A usage error quotes at most this many characters of an argument.
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
        raise UsageError(f"dimension {dim} exceeds the limit of {_MAX_DIM}")
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
                raise InputError(f"duplicate key {key!r} in a JSON object")
            seen.add(key)
    return obj


def _rational(text: str, k: int, where: str) -> tuple[int, int]:
    """The int pair (p, q) of the coefficient string ``"p"`` or ``"p/q"``
    at index ``k``, or InputError."""
    if not _RATIONAL_RE.fullmatch(text):
        raise InputError(f"{where}: coefficient {text!r} is not an exact rational string")
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
        raise InputError(f"{path}: dimension {dim} exceeds the limit of {_MAX_DIM}")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != dim or not all(isinstance(s, str) for s in labels):
            raise InputError(f"{path}: 'labels' must be a list of {dim} strings")
    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise InputError(f"{path}: 'brackets' must be a list")
    # each coefficient as an int pair (p, q) for p / q, the table over the lcm of the q
    table: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}
    index = {str(k): k for k in range(dim)}  # the canonical spelling of each key
    # each distinct coefficient string is matched and converted once; only
    # strings are kept, since a JSON true equals 1 and would hit a cached 1
    rationals: dict[str, tuple[int, int]] = {}
    for idx, entry in enumerate(brackets):
        where = f"{path}: brackets[{idx}]"
        if not isinstance(entry, dict):
            raise InputError(f"{where} must be an object")
        i, j = entry.get("i"), entry.get("j")
        if not isinstance(i, int) or not isinstance(j, int) or isinstance(i, bool) or isinstance(j, bool):
            raise InputError(f"{where}: 'i' and 'j' must be integers")
        if not (0 <= i < j < dim):
            raise InputError(f"{where}: need 0 <= i < j < dim, got ({i}, {j})")
        coeffs = entry.get("coeffs", {})
        if not isinstance(coeffs, dict):
            raise InputError(f"{where}: 'coeffs' must be an object")
        parsed: dict[int, tuple[int, int]] = {}
        for key, val in coeffs.items():
            k = index.get(key)
            if k is None:  # not the canonical spelling: "01", "²", too long, out of range
                # str.isdigit alone accepts digits such as "²" that int() rejects
                if not isinstance(key, str) or not (key.isascii() and key.isdigit()):
                    raise InputError(f"{where}: coefficient key {key!r} is not a basis index")
                try:
                    k = int(key)
                except ValueError:  # longer than the int-string conversion limit
                    raise InputError(f"{where}: coefficient key has too many digits") from None
                if not 0 <= k < dim:
                    raise InputError(f"{where}: coefficient index {k} out of range")
            if k in parsed:  # "1" and "01" name one index
                raise InputError(f"{where}: coefficient index {k} is given twice")
            if isinstance(val, str):
                pq = rationals.get(val)
                if pq is None:
                    pq = rationals[val] = _rational(val, k, where)
                parsed[k] = pq
            elif isinstance(val, int) and not isinstance(val, bool):
                parsed[k] = (val, 1)
            else:
                raise InputError(f"{where}: coefficient {val!r} is not an exact rational string")
        if (i, j) in table:
            raise InputError(f"{path}: duplicate bracket entry ({i}, {j})")
        table[(i, j)] = parsed
    # every denominator is that of a cached string, or 1 for a JSON int
    qs = {1, *(q for _, q in rationals.values())}
    den = lcm(*qs)
    scale = {q: den // q for q in qs}
    rows: dict[tuple[int, int], list[int]] = {}
    for key, parsed in table.items():
        row = rows[key] = [0] * dim
        for k, (num, q) in parsed.items():
            row[k] = num * scale[q]
    return LieAlgebra._from_int_rows(dim, den, rows, labels)


def load_input(text: str) -> tuple[LieAlgebra, str]:
    if _EXPR_RE.match(text):
        return parse_expression(text), text.strip()
    try:
        found = Path(text).exists()
    except OSError:  # e.g. a name too long for the file system (Python < 3.13)
        found = False
    if found:
        return load_algebra_file(text), text
    raise UsageError(f"not a builtin expression or readable file: {_echo(text)}")


def _echo(text: str) -> str:
    """An argument as a usage error quotes it: a long one is cut to a
    prefix and its length, so it cannot flood stderr."""
    if len(text) <= _MAX_ECHO:
        return text
    return f"{text[:_MAX_ECHO]}... ({len(text)} characters)"


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
    decomposition = None
    if verdict.family == "heisenberg-sum":
        decomposition = {"m": verdict.m, "k": verdict.k}
    report["decomposition"] = decomposition

    formula_m = formula_ext = None
    if method in ("formula", "both") and verdict.family != "unclassified":
        rep = classified_multiplier(algebra)
        formula_m, formula_ext = rep.dim_multiplier, rep.dim_exterior_square
    oracle_m = oracle_ext = center_dim = None
    if method in ("oracle", "both"):
        oracle_m, oracle_ext = exterior.multiplier_dim(algebra), exterior.exterior_square_dim(algebra)
        center_dim = exterior.exterior_center(algebra).dim
        verdict = _with_construction(verdict, center_dim == 0, method)

    report["multiplier_dim"] = {"formula": formula_m, "oracle": oracle_m}
    report["exterior_square_dim"] = {"formula": formula_ext, "oracle": oracle_ext}
    report["exterior_center_dim"] = center_dim

    report["capability"] = {
        "capable": verdict.capable,
        "family": verdict.family,
        "parameters": {
            key: value
            for key, value in (("n", verdict.n), ("m", verdict.m), ("k", verdict.k))
            if value is not None
        },
        "method": method,
        "reasons": list(verdict.reasons),
        "oracle_agreement": verdict.oracle_agreement,
    }
    return report


def render_report(report: dict[str, Any]) -> str:
    lines = []
    lines.append(f"source: {report['input']['source']}")
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

    for n in range(1, 8):
        add(f"dim M(A({n}))", abelian_multiplier_dim(n), exterior.multiplier_dim(abelian(n)))
        add(
            f"commutator map of A({n}) is zero",
            True,
            exterior.exterior_square(abelian(n)).commutator_map.rank() == 0,
        )
    for m in (1, 2, 3):
        add(f"dim M(H({m}))", heisenberg_multiplier_dim(m), exterior.multiplier_dim(heisenberg(m)))
        add(
            f"dim(H({m}) ^ H({m}))",
            heisenberg_exterior_square_dim(m),
            exterior.exterior_square_dim(heisenberg(m)),
        )

    parts = [(f"A({n})", abelian(n)) for n in (1, 2, 3)]
    parts += [(f"H({m})", heisenberg(m)) for m in (1, 2)]
    for (name1, l1), (name2, l2) in itertools.combinations_with_replacement(parts, 2):
        expected = direct_sum_multiplier_dim(
            exterior.multiplier_dim(l1),
            exterior.multiplier_dim(l2),
            l1.dim - l1.derived_subalgebra().dim,
            l2.dim - l2.derived_subalgebra().dim,
        )
        add(f"dim M({name1}+{name2}) from summands", expected, exterior.multiplier_dim(direct_sum(l1, l2)))

    add("dim M(H(1)+A(1))", 4, exterior.multiplier_dim(direct_sum(heisenberg(1), abelian(1))))

    expected_capability = [(f"A({n})", abelian(n), n >= 2) for n in range(1, 7)]
    expected_capability += [(f"H({m})", heisenberg(m), m == 1) for m in (1, 2, 3)]
    expected_capability += [
        (f"H({m})+A({k})", direct_sum(heisenberg(m), abelian(k)), m == 1)
        for m in (1, 2, 3)
        for k in (1, 2, 3)
    ]
    for name, algebra, expected in expected_capability:
        verdict = decide_capability(algebra, "both")  # raises on disagreement
        add(f"{name} capable", expected, verdict.capable)

    for n in range(2, 7):
        add(f"dim Z^(A({n}))", 0, exterior.exterior_center(abelian(n)).dim)
    add("dim Z^(H(1))", 0, exterior.exterior_center(heisenberg(1)).dim)
    for m in (2, 3):
        add(
            f"Z^(H({m})) equals the derived subalgebra",
            True,
            exterior.exterior_center(heisenberg(m)) == heisenberg(m).derived_subalgebra(),
        )

    for name, algebra in named_members():
        zc = exterior.exterior_center(algebra)
        quotient, _ = algebra.quotient(zc)
        add(
            f"dim({name} ^ {name}) survives the quotient by Z^",
            exterior.exterior_square_dim(algebra),
            exterior.exterior_square_dim(quotient),
        )

    h1 = heisenberg(1)
    add("dim((H(1)/Z) ^ (H(1)/Z))", 1, exterior.quotient_exterior_dim(h1, h1.derived_subalgebra()))
    for m in (2, 3):
        hm = heisenberg(m)
        add(
            f"derived subalgebra of H({m}) inside Z^",
            True,
            exterior.ideal_in_exterior_center(hm, hm.derived_subalgebra()),
        )
    h1a1 = direct_sum(heisenberg(1), abelian(1))
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
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, InvalidAlgebraError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (ConstructionError, DecompositionCheckError, DerivedBasisError, CapabilityDisagreement) as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
