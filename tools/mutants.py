"""Check that the tests still kill a fixed table of source mutants.

Usage (from the root of a checkout):

    python3 tools/mutants.py

Each row of ``MUTANTS`` names a module of ``src/liecap``, an exact old
text, the text that replaces it and the pytest node ids that must fail
with the edit in place.  First every named test runs on an unmutated
copy of ``src/`` and must pass.  Then each row is applied to a fresh
copy of ``src/``: the old text must occur exactly once, or the row
fails loudly.  Its tests run with ``PYTHONPATH`` on the copy, the run
checks that ``liecap`` was imported from that copy, and every named
node id must fail.  A test run that takes longer than ``TIMEOUT_S``
is stopped: on the unmutated copy that is an error, and under a mutant
it kills the row, which is reported as killed by timeout.

The tool never edits a test.  It prints one line per row and exits 1
when a row's text is not found exactly once, a test fails on the
unmutated copy, or a mutant survives.  The node ids are the fastest
tests known to kill each row, so that the whole run stays short.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Seconds one pytest run may take: on 2 vCPU the unmutated run of every
# named test takes about 16 s, a row's run about 1 s, and the slowest row
# (the d3 term, whose failing example hypothesis shrinks) about 17 s.
TIMEOUT_S = 60


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "jacobiator: + sign on the (i, k) term",
        "lie.py",
        "(i, k, j, -1)):",
        "(i, k, j, 1)):",
        (
            "tests/test_lie.py::test_validate_skips_the_triples_when_the_derived_algebra_is_central",
            "tests/test_exterior.py::test_self_check_catches_dropped_d3_term",
        ),
    ),
    Mutant(
        "quotient: the rows of N before the section",
        "lie.py",
        "self._change_basis(ideal._den, [*section, *ideal._rows])",
        "self._change_basis(ideal._den, [*ideal._rows, *section])",
        (
            "tests/test_lie.py::test_quotient_heisenberg_by_derived_is_abelian",
            "tests/test_lie.py::test_quotient_sum_by_abelian_summand_is_heisenberg",
        ),
    ),
    Mutant(
        "quotient: cut at q + 1",
        "lie.py",
        "rewritten._leading_block(len(cols), [self.labels[c] for c in cols])",
        'rewritten._leading_block(len(cols) + 1, [*(self.labels[c] for c in cols), "x"])',
        (
            "tests/test_lie.py::test_quotient_by_zero_ideal_is_same_algebra",
            "tests/test_lie.py::test_quotient_heisenberg_by_derived_is_abelian",
        ),
    ),
    Mutant(
        "_leading_block: keeps the last coordinates",
        "lie.py",
        "block = {(i, j): c[:size] for",
        "block = {(i, j): c[len(c) - size:] for",
        (
            "tests/test_lie.py::test_quotient_of_valid_algebra_is_valid",
            "tests/test_exterior.py::test_direct_sum_exterior_dims_add",
        ),
    ),
    Mutant(
        "equality key without the denominator",
        "lie.py",
        "return (self.dim, self._den, self._rows)",
        "return (self.dim, self._rows)",
        (
            "tests/test_lie.py::test_key_keeps_the_common_denominator",
        ),
    ),
    Mutant(
        "forms: the antisymmetric entry keeps the sign of the stored bracket",
        "lie.py",
        "g[j][i] = -x",
        "g[j][i] = x",
        (
            "tests/test_lie.py::test_change_basis_swap_flips_sign",
            "tests/test_lie.py::test_derived_coordinate_paths_match_fraction_oracle",
        ),
    ),
    Mutant(
        "forms: the antisymmetric entry dropped (the center reads half the equations)",
        "lie.py",
        """                    g[i][j] = x
                    g[j][i] = -x
""",
        """                    g[i][j] = x
""",
        (
            "tests/test_lie.py::test_change_basis_preserves_invariants",
            "tests/test_decompose.py::test_form_radical_equals_center",
        ),
    ),
    Mutant(
        "derived pass: rows read before an enlargement not certified again",
        "lie.py",
        "coords = list(takewhile(lambda a: a is not None, derived._int_coordinates(brackets)))",
        "coords += takewhile(lambda a: a is not None, derived._int_coordinates(brackets[len(coords) :]))",
        (
            "tests/test_lie.py::test_derived_pass_reads_each_bracket_row_once",
            "tests/test_lie.py::test_derived_coordinate_paths_match_fraction_oracle",
        ),
    ),
    Mutant(
        "bracket kernel: the sign of w[a] dropped",
        "linalg.py",
        "out = [c * x for x in row] if out is None else [y + c * x for y, x in zip(out, row)]",
        "out = [abs(c) * x for x in row] if out is None else [y + abs(c) * x for y, x in zip(out, row)]",
        (
            "tests/test_lie.py::test_change_basis_swap_flips_sign",
            "tests/test_lie.py::test_derived_coordinate_paths_match_fraction_oracle",
        ),
    ),
    Mutant(
        "back substitution: the earlier solutions not rescaled",
        "lie.py",
        """                ys = [[f * x for x in y] for y in ys]
""",
        "",
        (
            "tests/test_lie.py::test_change_basis_on_library_bases_matches_fraction_oracle",
            "tests/test_lie.py::test_change_basis_preserves_invariants",
        ),
    ),
    Mutant(
        "image: mapped back through the wrong basis rows ([L, S], Z^)",
        "linalg.py",
        "[_combine(c, self._rows, n) for c in coords]",
        "[_combine(c, self._rows[::-1], n) for c in coords]",
        (
            "tests/test_lie.py::test_integer_commutator_code_matches_fraction_oracle",
            "tests/test_cli.py::test_deep_file_analyze_json_is_pinned[L_7 scrambled]",
        ),
    ),
    Mutant(
        "image: read off over the coordinates' denominator alone",
        "linalg.py",
        "Subspace._from_rref_ints(n, d * self._den, ",
        "Subspace._from_rref_ints(n, d, ",
        (
            "tests/test_linalg.py::test_image_read_off_matches_span",
            "tests/test_lie.py::test_integer_commutator_code_matches_fraction_oracle",
        ),
    ),
    Mutant(
        "_once: stores a raised exception",
        "lie.py",
        """        if compute not in memo:
            memo[compute] = compute(algebra)
        return memo[compute]
""",
        """        if compute not in memo:
            try:
                memo[compute] = compute(algebra)
            except Exception as exc:
                memo[compute] = exc
        if isinstance(memo[compute], Exception):
            raise memo[compute]
        return memo[compute]
""",
        (
            "tests/test_memo.py::test_memo_keeps_values_and_never_failures",
            "tests/test_decompose.py::test_failed_certification_is_not_memoized",
        ),
    ),
    Mutant(
        "_once: never stores",
        "lie.py",
        """        if compute not in memo:
            memo[compute] = compute(algebra)
        return memo[compute]
""",
        """        return compute(algebra)
""",
        (
            "tests/test_memo.py::test_memo_keeps_values_and_never_failures",
            "tests/test_lie.py::test_center_is_eliminated_once",
            "tests/test_decompose.py::test_decomposition_is_certified_once",
        ),
    ),
    Mutant(
        "_gram: the check that the derived generator is central dropped",
        "decompose.py",
        """    if any(b[0] for b in coords.beta[0].values()):
        raise DecompositionCheckError("derived generator is not central")
""",
        "",
        (
            "tests/test_decompose.py::test_noncentral_derived_generator_is_a_defect",
        ),
    ),
    Mutant(
        "certificate: the pair entry compared with 0",
        "decompose.py",
        "(dx * dy * dg if j == m + i and i < m else 0)",
        "0",
        (
            "tests/test_decompose.py::test_decompose_canonical_inputs",
            "tests/test_decompose.py::test_decompose_dimension_count",
        ),
    ),
    Mutant(
        "certificate: the check that z and the abelian rows are independent dropped",
        "decompose.py",
        """    if sb.rank != k + 1:
        raise DecompositionCheckError("the basis is singular: z lies in the span of the abelian factor")
""",
        "",
        (
            "tests/test_decompose.py::test_certificate_checks_that_the_basis_is_invertible",
        ),
    ),
    Mutant(
        "symplectic pass: b scaled without dg",
        "decompose.py",
        "_lowest(dv * c, [[y * da * dg for y in v]])",
        "_lowest(dv * c, [[y * da for y in v]])",
        (
            "tests/test_decompose.py::test_gram_column_pass_matches_matrix_oracle",
            "tests/test_decompose.py::test_decompose_dimension_count",
        ),
    ),
    Mutant(
        "symplectic pass: the second projection step x - f(x, b) a dropped",
        "decompose.py",
        """            s = _dot(x, gv)
            if s:
                x = [y * c - s * w for y, w in zip(x, a)]
                dx *= c
""",
        "",
        (
            "tests/test_decompose.py::test_symplectic_basis_random_skew",
            "tests/test_decompose.py::test_decompose_dimension_count",
        ),
    ),
    Mutant(
        "d3: the [e_i, e_k] ^ e_j term dropped",
        "exterior.py",
        "(support.get((j, k)), i, 1), (support.get((i, k)), j, -1))",
        "(support.get((j, k)), i, 1))",
        (
            "tests/test_extensions.py::test_exterior_square_properties_on_central_extensions",
            "tests/test_exterior.py::test_self_check_catches_dropped_d3_term",
        ),
    ),
    Mutant(
        "exterior square: a perturbed projection entry",
        "exterior.py",
        """    section, d, columns, pivots = _relation_projection(len(pairs), _d3_rows(n, algebra._rows))
""",
        """    section, d, columns, pivots = _relation_projection(len(pairs), _d3_rows(n, algebra._rows))
    if pivots and section:
        p = pivots[0]
        columns = columns[:p] + (columns[p] + ((len(section) - 1, 1),),) + columns[p + 1 :]
""",
        (
            "tests/test_exterior.py::test_commutator_map_is_surjective",
            "tests/test_exterior.py::test_exterior_center_heisenberg",
        ),
    ),
    Mutant(
        "exterior square: the gate reads the section columns",
        "exterior.py",
        "for p in pivots:",
        "for p in section:",
        (
            "tests/test_exterior.py::test_self_check_catches_bad_projection",
            "tests/test_exterior.py::test_self_check_catches_bad_relation",
        ),
    ),
    Mutant(
        "exterior square: the surjectivity check dropped",
        "exterior.py",
        """    if image.rank != derived.dim:
        raise ConstructionError("commutator map is not surjective onto [L, L]")
""",
        "",
        (
            "tests/test_exterior.py::test_self_check_catches_a_map_that_misses_the_derived_subalgebra",
        ),
    ),
    Mutant(
        "relation elimination: the stop one row early",
        "exterior.py",
        "if sb.rank == len(touched):",
        "if sb.rank + 1 == len(touched):",
        (
            "tests/test_exterior.py::test_elimination_stops_at_full_rank_on_heisenberg",
            "tests/test_exterior.py::test_core_matches_full_width_elimination",
        ),
    ),
    Mutant(
        "relation elimination: a touched column dropped from the re-indexing",
        "exterior.py",
        "touched = sorted({c for row in relations for c in row})",
        "touched = sorted({c for row in relations for c in row})[1:]",
        (
            "tests/test_exterior.py::test_core_matches_full_width_elimination",
            "tests/test_exterior.py::test_exterior_square_dims",
        ),
    ),
    Mutant(
        "reduced rows: the d // lead factor dropped",
        "linalg.py",
        "return d, {c: r if r[c] == d else [x * (d // r[c]) for x in r] for c, r in rows.items()}",
        "return d, rows",
        (
            "tests/test_linalg.py::test_projection_rows_share_one_denominator",
            "tests/test_linalg.py::test_int_subspace_matches_fraction_gauss_jordan",
        ),
    ),
    Mutant(
        "kernel: the first projection row dropped",
        "linalg.py",
        "for row in reversed(kernel)]",
        "for row in reversed(kernel[1:])]",
        (
            "tests/test_linalg.py::test_kernel_of_zero_map_is_everything",
            "tests/test_lie.py::test_center_examples",
        ),
    ),
    Mutant(
        "kernel: the rows left in reversed column order",
        "linalg.py",
        "[row[::-1] for row in reversed(kernel)]",
        "[row for row in reversed(kernel)]",
        (
            "tests/test_linalg.py::test_kernel_matches_gauss_jordan_null_space",
            "tests/test_lie.py::test_center_examples",
        ),
    ),
    Mutant(
        "lowest terms: int rows kept over a denominator that is not the lcm (subspaces, tables, symplectic rows)",
        "linalg.py",
        "g = math.gcd(d, *(math.gcd(*r) for r in rows))",
        "g = 1",
        (
            "tests/test_linalg.py::test_int_subspace_matches_fraction_gauss_jordan",
        ),
    ),
    Mutant(
        "Subspace constructor: canonical comparison dropped",
        "linalg.py",
        """        if canonical.basis != basis:
            raise ValueError("subspace basis is not in reduced echelon form")
""",
        "",
        (
            "tests/test_linalg.py::test_subspace_accepts_exactly_the_canonical_basis",
            "tests/test_linalg.py::test_subspace_rejects_unreduced_basis",
        ),
    ),
    Mutant(
        "row kernel: a row skipped when its first entry is zero",
        "linalg.py",
        "if c and any(row):",
        "if c and row[0]:",
        (
            "tests/test_linalg.py::test_combine_matches_fraction_sum",
        ),
    ),
    Mutant(
        "membership rule: the rebuild check dropped (derived coordinates, contains_subspace)",
        "linalg.py",
        "yield coords if _combine(coords, self._rows, self.ambient_dim) == [d * x for x in w] else None",
        "yield coords",
        (
            "tests/test_cli.py::test_derived_basis_defect_exits_3",
            "tests/test_lie.py::test_is_ideal",
        ),
    ),
    Mutant(
        "membership rule: rebuilt without the denominator d",
        "linalg.py",
        "== [d * x for x in w] else None",
        "== list(w) else None",
        (
            "tests/test_linalg.py::test_int_subspace_matches_fraction_gauss_jordan",
            "tests/test_lie.py::test_derived_coordinate_paths_match_fraction_oracle",
        ),
    ),
    Mutant(
        "Matrix.data: denominator off by one",
        "linalg.py",
        "Fraction(x, d) if x else zero",
        "Fraction(x, d + 1) if x else zero",
        (
            "tests/test_linalg.py::test_values_are_immutable_and_hashable",
            "tests/test_lie.py::test_integer_commutator_code_matches_fraction_oracle",
        ),
    ),
    Mutant(
        "Matrix._from_ints: cols reported as the row count",
        "linalg.py",
        "(len(rows), cols, None, d, rows)",
        "(cols, cols, None, d, rows)",
        (
            "tests/test_exterior.py::test_field_sanity",
            "tests/test_linalg.py::test_values_are_immutable_and_hashable",
        ),
    ),
    Mutant(
        "split: the check that brackets stay in the first m coordinates dropped",
        "exterior.py",
        "if j >= n1 or any(c[m:]):",
        "if j >= n1:",
        (
            "tests/test_exterior.py::test_split_checks_brackets_stay_in_derived_coordinates",
        ),
    ),
    Mutant(
        "capability: the disagreement check dropped",
        "capability.py",
        """    if verdict.capable != constructed:
        raise CapabilityDisagreement(
            f"closed form says capable={verdict.capable}, construction says {constructed}"
        )
""",
        "",
        (
            "tests/test_cli.py::test_capability_disagreement_exits_3",
        ),
    ),
    Mutant(
        "loader: the value cache also keeps JSON ints",
        "cli.py",
        """            if isinstance(val, str):
                pq = rationals.get(val)
                if pq is None:
                    pq = rationals[val] = _rational(val, k, where)
                parsed[k] = pq
            elif isinstance(val, int) and not isinstance(val, bool):
                parsed[k] = (val, 1)
""",
        """            pq = rationals.get(val) if isinstance(val, (str, int)) else None
            if pq is not None:
                parsed[k] = pq
            elif isinstance(val, str):
                parsed[k] = rationals[val] = _rational(val, k, where)
            elif isinstance(val, int) and not isinstance(val, bool):
                parsed[k] = rationals[val] = (val, 1)
""",
        (
            "tests/test_cli.py::test_file_diagnostics[true-after-int]",
        ),
    ),
    Mutant(
        "loader: the repeated-index check skipped for canonical keys",
        "cli.py",
        'if k in parsed:  # "1" and "01" name one index',
        'if key not in index and k in parsed:',
        (
            "tests/test_cli.py::test_file_diagnostics[aliased-key-first-zero]",
        ),
    ),
    Mutant(
        "expression syntax: \\d instead of [0-9]",
        "cli.py",
        r'_EXPR_RE = re.compile(r"^\s*[AH]\([0-9]+\)(\s*\+\s*[AH]\([0-9]+\))*\s*$")',
        r'_EXPR_RE = re.compile(r"^\s*[AH]\(\d+\)(\s*\+\s*[AH]\(\d+\))*\s*$")',
        (
            "tests/test_cli.py::test_non_ascii_digits_are_not_expressions",
        ),
    ),
)

# Runs pytest in this interpreter, then reports which liecap the tests imported.
RUNNER = """
import sys
import pytest
code = pytest.main(sys.argv[1:])
print("liecap-file:", getattr(sys.modules.get("liecap"), "__file__", None))
sys.exit(code)
"""


class Failure(Exception):
    pass


def run_tests(src: Path, tests: tuple[str, ...]) -> dict[str, list[str]]:
    """The outcomes (PASSED, FAILED, ERROR) of the test items under each
    node id in ``tests``, run with ``src`` first on the import path, or
    TIMEOUT for every node id when the run outlasts ``TIMEOUT_S``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-c", RUNNER, "-q", "-rA", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {test: ["TIMEOUT"] for test in tests}
    imported = None
    reported: list[tuple[str, str]] = []
    for line in proc.stdout.splitlines():
        if line.startswith("liecap-file: "):
            imported = line.split(": ", 1)[1]
        status, _, rest = line.partition(" ")
        if status in ("PASSED", "FAILED", "ERROR"):
            reported.append((status, rest.split(" - ", 1)[0]))
    if imported is None or imported == "None" or not Path(imported).resolve().is_relative_to(src.resolve()):
        raise Failure(f"liecap was imported from {imported}, not from {src}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    outcomes = {}
    for test in tests:
        # an item of the node id, or an error collecting its file
        outcomes[test] = [
            status
            for status, item in reported
            if item == test or item.startswith(test + "[") or test.startswith(item + "::")
        ]
        if not outcomes[test] and proc.returncode:
            outcomes[test] = [f"exit {proc.returncode}"]
    return outcomes


def fresh_copy(tmp: Path, name: str) -> Path:
    src = tmp / name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def mutated(mutant: Mutant) -> str:
    """The text of the row's module with the row applied."""
    text = (ROOT / "src" / "liecap" / mutant.module).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise Failure(f"{mutant.name}: the old text occurs {count} times in {mutant.module}, not once")
    return text.replace(mutant.old, mutant.new)


def main() -> int:
    start = time.perf_counter()
    failed = False
    with tempfile.TemporaryDirectory(prefix="liecap-mutants-") as name:
        tmp = Path(name)
        try:
            for mutant in MUTANTS:  # every row applies before any test runs
                if not mutant.tests:
                    raise Failure(f"{mutant.name}: no tests named")
                mutated(mutant)
            tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
            baseline = run_tests(fresh_copy(tmp, "baseline"), tests)
            bad = {t: s for t, s in baseline.items() if set(s) != {"PASSED"}}
            if bad:
                raise Failure(f"tests that do not pass on the unmutated source: {bad}")
            print(f"baseline: {len(tests)} tests pass ({time.perf_counter() - start:.1f} s)")
            for idx, mutant in enumerate(MUTANTS):
                src = fresh_copy(tmp, f"mutant-{idx}")
                (src / "liecap" / mutant.module).write_text(mutated(mutant), encoding="utf-8")
                outcomes = run_tests(src, mutant.tests)
                survivors = [t for t, s in outcomes.items() if set(s) <= {"PASSED"}]
                failed |= bool(survivors)
                if survivors:
                    verdict = f"SURVIVED: {', '.join(survivors)} pass"
                elif any("TIMEOUT" in s for s in outcomes.values()):
                    verdict = f"killed by timeout ({TIMEOUT_S} s)"
                else:
                    verdict = "killed"
                print(f"{verdict:8} {mutant.name} ({time.perf_counter() - start:.1f} s)")
        except Failure as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(f"{'some mutants survived' if failed else f'all {len(MUTANTS)} mutants killed'} in {time.perf_counter() - start:.1f} s")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
