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
# named test takes about 19 s, a row's run about 1 s, and the slowest row
# (the d3 term, whose failing example hypothesis shrinks) about 9 s.
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
        "validate: the Jacobi table's columns read one index late",
        "lie.py",
        "enumerate(zip(*[_combine(z, g, n) for g in forms]))",
        "enumerate(zip(*[_combine(z, g, n) for g in forms]), 1)",
        (
            "tests/test_lie.py::test_validate_witness_matches_raw_expansion",
        ),
    ),
    Mutant(
        "quotient: brackets read at the first q columns, not the section columns",
        "lie.py",
        "for (s, a), (t, b) in combinations(enumerate(cols), 2):",
        "for (s, a), (t, b) in combinations(enumerate(range(len(cols))), 2):",
        (
            "tests/test_lie.py::test_integer_commutator_code_matches_fraction_oracle",
        ),
    ),
    Mutant(
        "quotient: the labels of the first q basis vectors, not of the section columns",
        "lie.py",
        "d * self._den, consts, [self.labels[c] for c in cols])",
        "d * self._den, consts, self.labels[: len(cols)])",
        (
            "tests/test_lie.py::test_integer_commutator_code_matches_fraction_oracle",
        ),
    ),
    Mutant(
        "quotient: the projection rows read in reverse order",
        "lie.py",
        "consts[(s, t)] = [_dot(r, c) for r in rows]",
        "consts[(s, t)] = [_dot(r, c) for r in rows[::-1]]",
        (
            "tests/test_lie.py::test_quotient_sum_by_abelian_summand_is_heisenberg",
            "tests/test_lie.py::test_integer_commutator_code_matches_fraction_oracle",
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
        "change_basis: the common denominator of the reduced rows dropped",
        "lie.py",
        "dp * self._den * derived._den * dy, consts)",
        "dp * self._den * derived._den, consts)",
        (
            "tests/test_lie.py::test_change_basis_on_library_bases_matches_fraction_oracle",
            "tests/test_lie.py::test_derived_coordinate_paths_match_fraction_oracle",
        ),
    ),
    Mutant(
        "change_basis: the z columns read one column early",
        "lie.py",
        "xs = list(zip(*(reduced[k][n:] for k in range(n))))",
        "xs = list(zip(*(reduced[k][n - 1 :] for k in range(n))))",
        (
            "tests/test_lie.py::test_change_basis_on_library_bases_matches_fraction_oracle",
            "tests/test_lie.py::test_change_basis_preserves_invariants",
        ),
    ),
    Mutant(
        "Gram products: the live filter inverted",
        "lie.py",
        "live = [i for i, t in enumerate(ts) if any(map(any, t))]",
        "live = [i for i, t in enumerate(ts) if not any(map(any, t))]",
        (
            "tests/test_lie.py::test_change_basis_swap_flips_sign",
            "tests/test_decompose.py::test_decompose_canonical_inputs",
        ),
    ),
    Mutant(
        "quotient: the table over den instead of d den",
        "lie.py",
        "d * self._den, consts, [self.labels[c] for c in cols])",
        "self._den, consts, [self.labels[c] for c in cols])",
        (
            "tests/test_lie.py::test_integer_commutator_code_matches_fraction_oracle",
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
        "exterior center: Z^ read off over the wrong denominator",
        "exterior.py",
        "image = derived._image(center._den, center._rows)",
        "image = derived._image(1, center._rows)",
        (
            "tests/test_exterior.py::test_split_matches_full_construction",
        ),
    ),
    Mutant(
        "exterior center: the check that Z^(L1) stays in [L, L] dropped",
        "exterior.py",
        """    if any(any(x[m:]) for x in center._rows):
        raise ConstructionError("the exterior center of L1 leaves [L, L]")
""",
        "",
        (
            "tests/test_exterior.py::test_split_checks_exterior_center_inside_derived",
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
        "_shared: keys held strongly, in a plain dict",
        "lie.py",
        "memo: WeakKeyDictionary = WeakKeyDictionary()",
        "memo: dict = {}",
        (
            "tests/test_exterior.py::test_shared_results_go_with_their_algebra",
            "tests/test_exterior.py::test_equal_live_algebras_share_one_square",
        ),
    ),
    Mutant(
        # the answers stay right: only the count of builds shows it
        "_split_factor memoized per instance, not shared between equal algebras",
        "exterior.py",
        """@_shared
def _split_factor(""",
        """from .lie import _once


@_once
def _split_factor(""",
        (
            "tests/test_exterior.py::test_verify_paper_shares_its_exterior_results",
        ),
    ),
    Mutant(
        "_gram: the check that the derived generator is central dropped",
        "decompose.py",
        """    if any(_combine(derived._rows[0], g, algebra.dim)):
        raise DecompositionCheckError("derived generator is not central")
""",
        "",
        (
            "tests/test_decompose.py::test_noncentral_derived_generator_is_a_defect",
        ),
    ),
    Mutant(
        "certificate: every Gram product expected to be 0",
        "decompose.py",
        "if algebra._gram_products([x for x, _ in vectors]) != expected:",
        "if algebra._gram_products([x for x, _ in vectors]) != {}:",
        (
            "tests/test_decompose.py::test_decompose_canonical_inputs",
            "tests/test_decompose.py::test_decompose_dimension_count",
        ),
    ),
    Mutant(
        "certificate: every center row taken as an abelian row, with no enlargement test",
        "decompose.py",
        "abelian = [row for row in center._rows if sb.add_int_row(list(row))]",
        "abelian = list(center._rows)",
        (
            "tests/test_decompose.py::test_decomposition_agrees_with_the_split",
            "tests/test_decompose.py::test_decompose_canonical_inputs",
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
        "forward reduction: a row that vanishes reported as enlarging",
        "linalg.py",
        """                if not any(rest):
                    return False
""",
        """                if not any(rest):
                    return True
""",
        (
            "tests/test_linalg.py::test_each_answer_is_whether_the_rank_grew",
        ),
    ),
    Mutant(
        "elimination step: x + b y in the a == 1 shortcut",
        "linalg.py",
        "return [s - b * t for s, t in zip(x, y)]",
        "return [s + b * t for s, t in zip(x, y)]",
        (
            "tests/test_linalg.py::test_kernel_matches_gauss_jordan_null_space",
            "tests/test_linalg.py::test_subspace_accepts_exactly_the_canonical_basis",
        ),
    ),
    Mutant(
        "elimination step: a and b swapped",
        "linalg.py",
        """    a = pv // g
    b = v // g
""",
        """    a = v // g
    b = pv // g
""",
        (
            "tests/test_linalg.py::test_kernel_matches_gauss_jordan_null_space",
            "tests/test_linalg.py::test_int_subspace_matches_fraction_gauss_jordan",
            "tests/test_linalg.py::test_span_matches_gauss_jordan_on_wide_entries",
            "tests/test_linalg.py::test_image_read_off_matches_span",
            "tests/test_linalg.py::test_quotient_projection_properties",
        ),
    ),
    Mutant(
        "elimination step: the a == 1 shortcut taken for every a",
        "linalg.py",
        "if a == 1:",
        "if True:",
        (
            "tests/test_linalg.py::test_kernel_matches_gauss_jordan_null_space",
            "tests/test_linalg.py::test_int_subspace_matches_fraction_gauss_jordan",
            "tests/test_linalg.py::test_span_matches_gauss_jordan_on_wide_entries",
            "tests/test_linalg.py::test_image_read_off_matches_span",
            "tests/test_linalg.py::test_quotient_projection_properties",
        ),
    ),
    Mutant(
        "normalized rows: the positive-lead rule dropped",
        "linalg.py",
        """    if next(filter(None, row)) < 0:
        g = -g
""",
        "",
        (
            "tests/test_linalg.py::test_span_builder_pivot_leads_are_positive",
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
        "_Record: the check of the number of values dropped",
        "linalg.py",
        """        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} values, {len(values)} given")
""",
        "",
        (
            "tests/test_exterior.py::test_square_is_immutable_and_compares_by_its_fields",
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
        "_Record.__init__(m, len(rows), cols, None, d, rows)",
        "_Record.__init__(m, cols, cols, None, d, rows)",
        (
            "tests/test_exterior.py::test_field_sanity",
            "tests/test_linalg.py::test_values_are_immutable_and_hashable",
        ),
    ),
    Mutant(
        "split: every center row taken into A, with no enlargement test",
        "exterior.py",
        "factor = [row for row in center._rows if sb.add_int_row(list(row))]",
        "factor = list(center._rows)",
        (
            "tests/test_decompose.py::test_decomposition_agrees_with_the_split",
            "tests/test_exterior.py::test_split_factor_matches_fraction_oracle",
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
        "classify: the nilpotency guard dropped",
        "capability.py",
        "    if algebra.is_nilpotent():\n",
        "    if True:\n",
        (
            "tests/test_capability.py::test_classify_unclassified",
            "tests/test_cli.py::test_deep_file_analyze_json_is_pinned[r2+A(2) scrambled]",
        ),
    ),
    Mutant(
        "family table: the Heisenberg record's cross term 2m read as m",
        "capability.py",
        "abelian_multiplier_dim(k), 2 * m, k)",
        "abelian_multiplier_dim(k), m, k)",
        (
            "tests/test_multiplier.py::test_classified_is_basis_invariant",
        ),
    ),
    Mutant(
        "loader: the join's int retry leaves out a JSON true, which then reads as the 1 it equals",
        "cli.py",
        'text, ints = "".join(map(str, values)), True',
        'text, ints = "".join([str(v) for v in values if type(v) in (str, int)]), True',
        (
            "tests/test_cli.py::test_file_diagnostics[true-after-int]",
        ),
    ),
    Mutant(
        "loader: the repeated-index check skipped for canonical keys",
        "cli.py",
        'if str(k) in respelled:  # "1" and "01" name one index',
        "if key != str(k) and str(k) in respelled:",
        (
            "tests/test_cli.py::test_file_diagnostics[aliased-key-first-zero]",
        ),
    ),
    Mutant(
        "loader: the alphabet check dropped",
        "cli.py",
        'if not text.isascii() or text.encode().translate(None, b"0123456789+-/"):',
        "if not text.isascii():",
        (
            "tests/test_cli.py::test_file_diagnostics[leading-space]",
        ),
    ),
    Mutant(
        "loader: the denominator check dropped",
        "cli.py",
        "if not _DENOMINATOR_RE.fullmatch(tail):",
        "if False:",
        (
            "tests/test_cli.py::test_file_diagnostics[zero-denominator]",
            "tests/test_cli.py::test_file_diagnostics[zero-led-denominator]",
        ),
    ),
    Mutant(
        "loader: the denominator int outside the try",
        "cli.py",
        """            qs[tail] = int(tail[1:]) if tail else 1
    except ValueError:  # a malformed value, or longer than the int-string conversion limit
        for idx, coeffs in enumerate(table.values()):  # the table holds the brackets in file order
            for key, val in coeffs.items():
                if type(val) is str:
                    _rational(val, int(key), f"{path}: brackets[{idx}]")
                elif type(val) is not int:
                    raise InputError(f"{path}: brackets[{idx}]: coefficient {_echo(val)} is not an exact rational string")
        raise  # not reached: the walk words every value the passes reject
    den = lcm(1, *qs.values())
""",
        """            qs[tail] = tail[1:] or "1"
    except ValueError:  # a malformed value, or longer than the int-string conversion limit
        for idx, coeffs in enumerate(table.values()):  # the table holds the brackets in file order
            for key, val in coeffs.items():
                if type(val) is str:
                    _rational(val, int(key), f"{path}: brackets[{idx}]")
                elif type(val) is not int:
                    raise InputError(f"{path}: brackets[{idx}]: coefficient {_echo(val)} is not an exact rational string")
        raise  # not reached: the walk words every value the passes reject
    qs = {tail: int(q) for tail, q in qs.items()}
    den = lcm(1, *qs.values())
""",
        (
            "tests/test_cli.py::test_file_diagnostics[long-denominator]",
        ),
    ),
    Mutant(
        "loader: the canonical-keys test dropped",
        "cli.py",
        'if not coeffs.keys() <= canonical:  # "01", "²", too long, out of range',
        "if False:",
        (
            "tests/test_cli.py::test_file_diagnostics[aliased-key-first-zero]",
        ),
    ),
    Mutant(
        "loader: the wording walk skips values that are not strings",
        "cli.py",
        "elif type(val) is not int:",
        "elif False:",
        (
            "tests/test_cli.py::test_file_diagnostics[float-one]",
            "tests/test_cli.py::test_file_diagnostics[true-after-int]",
        ),
    ),
    Mutant(
        "_echo cuts the raw text",
        "cli.py",
        "text = _printable(value if isinstance(value, str) else repr(value))",
        "text = value if isinstance(value, str) else repr(value)",
        (
            "tests/test_cli.py::test_unrecognized_argument_echo_is_bounded",
            "tests/test_cli.py::test_echo_is_printable_and_bounded",
        ),
    ),
    Mutant(
        "label rule: whitespace accepted",
        "cli.py",
        "if label.split() != [label] or not label.isprintable():",
        "if not label.isprintable():",
        (
            "tests/test_cli.py::test_unprintable_label_is_rejected",
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
