"""A mutant catalogue: breaks of the fast paths and checks that named tier-1 tests must catch.

Each entry of ``MUTANTS`` names a file under ``src/recseq``, an exact
snippet of it, the snippet's replacement, and the tier-1 tests (pytest
node ids, relative to the root of the repository) that must fail once
the replacement is made.  Run it with pytest installed::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # some of them

First the named tests of the chosen mutants run once on the untouched
``src/``, where every one must pass.  Then the mutants run on
``min(os.cpu_count(), number of mutants)`` threads.  For each mutant,
``src/`` is copied to a temporary directory of its own, the snippet
(which must occur exactly once) is replaced there, and only that
mutant's tests run, with ``PYTHONPATH`` at the copy and a report file of
their own.  Each outcome is printed on one line, in catalogue order.
The run exits 1 if a snippet no longer matches or no test is named, if a
named test does not run or passes on its mutant, or if the control run
fails.

Importing this module runs nothing.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

Mutant = namedtuple("Mutant", "name file snippet replacement tests")

# Seconds for one pytest run of the named tests
TIMEOUT = 60

# The root of the repository: the node ids are relative to it
ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # the binomial transforms shift every root by +1 or -1 (linrec._transformed)
    Mutant(
        "transform-shift-sign",
        "linrec.py",
        "_scaled_recurrence(a, lam, delta), s * lam, ring.modulus)",
        "_scaled_recurrence(a, lam, delta), -s * lam, ring.modulus)",
        [
            "tests/test_linrec.py::test_transforms_equal_hurwitz_products_with_ones[Z]",
            "tests/test_linrec.py::TestBinomialTransform::test_fibonacci_gives_even_indexed_fibonacci",
        ],
    ),
    Mutant(
        "transform-charpoly-unreduced",
        "polymat.py",
        "return [c % modulus for c in cs] if modulus else cs, binomial_transform_values(",
        "return cs, binomial_transform_values(",
        [
            "tests/test_linrec.py::test_transforms_equal_hurwitz_products_with_ones[Zmod:12]",
            "tests/test_linrec.py::test_transforms_equal_hurwitz_products_with_ones[Zmod:10007]",
        ],
    ),
    # the Newton inverse divides by the binomial transform of the terms
    Mutant(
        "inverse-divisors-untransformed",
        "linrec.py",
        "ring, d = a.ring, binomial_transform(a)",
        "ring, d = a.ring, a",
        [
            "tests/test_linrec.py::TestInvertibility::test_ones_over_z_fails_at_one",
            "tests/test_linrec.py::test_raw_value_inverse_matches_oracles[Zmod:10007]",
        ],
    ),
    # printing over a modulus past the int/str limit holds its chunks
    Mutant(
        "long-modulus-streams",
        "linrec.py",
        "if limit and (m is None or m > bound):",
        "if limit and m is None:",
        [
            "tests/test_cli.py::TestIntStrLimit::test_residues_of_a_long_modulus_are_checked_before_the_first_chunk",
        ],
    ),
    # printing as a stream: a refusal leaves stdout empty, a closed stdout
    # ends quietly, and the caller's decimal context holds between chunks
    Mutant(
        "lam-route-unchecked",
        "linrec.py",
        "if limit and (m is None or m > bound):",
        "if limit and m is not None and m > bound:",
        [
            "tests/test_linrec.py::test_term_string_chunks_refuse_early_when_lam_exceeds_1",
        ],
    ),
    Mutant(
        "no-first-pass",
        "linrec.py",
        "        if limit:  # the first pass",
        "        if False:  # the first pass",
        [
            "tests/test_cli.py::TestIntStrLimit::test_limit_is_the_interpreters[terms]",
            "tests/test_cli.py::TestIntStrLimit::test_limit_is_the_interpreters[terms-Q]",
        ],
    ),
    Mutant(
        "route-1-unreduced",
        "linrec.py",
        "z //= g  # exact",
        "pass  # the fraction is left unreduced",
        [
            "tests/test_linrec.py::test_term_strings_unroll_on_decimals_when_lam_is_1[Q-delta6]",
            "tests/test_linrec.py::test_term_string_chunks_leave_the_callers_context_between_chunks[Q]",
        ],
    ),
    Mutant(
        "context-held-across-yield",
        "linrec.py",
        "        yield from iter(strings, None)\n",
        "        with localcontext(_EXACT):\n            yield from iter(strings, None)\n",
        [
            "tests/test_linrec.py::test_term_string_chunks_leave_the_callers_context_between_chunks[Z]",
            "tests/test_linrec.py::test_term_string_chunks_leave_the_callers_context_between_chunks[Q]",
        ],
    ),
    Mutant(
        "chunks-without-order-guard",
        "kernels.py",
        "        if len(vals) >= order:\n",
        "        if True:\n",
        [
            "tests/test_linrec.py::test_recurrence_chunks_are_recurrence_values_in_chunks[1]",
        ],
    ),
    Mutant(
        "first-chunk-pulled-after-the-start",
        "cli.py",
        "    chunk = next(chunks, None)\n",
        "    chunk = [] if terms else None  # the first chunk is pulled in the loop, after the start is written\n",
        [
            "tests/test_cli.py::TestIntStrLimit::test_limit_is_the_interpreters[terms]",
            "tests/test_cli.py::TestStream::test_refusal_past_the_first_chunk_leaves_stdout_empty[terms-Q-lam10]",
            "tests/test_cli.py::test_grammar_fuzz_exit_codes_are_truthful",
        ],
    ),
    Mutant(
        "second-copy-of-the-chunk-at-its-write",
        "cli.py",
        "            write(sep)\n            _write_joined(write, chunk, sep, word)\n",
        "            write(sep + sep.join(map(word, chunk)))\n",
        [
            "tests/test_cli.py::TestStream::test_a_chunk_is_written_from_one_copy",
        ],
    ),
    # a printing call holds one small chunk: 64 terms, and invert prints in
    # chunks too
    Mutant(
        "chunk-back-to-256",
        "kernels.py",
        "CHUNK = 64\n",
        "CHUNK = 256\n",
        [
            "tests/test_cli.py::TestStream::test_a_long_print_grows_by_one_small_chunk[Z]",
            "tests/test_cli.py::TestStream::test_a_long_print_grows_by_one_small_chunk[Q]",
        ],
    ),
    Mutant(
        "invert-prints-one-list",
        "cli.py",
        "_printed_chunks(chunks, seq.ring.modulus)",
        "_printed_chunks([values], seq.ring.modulus)",
        [
            "tests/test_cli.py::TestStream::test_invert_writes_one_chunk_at_a_time[plain]",
            "tests/test_cli.py::TestStream::test_invert_writes_one_chunk_at_a_time[structured]",
        ],
    ),
    Mutant(
        "inverse-unroll-unchunked",
        "linrec.py",
        "zs = chain.from_iterable(recurrence_chunks(*_scaled_recurrence(d, lam, delta), k, ring.modulus))",
        "zs = recurrence_values(*_scaled_recurrence(d, lam, delta), k, ring.modulus)",
        [
            "tests/test_linrec.py::TestNewtonInverse::test_unrolls_only_to_the_first_non_unit",
            "tests/test_cli.py::TestStream::test_invert_stops_at_the_first_non_unit",
        ],
    ),
    Mutant(
        "no-broken-pipe-handler",
        "cli.py",
        "    except BrokenPipeError:\n",
        "    except NotImplementedError:\n",
        [
            "tests/test_cli.py::TestStream::test_closed_stdout_ends_quietly[plain]",
        ],
    ),
    # the composed operations over Z/m run modulo the lifted m P
    Mutant(
        "composed-modulo-m",
        "polymat.py",
        "modulus = m * gcd(f, pow(gcd(f, m), count - 1, f))",
        "modulus = m",
        [
            "tests/test_linrec.py::test_products_commute_with_reduction_mod_m[Z-12-hurwitz]",
            "tests/test_linrec.py::test_products_commute_with_reduction_mod_m[Z-720-newton]",
        ],
    ),
    # each backward Newton step reads its share of the lift off the modulus
    Mutant(
        "composed-step-gcd-against-m",
        "polymat.py",
        "    k2 = gcd(k, modulus)\n",
        "    k2 = gcd(k, m)\n",
        [
            "tests/test_linrec.py::test_products_commute_with_reduction_mod_m[Z-12-hurwitz]",
            "tests/test_linrec.py::test_products_match_the_oracle_in_canonical_form[Zmod:12-hadamard]",
            "tests/test_linrec.py::test_generic_loops_over_zmod[Zmod:12]",
        ],
    ),
    # a lift larger than m times the m-part of D! changes no output, only cost
    Mutant(
        "lift-by-all-of-d-factorial",
        "polymat.py",
        "modulus = m * gcd(f, pow(gcd(f, m), count - 1, f))",
        "modulus = m * f",
        [
            "tests/test_polymat.py::test_the_zmod_lift_is_m_times_the_m_part_of_d_factorial[12-D9]",
            "tests/test_polymat.py::test_the_zmod_lift_is_m_times_the_m_part_of_d_factorial[10007-D64]",
        ],
    ),
    Mutant(
        "power-sums-uncorrected",
        "polymat.py",
        "acc = sum(map(mul, high, reversed(s))) + (k - d) * high[k - 1]",
        "acc = sum(map(mul, high, reversed(s)))",
        [
            "tests/test_linrec.py::test_newton_values_combine_root_power_sums[2-None]",
            "tests/test_polymat.py::TestComposedOperations::test_fibonacci_square_product",
        ],
    ),
    Mutant(
        "newton-scale",
        "polymat.py",
        '"newton": (2, 2)}',
        '"newton": (2, 1)}',
        [
            "tests/test_linrec.py::test_scaled_products_over_q_match_the_oracle[6-newton]",
            "tests/test_linrec.py::test_products_commute_with_reduction_mod_m[Q-97-newton]",
        ],
    ),
    Mutant(
        "newton-one-operand-shifted",
        "polymat.py",
        "a, b = _shifted(*a, lam, modulus), _shifted(*b, lam, modulus)",
        "a = _shifted(*a, lam, modulus)",
        [
            "tests/test_linrec.py::test_newton_values_combine_root_power_sums[1-None]",
            "tests/test_linrec.py::TestNewton::test_geometric_root_law",
        ],
    ),
    # the fast paths of the kernels
    Mutant(
        "binomial-plus-1-row-as-minus-1",
        "kernels.py",
        "row = list(map(add, row, row[1:]))",
        "row = list(map(sub, row[1:], row))",
        [
            "tests/test_linrec.py::test_transforms_equal_hurwitz_products_with_ones[Z]",
            "tests/test_linrec.py::test_newton_values_combine_root_power_sums[1-None]",
        ],
    ),
    Mutant(
        "packed-slot-narrower",
        "kernels.py",
        "width = -(-(n * (modulus - 1) ** 2).bit_length() // 8) + 1",
        "width = -(-(n * (modulus - 1) ** 2).bit_length() // 8) - 1",
        [
            "tests/test_linrec.py::test_binomial_convolution_values_on_both_routes[10007]",
        ],
    ),
    Mutant(
        "binomial-unit-gate-inverted",
        "kernels.py",
        "if gcd(fact[-1], modulus) == 1:",
        "if gcd(fact[-1], modulus) != 1:",
        [
            "tests/test_linrec.py::test_binomial_convolution_route_depends_on_the_modulus",
            "tests/test_linrec.py::test_binomial_convolution_values_on_both_routes[12]",
        ],
    ),
    Mutant(
        "exact-context-inexact-untrapped",
        "linrec.py",
        "traps=[Inexact, Rounded, InvalidOperation]",
        "traps=[Rounded, InvalidOperation]",
        [
            "tests/test_linrec.py::test_the_exact_context_raises_where_it_would_round",
        ],
    ),
    # every verify check reports its first failure through one rule, and
    # the recurrence and ogf checks share one recurrence sum
    Mutant(
        "first-failure-never-reports",
        "verify.py",
        "for n, e, a in triples if e != a), None)",
        "for n, e, a in triples if False), None)",
        [
            "tests/test_verify.py::TestSatisfiesRecurrence::test_wrong_declaration_fails_with_witness",
            "tests/test_verify.py::TestDecompositionCheck::test_corrupted_product_fails",
            "tests/test_verify.py::TestInverseCheck::test_wrong_formula_term_fails[Q]",
            "tests/test_verify.py::TestInverseCheck::test_wrong_formula_term_fails[Zmod:10007]",
            "tests/test_verify.py::TestMorphismCheck::test_laws_interleave_by_index[additive-before-multiplicative-at-1]",
        ],
    ),
    Mutant(
        "prediction-drops-c0",
        "verify.py",
        "hs = [-cs[d - i] for i in range(1, d + 1)]",
        "hs = [-cs[d - i] for i in range(1, d)]",
        [
            "tests/test_verify.py::TestSatisfiesRecurrence::test_wrong_declaration_fails_with_witness",
            "tests/test_verify.py::TestOgfCheck::test_non_solution_reports_its_first_nonzero_coefficient",
        ],
    ),
    # the recurrence and ogf checks check their inputs before comparing
    Mutant(
        "terms-ring-unchecked",
        "verify.py",
        "    if not inside:\n",
        "    if False:\n",
        [
            "tests/test_verify.py::test_input_checks[recurrence-ring-at-degree-0]",
            "tests/test_verify.py::TestOgfCheck::test_refuses_its_inputs_before_unrolling",
        ],
    ),
    Mutant(
        "recurrence-prefix-tests-no-index",
        "verify.py",
        "if len(terms) <= order:",
        "if len(terms) < order:",
        [
            "tests/test_verify.py::test_input_checks[recurrence-no-index]",
            "tests/test_cli.py::TestVerifyVerb::test_inputs_of_each_check[argv15-expected15]",
        ],
    ),
    # product_check decides a product on c.order + D terms, and reads a
    # Newton product through psi^-1
    Mutant(
        "product-check-reads-d-plus-20",
        "verify.py",
        "k = c.order + (a.order + b.order if _ADDS_ORDERS[kind] else a.order * b.order)",
        "k = (a.order + b.order if _ADDS_ORDERS[kind] else a.order * b.order) + 20",
        [
            "tests/test_verify.py::TestProductCheck::test_decides_where_d_plus_20_terms_do_not",
            "tests/test_verify.py::TestProductCheck::test_reads_order_plus_d_terms_of_each_product[sum-10]",
        ],
    ),
    Mutant(
        "product-check-newton-without-psi-inverse",
        "verify.py",
        'want = direct_product_oracle("hadamard", _binomial(ta, 1), _binomial(tb, 1))\n'
        "        failure = _first_failure(zip(range(k), want, _binomial(tc, 1)))",
        'want = direct_product_oracle("hadamard", ta, tb)\n        failure = _first_failure(zip(range(k), want, tc))',
        [
            "tests/test_verify.py::TestProductCheck::test_reads_order_plus_d_terms_of_each_product[newton-12]",
            "tests/test_linrec.py::test_products_match_the_oracle_in_canonical_form[Zmod:12-newton]",
        ],
    ),
    # inverse_check decides the Newton inverse through psi^-1: d = psi^-1 a
    # must be units, and a failure is mapped back from the images to the terms
    Mutant(
        "inverse-check-failure-unmapped",
        "verify.py",
        "_first_failure((n, b[n] - e[n] + d[n].inv(), b[n]) for n in range(k))",
        "_first_failure((n, d[n].inv(), e[n]) for n in range(k))",
        [
            "tests/test_verify.py::TestInverseCheck::test_wrong_formula_term_fails[Q]",
            "tests/test_verify.py::TestInverseCheck::test_wrong_formula_term_fails[Zmod:12-t9]",
        ],
    ),
    Mutant(
        "inverse-check-units-of-e",
        "verify.py",
        "for n, d_n in enumerate(d):",
        "for n, d_n in enumerate(e):",
        [
            "tests/test_verify.py::TestInverseCheck::test_an_inverse_claimed_where_none_exists_raises",
            "tests/test_verify.py::TestInverseCheck::test_wrong_formula_term_fails[Zmod:12-t0]",
        ],
    ),
    # verify checks a sequence on -p when it is given, on its charpoly otherwise
    Mutant(
        "verify-sequence-ignores-p",
        "cli.py",
        "p = parse_poly(args.p, seq.ring) if args.p else seq.charpoly",
        "p = seq.charpoly",
        [
            "tests/test_cli.py::TestVerifyVerb::test_inputs_of_each_check[argv7-expected7]",
            "tests/test_cli.py::TestVerifyVerb::test_inputs_of_each_check[argv9-expected9]",
        ],
    ),
    # the verify verb does not compile the matrix oracles, which no check runs
    Mutant(
        "verify-loads-matrix-oracles",
        "verify.py",
        "from collections import namedtuple\n",
        "from collections import namedtuple\n\nfrom . import matrix_oracles  # noqa: F401\n",
        [
            "tests/test_cli.py::TestVerbs::test_non_verify_verbs_leave_the_oracles_unloaded",
        ],
    ),
    # recseq.ring owns the two ring rules: the elements a polynomial, sequence
    # or matrix is built from belong to its ring, and operands share one ring
    Mutant(
        "membership-ring-unchecked",
        "ring.py",
        "        if e.ring != ring:\n",
        "        if False:\n",
        [
            "tests/test_ring.py::test_boundary_messages[poly-coefficient]",
            "tests/test_ring.py::test_boundary_messages[linrec-initial]",
            "tests/test_ring.py::test_boundary_messages[matrix-entry]",
        ],
    ),
    Mutant(
        "agreement-reads-the-second-item-only",
        "ring.py",
        "    for x in items[1:]:\n",
        "    for x in items[1:2]:\n",
        [
            "tests/test_verify.py::test_input_checks[product-mixed-rings]",
            "tests/test_verify.py::TestProductCheck::test_refuses_its_inputs_before_unrolling",
        ],
    ),
]


def _failed(report: Path) -> dict:
    """Each test case of a JUnit XML report that ran, by node id: True if it failed or errored."""
    out = {}
    for case in ET.parse(report).iter("testcase"):
        path = case.get("classname", "").split(".")
        # classname is "tests.test_x" or "tests.test_x.TestClass"
        module = next(i for i, part in enumerate(path) if part.startswith("test_"))
        node = "/".join(path[: module + 1]) + ".py::" + "::".join(path[module + 1 :] + [case.get("name")])
        outcome = {child.tag for child in case}
        if "skipped" not in outcome:
            out[node] = bool(outcome & {"failure", "error"})
    return out


def _run(tests, src: Path, workdir: Path) -> dict:
    """Run ``tests`` with ``src`` on ``PYTHONPATH``: ``_failed`` of the report, or {} if the run timed out."""
    report = workdir / "report.xml"
    report.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", "addopts=", f"--junitxml={report}", *tests]
    try:
        # a mutant can make a test run without end, as an inverse that never
        # meets a non-unit does; such a test kills nothing
        subprocess.run(
            argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT, check=False
        )
    except subprocess.TimeoutExpired:
        return {}
    return _failed(report) if report.exists() else {}


def _try(m: Mutant, workdir: Path) -> tuple[bool, str]:
    """Apply ``m`` to a copy of ``src/`` made in ``workdir`` and run its tests there: (killed, its outcome line)."""
    copy = workdir / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    target = copy / "recseq" / m.file
    text = target.read_text()
    if text.count(m.snippet) != 1 or not m.tests:
        return False, f"{m.name}: the snippet occurs {text.count(m.snippet)} times in {m.file}, with {len(m.tests)} tests"
    target.write_text(text.replace(m.snippet, m.replacement))
    results = _run(m.tests, copy, workdir)
    survived = [t for t in m.tests if results.get(t) is False]
    not_run = [t for t in m.tests if t not in results]
    if survived or not_run:
        return False, f"{m.name}: survived {survived}, not run {not_run}"
    return True, f"{m.name}: killed by all {len(m.tests)} tests"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        named = sorted({t for m in chosen for t in m.tests})
        control = _run(named, ROOT / "src", tmp)
        for t in named:
            if control.get(t) is not False:
                print(f"control: {t} did not pass on the untouched tree")
                bad += 1
        with ThreadPoolExecutor(max_workers=min(os.cpu_count() or 1, len(chosen))) as pool:
            for killed, line in pool.map(_try, chosen, [tmp / m.name for m in chosen]):  # in catalogue order
                print(line, flush=True)
                bad += not killed
    print(f"{len(chosen)} mutants, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
