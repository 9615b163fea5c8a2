"""A mutant catalogue: breaks of the fast paths that named tier-1 tests must catch.

Each entry of ``MUTANTS`` names a file under ``src/recseq``, an exact
snippet of it, the snippet's replacement, and the tier-1 tests (pytest
node ids, relative to the root of the repository) that must fail once
the replacement is made.  Run it with pytest installed::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # some of them

First the named tests of the chosen mutants run once on the untouched
``src/``, where every one must pass.  Then, for each mutant,
``src/`` is copied to a temporary directory, the snippet (which must
occur exactly once) is replaced there, and only that mutant's tests run,
with ``PYTHONPATH`` at the copy.  The run exits 1 if a snippet no longer
matches or no test is named, if a named test does not run or passes on
its mutant, or if the control run fails; each outcome is printed on one
line.

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
        "        if limit:\n            for chunk in recurrence_chunks(cs, zs, k):",
        "        if False:\n            for chunk in recurrence_chunks(cs, zs, k):",
        [
            "tests/test_cli.py::TestIntStrLimit::test_limit_is_the_interpreters[terms]",
            "tests/test_cli.py::TestIntStrLimit::test_limit_is_the_interpreters[terms-Q]",
        ],
    ),
    Mutant(
        "context-held-across-yield",
        "linrec.py",
        'else f"{z}/{delta // g}")\n            yield strings',
        'else f"{z}/{delta // g}")\n                yield strings',
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
        "modulus = None if m is None else m * _split_by_modulus(factorial(count - 1), m)[0]",
        "modulus = m",
        [
            "tests/test_linrec.py::test_products_commute_with_reduction_mod_m[Z-12-hurwitz]",
            "tests/test_linrec.py::test_products_commute_with_reduction_mod_m[Z-720-newton]",
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
    Mutant(
        "split-by-modulus-no-split",
        "polymat.py",
        "    k2, g = 1, gcd(k, m)\n",
        "    return 1, k\n",
        [
            "tests/test_linrec.py::test_products_match_the_oracle_in_canonical_form[Zmod:12-hadamard]",
            "tests/test_linrec.py::test_generic_loops_over_zmod[Zmod:12]",
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
        for m in chosen:
            copy = tmp / "src"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
            target = copy / "recseq" / m.file
            text = target.read_text()
            if text.count(m.snippet) != 1 or not m.tests:
                print(f"{m.name}: the snippet occurs {text.count(m.snippet)} times in {m.file}, with {len(m.tests)} tests")
                bad += 1
                continue
            target.write_text(text.replace(m.snippet, m.replacement))
            results = _run(m.tests, copy, tmp)
            survived = [t for t in m.tests if results.get(t) is False]
            not_run = [t for t in m.tests if t not in results]
            if survived or not_run:
                print(f"{m.name}: survived {survived}, not run {not_run}")
                bad += 1
            else:
                print(f"{m.name}: killed by all {len(m.tests)} tests")
    print(f"{len(chosen)} mutants, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
