"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Runs the same seeded criteria as ``recseq selftest`` and prints one
pass/fail line each.  Tolerance is zero everywhere: every comparison is
exact equality of ring elements, polynomials, or term prefixes.
"""

import pytest

from recseq import hadamard, selftest

_RESULTS = {}


def _result(number: int) -> selftest.CriterionResult:
    if number not in _RESULTS:
        _RESULTS[number] = selftest.run_criterion(number, seed=selftest.DEFAULT_SEED)
    return _RESULTS[number]


@pytest.mark.parametrize("number,name", selftest.criteria())
def test_criterion(number, name, capsys):
    result = _result(number)
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.line()


def test_every_criterion_ran():
    assert [number for number, _ in selftest.criteria()] == list(range(1, 11))


def test_criteria_1_and_7_fail_on_a_wrong_hurwitz_product(monkeypatch):
    # a Hurwitz constructor that returns the Hadamard product: its terms
    # follow its own charpoly, but the direct Hurwitz product's do not;
    # criterion 1 reports its failure alone, without its pass suffix
    monkeypatch.setitem(selftest._CLOSURE_CASES, "hurwitz", (1, hadamard))
    assert selftest.criterion_7(selftest.DEFAULT_SEED) == (
        False, "hurwitz pair 0: check ogf: FAIL at index 2: expected 0, got 7210 (prefix=5)"
    )
    assert selftest.criterion_1(selftest.DEFAULT_SEED) == (
        False, "pair 0: check product-hurwitz: FAIL at index 1: expected 8609, got 3994 (prefix=4)"
    )
