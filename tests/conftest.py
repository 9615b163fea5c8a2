"""Shared strategies and helpers for the test suite."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from recseq import QQ, ZZ, LinRec, Poly, RingElem, RingSpec, Zmod, kernels, linrec

# random_linrec(rng, ring, degree) draws as the selftest does: a monic
# charpoly of that degree and as many initial values, each in [-5, 5] over
# Z, a/b with |a| <= 4 and 1 <= b <= 4 over Q, and any residue over Z/m
from recseq.selftest import _random_linrec as random_linrec  # noqa: F401

RINGS = [ZZ, QQ, Zmod(10007), Zmod(12)]
RING_IDS = [str(r) for r in RINGS]


def element_strategy(ring: RingSpec):
    if ring.kind == RingSpec.INTEGERS:
        return st.integers(-30, 30).map(ring.from_int)
    if ring.kind == RingSpec.RATIONALS:
        return st.tuples(st.integers(-12, 12), st.integers(1, 12)).map(
            lambda nd: RingElem(ring, Fraction(nd[0], nd[1]))
        )
    return st.integers(0, ring.modulus - 1).map(ring.from_int)


rings = st.sampled_from(RINGS)


@st.composite
def ring_with_elements(draw, count: int):
    ring = draw(rings)
    elems = [draw(element_strategy(ring)) for _ in range(count)]
    return ring, elems


@st.composite
def monic_polys(draw, ring=None, min_degree=1, max_degree=4):
    if ring is None:
        ring = draw(rings)
    degree = draw(st.integers(min_degree, max_degree))
    coeffs = [draw(element_strategy(ring)) for _ in range(degree)]
    coeffs.append(ring.one)
    return Poly(ring, coeffs)


@st.composite
def linrecs(draw, ring=None, max_degree=3):
    p = draw(monic_polys(ring=ring, max_degree=max_degree))
    init = [draw(element_strategy(p.ring)) for _ in range(len(p.coeffs) - 1)]
    return LinRec(p, init)


def fib(ring: RingSpec) -> LinRec:
    return LinRec(Poly.from_ints(ring, [-1, -1, 1]), [ring.zero, ring.one])


def geometric(ring: RingSpec, base: int) -> LinRec:
    return LinRec(Poly.from_ints(ring, [-base, 1]), [ring.one])


def int_values(terms) -> list[int]:
    return [t.value for t in terms]


@pytest.fixture
def fib_z():
    return fib(ZZ)


class UnrollBudget:
    """Counts the terms of every ``recurrence_values`` call, and fails a call past ``limit``.

    ``produced`` lists the length of each unroll.  A call that would take
    their sum past ``limit`` raises ``AssertionError`` before it unrolls,
    so code that unrolls far more than a test allows fails at once
    instead of running without end.  There is no limit until
    :meth:`reset` sets one.
    """

    def __init__(self, unroll):
        self.unroll, self.produced, self.limit = unroll, [], None

    def reset(self, limit: int) -> None:
        self.produced.clear()
        self.limit = limit

    def __call__(self, cs, init, count, modulus=None):
        if self.limit is not None and sum(self.produced) + count > self.limit:
            raise AssertionError(f"unrolled {sum(self.produced)} terms, asked for {count} more, limit {self.limit}")
        out = self.unroll(cs, init, count, modulus)
        self.produced.append(len(out))
        return out


@pytest.fixture
def unroll_budget(monkeypatch):
    """An :class:`UnrollBudget` in place of ``recurrence_values``, in ``kernels`` and in ``linrec``."""
    budget = UnrollBudget(kernels.recurrence_values)
    for module in (kernels, linrec):
        monkeypatch.setattr(module, "recurrence_values", budget)
    return budget
