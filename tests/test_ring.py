"""Ring arithmetic, units, integer scaling, and binomial coefficients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recseq import (
    QQ,
    ZZ,
    NotAUnit,
    RingElem,
    RingMismatch,
    RingSpec,
    Zmod,
    binom,
    int_scale,
)

from conftest import RINGS, RING_IDS, ring_with_elements


class TestRingSpec:
    def test_equality_is_structural(self):
        assert Zmod(7) == Zmod(7)
        assert Zmod(7) != Zmod(11)
        assert ZZ != QQ
        assert str(Zmod(10007)) == "Zmod:10007"

    def test_modulus_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            Zmod(1)
        with pytest.raises(ValueError):
            Zmod(0)

    def test_plain_rings_take_no_modulus(self):
        with pytest.raises(ValueError):
            RingSpec(RingSpec.INTEGERS, 5)


class TestElementArithmetic:
    def test_rational_sum(self):
        x = RingElem(QQ, Fraction(1, 2))
        y = RingElem(QQ, Fraction(1, 3))
        assert (x + y).value == Fraction(5, 6)

    def test_modular_sum_wraps(self):
        r = Zmod(7)
        assert (r.from_int(5) + r.from_int(4)).value == 2

    def test_integer_product(self):
        assert (ZZ.from_int(3) * ZZ.from_int(-4)).value == -12

    def test_cross_ring_operations_rejected(self):
        with pytest.raises(RingMismatch):
            ZZ.from_int(1) + QQ.one
        with pytest.raises(RingMismatch):
            Zmod(7).one * Zmod(11).one

    def test_float_values_rejected(self):
        with pytest.raises(TypeError):
            RingElem(ZZ, 1.5)
        with pytest.raises(TypeError):
            RingElem(QQ, 0.5)

    def test_residues_are_canonical(self):
        r = Zmod(7)
        assert r.from_int(-1).value == 6
        assert r.from_int(14).value == 0

    def test_rationals_are_canonical(self):
        x = RingElem(QQ, Fraction(4, -6))
        assert x.value.numerator == -2 and x.value.denominator == 3


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
class TestIdentities:
    def test_additive_identity(self, ring):
        x = ring.from_int(17)
        assert x + ring.zero == x

    def test_multiplicative_identity(self, ring):
        x = ring.from_int(17)
        assert x * ring.one == x

    def test_negation_is_an_involution(self, ring):
        x = ring.from_int(13)
        assert -(-x) == x


@given(ring_with_elements(3))
@settings(max_examples=200)
def test_ring_axioms(data):
    ring, (x, y, z) = data
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ring.zero == x
    assert x * ring.one == x
    assert x + (-x) == ring.zero


class TestInverses:
    def test_rational_inverse(self):
        x = RingElem(QQ, Fraction(2, 3))
        assert x.inv().value == Fraction(3, 2)

    def test_modular_inverse(self):
        # extended Euclid: 3 * 5 = 15 = 2*7 + 1
        x = Zmod(7).from_int(3)
        assert x.inv().value == 5
        assert (x * x.inv()).value == 1

    def test_integer_two_is_not_a_unit(self):
        with pytest.raises(NotAUnit):
            ZZ.from_int(2).inv()

    def test_zero_is_never_a_unit(self):
        for ring in RINGS:
            assert not ring.zero.is_unit()

    def test_composite_modulus_units_by_gcd(self):
        r = Zmod(12)
        assert r.from_int(5).is_unit()
        assert not r.from_int(8).is_unit()
        with pytest.raises(NotAUnit):
            r.from_int(8).inv()

    @given(ring_with_elements(1))
    def test_units_invert_to_one(self, data):
        ring, (x,) = data
        if x.is_unit():
            assert x * x.inv() == ring.one


class TestIntScale:
    def test_wraps_in_positive_characteristic(self):
        assert int_scale(3, Zmod(5).from_int(2)).value == 1

    def test_zero_scalar(self):
        assert int_scale(0, QQ.from_int(9)) == QQ.zero

    def test_binomial_scalar_on_fraction(self):
        x = RingElem(QQ, Fraction(1, 6))
        assert int_scale(binom(4, 2), x) == QQ.one

    def test_negative_scalar(self):
        assert int_scale(-3, ZZ.from_int(2)).value == -6

    @given(ring_with_elements(1), st.integers(-40, 40), st.integers(-40, 40))
    def test_additive_in_the_scalar(self, data, a, b):
        _, (x,) = data
        assert int_scale(a + b, x) == int_scale(a, x) + int_scale(b, x)


class TestBinomials:
    def test_small_values(self):
        assert binom(5, 2) == 10
        assert binom(0, 0) == 1
        assert binom(7, 0) == 1
        assert binom(3, 5) == 0

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            binom(-1, 0)
        with pytest.raises(ValueError):
            binom(3, -2)

    @given(st.integers(1, 40), st.integers(1, 40))
    def test_pascal_rule(self, n, k):
        assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)

    @given(st.integers(0, 25), st.integers(0, 25), st.integers(0, 25))
    def test_vandermonde_identity(self, n, s, t):
        if s > n:
            n, s = s, n
        assert sum(binom(n - s, t - m) * binom(s, m) for m in range(t + 1)) == binom(n, t)

    def test_multinomial_identity(self):
        # C(n,i) C(i,j) counts the same splits as the trinomial coefficient
        from math import factorial

        for n, i, j in [(6, 4, 2), (9, 5, 1), (5, 5, 0)]:
            lhs = binom(n, i) * binom(i, j)
            rhs = factorial(n) // (factorial(n - i) * factorial(i - j) * factorial(j))
            assert lhs == rhs
