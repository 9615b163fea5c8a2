"""Sequence algebra: products, transforms, inverses, the isomorphism."""

import decimal
import random
import sys
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recseq import (
    QQ,
    ZZ,
    InvariantError,
    LinRec,
    NotInvertible,
    NotMonic,
    Poly,
    RingElem,
    RingMismatch,
    RingSpec,
    Zmod,
    alternating_ones,
    binomial_transform,
    cauchy,
    composed_product,
    composed_sum,
    delta,
    hadamard,
    hadamard_to_newton,
    hurwitz,
    inverse_binomial_transform,
    is_newton_invertible,
    newton,
    newton_inverse,
    newton_to_hadamard,
    newton_via_decomposition,
    ones,
    seq_sum,
)
import recseq
from recseq import binom, int_scale, kernels, linrec, polymat
from recseq.cli import parse_sequence
from recseq.polymat import DegreeZero
from recseq.verify import direct_product_oracle, inverse_check, product_check, satisfies_recurrence

from conftest import fib, geometric, int_values, linrecs, random_linrec

MOD = Zmod(10007)


def _assert_product(kind, a, b, c):
    # c is the kind product of a and b: product_check reads c.order + D terms
    report = product_check(kind, a, b, c)
    assert report.passed, report.to_text()


class TestConstruction:
    def test_initial_length_must_match_degree(self):
        with pytest.raises(InvariantError):
            LinRec(Poly.from_ints(ZZ, [-1, -1, 1]), [ZZ.zero])

    def test_charpoly_must_be_monic(self):
        with pytest.raises(NotMonic):
            LinRec(Poly.from_ints(ZZ, [-1, 2]), [ZZ.zero])

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeZero):
            LinRec(Poly.from_ints(ZZ, [1]), [])

    def test_initial_terms_must_share_the_ring(self):
        with pytest.raises(RingMismatch):
            LinRec(Poly.from_ints(ZZ, [-1, 1]), [QQ.one])

    def test_str_is_the_cli_grammar(self):
        assert str(fib(ZZ)) == "ring=Z;p=[-1,-1,1];init=[0,1]"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: LinRec(Poly.from_ints(ZZ, [-1, 1]), [1]), TypeError, "initial terms must be RingElem"),
        (lambda: is_newton_invertible(ones(QQ), 0), ValueError, "depth must be >= 1"),
        (lambda: newton_inverse(ones(QQ), 0), ValueError, "term count must be >= 1"),
    ],
    ids=["raw-initial-term", "is_newton_invertible-depth-0", "newton_inverse-k-0"],
)
def test_input_checks(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


class TestTerms:
    def test_fibonacci(self, fib_z):
        assert int_values(fib_z.terms(7)) == [0, 1, 1, 2, 3, 5, 8]

    def test_geometric(self):
        assert int_values(geometric(ZZ, 2).terms(5)) == [1, 2, 4, 8, 16]

    def test_constant(self):
        assert int_values(ones(ZZ).terms(3)) == [1, 1, 1]

    def test_short_and_empty_prefixes(self, fib_z):
        assert fib_z.terms(0) == []
        assert int_values(fib_z.terms(1)) == [0]

    def test_modular_terms_match_integer_terms(self, fib_z):
        mod_fib = fib(MOD)
        assert [t.value % 10007 for t in fib_z.terms(40)] == int_values(mod_fib.terms(40))

    def test_builtin_sequences(self):
        assert int_values(alternating_ones(ZZ).terms(4)) == [1, -1, 1, -1]
        assert int_values(delta(ZZ).terms(4)) == [1, 0, 0, 0]


class TestSum:
    def test_fib_plus_powers_of_two(self, fib_z):
        s = seq_sum(fib_z, geometric(ZZ, 2))
        assert s.charpoly == fib_z.charpoly * geometric(ZZ, 2).charpoly
        assert int_values(s.terms(6)) == [1, 3, 5, 10, 19, 37]

    def test_operator_alias(self, fib_z):
        assert (fib_z + fib_z).charpoly == fib_z.charpoly * fib_z.charpoly

    def test_adding_the_zero_sequence(self, fib_z):
        zero_seq = LinRec(Poly.from_ints(ZZ, [0, 1]), [ZZ.zero])
        s = seq_sum(fib_z, zero_seq)
        assert s.charpoly == fib_z.charpoly * Poly.from_ints(ZZ, [0, 1])
        assert s.terms(12) == fib_z.terms(12)

    def test_ones_plus_alternating(self):
        s = seq_sum(ones(ZZ), alternating_ones(ZZ))
        assert int_values(s.terms(6)) == [2, 0, 2, 0, 2, 0]


@pytest.mark.parametrize("product", [seq_sum, hadamard, cauchy, hurwitz, newton], ids=lambda f: f.__name__)
def test_ring_mismatch(product, fib_z):
    # the sequences' rings are checked before the characteristic-polynomial
    # rule runs, whose own error would speak of polynomials
    with pytest.raises(RingMismatch, match="cannot combine sequences"):
        product(fib_z, ones(QQ))


class TestCauchy:
    def test_counting_numbers(self):
        c = cauchy(ones(ZZ), ones(ZZ))
        assert int_values(c.terms(5)) == [1, 2, 3, 4, 5]
        assert c.charpoly == Poly.from_ints(ZZ, [1, -2, 1])

    def test_delta_is_the_identity(self, fib_z):
        assert cauchy(delta(ZZ), fib_z).terms(15) == fib_z.terms(15)

    def test_partial_sums_of_fibonacci(self, fib_z):
        c = cauchy(fib_z, ones(ZZ))
        assert int_values(c.terms(6)) == [0, 1, 2, 4, 7, 12]


class TestHadamard:
    def test_geometric_roots_multiply(self):
        h = hadamard(geometric(ZZ, 2), geometric(ZZ, 3))
        assert h.charpoly == Poly.from_ints(ZZ, [-6, 1])
        assert int_values(h.terms(4)) == [1, 6, 36, 216]

    def test_ones_is_the_identity(self, fib_z):
        h = hadamard(fib_z, ones(ZZ))
        assert h.charpoly == fib_z.charpoly
        assert h.terms(20) == fib_z.terms(20)

    def test_fibonacci_squares(self, fib_z):
        h = hadamard(fib_z, fib_z)
        assert int_values(h.terms(6)) == [0, 1, 1, 4, 9, 25]
        assert h.charpoly == composed_product(fib_z.charpoly, fib_z.charpoly)
        assert len(h.charpoly.values) - 1 == 4
        assert satisfies_recurrence(h.terms(25), h.charpoly).passed


class TestHurwitz:
    def test_binomial_theorem(self):
        h = hurwitz(ones(ZZ), geometric(ZZ, 2))
        assert h.charpoly == Poly.from_ints(ZZ, [-3, 1])
        assert int_values(h.terms(5)) == [1, 3, 9, 27, 81]

    def test_delta_is_the_identity(self, fib_z):
        assert hurwitz(delta(ZZ), fib_z).terms(15) == fib_z.terms(15)
        assert hurwitz(fib_z, delta(ZZ)).terms(15) == fib_z.terms(15)

    def test_fibonacci_with_itself(self, fib_z):
        h = hurwitz(fib_z, fib_z)
        # direct binomial convolution, frozen: sum C(n,i) F_i F_{n-i}
        assert int_values(h.terms(6)) == [0, 0, 2, 6, 22, 70]
        expected_p = (
            Poly.from_ints(ZZ, [-1, 1]) * Poly.from_ints(ZZ, [-1, 1]) * Poly.from_ints(ZZ, [-4, -2, 1])
        )
        assert h.charpoly == expected_p
        assert satisfies_recurrence(h.terms(30), h.charpoly).passed

    def test_matches_the_direct_oracle(self):
        rng = random.Random(3)
        for _ in range(5):
            a = random_linrec(rng, MOD, rng.choice([1, 2, 3]))
            b = random_linrec(rng, MOD, rng.choice([1, 2, 3]))
            _assert_product("hurwitz", a, b, hurwitz(a, b))


class TestNewton:
    def test_ones_with_ones(self):
        n = newton(ones(ZZ), ones(ZZ))
        assert n.charpoly == Poly.from_ints(ZZ, [-3, 1])
        assert int_values(n.terms(4)) == [1, 3, 9, 27]

    def test_delta_is_the_identity(self, fib_z):
        assert newton(delta(ZZ), fib_z).terms(15) == fib_z.terms(15)
        assert newton(fib_z, delta(ZZ)).terms(15) == fib_z.terms(15)

    def test_geometric_root_law(self):
        n = newton(geometric(ZZ, 2), geometric(ZZ, 3))
        assert n.charpoly == Poly.from_ints(ZZ, [-11, 1])
        assert int_values(n.terms(4)) == [1, 11, 121, 1331]

    def test_commutes_termwise(self):
        rng = random.Random(5)
        for _ in range(5):
            a = random_linrec(rng, MOD, rng.choice([1, 2]))
            b = random_linrec(rng, MOD, rng.choice([1, 2]))
            assert newton(a, b).terms(20) == newton(b, a).terms(20)


class TestDecomposition:
    def test_matches_newton_on_examples(self, fib_z):
        assert newton_via_decomposition(ones(ZZ), ones(ZZ)).terms(8) == newton(ones(ZZ), ones(ZZ)).terms(8)
        assert newton_via_decomposition(delta(ZZ), fib_z).terms(10) == fib_z.terms(10)

    def test_matches_direct_double_sum_mod_p(self):
        rng = random.Random(9)
        for _ in range(10):
            a = random_linrec(rng, MOD, rng.choice([1, 2, 3]))
            b = random_linrec(rng, MOD, rng.choice([1, 2, 3]))
            composed = newton_via_decomposition(a, b)
            assert composed.terms(30) == direct_product_oracle("newton", a.terms(30), b.terms(30))


class TestBilinearity:
    def test_products_distribute_over_sums(self):
        rng = random.Random(13)
        for product in (hurwitz, newton):
            for _ in range(5):
                a = random_linrec(rng, MOD, rng.choice([1, 2]))
                b = random_linrec(rng, MOD, rng.choice([1, 2]))
                c = random_linrec(rng, MOD, rng.choice([1, 2]))
                lhs = product(a, seq_sum(b, c)).terms(30)
                rhs = seq_sum(product(a, b), product(a, c)).terms(30)
                assert lhs == rhs

    def test_products_associate_termwise(self):
        rng = random.Random(17)
        for product in (hurwitz, newton):
            for _ in range(4):
                a = random_linrec(rng, MOD, rng.choice([1, 2]))
                b = random_linrec(rng, MOD, rng.choice([1, 2]))
                c = random_linrec(rng, MOD, rng.choice([1, 2]))
                assert product(product(a, b), c).terms(30) == product(a, product(b, c)).terms(30)

    def test_products_commute_termwise(self):
        rng = random.Random(19)
        for product in (hurwitz, newton):
            for _ in range(5):
                a = random_linrec(rng, MOD, rng.choice([1, 2, 3]))
                b = random_linrec(rng, MOD, rng.choice([1, 2, 3]))
                assert product(a, b).terms(30) == product(b, a).terms(30)


class TestBinomialTransform:
    def test_impulse_becomes_all_ones(self):
        bt = binomial_transform(delta(ZZ))
        assert int_values(bt.terms(6)) == [1, 1, 1, 1, 1, 1]

    def test_fibonacci_gives_even_indexed_fibonacci(self, fib_z):
        bt = binomial_transform(fib_z)
        assert int_values(bt.terms(6)) == [0, 1, 3, 8, 21, 55]
        assert bt.terms(10) == fib_z.terms(20)[::2]
        assert bt.charpoly == composed_sum(fib_z.charpoly, Poly.from_ints(ZZ, [-1, 1]))

    def test_round_trip(self):
        rng = random.Random(21)
        for _ in range(5):
            a = random_linrec(rng, MOD, rng.choice([1, 2, 3]))
            assert inverse_binomial_transform(binomial_transform(a)).terms(30) == a.terms(30)
            assert binomial_transform(inverse_binomial_transform(a)).terms(30) == a.terms(30)

    @given(linrecs(ring=QQ, max_degree=2))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_over_q(self, a):
        assert inverse_binomial_transform(binomial_transform(a)).terms(15) == a.terms(15)


class TestInvertibility:
    def test_ones_over_q_is_invertible(self):
        assert is_newton_invertible(ones(QQ), 10)

    def test_ones_over_z_fails_at_one(self):
        report = is_newton_invertible(ones(ZZ), 10)
        assert not report
        assert report.first_failure == 1

    def test_alternating_fails_at_one(self):
        for ring in (QQ, ZZ, MOD):
            report = is_newton_invertible(alternating_ones(ring), 10)
            assert not report.invertible
            assert report.first_failure == 1


class TestNewtonInverse:
    def test_ones_over_q(self):
        inv = newton_inverse(ones(QQ), 8)
        assert [t.value for t in inv] == [Fraction(-1, 2) ** n for n in range(8)]

    def test_delta_is_self_inverse(self):
        inv = newton_inverse(delta(QQ), 6)
        assert inv == delta(QQ).terms(6)

    def test_product_with_inverse_is_the_impulse(self):
        rng = random.Random(23)
        found = 0
        while found < 5:
            a = random_linrec(rng, MOD, rng.choice([1, 2, 3]))
            if not is_newton_invertible(a, 20):
                continue
            b = newton_inverse(a, 20)
            assert direct_product_oracle("newton", a.terms(20), b) == delta(MOD).terms(20)
            found += 1

    def test_not_invertible_carries_the_index(self):
        with pytest.raises(NotInvertible) as exc:
            newton_inverse(ones(ZZ), 10)
        assert exc.value.index == 1

    def test_stops_at_the_first_non_unit(self, monkeypatch):
        # count the unit checks: no value past the first non-unit may be
        # checked, whatever the requested length
        checked = []
        unit_inverse = RingSpec.unit_inverse

        def spy(ring, value):
            checked.append(value)
            return unit_inverse(ring, value)

        monkeypatch.setattr(RingSpec, "unit_inverse", spy)
        zero_first = LinRec(
            Poly(QQ, [RingElem(QQ, Fraction(-2, 5)), RingElem(QQ, Fraction(3, 2)), QQ.one]),
            [QQ.zero, RingElem(QQ, Fraction(2, 5))],
        )
        for a, index in [(zero_first, 0), (ones(ZZ), 1), (alternating_ones(MOD), 1)]:
            checked.clear()
            with pytest.raises(NotInvertible) as exc:
                newton_inverse(a, 200)
            assert (exc.value.index, len(checked)) == (index, index + 1)
            checked.clear()
            assert is_newton_invertible(a, 200).first_failure == index
            assert len(checked) == index + 1

    def test_unrolls_only_to_the_first_non_unit(self, unroll_budget):
        # the divisors are read chunk by chunk: a failure at index t costs
        # about t + CHUNK unrolled terms, however many terms were asked
        # for; an unroll past t + 2 CHUNK fails before it runs, so code
        # that reads all 10^6 divisors fails here instead of hanging
        field = Zmod(10007)
        # d_t = t - 600, zero mod the prime 10007 first at t = 600
        d = LinRec(Poly.from_ints(field, [1, -2, 1]), [field.from_int(-600), field.from_int(-599)])
        late = inverse_binomial_transform(d)
        zmod12 = LinRec(Poly.from_ints(Zmod(12), [-1, -1, 1]), [Zmod(12).zero, Zmod(12).one])
        for a, index in [(zmod12, 0), (ones(ZZ), 1), (late, 600)]:
            for check in (lambda: newton_inverse(a, 10**6), lambda: is_newton_invertible(a, 10**6)):
                unroll_budget.reset(index + 2 * kernels.CHUNK)
                try:
                    assert check().first_failure == index
                except NotInvertible as exc:
                    assert exc.index == index
                assert 0 < sum(unroll_budget.produced) <= index + 2 * kernels.CHUNK


class TestIsomorphism:
    def test_impulse_maps_to_alternating(self):
        image = hadamard_to_newton(delta(ZZ))
        assert image.terms(10) == alternating_ones(ZZ).terms(10)

    def test_alternating_inverts_ones_under_hurwitz(self):
        # the round trips below work because e and 1 are mutual inverses
        back = hurwitz(alternating_ones(ZZ), ones(ZZ))
        assert back.terms(12) == delta(ZZ).terms(12)

    def test_round_trips(self, fib_z):
        assert newton_to_hadamard(hadamard_to_newton(fib_z)).terms(30) == fib_z.terms(30)
        assert hadamard_to_newton(newton_to_hadamard(fib_z)).terms(30) == fib_z.terms(30)

    def test_carries_hadamard_to_newton_over_q(self):
        two, three = geometric(QQ, 2), geometric(QQ, 3)
        lhs = hadamard_to_newton(hadamard(two, three))
        rhs = newton(hadamard_to_newton(two), hadamard_to_newton(three))
        assert lhs.terms(30) == rhs.terms(30)

    def test_preserves_sums(self):
        rng = random.Random(29)
        a = random_linrec(rng, MOD, 2)
        b = random_linrec(rng, MOD, 3)
        lhs = hadamard_to_newton(seq_sum(a, b))
        rhs = seq_sum(hadamard_to_newton(a), hadamard_to_newton(b))
        assert lhs.terms(30) == rhs.terms(30)


class TestRootLaws:
    def test_split_linear_cases(self):
        rng = random.Random(31)
        for _ in range(10):
            u = MOD.from_int(rng.randrange(1, MOD.modulus))
            v = MOD.from_int(rng.randrange(1, MOD.modulus))
            a = LinRec(Poly(MOD, [-u, MOD.one]), [MOD.one])
            b = LinRec(Poly(MOD, [-v, MOD.one]), [MOD.one])
            assert hurwitz(a, b).charpoly == Poly(MOD, [-(u + v), MOD.one])
            assert newton(a, b).charpoly == Poly(MOD, [-(u + v + u * v), MOD.one])
            assert hadamard(a, b).charpoly == Poly(MOD, [-(u * v), MOD.one])


@pytest.mark.parametrize("ring", [ZZ, Zmod(97), Zmod(10007), Zmod(2**61 - 1), Zmod(2**64)], ids=str)
@pytest.mark.parametrize("product", [hadamard, hurwitz, newton], ids=lambda f: f.__name__)
def test_composed_closure_at_degree_100(product, ring):
    # 10 x 10 operands: D = 100, far past what Berkowitz on the D x D
    # Kronecker matrix finishes in test time; over Zmod(2**64) the power
    # sums run modulo 2**64 * 2**97 (the 2-part of 100!).  Over Zmod(97),
    # 97 < 100 divides 99! and 100!, so the Hurwitz binomial convolutions
    # of the terms and of the power sums take the Pascal route; over
    # Zmod(10007) they take the inverse-factorial route
    rng = random.Random(101)
    a, b = random_linrec(rng, ring, 10), random_linrec(rng, ring, 10)
    c = product(a, b)
    assert c.order == 100
    _assert_product(product.__name__, a, b, c)


def test_newton_closure_at_degree_256():
    # 16 x 16 operands: product_check reads 512 terms through psi^-1, three
    # O(k^2) Hurwitz sums, where the direct double sum is O(k^3)
    rng = random.Random(256)
    a, b = random_linrec(rng, MOD, 16), random_linrec(rng, MOD, 16)
    c = newton(a, b)
    assert c.order == 256
    _assert_product("newton", a, b, c)


@given(linrecs(max_degree=3))
@settings(max_examples=40, deadline=None)
def test_closure_terms_satisfy_their_recurrence(a):
    b = LinRec(a.charpoly, list(reversed(a.initial)))
    for product in (seq_sum, cauchy, hadamard, hurwitz, newton):
        c = product(a, b)
        assert satisfies_recurrence(c.terms(c.order + 12), c.charpoly).passed


@pytest.mark.parametrize("ring", [Zmod(12), Zmod(2**61 - 1), Zmod(2**64)], ids=str)
def test_generic_loops_over_zmod(ring):
    # terms, cauchy and hurwitz run the raw-value loops, which reduce mod m
    rng = random.Random(17)
    for _ in range(3):
        a, b = random_linrec(rng, ring, 3), random_linrec(rng, ring, 4)
        terms = a.terms(40)
        assert terms[: a.order] == list(a.initial)
        assert satisfies_recurrence(terms, a.charpoly).passed
        for product in (cauchy, hurwitz):
            c = product(a, b)
            _assert_product(product.__name__, a, b, c)


NINE_RINGS = [ZZ, QQ, Zmod(2), Zmod(12), Zmod(720), Zmod(5040), Zmod(10007), Zmod(2**61 - 1), Zmod(2**64)]


def _assert_canonical(x):
    # the rebuild through the public constructors reduces residues and
    # makes Fractions over Q: x must equal it, hash like it and store the
    # same value types
    if isinstance(x, LinRec):
        _assert_canonical(x.charpoly)
        rebuilt = LinRec(Poly(x.ring, x.charpoly.coeffs), x.initial)
        stored, want = x.initial_values, rebuilt.initial_values
    else:
        rebuilt = Poly(x.ring, x.coeffs)
        stored, want = x.values, rebuilt.values
    assert x == rebuilt and hash(x) == hash(rebuilt)
    assert [(type(v), v) for v in stored] == [(type(v), v) for v in want]


@pytest.mark.parametrize("product", [seq_sum, hadamard, cauchy, hurwitz, newton], ids=lambda f: f.__name__)
@pytest.mark.parametrize("ring", NINE_RINGS, ids=str)
def test_products_match_the_oracle_in_canonical_form(ring, product):
    kind = "sum" if product is seq_sum else product.__name__
    rng = random.Random(53)
    # integer coefficients first: over Q they take the path without scaling
    pairs = [(fib(ring), geometric(ring, 3))]
    for da, db in [(1, 1), (1, 4), (2, 3), (4, 2), (4, 4)]:
        pairs.append((random_linrec(rng, ring, da), random_linrec(rng, ring, db)))
    for a, b in pairs:
        c = product(a, b)
        _assert_product(kind, a, b, c)
        _assert_canonical(c)
        p, q = a.charpoly, b.charpoly
        for poly in (p + q, p - q, -p, p * q):
            _assert_canonical(poly)


def _q_linrec(rng, lam, degree, zero_init=False, zero_constant=False):
    # charpoly denominators divide lam and one of them is lam; initial
    # values have denominators up to 4, one of them 3
    divisors = [d for d in range(1, lam + 1) if lam % d == 0]
    coeffs = [Fraction(rng.randint(-5, 5), rng.choice(divisors)) for _ in range(degree)]
    coeffs[-1] = Fraction(rng.choice([-1, 1]), lam)
    if zero_constant:
        coeffs[0] = Fraction(0)
    init = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(degree)]
    init[0] = Fraction(rng.choice([-2, -1, 1, 2]), 3)
    if zero_init:
        init = [Fraction(0)] * degree
    p = Poly(QQ, [RingElem(QQ, c) for c in coeffs] + [QQ.one])
    return LinRec(p, [RingElem(QQ, v) for v in init])


@pytest.mark.parametrize("product", [seq_sum, hadamard, cauchy, hurwitz, newton], ids=lambda f: f.__name__)
@pytest.mark.parametrize("lam", [1, 6, 10])
def test_scaled_products_over_q_match_the_oracle(lam, product):
    # over Q a product unrolls delta lam^n a_n on integers and divides each
    # output once: the shapes that path must get right, up to D = 30
    kind = "sum" if product is seq_sum else product.__name__
    rng = random.Random(97 * lam + len(kind))
    cases = [
        ((1, {}), (1, {})),
        ((2, {}), (3, {})),
        ((4, {}), (5, {})),
        ((5, {}), (6, {})),
        ((3, {"zero_init": True}), (4, {})),
        ((3, {"zero_init": True}), (2, {"zero_init": True})),
        ((3, {"zero_constant": True}), (2, {"zero_constant": True})),
    ]
    for (da, ka), (db, kb) in cases:
        a, b = _q_linrec(rng, lam, da, **ka), _q_linrec(rng, lam, db, **kb)
        assert lcm(*(v.denominator for v in a.charpoly.values + b.charpoly.values)) == lam
        if not (ka or kb):
            assert lcm(*(v.denominator for v in a.initial_values + b.initial_values)) > 1
        c = product(a, b)
        _assert_product(kind, a, b, c)
        _assert_canonical(c)


def _reduced(x: LinRec, ring: RingSpec) -> LinRec:
    # the image of x over Z or Q in Zmod(m): each value n/d goes to n d^-1 mod m
    m = ring.modulus

    def image(values):
        return [ring.from_int(v.numerator * pow(v.denominator, -1, m)) for v in values]

    return LinRec(Poly(ring, image(x.charpoly.values)), image(x.initial_values))


def _assert_products_commute_with_reduction(product, a, b, ring):
    # the products make an R-algebra for any commutative R, and reduction
    # mod m is a ring map: reducing the product gives the product of the
    # reduced operands, charpoly and initial values alike
    assert product(_reduced(a, ring), _reduced(b, ring)) == _reduced(product(a, b), ring)


@pytest.mark.parametrize("product", [seq_sum, hadamard, cauchy, hurwitz, newton], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "source, m", [(ZZ, 12), (ZZ, 720), (ZZ, 2**64), (QQ, 97), (QQ, 10007), (QQ, 2**61 - 1)], ids=lambda x: str(x)
)
def test_products_commute_with_reduction_mod_m(source, m, product):
    # over Z any m, composite ones included, whose composed operations run
    # modulo a lifted m P; over Q primes that divide no denominator (the
    # denominators of _q_linrec have no prime factor past 5)
    rng = random.Random(m + len(product.__name__))
    for da in range(1, 5):
        for db in range(1, 5):
            for _ in range(2):
                if source is ZZ:
                    a, b = random_linrec(rng, ZZ, da), random_linrec(rng, ZZ, db)
                else:
                    lam = rng.choice([1, 6, 10])
                    a, b = _q_linrec(rng, lam, da), _q_linrec(rng, lam, db)
                _assert_products_commute_with_reduction(product, a, b, Zmod(m))


@pytest.mark.parametrize("m", [12, 720])
@pytest.mark.parametrize("product", [hadamard, hurwitz, newton], ids=lambda f: f.__name__)
def test_products_commute_with_reduction_mod_m_at_degree_256(product, m):
    # 16 x 16 operands: the power sums over Zmod(m) run modulo m times the
    # m-part of 255!, and the Hurwitz loops take the Pascal route
    rng = random.Random(256 + m)
    a, b = random_linrec(rng, ZZ, 16), random_linrec(rng, ZZ, 16)
    _assert_products_commute_with_reduction(product, a, b, Zmod(m))


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(12), Zmod(720), Zmod(10007), Zmod(2**61 - 1), Zmod(2**64)], ids=str)
def test_transforms_equal_hurwitz_products_with_ones(ring):
    # the transforms shift every root by +-1; the Hurwitz products with
    # ones and with alternating ones, a composed sum at D = N, are the
    # reference, charpoly and raw initial values alike
    rng = random.Random(len(str(ring)))
    for order in [*range(1, 9), 64]:
        if ring == QQ:
            cases = [_q_linrec(rng, lam, order) for lam in (1, 6, 10)]
        else:
            cases = [random_linrec(rng, ring, order)]
        for a in cases:
            for transform, mate in [(binomial_transform, ones), (inverse_binomial_transform, alternating_ones)]:
                b = transform(a)
                assert b == hurwitz(a, mate(ring))
                _assert_canonical(b)


def test_products_and_poly_arithmetic_over_q_hand_the_kernels_only_ints(monkeypatch):
    """Over Q the five products and ``Poly`` ``+``, ``-``, ``*`` pass only ``int`` to the kernels.

    They scale the operands to integers by the lcm of their denominators
    and make one ``Fraction`` per output.  Two callers still pass
    ``Fraction`` values, and the test shows that its spy sees them:
    ``LinRec.term_values``, which stays on the ``Fraction`` unroll (the
    scaled unroll measured 1.5-7.5x slower where the terms stay small
    while lam^n grows: see the README); and the Newton inverse's binomial
    convolution, whose output denominators grow with k so that a
    common-denominator version gained only 1.05x.
    """
    calls, fractions = [], []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            seqs = [arg for arg in args if isinstance(arg, (list, tuple))]
            if any(type(v) is not int for arg in seqs for v in arg):
                fractions.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for module in (linrec, polymat):
        for name, fn in list(vars(module).items()):
            if getattr(fn, "__module__", None) == kernels.__name__ and callable(fn):
                monkeypatch.setattr(module, name, spy(name, fn))
    rng = random.Random(5)
    pairs = [(fib(QQ), geometric(QQ, 3))]
    pairs += [(_q_linrec(rng, lam, 3), _q_linrec(rng, lam, 2)) for lam in (1, 6, 10)]
    for a, b in pairs:
        for product in (seq_sum, hadamard, cauchy, hurwitz, newton):
            product(a, b)
        p, q = a.charpoly, b.charpoly
        for poly in (p + q, p - q, -p, p * q):
            _assert_canonical(poly)
    assert fractions == []
    assert set(calls) == {
        "recurrence_values",
        "termwise_values",
        "cauchy_values",
        "binomial_convolution_values",
        "binomial_transform_values",
    }
    a = pairs[-1][0]
    a.term_values(a.order + 2)
    assert fractions == ["recurrence_values"]
    newton_inverse(a, 4)
    assert "binomial_convolution_values" in fractions


def test_backend_is_reported():
    assert kernels.BACKEND == recseq.BACKEND == "python"


def test_fibonacci_mod_2_80():
    assert int_values(fib(Zmod(2**80)).terms(10)) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_terms_reduce_across_moduli():
    # terms mod m * 2^40, reduced mod m, equal the terms mod m
    rng = random.Random(73)
    m = 10007
    coeffs = [rng.randrange(m) for _ in range(4)] + [1]
    init = [rng.randrange(m) for _ in range(4)]
    small, big = Zmod(m), Zmod(m * 2**40)
    a = LinRec(Poly.from_ints(small, coeffs), [small.from_int(v) for v in init])
    b = LinRec(Poly.from_ints(big, coeffs), [big.from_int(v) for v in init])
    assert [v % m for v in int_values(b.terms(100))] == int_values(a.terms(100))


def test_cauchy_values_accept_any_modulus():
    m = 2**90 + 1
    xs = list(range(10))
    assert kernels.cauchy_values(xs, xs, m)[3] == 0 * 3 + 1 * 2 + 2 * 1 + 3 * 0
    big = [m - 1 - i for i in range(10)]
    assert kernels.cauchy_values(big, big, m) == [z % m for z in kernels.cauchy_values(big, big)]


def _poly_from_roots(roots) -> list:
    # integer coefficients of prod (t - r), low-to-high
    cs = [1]
    for r in roots:
        cs = [hi - r * lo for hi, lo in zip([0] + cs, cs + [0])]
    return cs


@pytest.mark.parametrize("modulus", [None, 12, 2**61 - 1], ids=str)
@pytest.mark.parametrize("shift", [1, 2, 3, 5])
def test_newton_values_combine_root_power_sums(shift, modulus):
    # Newton's identities give the first power sums of each polynomial, and
    # the shifted unroll continues them as those of the roots a + s and
    # b + s; the Newton product of polymat._product_values, with s for
    # lam, multiplies them termwise and moves the products back by the
    # shifted binomial transform B_(-s^2), which gives those of
    # s a + s b + a b.  The references are built from the roots
    rng = random.Random(31 * shift + 7)
    count = 12

    def power_sums(roots):
        vals = [sum(r**k for r in roots) for k in range(count)]
        return [v % modulus for v in vals] if modulus else vals

    for _ in range(5):
        roots_a = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        roots_b = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        pairs = [(cs, polymat._power_sums(cs, modulus)) for cs in (_poly_from_roots(roots_a), _poly_from_roots(roots_b))]
        xs, ys = (kernels.recurrence_values(*polymat._shifted(*pair, shift, modulus), count, modulus) for pair in pairs)
        assert xs == power_sums([a + shift for a in roots_a])
        assert ys == power_sums([b + shift for b in roots_b])
        zs = polymat._product_values("newton", *pairs, shift, count, modulus)
        assert zs == power_sums([shift * a + shift * b + a * b for a in roots_a for b in roots_b])


def _direct_binomial_convolution(xs, ys, modulus):
    out = [sum(binom(k, i) * xs[i] * ys[k - i] for i in range(k + 1)) for k in range(len(xs))]
    return [z % modulus for z in out] if modulus else out


@pytest.mark.parametrize("modulus", [None, 2, 3, 12, 97, 720, 10007, 65537, 2**61 - 1, 2**64], ids=str)
def test_binomial_convolution_values_on_both_routes(modulus):
    # n - 1 runs past 97, so Zmod(97) crosses from the inverse-factorial
    # route to the Pascal route at n = 98; 10007, 65537 and 2**61 - 1
    # stay on the first, 2, 3, 12, 720 and 2**64 leave it at n = 3 or 4,
    # and None never takes it
    rng = random.Random(modulus or 1)
    bound = modulus or 10**6
    for n in range(111):
        xs = [rng.randrange(bound) for _ in range(n)]
        ys = [rng.randrange(bound) for _ in range(n + rng.randint(0, 2))]
        assert kernels.binomial_convolution_values(xs, ys, modulus) == _direct_binomial_convolution(xs, ys, modulus)


def test_binomial_convolution_route_depends_on_the_modulus(monkeypatch):
    seen, packed = [], kernels._packed_cauchy

    def spy(xs, ys, modulus):
        seen.append(modulus)
        return packed(xs, ys, modulus)

    monkeypatch.setattr(kernels, "_packed_cauchy", spy)
    xs = list(range(65))
    for modulus in (10007, 12, None):
        kernels.binomial_convolution_values(xs, xs, modulus)
    assert seen == [10007]


def _reference_transform(a, depth):
    # the former RingElem loop: d_t = sum_s C(t,s) a_s
    terms = a.terms(depth)
    out = []
    for t in range(depth):
        acc = a.ring.zero
        for s in range(t + 1):
            acc = acc + int_scale(binom(t, s), terms[s])
        out.append(acc)
    return out


def _reference_inverse(a, k):
    # the former RingElem loop: b_n = (-1)^n sum_t C(n,t) (-1)^t / d_t
    inverses = [d.inv() for d in _reference_transform(a, k)]
    terms = []
    for n in range(k):
        acc = a.ring.zero
        for t in range(n + 1):
            acc = acc + int_scale((-1) ** t * binom(n, t), inverses[t])
        terms.append(acc if n % 2 == 0 else -acc)
    return terms


def _unit_transform_linrec(ring, u):
    # d_t = 1, u, -u^2, -u^3, u^4, ... (charpoly t^2 + u^2): all units when u is;
    # this is its inverse binomial transform
    one = ring.one
    return LinRec(Poly(ring, [one + u * u, ring.from_int(2), one]), [one, u - one])


INVERSE_RINGS = [ZZ, QQ, Zmod(12), Zmod(720), Zmod(10007), Zmod(2**61 - 1), Zmod(2**64)]


def test_long_inverse_over_a_prime_field_matches_the_reference():
    # k = 200 < 10007: the inverse's binomial convolution takes the
    # inverse-factorial route
    k = 200
    a = _unit_transform_linrec(MOD, MOD.from_int(5))
    assert newton_inverse(a, k) == _reference_inverse(a, k)


@pytest.mark.parametrize("ring", INVERSE_RINGS, ids=str)
def test_raw_value_inverse_matches_oracles(ring):
    # k = 40 at order 2, and k = 1, order - 1 and order at order 3, where
    # the shifted unroll returns only (part of) its initial values; over Q
    # also charpolys with lam = 6 and 10.  5 is no unit mod 720, 7 is
    rng = random.Random(41)
    u = RingElem(ring, Fraction(3, 2)) if ring == QQ else ring.from_int({ZZ: 1, Zmod(720): 7}.get(ring, 5))
    cases = [(_unit_transform_linrec(ring, u), 40)] + [(random_linrec(rng, ring, 2), 40) for _ in range(4)]
    cases += [(random_linrec(rng, ring, 3), k) for k in (1, 2, 3)]
    if ring == QQ:
        cases += [(_q_linrec(rng, lam, 3), k) for lam in (6, 10) for k in (1, 2, 3, 40)]
    invertible = 0
    for a, k in cases:
        d = _reference_transform(a, k)
        first = next((t for t, x in enumerate(d) if not x.is_unit()), None)
        report = is_newton_invertible(a, k)
        assert (report.invertible, report.first_failure, report.checked) == (first is None, first, k)
        if first is None:
            b = newton_inverse(a, k)
            assert b == _reference_inverse(a, k)
            assert inverse_check(a, k).passed
            invertible += 1
        else:
            with pytest.raises(NotInvertible) as exc:
                newton_inverse(a, k)
            assert exc.value.index == first
            assert isinstance(exc.value.value, RingElem)
            assert exc.value.value == d[first]
    assert invertible >= 1


@st.composite
def _integer_charpoly_unrolls(draw):
    """A sequence with an integer charpoly, over Z or Q, and a count.

    Over Z: order 1-6, coefficients and initial values in [-3, 3], and a
    count in -order..400.  Over Q: order 1-4, coefficients in [-3, 3],
    initial values with denominators in {1, 2, 3, 6, 7, 12, 30}, and a
    count of -order, -1, 0, 1, the order, the order + 1 or 300.
    """
    if draw(st.booleans()):
        order = draw(st.integers(1, 6))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=order, max_size=order))
        init = draw(st.lists(st.integers(-3, 3), min_size=order, max_size=order))
        return LinRec(Poly.from_ints(ZZ, coeffs + [1]), [ZZ.from_int(v) for v in init]), draw(st.integers(-order, 400))
    order = draw(st.integers(1, 4))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=order, max_size=order))
    fraction = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 6, 7, 12, 30]))
    init = draw(st.lists(fraction, min_size=order, max_size=order))
    k = draw(st.sampled_from([-order, -1, 0, 1, order, order + 1, 300]))
    return LinRec(Poly.from_ints(QQ, coeffs + [1]), [RingElem(QQ, v) for v in init]), k


def _assert_count_rejected(a, k):
    # every route, Decimal or str of the values, raises for a negative count
    for unroll in (a.term_values, a.term_strings, a.terms):
        with pytest.raises(ValueError, match=r"^term count must be >= 0$"):
            unroll(k)


@given(_integer_charpoly_unrolls())
@settings(max_examples=120, deadline=None)
def test_term_strings_over_z_are_the_strings_of_term_values(case):
    a, k = case
    if k < 0:
        _assert_count_rejected(a, k)
    else:
        assert a.term_strings(k) == [str(v) for v in a.term_values(k)]


@pytest.mark.parametrize(
    "text, k",
    [
        # 60-digit coefficients: above decimal's default precision of 28 digits
        (f"ring=Z;p=[{-(10**59) - 7},{3 * 10**59 + 1},1];init=[1,-1]", 50),
        (f"ring=Q;p=[{-(10**59) - 7},{3 * 10**59 + 1},1];init=[1/3,-1/2]", 50),
        # Decimal products that come out as -0
        ("ring=Z;p=[1,1];init=[0]", 5),
        ("ring=Z;p=[0,1];init=[-5]", 5),
        ("ring=Z;p=[0,0,1];init=[0,-2]", 6),
        # over Q: the all-zero sequence, zero and negative terms, and
        # integer-valued terms, which print without /1
        ("ring=Q;p=[1,-2,1];init=[0,0]", 6),
        ("ring=Q;p=[1,0,1];init=[1/2,0]", 9),
        ("ring=Q;p=[0,1];init=[-5/7]", 5),
        ("ring=Q;p=[-1,-1,1];init=[1/2,3/2]", 40),
        ("ring=Q;p=[-6,1];init=[1/6]", 30),
        ("ring=Q;p=[-1,-1,1];init=[-1/30,7/12]", 300),
        ("ring=Q;p=[-1,-1,1];init=[4,-6]", 300),
        # the last term is 5 * 10^4299, 4300 digits, but its scaled
        # integer 9 * 5 * 10^4299 has 4301: the int/str limit applies to
        # the reduced numerator
        ("ring=Q;p=[-100,0,1];init=[1/9,50]", 4300),
        # lam > 1: printed from the Fraction values
        ("ring=Q;p=[-9/10,-1/10,1];init=[1,1]", 300),
        ("ring=Q;p=[1/6,-7/6,1];init=[1,1]", 300),
        ("ring=Q;p=[-1/6,1,-11/6,1];init=[2,3/2,5/4]", 300),
        # counts at or below the order take the initial values
        ("ring=Z;p=[1,2,3,1];init=[-4,0,5]", 0),
        ("ring=Z;p=[1,2,3,1];init=[-4,0,5]", 2),
        ("ring=Z;p=[1,2,3,1];init=[-4,0,5]", 3),
        ("ring=Z;p=[1,2,3,1];init=[-4,0,5]", 4),
        ("ring=Q;p=[1,2,3,1];init=[-4/3,0,5/2]", 0),
        ("ring=Q;p=[1,2,3,1];init=[-4/3,0,5/2]", 3),
        ("ring=Q;p=[1,2,3,1];init=[-4/3,0,5/2]", 4),
        # negative counts, -1 and -order, raise over Z, over Q with lam = 1
        # and with lam > 1, and over Z/m
        ("ring=Z;p=[-1,-1,1];init=[0,1]", -1),
        ("ring=Z;p=[1,2,3,1];init=[-4,0,5]", -1),
        ("ring=Z;p=[1,2,3,1];init=[-4,0,5]", -3),
        ("ring=Q;p=[1,2,3,1];init=[-4/3,0,5/2]", -1),
        ("ring=Q;p=[1,2,3,1];init=[-4/3,0,5/2]", -3),
        ("ring=Q;p=[-1/6,1,-11/6,1];init=[2,3/2,5/4]", -1),
        ("ring=Q;p=[-1/6,1,-11/6,1];init=[2,3/2,5/4]", -3),
        ("ring=Zmod:12;p=[1,2,3,1];init=[8,0,5]", -1),
        ("ring=Zmod:12;p=[1,2,3,1];init=[8,0,5]", -3),
    ],
)
def test_term_strings_over_z_on_edge_cases(text, k):
    a = parse_sequence(text)
    if k < 0:
        _assert_count_rejected(a, k)
        return
    want = [str(v) for v in a.term_values(k)]
    assert a.term_strings(k) == want
    # the caller's decimal context neither leaks in nor is changed
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        assert a.term_strings(k) == want
        assert decimal.getcontext().prec == 5


@pytest.mark.parametrize(
    "text, want",
    [
        ("ring=Z;p=[-1,-1,1];init=[0,1]", decimal.Decimal),
        ("ring=Q;p=[-1,-1,1];init=[0,1]", decimal.Decimal),
        ("ring=Q;p=[-1,-1,1];init=[5/2,-4/3]", decimal.Decimal),  # lam = 1, delta = 6
        ("ring=Q;p=[-1/2,-1,1];init=[0,1]", Fraction),  # lam = 2
        ("ring=Zmod:12;p=[-1,-1,1];init=[0,1]", int),
        (f"ring=Zmod:{2**61 - 1};p=[-1,-1,1];init=[0,1]", int),
    ],
    ids=["Z", "Q", "Q-delta6", "Q-lam2", "Zmod:12", f"Zmod:{2**61 - 1}"],
)
def test_term_strings_unroll_on_decimals_when_lam_is_1(text, want, monkeypatch):
    calls = []  # (unroll, the types of its initial values)

    def spy(name):
        unroll = getattr(linrec, name)

        def wrapper(cs, init, count, modulus=None):
            calls.append((name, {type(v) for v in init}))
            return unroll(cs, init, count, modulus)

        return wrapper

    for name in ("recurrence_values", "recurrence_chunks"):
        monkeypatch.setattr(linrec, name, spy(name))
    a = parse_sequence(text)
    strings = a.term_strings(30)
    printing = calls[:]
    calls.clear()
    assert strings == [str(v) for v in a.term_values(30)]
    assert calls == [("recurrence_values", {type(a.initial_values[0])})]
    # the strings come from the last unroll, in chunks; on the Decimal
    # route a first pass on int looks for a term past the int/str limit
    assert printing[-1] == ("recurrence_chunks", {want})
    limit = getattr(sys, "get_int_max_str_digits", int)()
    assert printing[:-1] == ([("recurrence_chunks", {int})] if want is decimal.Decimal and limit else [])


@pytest.mark.parametrize("chunk", [1, 2, 3, 256])
def test_recurrence_chunks_are_recurrence_values_in_chunks(chunk, monkeypatch):
    # chunks of at most CHUNK terms, none empty, that join to the one list,
    # also where the order exceeds CHUNK and a window spans several chunks
    monkeypatch.setattr(kernels, "CHUNK", chunk)
    rng = random.Random(chunk)
    for order in range(1, 6):
        for modulus in (None, 12, 10007):
            cs = [rng.randint(-3, 3) for _ in range(order)] + [1]
            init = [rng.randint(-5, 5) for _ in range(order)]
            counts = {0, 1, order - 1, order, order + 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 3 * chunk + order}
            for count in sorted(counts):
                chunks = list(kernels.recurrence_chunks(cs, init, count, modulus))
                assert all(1 <= len(c) <= chunk for c in chunks)
                assert [v for c in chunks for v in c] == kernels.recurrence_values(cs, init, count, modulus)
            with pytest.raises(ValueError, match=r"^term count must be >= 0$"):
                next(kernels.recurrence_chunks(cs, init, -1, modulus))


@pytest.mark.parametrize(
    "text", ["ring=Z;p=[-1,-1,1];init=[3,-2]", "ring=Q;p=[-1,-1,1];init=[1/2,-2/3]"], ids=["Z", "Q"]
)
def test_term_string_chunks_leave_the_callers_context_between_chunks(text):
    # the exact context is entered for each chunk and left before it is
    # yielded: while the iterator waits, the caller's precision 5 holds,
    # and the exact context, which traps Inexact, does not
    a = parse_sequence(text)
    k = 2 * kernels.CHUNK + 1
    got = []
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        for chunk in a.term_string_chunks(k):
            assert decimal.getcontext() is ctx and ctx.prec == 5
            assert decimal.Decimal(1) / 3 == decimal.Decimal("0.33333")
            got += chunk
    assert got == [str(v) for v in a.term_values(k)]


@pytest.mark.parametrize(
    "text, k",
    [("ring=Zmod:10007;p=[-1,-1,1];init=[0,1]", 10**5), ("ring=Z;p=[-1,-1,1];init=[0,1]", 10**4)],
    ids=["Zmod:10007", "Z"],
)
def test_term_string_chunks_hold_one_chunk(text, k):
    # the stream holds a chunk or two of strings, the list all k: Fibonacci
    # over Z reaches 2090 digits at 10^4 terms
    a = parse_sequence(text)

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def drain():
        for _ in a.term_string_chunks(k):
            pass

    stream, whole = peak(drain), peak(lambda: a.term_strings(k))
    assert stream * 5 < whole, (stream, whole)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit")
def test_term_string_chunks_refuse_early_when_lam_exceeds_1(monkeypatch):
    # over Q with lam = 10 each chunk is checked as it is unrolled: the
    # first term past the int/str limit, at index t, is refused after at
    # most t + 2 CHUNK computed terms, not all k, and before any string;
    # the seed window that each chunk's unroll copies is not counted
    a = parse_sequence("ring=Q;p=[-1/10,-1/10,1];init=[0,1]")
    k, bound = 6000, 10 ** sys.get_int_max_str_digits()
    terms = (v for chunk in kernels.recurrence_chunks(a.charpoly.values, a.initial_values, k) for v in chunk)
    t = next(i for i, v in enumerate(terms) if v.denominator >= bound or not -bound < v.numerator < bound)
    assert t < k - 2 * kernels.CHUNK
    produced = []
    unroll = kernels.recurrence_values

    def spy(cs, init, count, modulus=None):
        out = unroll(cs, init, count, modulus)
        produced.append(len(out) - len(init[:count]))
        return out

    monkeypatch.setattr(kernels, "recurrence_values", spy)
    with pytest.raises(ValueError, match="integer string conversion"):
        next(a.term_string_chunks(k))
    assert t < sum(produced) <= t + 2 * kernels.CHUNK


def test_decimal_is_the_c_module():
    # both printing routes rely on libmpdec's linear-time str; the pure
    # Python fallback, _pydecimal, formats in quadratic time
    import _decimal

    assert decimal.Decimal is _decimal.Decimal


def test_the_exact_context_raises_where_it_would_round():
    # at MAX_PREC no integer operation of the printing route rounds, so
    # its traps show only here: a result that loses a nonzero digit
    # raises Inexact, and one that drops only zeros raises Rounded
    with pytest.raises(decimal.Inexact):
        linrec._EXACT.to_integral_exact(decimal.Decimal("1.5"))
    with pytest.raises(decimal.Rounded):
        linrec._EXACT.to_integral_exact(decimal.Decimal("1.0"))
