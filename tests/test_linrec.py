"""Sequence algebra: products, transforms, inverses, the isomorphism."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

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
    TermStream,
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
    invertibility_conditions,
    is_newton_invertible,
    newton,
    newton_inverse,
    newton_to_hadamard,
    newton_via_decomposition,
    ones,
    prefix_equal,
    seq_sum,
)
import recseq
from recseq import binom, int_scale, kernels
from recseq.polymat import DegreeZero
from recseq.verify import direct_product_oracle, inverse_check, satisfies_recurrence

from conftest import fib, geometric, int_values, linrecs

MOD = Zmod(10007)


def random_linrec(rng, ring, degree):
    def elem():
        if ring.kind == "Q":
            return RingElem(ring, Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        if ring.kind == "Z":
            return ring.from_int(rng.randint(-5, 5))
        return ring.from_int(rng.randrange(ring.modulus))

    p = Poly(ring, [elem() for _ in range(degree)] + [ring.one])
    return LinRec(p, [elem() for _ in range(degree)])


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


class TestTermStream:
    def test_linrec_stream_extends(self, fib_z):
        stream = TermStream(fib_z)
        assert int_values(stream.take(3)) == [0, 1, 1]
        assert int_values(stream.take(6)) == [0, 1, 1, 2, 3, 5]
        # earlier terms unchanged by extension
        assert int_values(stream.take(3)) == [0, 1, 1]

    def test_fixed_stream_is_bounded(self):
        stream = TermStream([ZZ.one, ZZ.zero])
        assert stream.take(2) == [ZZ.one, ZZ.zero]
        with pytest.raises(ValueError):
            stream.take(3)

    def test_empty_fixed_stream_needs_ring(self):
        with pytest.raises(ValueError):
            TermStream([])
        assert TermStream([], ring=ZZ).available == 0


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
        assert h.charpoly.degree == 4
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
            h = hurwitz(a, b)
            assert h.terms(25) == direct_product_oracle("hurwitz", a.terms(25), b.terms(25))


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
        assert newton_via_decomposition(ones(ZZ), ones(ZZ)).take(8) == newton(ones(ZZ), ones(ZZ)).terms(8)
        assert newton_via_decomposition(delta(ZZ), fib_z).take(10) == fib_z.terms(10)

    def test_matches_direct_double_sum_mod_p(self):
        rng = random.Random(9)
        for _ in range(10):
            a = random_linrec(rng, MOD, rng.choice([1, 2, 3]))
            b = random_linrec(rng, MOD, rng.choice([1, 2, 3]))
            stream = newton_via_decomposition(a, b)
            assert stream.take(30) == direct_product_oracle("newton", a.terms(30), b.terms(30))


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
            assert prefix_equal(inverse_binomial_transform(binomial_transform(a)), a, 30)
            assert prefix_equal(binomial_transform(inverse_binomial_transform(a)), a, 30)

    @given(linrecs(ring=QQ, max_degree=2))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_over_q(self, a):
        assert prefix_equal(inverse_binomial_transform(binomial_transform(a)), a, 15)


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

    def test_conditions_disagree_for_alternating_over_q(self):
        # every element +-1 is a unit, yet the transform value vanishes at t=1
        conditions = invertibility_conditions(alternating_ones(QQ), 10)
        assert conditions.elements_unit
        assert not conditions.transform_unit
        assert conditions.first_disagreement == 1

    def test_conditions_disagree_for_ones_mod_four(self):
        conditions = invertibility_conditions(ones(Zmod(4)), 10)
        assert conditions.elements_unit
        assert conditions.transform_first_failure == 1
        assert conditions.first_disagreement == 1


class TestNewtonInverse:
    def test_ones_over_q(self):
        inv = newton_inverse(ones(QQ), 8).take(8)
        assert [t.value for t in inv] == [Fraction(-1, 2) ** n for n in range(8)]

    def test_delta_is_self_inverse(self):
        inv = newton_inverse(delta(QQ), 6).take(6)
        assert inv == delta(QQ).terms(6)

    def test_product_with_inverse_is_the_impulse(self):
        rng = random.Random(23)
        found = 0
        while found < 5:
            a = random_linrec(rng, MOD, rng.choice([1, 2, 3]))
            if not is_newton_invertible(a, 20):
                continue
            b = newton_inverse(a, 20).take(20)
            assert direct_product_oracle("newton", a.terms(20), b) == delta(MOD).terms(20)
            found += 1

    def test_not_invertible_carries_the_index(self):
        with pytest.raises(NotInvertible) as exc:
            newton_inverse(ones(ZZ), 10)
        assert exc.value.index == 1


class TestIsomorphism:
    def test_impulse_maps_to_alternating(self):
        image = hadamard_to_newton(delta(ZZ))
        assert image.terms(10) == alternating_ones(ZZ).terms(10)

    def test_alternating_inverts_ones_under_hurwitz(self):
        # the round trips below work because e and 1 are mutual inverses
        back = hurwitz(alternating_ones(ZZ), ones(ZZ))
        assert back.terms(12) == delta(ZZ).terms(12)

    def test_round_trips(self, fib_z):
        assert prefix_equal(newton_to_hadamard(hadamard_to_newton(fib_z)), fib_z, 30)
        assert prefix_equal(hadamard_to_newton(newton_to_hadamard(fib_z)), fib_z, 30)

    def test_carries_hadamard_to_newton_over_q(self):
        two, three = geometric(QQ, 2), geometric(QQ, 3)
        lhs = hadamard_to_newton(hadamard(two, three))
        rhs = newton(hadamard_to_newton(two), hadamard_to_newton(three))
        assert prefix_equal(lhs, rhs, 30)

    def test_preserves_sums(self):
        rng = random.Random(29)
        a = random_linrec(rng, MOD, 2)
        b = random_linrec(rng, MOD, 3)
        lhs = hadamard_to_newton(seq_sum(a, b))
        rhs = seq_sum(hadamard_to_newton(a), hadamard_to_newton(b))
        assert prefix_equal(lhs, rhs, 30)


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


@pytest.mark.parametrize("ring", [ZZ, Zmod(2**61 - 1), Zmod(2**64)], ids=str)
@pytest.mark.parametrize("product", [hadamard, hurwitz, newton], ids=lambda f: f.__name__)
def test_composed_closure_at_degree_100(product, ring):
    # 10 x 10 operands: D = 100, far past what Berkowitz on the D x D
    # Kronecker matrix finishes in test time; over Zmod(2**64) the power
    # sums run modulo 2**64 * 2**97 (the 2-part of 100!)
    rng = random.Random(101)
    a, b = random_linrec(rng, ring, 10), random_linrec(rng, ring, 10)
    c = product(a, b)
    assert c.order == 100
    length = c.order + 20
    prefix = c.terms(length)
    assert prefix == direct_product_oracle(product.__name__, a.terms(length), b.terms(length))
    assert satisfies_recurrence(prefix, c.charpoly).passed


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
            assert list(c.initial) == direct_product_oracle(product.__name__, a.terms(c.order), b.terms(c.order))


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


@pytest.mark.parametrize("modulus", [None, 12, 2**61 - 1], ids=str)
@pytest.mark.parametrize("shift", [1, 2, 3, 5])
def test_newton_values_combine_root_power_sums(shift, modulus):
    # on power sums of roots a and b, the Newton loop with root shift s
    # gives those of s a + s b + a b; the reference is built from the roots
    rng = random.Random(31 * shift + 7)
    count = 12
    for _ in range(5):
        roots_a = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        roots_b = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        combined = [shift * a + shift * b + a * b for a in roots_a for b in roots_b]
        xs, ys, want = ([sum(r**k for r in roots) for k in range(count)] for roots in (roots_a, roots_b, combined))
        if modulus:
            xs, ys, want = ([v % modulus for v in vals] for vals in (xs, ys, want))
        assert kernels.newton_values(xs, ys, modulus, shift) == want


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


INVERSE_RINGS = [ZZ, QQ, Zmod(12), Zmod(10007), Zmod(2**61 - 1), Zmod(2**64)]


@pytest.mark.parametrize("ring", INVERSE_RINGS, ids=str)
def test_raw_value_inverse_matches_oracles(ring):
    k = 40
    rng = random.Random(41)
    u = RingElem(ring, Fraction(3, 2)) if ring == QQ else ring.from_int(1 if ring == ZZ else 5)
    cases = [_unit_transform_linrec(ring, u)] + [random_linrec(rng, ring, 2) for _ in range(4)]
    invertible = 0
    for a in cases:
        d = _reference_transform(a, k)
        first = next((t for t, x in enumerate(d) if not x.is_unit()), None)
        report = is_newton_invertible(a, k)
        assert (report.invertible, report.first_failure, report.checked) == (first is None, first, k)
        elements = [x.is_unit() for x in a.terms(k)]
        transform = [x.is_unit() for x in d]
        conditions = invertibility_conditions(a, k)
        assert conditions.transform_first_failure == first
        assert conditions.elements_first_failure == next((t for t, ok in enumerate(elements) if not ok), None)
        assert conditions.first_disagreement == next(
            (t for t, (e, x) in enumerate(zip(elements, transform)) if e != x), None
        )
        if first is None:
            b = newton_inverse(a, k).take(k)
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
