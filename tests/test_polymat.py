"""Polynomials, composed operations, and their matrix and resultant oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recseq import (
    QQ,
    ZZ,
    DegreeZero,
    NotMonic,
    Poly,
    RingMismatch,
    Zmod,
    composed_newton,
    composed_product,
    composed_sum,
    polymat,
)
from recseq.matrix_oracles import (
    Matrix,
    charpoly,
    charpoly_cofactor,
    companion,
    kron,
    kron_newton,
    kron_sum,
    resultant_shift,
)

from conftest import RINGS, RING_IDS, monic_polys, rings, element_strategy

T = Poly.from_ints(ZZ, [0, 1])
T_MINUS_1 = Poly.from_ints(ZZ, [-1, 1])
FIB_P = Poly.from_ints(ZZ, [-1, -1, 1])


def ints(p: Poly) -> list[int]:
    return [c.value for c in p.coeffs]


class TestPolyBasics:
    def test_canonical_form_strips_trailing_zeros(self):
        p = Poly.from_ints(ZZ, [1, 2, 0, 0])
        assert ints(p) == [1, 2]

    def test_zero_polynomial_degree_sentinel(self):
        z = Poly.from_ints(ZZ, [0, 0])
        assert z.values == ()

    def test_product_of_linear_factors(self):
        p = Poly.from_ints(ZZ, [-2, 1]) * Poly.from_ints(ZZ, [-3, 1])
        assert ints(p) == [6, -5, 1]  # t^2 - 5t + 6

    def test_multiply_by_one(self):
        one = Poly.from_ints(ZZ, [1])
        assert FIB_P * one == FIB_P

    def test_multiply_by_zero(self):
        zero = Poly(ZZ, [])
        assert (FIB_P * zero).values == () and (zero * FIB_P).values == ()

    def test_fib_times_linear(self):
        # (t^2 - t - 1)(t - 2) expanded by hand
        assert ints(FIB_P * Poly.from_ints(ZZ, [-2, 1])) == [2, 1, -3, 1]

    def test_addition_cancels_leading_terms(self):
        p = Poly.from_ints(ZZ, [0, 0, 1])
        q = Poly.from_ints(ZZ, [1, 0, -1])
        assert ints(p + q) == [1]

    def test_cross_ring_rejected(self):
        with pytest.raises(RingMismatch):
            FIB_P + Poly.from_ints(QQ, [1])

    def test_str_round_trip_shape(self):
        assert str(FIB_P) == "[-1,-1,1]"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Poly(ZZ, [1]), TypeError, "polynomial coefficients must be RingElem"),
        (lambda: Poly(ZZ, [QQ.one]), RingMismatch, "coefficient from Q in a Z polynomial"),
    ],
    ids=["raw-coefficient", "foreign-coefficient"],
)
def test_input_checks(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


class TestCompanion:
    def test_degree_one(self):
        m = companion(Poly.from_ints(ZZ, [-7, 1]))
        assert m.n == 1 and m.entries[0][0].value == 7

    def test_fibonacci_convention(self):
        m = companion(FIB_P)
        assert [[e.value for e in row] for row in m.entries] == [[0, 1], [1, 1]]

    def test_rejects_non_monic(self):
        with pytest.raises(NotMonic):
            companion(Poly.from_ints(ZZ, [-1, -1, 2]))

    def test_rejects_constants(self):
        with pytest.raises(DegreeZero):
            companion(Poly.from_ints(ZZ, [1]))

    @given(monic_polys(max_degree=5))
    @settings(max_examples=60, deadline=None)
    def test_charpoly_round_trip(self, p):
        assert charpoly(companion(p)) == p


class TestKronecker:
    def test_one_by_one(self):
        a = Matrix(ZZ, [[ZZ.from_int(3)]])
        b = Matrix(ZZ, [[ZZ.from_int(5)]])
        assert kron(a, b).entries[0][0].value == 15
        assert kron_sum(a, b).entries[0][0].value == 8
        assert kron_newton(a, b).entries[0][0].value == 23

    def test_identity_factor(self):
        a = companion(FIB_P)
        assert kron(a, Matrix.identity(ZZ, 1)) == a

    def test_scalar_block_scaling(self):
        a = companion(FIB_P)
        two = Matrix(ZZ, [[ZZ.from_int(2)]])
        got = [[e.value for e in row] for row in kron(a, two).entries]
        assert got == [[0, 2], [2, 2]]

    def test_kron_sum_zero_summand(self):
        a = companion(FIB_P)
        zero = Matrix(ZZ, [[ZZ.zero]])
        assert kron_sum(a, zero) == a
        assert kron_newton(a, zero) == a

    def test_dimension_law(self):
        a = companion(FIB_P)
        b = companion(Poly.from_ints(ZZ, [1, 2, 3, 1]))
        assert kron_sum(a, b).n == a.n * b.n

    def test_kron_newton_ones(self):
        one = Matrix(ZZ, [[ZZ.one]])
        assert kron_newton(one, one).entries[0][0].value == 3

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            kron(Matrix.identity(ZZ, 1), Matrix.identity(QQ, 1))


class TestCharpoly:
    def test_fibonacci_matrix(self):
        m = Matrix(ZZ, [[ZZ.zero, ZZ.one], [ZZ.one, ZZ.one]])
        assert charpoly(m) == FIB_P
        assert charpoly_cofactor(m) == FIB_P

    def test_identity_matrix(self):
        p = charpoly(Matrix.identity(ZZ, 3))
        cube = T_MINUS_1 * T_MINUS_1 * T_MINUS_1
        assert p == cube

    def test_diagonal(self):
        m = Matrix(ZZ, [[ZZ.from_int(2), ZZ.zero], [ZZ.zero, ZZ.from_int(3)]])
        assert ints(charpoly(m)) == [6, -5, 1]

    def test_nonsymmetric(self):
        m = Matrix(ZZ, [[ZZ.from_int(1), ZZ.from_int(2)], [ZZ.from_int(3), ZZ.from_int(4)]])
        assert ints(charpoly(m)) == [-2, -5, 1]

    @given(rings.flatmap(lambda r: st.lists(element_strategy(r), min_size=9, max_size=9)))
    @settings(max_examples=60, deadline=None)
    def test_berkowitz_matches_cofactor_3x3(self, elems):
        ring = elems[0].ring
        m = Matrix(ring, [elems[0:3], elems[3:6], elems[6:9]])
        assert charpoly(m) == charpoly_cofactor(m)

    def test_berkowitz_matches_cofactor_mod_10007(self):
        ring = Zmod(10007)
        rng = random.Random(71)
        for n in (1, 3, 6):
            m = Matrix(ring, [[ring.from_int(rng.randrange(10007)) for _ in range(n)] for _ in range(n)])
            assert charpoly(m) == charpoly_cofactor(m)


class TestComposedOperations:
    def test_product_of_linear_roots(self):
        p = composed_product(Poly.from_ints(ZZ, [-2, 1]), Poly.from_ints(ZZ, [-3, 1]))
        assert ints(p) == [-6, 1]

    def test_sum_of_linear_roots(self):
        p = composed_sum(Poly.from_ints(ZZ, [-1, 1]), Poly.from_ints(ZZ, [-2, 1]))
        assert ints(p) == [-3, 1]

    def test_newton_of_linear_roots(self):
        assert ints(composed_newton(Poly.from_ints(ZZ, [-1, 1]), Poly.from_ints(ZZ, [-1, 1]))) == [-3, 1]
        assert ints(composed_newton(Poly.from_ints(ZZ, [-2, 1]), Poly.from_ints(ZZ, [-3, 1]))) == [-11, 1]

    def test_identities(self):
        assert composed_product(FIB_P, T_MINUS_1) == FIB_P
        assert composed_sum(FIB_P, T) == FIB_P
        assert composed_newton(FIB_P, T) == FIB_P

    def test_fibonacci_square_product(self):
        # roots a^2, ab, ba, b^2 with a+b=1, ab=-1: (t+1)^2 (t^2-3t+1)
        got = composed_product(FIB_P, FIB_P)
        assert ints(got) == [1, -1, -4, -1, 1]
        assert got == charpoly_cofactor(kron(companion(FIB_P), companion(FIB_P)))

    def test_fibonacci_square_sum(self):
        # roots 2a, a+b, b+a, 2b: (t-1)^2 (t^2-2t-4)
        got = composed_sum(FIB_P, FIB_P)
        expected = T_MINUS_1 * T_MINUS_1 * Poly.from_ints(ZZ, [-4, -2, 1])
        assert got == expected
        assert ints(got) == [-4, 6, 1, -4, 1]
        assert got == charpoly_cofactor(kron_sum(companion(FIB_P), companion(FIB_P)))

    def test_degree_law(self):
        q = Poly.from_ints(ZZ, [1, 2, 3, 1])
        for op in (composed_product, composed_sum, composed_newton):
            assert len(op(FIB_P, q).values) - 1 == (len(FIB_P.values) - 1) * (len(q.values) - 1)

    def test_rejects_non_monic(self):
        with pytest.raises(NotMonic):
            composed_sum(FIB_P, Poly.from_ints(ZZ, [1, 2]))

    @given(rings.flatmap(lambda r: st.tuples(monic_polys(ring=r, max_degree=2), monic_polys(ring=r, max_degree=2))))
    @settings(max_examples=40, deadline=None)
    def test_kron_swap_commutativity(self, pq):
        p, q = pq
        a, b = companion(p), companion(q)
        assert charpoly(kron(a, b)) == charpoly(kron(b, a))
        assert charpoly(kron_sum(a, b)) == charpoly(kron_sum(b, a))
        assert charpoly(kron_newton(a, b)) == charpoly(kron_newton(b, a))

    def test_associativity_and_distributivity_samples(self):
        rng = random.Random(7)

        def rand_poly(degree):
            return Poly.from_ints(ZZ, [rng.randint(-4, 4) for _ in range(degree)] + [1])

        for op in (composed_product, composed_sum, composed_newton):
            for _ in range(4):
                p, q, r = (rand_poly(rng.choice([1, 2])) for _ in range(3))
                assert op(op(p, q), r) == op(p, op(q, r))
                assert op(p * q, r) == op(p, r) * op(q, r)


# 720 and 2**64 share primes with the k <= D that Newton's identities
# divide by, so the power-sum path works modulo m times the m-part of D!
CROSS_RINGS = [ZZ, QQ, Zmod(2), Zmod(12), Zmod(720), Zmod(10007), Zmod(2**61 - 1), Zmod(2**64)]
COMPOSED_KRON = [(composed_product, kron), (composed_sum, kron_sum), (composed_newton, kron_newton)]
COMPOSED_IDS = [op.__name__ for op, _ in COMPOSED_KRON]
# identity element of each composed operation: t - 1, t, t
COMPOSED_IDENTITY = [(composed_product, [-1, 1]), (composed_sum, [0, 1]), (composed_newton, [0, 1])]


def _same_ring_pair(max_degree):
    return st.sampled_from(CROSS_RINGS).flatmap(
        lambda r: st.tuples(monic_polys(ring=r, max_degree=max_degree), monic_polys(ring=r, max_degree=max_degree))
    )


class TestPowerSumCrossCheck:
    """The power-sum composed operations against Kronecker + Berkowitz and cofactors."""

    @pytest.mark.parametrize("op,build", COMPOSED_KRON, ids=COMPOSED_IDS)
    @given(pq=_same_ring_pair(max_degree=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_berkowitz_on_kronecker(self, op, build, pq):
        p, q = pq
        got = op(p, q)
        mat = build(companion(p), companion(q))
        assert got == charpoly(mat)
        if mat.n <= 4:
            assert got == charpoly_cofactor(mat)

    @pytest.mark.parametrize("ring", CROSS_RINGS, ids=[str(r) for r in CROSS_RINGS])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_degree_one_root_laws(self, ring, data):
        u, v = data.draw(element_strategy(ring)), data.draw(element_strategy(ring))
        p, q = Poly(ring, [-u, ring.one]), Poly(ring, [-v, ring.one])
        assert composed_product(p, q) == Poly(ring, [-(u * v), ring.one])
        assert composed_sum(p, q) == Poly(ring, [-(u + v), ring.one])
        assert composed_newton(p, q) == Poly(ring, [-(u + v + u * v), ring.one])

    @pytest.mark.parametrize("op,identity", COMPOSED_IDENTITY, ids=COMPOSED_IDS)
    @given(p=st.sampled_from(CROSS_RINGS).flatmap(lambda r: monic_polys(ring=r, max_degree=4)))
    @settings(max_examples=30, deadline=None)
    def test_identities_over_every_ring(self, op, identity, p):
        unit = Poly.from_ints(p.ring, identity)
        assert op(p, unit) == p
        assert op(unit, p) == p

    @pytest.mark.parametrize("op", [op for op, _ in COMPOSED_KRON], ids=COMPOSED_IDS)
    def test_operand_errors(self, op):
        with pytest.raises(RingMismatch):
            op(FIB_P, Poly.from_ints(QQ, [-1, -1, 1]))
        with pytest.raises(RingMismatch):
            op(Poly.from_ints(Zmod(7), [1, 1]), Poly.from_ints(Zmod(12), [1, 1]))
        with pytest.raises(NotMonic):
            op(Poly.from_ints(ZZ, [1, 2]), FIB_P)
        with pytest.raises(NotMonic):
            op(FIB_P, Poly.from_ints(ZZ, [1, 2]))
        with pytest.raises(DegreeZero):
            op(FIB_P, Poly.from_ints(ZZ, [1]))


def _legendre_lift(m, d):
    # m times the m-part of d!: each prime p <= d that divides m enters
    # with Legendre's exponent sum_i floor(d / p^i)
    lift = m
    for p in range(2, d + 1):
        if m % p == 0 and all(p % r for r in range(2, p)):
            e, power = 0, p
            while power <= d:
                e += d // power
                power *= p
            lift *= p**e
    return lift


# The composed operations over Z/m run modulo a lift of m.  With less
# than the m-part of D! some division by k <= D is not exact, and with
# more (all of D!, say) the outputs agree but every step costs more: a
# D = 1024 product over Zmod(10007) took seconds instead of milliseconds
LIFT_MODULI = [2, 9, 12, 720, 5040, 10007, 2**61 - 1, 2**64]
LIFT_IDS = ["2", "9", "12", "720", "5040", "10007", "2^61-1", "2^64"]
# operand degrees for D = 1, 4, 9, 24, 64 and 100
LIFT_DEGREES = [(1, 1), (2, 2), (3, 3), (4, 6), (8, 8), (10, 10)]


@pytest.mark.parametrize("degrees", LIFT_DEGREES, ids=[f"D{d * e}" for d, e in LIFT_DEGREES])
@pytest.mark.parametrize("m", LIFT_MODULI, ids=LIFT_IDS)
def test_the_zmod_lift_is_m_times_the_m_part_of_d_factorial(monkeypatch, m, degrees):
    seen, power_sums = [], polymat._power_sums

    def spy(cs, modulus):
        seen.append(modulus)
        return power_sums(cs, modulus)

    monkeypatch.setattr(polymat, "_power_sums", spy)
    ring, rng = Zmod(m), random.Random(m)
    p, q = (Poly.from_ints(ring, [rng.randrange(m) for _ in range(d)] + [1]) for d in degrees)
    for op in (composed_product, composed_sum, composed_newton):
        op(p, q)
    # each operation takes the power sums of both operands
    assert seen == [_legendre_lift(m, degrees[0] * degrees[1])] * 6


class TestResultantShift:
    def test_linear_case(self):
        got = resultant_shift(Poly.from_ints(ZZ, [-1, 1]), Poly.from_ints(ZZ, [-2, 1]))
        assert ints(got) == [-3, 1]

    def test_fibonacci_shift_by_one(self):
        # roots a+1, b+1 of the Fibonacci polynomial: t^2 - 3t + 1
        got = resultant_shift(FIB_P, T_MINUS_1)
        assert ints(got) == [1, -3, 1]
        assert got == composed_sum(FIB_P, T_MINUS_1)

    def test_matches_composed_sum_on_random_pairs(self):
        rng = random.Random(11)
        for _ in range(25):
            p = Poly.from_ints(ZZ, [rng.randint(-5, 5) for _ in range(rng.choice([1, 2, 3]))] + [1])
            q = Poly.from_ints(ZZ, [rng.randint(-5, 5) for _ in range(rng.choice([1, 2, 3]))] + [1])
            assert resultant_shift(p, q) == composed_sum(p, q)

    def test_works_over_modular_rings(self):
        r = Zmod(12)
        p = Poly.from_ints(r, [5, 3, 1])
        q = Poly.from_ints(r, [7, 1])
        assert resultant_shift(p, q) == composed_sum(p, q)

    @given(rings.flatmap(lambda r: st.tuples(monic_polys(ring=r, max_degree=3), monic_polys(ring=r, max_degree=3))))
    @settings(max_examples=30, deadline=None)
    def test_matches_composed_sum_over_every_ring(self, pq):
        p, q = pq
        assert resultant_shift(p, q) == composed_sum(p, q)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_matrix_validation(ring):
    with pytest.raises(ValueError):
        Matrix(ring, [])
    with pytest.raises(ValueError):
        Matrix(ring, [[ring.one], [ring.one]])
    with pytest.raises(RingMismatch):
        Matrix(ring, [[ZZ.one if ring != ZZ else QQ.one]])
