"""Linear recurrent sequences and their closed product algebra.

A :class:`LinRec` is a monic characteristic polynomial plus matching
initial conditions; term generation unrolls the recurrence exactly.  The
five products (termwise sum, Hadamard, Cauchy, Hurwitz, Newton) each
return a new :class:`LinRec`.  A product is two things: a rule for the
characteristic polynomial (the polynomial product p_a * p_b, or one of
the composed operations in :mod:`recseq.polymat`) and its loop in
:mod:`recseq.kernels`, which gives the initial conditions from the
operands' terms.  The composed operations run the same loop on the power
sums of the roots.  The Newton product is the Hadamard product
conjugated by the binomial transform; the transform of an operand is
again recurrent, with the charpoly's roots shifted by one (by lam on
the scaled terms), so it is unrolled from its own recurrence, and one
O(D^2) transform table is left.

A :class:`LinRec` holds raw values (``int``, or ``Fraction`` over Q;
residues reduced into [0, m)), and so does its :class:`~recseq.polymat.Poly`.
``initial_values`` and ``term_values(k)`` give them as they are.  The
loops live in :mod:`recseq.kernels`, one for every ring.  The products
hand them integers only, as :mod:`recseq.polymat` does for the
charpolys: with lam the lcm of the denominators of both charpolys and
delta that of both operands' initial values, each operand is unrolled as
the integers delta lam^n a_n, the product's loop combines them, and each
output is divided once, into one ``Fraction`` over Q.  Over Z and Z/m,
lam = delta = 1 and nothing is divided.  The Newton inverse divides by
the binomial transform d of the terms and reads it from the Newton
product's shifted unroll, as the integers delta lam^t d_t.  Term
unrolling (``term_values``) and the inverse's binomial convolution pass
``Fraction`` values to the loops.  ``term_values`` stays on the
``Fraction`` unroll: scaled, the unrolled numbers grow like lam^n even
where the terms stay small, and the scaled unroll with one ``Fraction``
per term measured 1.5-1.7x slower for a_n = 1 and 7.0-7.5x for
a_n = 1 + 2^-n (lam = 6, n = 10^4; see the README).  The inverse's
output denominators grow so fast that a common denominator gained only
1.05x.  Terms are unrolled for printing in
``term_strings(k)``, which the CLI calls.  Over Z, and over Q when the
charpoly has integer coefficients (lam = 1), it runs the same loop on
the ``Decimal`` integers delta a_n, whose ``str`` takes linear time, and
reduces each by gcd(z mod delta, delta); Z is the case delta = 1.  Over
Q with lam > 1, and over Z/m, it gives ``str`` of ``term_values(k)``.
:class:`~recseq.ring.RingElem` appears only at the boundary: the public
constructor takes ring elements, and ``initial``, ``terms()`` and the
Newton inverse build them on the way out.  The oracles that check all of
this, on ring elements only, live in :mod:`recseq.verify`; nothing here
imports them.

>>> from fractions import Fraction
>>> from recseq.ring import QQ, RingElem
>>> from recseq.polymat import Poly
>>> fib = LinRec(Poly.from_ints(QQ, [-1, -1, 1]), [QQ.zero, QQ.one])
>>> fib.initial_values
(Fraction(0, 1), Fraction(1, 1))
>>> [str(v) for v in fib.term_values(7)]
['0', '1', '1', '2', '3', '5', '8']
>>> [t.value for t in fib.terms(7)]
[Fraction(0, 1), Fraction(1, 1), Fraction(1, 1), Fraction(2, 1), Fraction(3, 1), Fraction(5, 1), Fraction(8, 1)]

A Newton product on the scaled path, with a_n = (1/3) (1/2)^n: the
charpoly t - 1/2 makes lam = 2 and the initial value 1/3 makes delta = 3.

>>> a = LinRec(Poly(QQ, [RingElem(QQ, Fraction(-1, 2)), QQ.one]), [RingElem(QQ, Fraction(1, 3))])
>>> c = newton(a, fib)
>>> str(c.charpoly)
'[-5/4,-5/2,1]'
>>> c.initial_values
(Fraction(0, 1), Fraction(1, 2))
"""

from __future__ import annotations

import sys
from collections import namedtuple
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation, Rounded, localcontext
from math import gcd
from operator import add, mul

from .kernels import (
    binomial_convolution_values,
    binomial_transform_values,
    cauchy_values,
    recurrence_values,
    termwise_values,
)
from .polymat import (
    DegreeZero,
    NotMonic,
    Poly,
    _denominator_lcm,
    _scaled,
    _scaled_values,
    _taylor_shift,
    _unscaled,
    composed_newton,
    composed_product,
    composed_sum,
)
from .ring import RingElem, RingMismatch, RingSpec

DEFAULT_PREFIX = 30

# Integer arithmetic in this context is exact or raises: it cannot round.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded, InvalidOperation])


class InvariantError(ValueError):
    """Sequence data violates a structural invariant."""


class NotInvertible(ArithmeticError):
    """No Newton inverse exists; carries the first failing index."""

    def __init__(self, index: int, value: RingElem):
        super().__init__(f"binomial-transform value at index {index} is not a unit: {value}")
        self.index = index
        self.value = value


class LinRec:
    """A linear recurrent sequence: monic charpoly plus initial terms.

    With p(t) = t^N - h_1 t^{N-1} - ... - h_N, terms satisfy
    a_n = sum_{i=1..N} h_i a_{n-i} for all n >= N.  ``initial_values``
    holds the N initial terms as raw values in the canonical form of
    :class:`~recseq.polymat.Poly`; ``initial`` gives them as ring elements.
    """

    __slots__ = ("charpoly", "initial_values")

    def __init__(self, charpoly: Poly, initial):
        if not charpoly.is_monic():
            raise NotMonic(f"characteristic polynomial must be monic, got {charpoly}")
        order = len(charpoly.values) - 1
        if order < 1:
            raise DegreeZero("characteristic polynomial must have degree >= 1")
        init = tuple(initial)
        if len(init) != order:
            raise InvariantError(
                f"need {order} initial terms for a degree-{order} characteristic polynomial, got {len(init)}"
            )
        for a in init:
            if not isinstance(a, RingElem):
                raise TypeError("initial terms must be RingElem")
            if a.ring != charpoly.ring:
                raise RingMismatch(f"initial term from {a.ring} in a {charpoly.ring} sequence")
        self.charpoly = charpoly
        self.initial_values = tuple(a.value for a in init)

    @classmethod
    def _of(cls, charpoly: Poly, initial_values) -> "LinRec":
        """From a monic charpoly and its raw initial values in canonical form; nothing is checked."""
        a = object.__new__(cls)
        a.charpoly = charpoly
        a.initial_values = tuple(initial_values)
        return a

    @property
    def ring(self) -> RingSpec:
        return self.charpoly.ring

    @property
    def initial(self) -> tuple:
        """The initial terms as ring elements, built on each access."""
        ring = self.ring
        return tuple(RingElem(ring, v) for v in self.initial_values)

    @property
    def order(self) -> int:
        return len(self.charpoly.values) - 1

    def terms(self, k: int) -> list[RingElem]:
        """The first ``k`` terms, exactly."""
        ring = self.ring
        return [RingElem(ring, v) for v in self.term_values(k)]

    def term_values(self, k: int) -> list:
        """The first ``k`` terms as raw values, in the canonical form of ``initial_values``."""
        if k < 0:
            raise ValueError("term count must be >= 0")
        hs = [-c for c in self.charpoly.values[-2::-1]]  # h_1..h_N
        return recurrence_values(hs, self.initial_values, k, self.ring.modulus)

    def term_strings(self, k: int) -> list[str]:
        """The first ``k`` terms as printed: ``str`` of each of ``term_values(k)``.

        Over Z, and over Q when the charpoly has integer coefficients
        (lam = 1), the integers delta a_n are unrolled on ``Decimal``
        values in a context that cannot round, since ``str`` of a
        ``Decimal`` takes linear time and that of an ``int`` or a
        ``Fraction`` quadratic; delta is the lcm of the denominators of
        the initial values, 1 over Z.  Each term prints as z/g over
        delta/g with g = gcd(z mod delta, delta), which is the reduced
        fraction, without the ``/1`` when g = delta.  A numerator longer
        than ``sys.get_int_max_str_digits()`` is formatted through
        ``int``, so the interpreter raises its own ``ValueError``, as
        ``str`` of the value would.  Over Z/m, and over Q with lam > 1,
        the strings are ``str`` of the values: with lam > 1 the scaled
        terms can share large powers of lam with delta lam^n, and
        reducing them measured up to 6.5x slower (see the README).
        """
        cs = self.charpoly.values
        if self.ring.kind == RingSpec.INTEGERS_MOD or _denominator_lcm(cs) != 1:
            return [str(v) for v in self.term_values(k)]
        delta = _denominator_lcm(self.initial_values)
        hs = [Decimal(-c.numerator) for c in cs[-2::-1]]
        init = [Decimal(z) for z in _scaled(self.initial_values, delta)]
        limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit before 3.10.7
        out = []
        with localcontext(_EXACT):
            for z in recurrence_values(hs, init, k):
                g = gcd(int(z % delta), delta) if delta > 1 else 1
                if g > 1:
                    z //= g  # exact
                s = str(int(z)) if limit and z.adjusted() >= limit else str(z)
                out.append(s if g == delta else f"{s}/{delta // g}")
        return out

    def __add__(self, other):
        if not isinstance(other, LinRec):
            return NotImplemented
        return seq_sum(self, other)

    def __eq__(self, other):
        if not isinstance(other, LinRec):
            return NotImplemented
        return self.charpoly == other.charpoly and self.initial_values == other.initial_values

    def __hash__(self):
        return hash((self.charpoly, self.initial_values))

    def __str__(self):
        init = ",".join(str(v) for v in self.initial_values)
        return f"ring={self.ring};p={self.charpoly};init=[{init}]"

    def __repr__(self):
        return f"LinRec({self})"


def _seq(ring: RingSpec, poly_ints, init_ints) -> LinRec:
    return LinRec(Poly.from_ints(ring, poly_ints), [ring.from_int(i) for i in init_ints])


def ones(ring: RingSpec) -> LinRec:
    """The constant sequence 1, 1, 1, ... (charpoly t - 1)."""
    return _seq(ring, [-1, 1], [1])


def alternating_ones(ring: RingSpec) -> LinRec:
    """The sequence 1, -1, 1, -1, ... (charpoly t + 1)."""
    return _seq(ring, [1, 1], [1])


def delta(ring: RingSpec) -> LinRec:
    """The impulse 1, 0, 0, ...: identity for Cauchy, Hurwitz and Newton."""
    return _seq(ring, [0, 1], [1])


def _require_same_ring(a: LinRec, b: LinRec) -> None:
    if a.ring != b.ring:
        raise RingMismatch(f"cannot combine sequences over {a.ring} and {b.ring}")


def _scaled_terms(a: LinRec, lam: int, delta: int, count: int, shifted: bool = False) -> list:
    """The integers delta lam^n a_n for n < ``count``, unrolled without a ``Fraction``.

    They follow the recurrence with the integer coefficients h_i lam^i,
    the charpoly lam^N p(t / lam), from delta lam^n a_n for n < N.  With
    ``shifted``, the result is their shifted binomial transform B_lam
    instead: that is again a recurrent sequence, whose charpoly has the
    roots plus lam (:func:`~recseq.polymat._taylor_shift`) and whose
    first N terms are B_lam of the first N, so it too is unrolled in
    O(count N).
    """
    m = a.ring.modulus
    cs = _scaled_values(a.charpoly, lam)
    init = _scaled(a.initial_values, delta, lam)
    if shifted:
        cs = _taylor_shift(cs, lam)
        init = binomial_transform_values(init, lam, m)
    return recurrence_values([-c for c in cs[-2::-1]], init, count, m)


def _scaled_operands(a: LinRec, b: LinRec, charpoly_rule, shifted: bool = False):
    """``(p, xs, ys, lam, delta)``: p = ``charpoly_rule(p_a, p_b)`` and the operands' terms as integers.

    xs and ys are delta lam^n a_n and delta lam^n b_n for n < deg p, the
    terms that a product's loop in :mod:`recseq.kernels` combines into
    the initial conditions; with ``shifted`` (the Newton product) they
    are the shifted binomial transforms B_lam of those.  lam is the lcm
    of the denominators of both charpolys' coefficients, the scale of
    :func:`~recseq.polymat._root_power_sums`, and delta that of both
    operands' initial values.  Over Z and Z/m, lam = delta = 1 and xs,
    ys are the terms themselves, or their binomial transforms.
    """
    _require_same_ring(a, b)
    p = charpoly_rule(a.charpoly, b.charpoly)
    need = len(p.values) - 1
    lam = _denominator_lcm(a.charpoly.values + b.charpoly.values)
    delta = _denominator_lcm(a.initial_values + b.initial_values)
    xs, ys = _scaled_terms(a, lam, delta, need, shifted), _scaled_terms(b, lam, delta, need, shifted)
    return p, xs, ys, lam, delta


def _product(p: Poly, zs, scale: int, mu: int) -> LinRec:
    """The product with charpoly p whose initial terms are z_k / (scale * mu^k) (see :func:`_unscaled`)."""
    return LinRec._of(p, _unscaled(p.ring, zs, scale, mu))


def seq_sum(a: LinRec, b: LinRec) -> LinRec:
    """Termwise sum; characteristic polynomial p_a * p_b."""
    p, xs, ys, lam, delta = _scaled_operands(a, b, mul)
    return _product(p, termwise_values(add, xs, ys, p.ring.modulus), delta, lam)


def cauchy(a: LinRec, b: LinRec) -> LinRec:
    """Convolution product c_n = sum a_i b_{n-i}; charpoly p_a * p_b."""
    p, xs, ys, lam, delta = _scaled_operands(a, b, mul)
    return _product(p, cauchy_values(xs, ys, p.ring.modulus), delta * delta, lam)


def hadamard(a: LinRec, b: LinRec) -> LinRec:
    """Termwise product; charpoly is the composed product of charpolys."""
    p, xs, ys, lam, delta = _scaled_operands(a, b, composed_product)
    return _product(p, termwise_values(mul, xs, ys, p.ring.modulus), delta * delta, lam * lam)


def hurwitz(a: LinRec, b: LinRec) -> LinRec:
    """Binomial convolution c_n = sum C(n,i) a_i b_{n-i}.

    The characteristic polynomial is the composed sum of the operands'
    characteristic polynomials (equivalently the normalized shifted
    resultant).
    """
    p, xs, ys, lam, delta = _scaled_operands(a, b, composed_sum)
    return _product(p, binomial_convolution_values(xs, ys, p.ring.modulus), delta * delta, lam)


def newton(a: LinRec, b: LinRec) -> LinRec:
    """Multinomial convolution c_n = sum C(n,i) C(i,j) a_i b_{n-j}.

    The characteristic polynomial is the composed Newton operation of the
    operands' characteristic polynomials.  The Newton product is the
    Hadamard product conjugated by the binomial transform: on the scaled
    terms, c = B_(-lam^2)(B_lam(x) . B_lam(y)), as in
    :func:`~recseq.polymat.composed_newton`, which gives
    delta^2 lam^(2n) c_n.  The operands' transforms B_lam are unrolled
    from their own recurrences, so one O(D^2) transform table remains.
    """
    p, xs, ys, lam, delta = _scaled_operands(a, b, composed_newton, shifted=True)
    m = p.ring.modulus
    zs = binomial_transform_values(termwise_values(mul, xs, ys, m), -lam * lam, m)
    return _product(p, zs, delta * delta, lam * lam)


def newton_via_decomposition(a: LinRec, b: LinRec) -> LinRec:
    """Newton product computed as [(a * 1) Hadamard (b * 1)] * e.

    Both inner products are Hurwitz products against the all-ones
    sequence, the outer one against the alternating-sign sequence; this
    is an independent route to the same terms as :func:`newton`.
    """
    _require_same_ring(a, b)
    one_seq = ones(a.ring)
    mixed = hadamard(hurwitz(a, one_seq), hurwitz(b, one_seq))
    return hurwitz(mixed, alternating_ones(a.ring))


def binomial_transform(a: LinRec) -> LinRec:
    """a -> a Hurwitz 1, i.e. b_n = sum_i C(n,i) a_i."""
    return hurwitz(a, ones(a.ring))


def inverse_binomial_transform(a: LinRec) -> LinRec:
    """a -> a Hurwitz e with e = ((-1)^n); inverts the binomial transform."""
    return hurwitz(a, alternating_ones(a.ring))


def hadamard_to_newton(a: LinRec) -> LinRec:
    """The isomorphism carrying the Hadamard algebra onto the Newton algebra.

    Maps a to its inverse binomial transform; termwise it turns Hadamard
    products into Newton products and preserves sums.
    """
    return inverse_binomial_transform(a)


def newton_to_hadamard(a: LinRec) -> LinRec:
    """Inverse of :func:`hadamard_to_newton` (the binomial transform)."""
    return binomial_transform(a)


def _unit_inverses(a: LinRec, k: int):
    """1 / d_t for t < k, d_t = sum_s C(t,s) a_s the binomial transform of the terms.

    A generator that raises :class:`NotInvertible` at the first d_t that
    is not a unit.  The d_t are read from the shifted unroll of the
    Newton product (:func:`_scaled_terms`), which gives the integers
    delta lam^t d_t; each is divided and checked as it is reached, so no
    ring value past the first failure is made.
    """
    ring = a.ring
    lam, delta = _denominator_lcm(a.charpoly.values), _denominator_lcm(a.initial_values)
    for t, d in enumerate(_unscaled(ring, _scaled_terms(a, lam, delta, k, shifted=True), delta, lam)):
        r = ring.unit_inverse(d)
        if r is None:
            raise NotInvertible(t, RingElem(ring, d))
        yield r


class InvertibilityReport(namedtuple("InvertibilityReport", "invertible first_failure checked")):
    """Outcome of a Newton-invertibility check; truthy iff invertible.

    ``first_failure`` is the first index whose binomial-transform value is
    not a unit, or None; ``checked`` is the depth of the check.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.invertible


def is_newton_invertible(a: LinRec, depth: int) -> InvertibilityReport:
    """Check the unit condition for the Newton inverse up to ``depth``.

    The inverse formula divides by the binomial-transform values
    d_t = sum_s C(t,s) a_s; the sequence is invertible on the prefix iff
    every d_t is a unit.  Returns the first failing index otherwise.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    try:
        for _ in _unit_inverses(a, depth):
            pass
    except NotInvertible as exc:
        return InvertibilityReport(False, exc.index, depth)
    return InvertibilityReport(True, None, depth)


def newton_inverse(a: LinRec, k: int) -> list[RingElem]:
    """First ``k`` terms of the Newton-product inverse of ``a``.

    b = (1/d) Hurwitz e: b_n = sum_t C(n,t) (1/d_t) (-1)^(n-t), with d_t
    the binomial-transform values of a and e_j = (-1)^j.  Raises
    :class:`NotInvertible` at the first d_t that is not a unit.  Returns
    the k terms as a list: no characteristic polynomial is claimed for
    the inverse.
    """
    if k < 1:
        raise ValueError("term count must be >= 1")
    ring = a.ring
    alternating = [(-1) ** j for j in range(k)]
    raw = binomial_convolution_values(list(_unit_inverses(a, k)), alternating, ring.modulus)
    return [RingElem(ring, b) for b in raw]
