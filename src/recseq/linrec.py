"""Linear recurrent sequences and their closed product algebra.

A :class:`LinRec` is a monic characteristic polynomial plus matching
initial conditions; term generation unrolls the recurrence exactly.  The
five products (termwise sum, Hadamard, Cauchy, Hurwitz, Newton) each
return a new :class:`LinRec`.  A product is two things: a rule for the
characteristic polynomial (the polynomial product p_a * p_b, or one of
the composed operations in :mod:`recseq.polymat`) and its loop, which
gives the initial conditions from the operands' terms.  Each product's
loop has one copy, :func:`~recseq.polymat._product_values`, which the
composed operations run on the power sums of the roots; the Newton
product's conjugation by the binomial transform is told there.

A :class:`LinRec` holds raw values (``int``, or ``Fraction`` over Q;
residues reduced into [0, m)), and so does its :class:`~recseq.polymat.Poly`.
``initial_values`` and ``term_values(k)`` give them as they are.  The
loops live in :mod:`recseq.kernels`, one for every ring.  The products
hand them integers only, as :mod:`recseq.polymat` does for the
charpolys: with lam the lcm of the denominators of both charpolys and
delta that of both operands' initial values, each operand is unrolled as
the integers delta lam^n a_n, the product's loop combines them, and each
output is divided once by its scale (``polymat._SCALES``), into one
``Fraction`` over Q.  Over Z and Z/m, lam = delta = 1 and nothing is
divided.  The binomial transform and its inverse (psi^-1 and psi) add
+1 or -1 to every root: :func:`_transformed` shifts the roots of the
scaled recurrence with :func:`~recseq.polymat._shifted`, in O(N^2) for
order N, where the Hurwitz product with the ones sequence would run a
whole composed sum.  The Newton inverse divides by the binomial
transform d of the terms and unrolls d, as the integers delta lam^t d_t
with d's own lam and delta.  Every unroll of such integers starts from
one recurrence, :func:`_scaled_recurrence`, and each caller unrolls it
as one list (the products) or in chunks (the inverse's divisors, and
printing), or shifts its roots (the transforms).  Term
unrolling (``term_values``) and the inverse's binomial convolution pass
``Fraction`` values to the loops.  ``term_values`` stays on the
``Fraction`` unroll: scaled, the unrolled numbers grow like lam^n even
where the terms stay small, so the scaled unroll with one ``Fraction``
per term is slower on such sequences; the inverse's output denominators
grow so fast that a common denominator barely pays.  The README gives
the measurements.  Terms are printed from ``term_string_chunks(k)``, an
iterator over lists of at most ``kernels.CHUNK`` strings, which the CLI
writes as they come; ``term_strings(k)`` is the same strings in one
list.  Over Z, and over Q when the charpoly has integer coefficients
(lam = 1), it runs the same loop on the ``Decimal`` integers
delta a_n, whose ``str`` takes linear time, and reduces each by
gcd(z mod delta, delta); Z is the case delta = 1.  The loop, and the
kernel's negation of the ``Decimal`` coefficients, run chunk by chunk
in a context that cannot round, whatever the caller's context is.
Neither the iterator nor ``recurrence_chunks`` keeps a chunk it has
given out, so the list being printed is the only copy of its terms.
Before the first chunk, a pass over the ``int`` unroll finds any term
too long for the int/str limit, so a refusal comes before the first
string.  Over Z/m, and over Q with lam > 1, it gives ``str`` of the
chunked unroll of the values; over Q, and over a modulus longer than the
limit, each chunk is checked against the limit as it is unrolled, and
the chunks are held until the last has passed.  So printing holds
O(``CHUNK``) terms, except over Q with lam > 1 and over a modulus past
10^limit, where it holds O(k), and a refusal at index t unrolls
O(t + ``CHUNK``) terms on every route.
:class:`~recseq.ring.RingElem` appears only at the boundary: the public
constructor takes ring elements, and ``initial``, ``terms()`` and the
Newton inverse build them on the way out.  The oracles that check all of
this, on ring elements only, live in :mod:`recseq.verify` and
:mod:`recseq.matrix_oracles`; nothing here imports them.

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
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul

from .kernels import binomial_convolution_values, recurrence_chunks, recurrence_values
from .polymat import (
    DegreeZero,
    NotMonic,
    Poly,
    _SCALES,
    _denominator_lcm,
    _product_values,
    _scaled,
    _scaled_values,
    _shifted,
    _unscaled,
    composed_newton,
    composed_product,
    composed_sum,
)
from .ring import RingElem, RingSpec, _one_ring, _values_in

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
        self.charpoly = charpoly
        self.initial_values = tuple(_values_in(charpoly.ring, init, "initial terms", "initial term", "sequence"))

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
        return recurrence_values(self.charpoly.values, self.initial_values, k, self.ring.modulus)

    def term_strings(self, k: int) -> list[str]:
        """The first ``k`` terms as printed: ``str`` of each of ``term_values(k)``.

        The chunks of :meth:`term_string_chunks`, in one list.
        """
        return list(chain.from_iterable(self.term_string_chunks(k)))

    def term_string_chunks(self, k: int):
        """An iterator over the first ``k`` terms as printed, in lists of at most ``kernels.CHUNK``.

        The strings are ``str`` of ``term_values(k)``.  A term that ``str``
        refuses, with a numerator or denominator longer than
        ``sys.get_int_max_str_digits()`` digits, raises the interpreter's
        own ``ValueError`` before the first list is made, so a caller
        that writes the lists as they come writes nothing.  The iterator
        keeps no list it has yielded, nor the values it made one from:
        each list is made in a call that returns it, from a chunk that
        :func:`~recseq.kernels.recurrence_chunks` does not keep either.
        So once the caller drops a list, nothing of its chunk is left,
        except where the chunks are held (below).  Two routes:

        * Over Z, and over Q when the charpoly has integer coefficients
          (lam = 1), the integers delta a_n of :func:`_scaled_recurrence`
          are unrolled twice, in chunks; delta is the lcm of the
          denominators of the initial values, 1 over Z.  The first pass,
          on ``int``, only looks for a term past the limit
          (:func:`_refuse_past_the_limit`), and keeps none of its chunks
          once it ends.  The second runs on
          ``Decimal`` values, since ``str`` of a ``Decimal`` takes linear
          time and that of an ``int`` or a ``Fraction`` quadratic, in a
          context that cannot round.  That context is entered for each
          chunk and left before its list is yielded, so the caller's
          context holds while the iterator waits.  Each term prints as
          z/g over delta/g with g = gcd(z mod delta, delta), the reduced
          fraction, without the ``/1`` when g = delta.
        * Over Z/m, and over Q with lam > 1, the strings are ``str`` of
          the chunked unroll of the values themselves, printed by
          :func:`_printed_chunks`, the rule that the CLI's ``invert``
          prints by too.  Over Z/m with m <= 10^limit no residue passes
          the limit, so each chunk is yielded as it is unrolled.  Over
          Q, and over a longer modulus, each chunk is checked as it is
          unrolled, and the checked chunks are held until the last has
          passed: a refusal at index t costs O(t + ``kernels.CHUNK``)
          terms, and printing holds all k values, but only one chunk of
          strings at a time.  With lam > 1 the scaled terms can share
          large powers of lam with delta lam^n, and reducing them
          measured up to 6.5x slower than the ``Fraction`` unroll (see
          the README).
        """
        cs, init, m = self.charpoly.values, self.initial_values, self.ring.modulus
        if m is not None or _denominator_lcm(cs) != 1:
            yield from _printed_chunks(recurrence_chunks(cs, init, k, m), m)
            return
        limit = getattr(sys, "get_int_max_str_digits", int)()
        bound = 10**limit
        delta = _denominator_lcm(init)
        cs, zs = _scaled_recurrence(self, 1, delta)
        if limit:  # the first pass; its chunks go with the generator expression
            _refuse_past_the_limit(
                (
                    Fraction(z, delta)
                    for chunk in recurrence_chunks(cs, zs, k)
                    if delta >= bound or min(chunk) <= -bound or max(chunk) >= bound
                    for z in chunk
                ),
                bound,
            )
        chunks = recurrence_chunks([Decimal(c) for c in cs], [Decimal(z) for z in zs], k)

        def strings():  # the next chunk as printed, or None after the last
            with localcontext(_EXACT):  # the kernel negates the coefficients in this context
                chunk = next(chunks, None)
                if chunk is None:
                    return None
                if delta == 1:
                    return list(map(str, chunk))
                out = []
                for z in chunk:
                    g = gcd(int(z % delta), delta)
                    if g > 1:
                        z //= g  # exact
                    out.append(str(z) if g == delta else f"{z}/{delta // g}")
                return out

        yield from iter(strings, None)

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


def _printed_chunks(chunks, m: int | None):
    """An iterator over a list per chunk of the ``str`` of its values; ``chunks`` are lists of raw values modulo ``m``.

    Where a value can pass the int/str limit -- over Z and Q, and over a
    modulus longer than the limit -- every chunk is checked first
    (:func:`_refuse_past_the_limit`) and held until the last has passed,
    so a refusal comes before the first list is printed and a caller
    that writes the lists as they come writes nothing.  Otherwise each
    chunk is printed as it is taken.  Route 2 of
    :meth:`LinRec.term_string_chunks` and the CLI's ``invert`` print
    through this one rule.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit before 3.10.7
    bound = 10**limit
    if limit and (m is None or m > bound):  # check every chunk before the first is printed
        chunks = [_refuse_past_the_limit(chunk, bound) for chunk in chunks]
    return map(lambda chunk: list(map(str, chunk)), chunks)  # a generator would keep the last chunk of values


def _refuse_past_the_limit(values, bound: int):
    """``values``, once checked: the interpreter's ``ValueError`` at the first that ``str`` refuses.

    ``values`` are ``int`` or ``Fraction``, and ``bound`` is 10^limit for
    the int/str limit: ``str`` refuses a numerator or denominator of more
    than limit digits.  It is called on that value only, so the message
    is the interpreter's.
    """
    for v in values:
        if v.denominator >= bound or not -bound < v.numerator < bound:
            str(v)
    return values


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


def _scaled_recurrence(a: LinRec, lam: int, delta: int) -> tuple:
    """``(cs, init)``: the integer recurrence of delta lam^n a_n.

    The integers delta lam^n a_n follow the recurrence of the integer
    charpoly lam^N p(t / lam) from delta lam^n a_n for n < N.  The
    caller unrolls it with :func:`~recseq.kernels.recurrence_values` or
    :func:`~recseq.kernels.recurrence_chunks` (printing and
    :func:`_unit_inverses`), or hands it to
    :func:`~recseq.polymat._product_values` (:func:`_product`) or to
    :func:`~recseq.polymat._shifted` (:func:`_transformed`).
    """
    return _scaled_values(a.charpoly, lam), _scaled(a.initial_values, delta, lam)


def _product(kind: str, a: LinRec, b: LinRec, charpoly_rule) -> LinRec:
    """The product ``kind`` of a and b, with charpoly ``charpoly_rule(p_a, p_b)``.

    The initial conditions are :func:`~recseq.polymat._product_values` of
    the operands' scaled recurrences (:func:`_scaled_recurrence`), each
    output divided once by its scale from ``_SCALES``.  lam is the lcm of
    the denominators of both charpolys' coefficients, the scale of
    :func:`~recseq.polymat._composed_by`, and delta that of both
    operands' initial values.  Over Z and Z/m, lam = delta = 1 and
    nothing is divided.
    """
    _one_ring("sequences over", a, b)
    p = charpoly_rule(a.charpoly, b.charpoly)
    lam = _denominator_lcm(a.charpoly.values + b.charpoly.values)
    delta = _denominator_lcm(a.initial_values + b.initial_values)
    ra, rb = _scaled_recurrence(a, lam, delta), _scaled_recurrence(b, lam, delta)
    zs = _product_values(kind, ra, rb, lam, len(p.values) - 1, p.ring.modulus)
    i, j = _SCALES[kind]
    return LinRec._of(p, _unscaled(p.ring, zs, delta**i, lam**j))


def seq_sum(a: LinRec, b: LinRec) -> LinRec:
    """Termwise sum; characteristic polynomial p_a * p_b."""
    return _product("sum", a, b, mul)


def cauchy(a: LinRec, b: LinRec) -> LinRec:
    """Convolution product c_n = sum a_i b_{n-i}; charpoly p_a * p_b."""
    return _product("cauchy", a, b, mul)


def hadamard(a: LinRec, b: LinRec) -> LinRec:
    """Termwise product; charpoly is the composed product of charpolys."""
    return _product("hadamard", a, b, composed_product)


def hurwitz(a: LinRec, b: LinRec) -> LinRec:
    """Binomial convolution c_n = sum C(n,i) a_i b_{n-i}.

    The characteristic polynomial is the composed sum of the operands'
    characteristic polynomials (equivalently the normalized shifted
    resultant).
    """
    return _product("hurwitz", a, b, composed_sum)


def newton(a: LinRec, b: LinRec) -> LinRec:
    """Multinomial convolution c_n = sum C(n,i) C(i,j) a_i b_{n-j}.

    The characteristic polynomial is the composed Newton operation of the
    operands' characteristic polynomials.  The terms are a Hadamard
    product between root shifts, as in
    :func:`~recseq.polymat._product_values`.
    """
    return _product("newton", a, b, composed_newton)


def _transformed(a: LinRec, s: int) -> LinRec:
    """a with every root plus s: b_n = sum_i C(n,i) s^(n-i) a_i, the shifted binomial transform B_s.

    With lam and delta those of a, the scaled recurrence of a
    (:func:`_scaled_recurrence`) has lam times a's roots.  Shifted by
    s lam (:func:`~recseq.polymat._shifted`), it has lam times b's roots
    and starts from the integers delta lam^n b_n.  So the charpoly is
    unscaled by lam and the initial values by delta and lam.  O(N^2) for
    order N.
    """
    ring = a.ring
    lam, delta = _denominator_lcm(a.charpoly.values), _denominator_lcm(a.initial_values)
    cs, zs = _shifted(*_scaled_recurrence(a, lam, delta), s * lam, ring.modulus)
    return LinRec._of(Poly._of(ring, [*_unscaled(ring, cs[::-1], 1, lam)][::-1]), _unscaled(ring, zs, delta, lam))


def binomial_transform(a: LinRec) -> LinRec:
    """a -> a Hurwitz 1, i.e. b_n = sum_i C(n,i) a_i; also named ``newton_to_hadamard``.

    This is psi^-1: termwise it carries Newton products onto Hadamard
    products and preserves sums.  Every root of a plus 1
    (:func:`_transformed`); ``hurwitz(a, ones(a.ring))`` gives the same
    sequence.
    """
    return _transformed(a, 1)


def inverse_binomial_transform(a: LinRec) -> LinRec:
    """a -> a Hurwitz e with e = ((-1)^n); also named ``hadamard_to_newton``.

    This is psi, the isomorphism of the Hadamard algebra onto the Newton
    algebra, and the inverse of the binomial transform psi^-1: termwise
    it turns Hadamard products into Newton products and preserves sums.
    Every root of a minus 1 (:func:`_transformed`);
    ``hurwitz(a, alternating_ones(a.ring))`` gives the same sequence.
    """
    return _transformed(a, -1)


hadamard_to_newton = inverse_binomial_transform
newton_to_hadamard = binomial_transform


def newton_via_decomposition(a: LinRec, b: LinRec) -> LinRec:
    """The Newton product as psi(psi^-1(a) Hadamard psi^-1(b)), a second route to :func:`newton`.

    Both routes reach :func:`~recseq.polymat._shifted`: here psi^-1 and
    psi shift the roots by +1 and -1 (:func:`_transformed`), and
    :func:`newton` shifts its operands' roots by lam.  They differ in the
    charpoly rule, :func:`~recseq.polymat.composed_product` between two
    Taylor shifts here and :func:`~recseq.polymat.composed_newton` there,
    and in the last step, a shift by -1 here and B_(-lam^2) of the
    termwise products there.  The direct oracles of :mod:`recseq.verify`,
    which share no code with either, remain the independent check.
    """
    return hadamard_to_newton(hadamard(newton_to_hadamard(a), newton_to_hadamard(b)))


def _unit_inverses(a: LinRec, k: int):
    """1 / d_t for t < k, d_t = sum_s C(t,s) a_s the binomial transform of the terms.

    A generator that raises :class:`NotInvertible` at the first d_t that
    is not a unit.  d is :func:`binomial_transform` of a, and the d_t are
    read chunk by chunk from the unroll of its scaled recurrence
    (:func:`_scaled_recurrence`), the integers delta lam^t d_t with lam
    and delta those of d, which divide a's; each is divided and checked
    as it is reached, so a failure at index t unrolls
    O(t + ``kernels.CHUNK``) terms whatever ``k`` is, and makes no ring
    value past it.
    """
    ring, d = a.ring, binomial_transform(a)
    lam, delta = _denominator_lcm(d.charpoly.values), _denominator_lcm(d.initial_values)
    zs = chain.from_iterable(recurrence_chunks(*_scaled_recurrence(d, lam, delta), k, ring.modulus))
    for t, v in enumerate(_unscaled(ring, zs, delta, lam)):
        r = ring.unit_inverse(v)
        if r is None:
            raise NotInvertible(t, RingElem(ring, v))
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
    inverses = list(_unit_inverses(a, k))
    alternating = [(-1) ** j for j in range(k)]
    raw = binomial_convolution_values(inverses, alternating, ring.modulus)
    return [RingElem(ring, b) for b in raw]
