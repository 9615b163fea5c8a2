"""Polynomials over an exact ring and the three composed operations.

A :class:`Poly` holds its coefficients as raw values (see
:mod:`recseq.kernels`); ``coeffs`` gives them as ring elements.  ``+``,
``-`` and ``*`` run the sum and Cauchy loops on integers: over Q both
operands are scaled by the lcm of their denominators, and each
coefficient of the result is divided once, into one ``Fraction``.  The
composed operations take monic polynomials:

* :func:`composed_product` -- roots multiply (closes the Hadamard product),
* :func:`composed_sum` -- roots add (closes the Hurwitz product),
* :func:`composed_newton` -- roots combine as a + b + a*b (closes the
  Newton product).

The composed operations never build a matrix.  Newton's identities give
the power sums of each operand's roots, and the power sums of the roots
of p form the linear recurrent sequence with characteristic polynomial p.
So the product that the composed operation closes, applied to the two
power-sum sequences, gives the power sums of the combined roots.
:func:`_product_values` is the one copy of each product's arithmetic on
integer recurrences, the Newton product's root shifts included: it gives
the power sums here and a product's initial conditions in
:mod:`recseq.linrec`, and ``_SCALES`` records each product's output
scale.  Newton's identities run backwards recover the polynomial
(Bostan, Flajolet, Salvy, Schost, "Fast computation of special
resultants", 2006).  That is a few O(D^2) passes for D = deg p * deg q.
The oracles that compute the same polynomials independently -- the
Kronecker constructions on companion matrices with Berkowitz, and
:func:`~recseq.matrix_oracles.resultant_shift` -- live in
:mod:`recseq.matrix_oracles`.

Everything works over any of the supported commutative rings, including
Z/m with composite m: no division by a ring element ever happens.  The
composed operations run one integer core for every ring, with bounded
sizes: over Q the roots are scaled to algebraic integers and the result
scaled back; over Z the division by k <= D is exact; over Z/m the core
works modulo m times the m-part of D!, so each division by k is exact
on the part of k that shares primes with m and an inverse on the rest.
Both parts are read off the moduli with a gcd (see :func:`_composed_by`
and :func:`_composed`).  The same scale
lam, from :func:`_denominator_lcm`, puts the products of
:mod:`recseq.linrec` on integers, and :func:`_scaled` and
:func:`_unscaled` are the two ends of that scaling everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, gcd, lcm
from operator import add, mul, sub

from .kernels import (
    binomial_convolution_values,
    binomial_transform_values,
    cauchy_values,
    recurrence_values,
    termwise_values,
)
from .ring import RingElem, RingSpec, _one_ring, _values_in

class NotMonic(ValueError):
    """A monic polynomial was required."""


class DegreeZero(ValueError):
    """A polynomial of degree >= 1 was required."""


class Poly:
    """Dense polynomial over a ring, coefficients stored low-to-high.

    ``values`` holds the coefficients as raw values in canonical form:
    ``int`` over Z, ``Fraction`` over Q, ``int`` in [0, m) over Z/m, with
    no trailing zeros, so the degree is ``len(values) - 1`` and the zero
    polynomial has an empty tuple.  ``coeffs`` builds the same
    coefficients as ring elements.  ``str()`` produces the CLI list
    syntax, e.g. ``[-1,-1,1]`` for t^2 - t - 1.
    """

    __slots__ = ("ring", "values")

    def __init__(self, ring: RingSpec, coeffs):
        self.ring = ring
        self.values = _trimmed(_values_in(ring, coeffs, "polynomial coefficients", "coefficient", "polynomial"))

    @classmethod
    def _of(cls, ring: RingSpec, values) -> "Poly":
        """From raw values already in canonical form for ``ring``; nothing is checked."""
        p = object.__new__(cls)
        p.ring = ring
        p.values = _trimmed(values)
        return p

    @classmethod
    def from_ints(cls, ring: RingSpec, ints) -> "Poly":
        """Build from a low-to-high list of plain integers."""
        return cls(ring, [ring.from_int(i) for i in ints])

    @property
    def coeffs(self) -> tuple:
        """The coefficients low-to-high as ring elements, built on each access."""
        ring = self.ring
        return tuple(RingElem(ring, v) for v in self.values)

    def is_monic(self) -> bool:
        return bool(self.values) and self.values[-1] == 1

    def _termwise(self, other, op) -> "Poly":
        _one_ring("polynomials over", self, other)
        a, b = self.values, other.values
        scale = _denominator_lcm(a + b)
        n = max(len(a), len(b))
        xs, ys = _scaled(a, scale) + [0] * (n - len(a)), _scaled(b, scale) + [0] * (n - len(b))
        zs = termwise_values(op, xs, ys, self.ring.modulus)
        return Poly._of(self.ring, _unscaled(self.ring, zs, scale))

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._termwise(other, add)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._termwise(other, sub)

    def __neg__(self):
        return Poly._of(self.ring, ()) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        _one_ring("polynomials over", self, other)
        a, b = self.values, other.values
        if not a or not b:
            return Poly._of(self.ring, ())
        scale = _denominator_lcm(a + b)
        # the Cauchy loop on operands padded to the product's length
        xs, ys = _scaled(a, scale) + [0] * (len(b) - 1), _scaled(b, scale) + [0] * (len(a) - 1)
        zs = cauchy_values(xs, ys, self.ring.modulus)
        return Poly._of(self.ring, _unscaled(self.ring, zs, scale * scale))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.values == other.values

    def __hash__(self):
        return hash((self.ring, self.values))

    def __str__(self):
        return "[" + ",".join(str(v) for v in self.values) + "]"

    def __repr__(self):
        return f"Poly({self.ring}, {self})"


def _denominator_lcm(values) -> int:
    """The lcm of the denominators of raw values: 1 over Z and Z/m."""
    return lcm(*[v.denominator for v in values])


def _scaled(values, scale: int, mu: int = 1) -> list:
    """The integers v_k * scale * mu^k; each denominator must divide its factor."""
    out = []
    for v in values:
        out.append(v.numerator * (scale // v.denominator))
        scale *= mu
    return out


def _unscaled(ring: RingSpec, zs, scale: int, mu: int = 1):
    """An iterator over the raw values z_k / (scale * mu^k) of ``ring``, from the integers of :func:`_scaled`.

    Only Q has a denominator: there each output is one ``Fraction``,
    made as the iterator reaches it.  Over Z and Z/m, scale = mu = 1 and
    ``zs`` are the values as they are.
    """
    if ring.kind != RingSpec.RATIONALS:
        return iter(zs)
    return map(Fraction, zs, accumulate(repeat(mu), mul, initial=scale))


def _trimmed(values) -> tuple:
    vs = list(values)
    while vs and vs[-1] == 0:
        vs.pop()
    return tuple(vs)


def _require_charpoly_operand(p: Poly) -> None:
    if not p.is_monic():
        raise NotMonic(f"expected a monic polynomial, got {p}")
    if len(p.values) < 2:
        raise DegreeZero("expected degree >= 1")


def _power_sums(cs, modulus: int | None) -> list:
    """Power sums s_0..s_(d-1) of the roots of a monic polynomial of degree d.

    ``cs`` are integer coefficients c_0..c_d low-to-high (c_d = 1).
    Newton's identities, division-free, give s_0 = d and
    s_k = -(k c_{d-k} + sum_{i=1}^{k-1} c_{d-i} s_{k-i}) for 0 < k < d.
    From s_d on, the power sums follow the recurrence of the polynomial
    itself, so these d are the initial values from which
    :func:`_product_values` unrolls the rest.  With a ``modulus``
    every s_k past s_0 is reduced.
    """
    d = len(cs) - 1
    high = cs[-2::-1]  # high[i - 1] = c_{d-i}
    s = [d]
    for k in range(1, d):
        acc = sum(map(mul, high, reversed(s))) + (k - d) * high[k - 1]  # the sum used s_0 = d where k belongs
        s.append(-acc % modulus if modulus else -acc)
    return s


def _scaled_values(p: Poly, lam: int) -> list:
    """Integer coefficients of lam^d p(t / lam); ``lam`` clears every denominator."""
    return _scaled(p.values[::-1], 1, lam)[::-1]


def _taylor_shift(cs, s: int) -> list:
    """Coefficients of P(t - s), low-to-high, from those of P: its roots plus ``s``.

    Horner's scheme, O(d^2) multiply-adds on integers.
    """
    cs = list(cs)
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] -= s * cs[j + 1]
    return cs


def _shifted(cs, init, shift: int, modulus: int | None) -> tuple:
    """``(cs, init)`` for the recurrence ``cs`` from ``init`` with every root plus ``shift``.

    Adding s to the roots takes the terms to their shifted binomial
    transform B_s (:func:`~recseq.kernels.binomial_transform_values`),
    again a recurrent sequence: its charpoly is ``cs`` Taylor-shifted by
    s and its first N terms are B_s of the first N, for N = len(init)
    the order.  So the shift costs O(N^2), and the caller unrolls the
    result in O(count N).  With a ``modulus`` both are reduced.  The
    Newton product shifts its operands' roots here, and
    :mod:`recseq.linrec` computes every binomial transform of a sequence
    here.
    """
    cs = _taylor_shift(cs, shift)
    return [c % modulus for c in cs] if modulus else cs, binomial_transform_values(init, shift, modulus)


# Each product's output on the scaled integers of _product_values: (i, j)
# for delta^i lam^(j n) times its n-th value
_SCALES = {"sum": (1, 1), "cauchy": (2, 1), "hadamard": (2, 2), "hurwitz": (2, 1), "newton": (2, 2)}


def _product_values(kind: str, a, b, lam: int, count: int, modulus: int | None) -> list:
    """The first ``count`` values of the product ``kind`` of two integer recurrences ``a`` and ``b``.

    ``a`` and ``b`` are ``(cs, init)`` pairs: an integer charpoly
    low-to-high and its initial values, here unrolled with
    :func:`~recseq.kernels.recurrence_values`.  ``kind`` picks the loop
    of :mod:`recseq.kernels`: termwise ``add`` (sum) or ``mul``
    (Hadamard), :func:`~recseq.kernels.cauchy_values` (Cauchy) or
    :func:`~recseq.kernels.binomial_convolution_values` (Hurwitz).  This
    is the one copy of each product's arithmetic: :mod:`recseq.linrec`
    runs it on the operands' terms, scaled to the integers
    delta lam^n a_n, for the initial conditions, and
    :func:`_composed_by` on the power sums of the scaled roots for the
    charpoly.  Either way, the n-th output is the wanted value times
    delta^i lam^(j n), with (i, j) = ``_SCALES[kind]``.

    The Newton product is the Hadamard product conjugated by the
    binomial transform, and on roots that is a shift: on the scaled
    roots, lam^2 (a + b + a*b) = (lam a + lam)(lam b + lam) - lam^2, and
    on the scaled terms c = B_(-lam^2)(B_lam(x) . B_lam(y)), with B_s
    the shifted binomial transform.  So for ``"newton"`` each operand's
    roots are shifted by lam first (:func:`_shifted`, O(N^2) for order
    N, where transforming all ``count`` values would cost O(count^2)),
    the shifted unrolls multiply termwise, and one
    :func:`~recseq.kernels.binomial_transform_values` by -lam^2 moves the
    products back.
    """
    if kind == "newton":
        a, b = _shifted(*a, lam, modulus), _shifted(*b, lam, modulus)
    xs, ys = recurrence_values(*a, count, modulus), recurrence_values(*b, count, modulus)
    if kind == "cauchy":
        return cauchy_values(xs, ys, modulus)
    if kind == "hurwitz":
        return binomial_convolution_values(xs, ys, modulus)
    zs = termwise_values(add if kind == "sum" else mul, xs, ys, modulus)
    return binomial_transform_values(zs, -lam * lam, modulus) if kind == "newton" else zs


def _composed_by(kind: str, p: Poly, q: Poly) -> Poly:
    """The monic polynomial whose roots combine those of p and q as the product ``kind`` closes.

    The power sums s_0..s_D of the combined roots, D = deg p * deg q,
    are the product ``kind`` (:func:`_product_values`) of the power sums
    of p's roots and of q's; :func:`_composed` turns them back into the
    polynomial.  Newton's identities give the first d sums of each
    operand (:func:`_power_sums`), and the recurrence of its charpoly
    unrolls the rest.  One integer core serves every ring:

    * Over Q the roots are scaled to algebraic integers: with lam the
      lcm of all coefficient denominators, the power sums are those of
      lam^d p(t/lam) and lam^d q(t/lam), whose roots are lam a and lam b.
      The combined roots are then lam^j times the wanted ones, j from
      ``_SCALES``.  Over Z and Z/m, lam = 1.
    * Over Z/m the residues are lifted and everything runs modulo
      M = m * P, P the m-part of D! (see :func:`_composed`).  P is
      gcd(D!, m^D): for each prime p of m, D * v_p(m) >= D > v_p(D!) by
      Legendre's formula, and no other prime divides m^D.  Reducing m^D
      mod D! first leaves the gcd unchanged and keeps every number below
      D!; ``m ** D`` itself would have D times the bits of m.  For a
      prime m > D, M = m.  Over Z and Q there is no modulus.
    """
    _require_charpoly_operand(p)
    _require_charpoly_operand(q)
    _one_ring("polynomials over", p, q)
    count = (len(p.values) - 1) * (len(q.values) - 1) + 1
    lam = _denominator_lcm(p.values + q.values)
    m = p.ring.modulus
    modulus = m
    if m is not None:
        f = factorial(count - 1)
        modulus = m * gcd(f, pow(m, count - 1, f))
    a, b = ((cs, _power_sums(cs, modulus)) for cs in (_scaled_values(p, lam), _scaled_values(q, lam)))
    return _composed(p.ring, _product_values(kind, a, b, lam, count, modulus), lam ** _SCALES[kind][1], modulus)


def _composed(ring: RingSpec, sums, mu: int, modulus: int | None) -> Poly:
    """Monic polynomial over ``ring`` with root power sums ``sums``, roots divided by ``mu``.

    Newton's identities in reverse, k c_{D-k} = -sum_{i=1}^k c_{D-k+i} S_i:

    * Over Z the division by k is exact.
    * Over Z/m, ``sums`` are reduced modulo M = m * P (from
      :func:`_composed_by`).  Each k <= D splits as k = k2 k1, where
      the primes of k2 divide m and k1 is a unit mod m; P = prod k2.
      Dividing by k then drops the factor k2 from the modulus (the
      division is exact on the lift) and multiplies by the inverse of
      k1, so the modulus shrinks step by step and ends at m.  At step k
      the modulus is m times the k2 of steps k..D, so it holds k2 and
      no prime outside m: k2 = gcd(k, modulus).
    * Over Q the combined roots are mu times the wanted ones (mu a power
      of the scale lam), so c_{D-k} is the core's coefficient over mu^k.

    The coefficients end in the canonical form of ``ring``: reduced mod m
    (each was reduced only modulo the multiple of m current at its step)
    and ``Fraction`` over Q.
    """
    m = ring.modulus
    high = [1]  # high[j] = coefficient of t^(D-j)
    tail = sums[1:]
    for k in range(1, len(sums)):
        acc = -sum(map(mul, reversed(high), tail))
        if modulus is None:
            high.append(acc // k)
        else:
            k2 = gcd(k, modulus)
            acc %= modulus
            modulus //= k2
            c = acc // k2
            high.append(c * pow(k // k2, -1, modulus) % modulus if k > k2 else c)
    if m is not None:
        high = [c % m for c in high]
    return Poly._of(ring, [*_unscaled(ring, high, 1, mu)][::-1])


def composed_product(p: Poly, q: Poly) -> Poly:
    """Monic polynomial whose roots are the pairwise products of roots.

    Its root power sums are the termwise products of those of p and q:
    the Hadamard loop on the power sums.  Equals the characteristic
    polynomial of the Kronecker product of the companion matrices; closes
    the Hadamard product of sequences.  Identity: t - 1.
    """
    return _composed_by("hadamard", p, q)


def composed_sum(p: Poly, q: Poly) -> Poly:
    """Monic polynomial whose roots are the pairwise sums of roots.

    Its root power sums are the binomial convolution
    S_k = sum_i C(k,i) s_i(p) s_{k-i}(q): the Hurwitz loop on the power
    sums.  Equals the characteristic polynomial of the Kronecker sum of
    the companion matrices and :func:`~recseq.matrix_oracles.resultant_shift`;
    closes the Hurwitz product of sequences.  Identity: t.
    """
    return _composed_by("hurwitz", p, q)


def composed_newton(p: Poly, q: Poly) -> Poly:
    """Monic polynomial with roots a + b + a*b over pairs of roots a, b.

    Its root power sums are the Newton product of those of p and q, a
    Hadamard product between root shifts (see :func:`_product_values`).
    Equals the characteristic polynomial of A (x) I + I (x) B + A (x) B;
    closes the Newton product of sequences.  Identity: t.
    """
    return _composed_by("newton", p, q)
