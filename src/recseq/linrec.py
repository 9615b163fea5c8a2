"""Linear recurrent sequences and their closed product algebra.

A :class:`LinRec` is a monic characteristic polynomial plus matching
initial conditions; term generation unrolls the recurrence exactly.  The
five products (termwise sum, Hadamard, Cauchy, Hurwitz, Newton) each
return a new :class:`LinRec` whose characteristic polynomial comes from
the polynomial product or the composed operations in :mod:`recseq.polymat`
and whose initial conditions come from the convolution formulas.

Term unrolling, the convolutions, the binomial transforms and the Newton
inverse all run on raw values in :mod:`recseq.kernels`, one loop for
every ring; results are wrapped as :class:`~recseq.ring.RingElem` once,
on the way out.

>>> from recseq.ring import QQ
>>> from recseq.polymat import Poly
>>> fib = LinRec(Poly.from_ints(QQ, [-1, -1, 1]), [QQ.zero, QQ.one])
>>> [t.value for t in fib.terms(7)]
[Fraction(0, 1), Fraction(1, 1), Fraction(1, 1), Fraction(2, 1), Fraction(3, 1), Fraction(5, 1), Fraction(8, 1)]
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernels import binomial_convolution_values, binomial_transform_values, cauchy_values, recurrence_values
from .polymat import DegreeZero, NotMonic, Poly, composed_newton, composed_product, composed_sum
from .ring import RingElem, RingMismatch, RingSpec

DEFAULT_PREFIX = 30


class InvariantError(ValueError):
    """Sequence data violates a structural invariant."""


class NotInvertible(ArithmeticError):
    """No Newton inverse exists; carries the first failing index."""

    def __init__(self, index: int, value: RingElem):
        super().__init__(f"binomial-transform value at index {index} is not a unit: {value}")
        self.index = index
        self.value = value


class LinRec:
    """A linear recurrent sequence: ring, monic charpoly, initial terms.

    With p(t) = t^N - h_1 t^{N-1} - ... - h_N, terms satisfy
    a_n = sum_{i=1..N} h_i a_{n-i} for all n >= N.
    """

    __slots__ = ("ring", "charpoly", "initial")

    def __init__(self, charpoly: Poly, initial):
        if not charpoly.is_monic():
            raise NotMonic(f"characteristic polynomial must be monic, got {charpoly}")
        order = len(charpoly.coeffs) - 1
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
        self.ring = charpoly.ring
        self.charpoly = charpoly
        self.initial = init

    @property
    def order(self) -> int:
        return len(self.charpoly.coeffs) - 1

    def recurrence_coeffs(self) -> list[RingElem]:
        """[h_1, ..., h_N] with a_n = sum h_i a_{n-i}."""
        cs = self.charpoly.coeffs
        order = len(cs) - 1
        return [-cs[order - i] for i in range(1, order + 1)]

    def terms(self, k: int) -> list[RingElem]:
        """The first ``k`` terms, exactly."""
        if k < 0:
            raise ValueError("term count must be >= 0")
        if k <= self.order:
            return list(self.initial[:k])
        hs = _values(self.recurrence_coeffs())
        return _wrap(self.ring, recurrence_values(hs, _values(self.initial), k, self.ring.modulus))

    def __add__(self, other):
        if not isinstance(other, LinRec):
            return NotImplemented
        return seq_sum(self, other)

    def __eq__(self, other):
        if not isinstance(other, LinRec):
            return NotImplemented
        return self.charpoly == other.charpoly and self.initial == other.initial

    def __hash__(self):
        return hash((self.charpoly, self.initial))

    def __str__(self):
        init = ",".join(str(a) for a in self.initial)
        return f"ring={self.ring};p={self.charpoly};init=[{init}]"

    def __repr__(self):
        return f"LinRec({self})"


class TermStream:
    """Lazily extendable prefix of a sequence's terms.

    Backed either by a :class:`LinRec` (extendable without bound) or by a
    fixed list of precomputed terms.  ``take`` never changes terms that
    were already produced.  Streams are single-writer: do not extend one
    concurrently from several threads.
    """

    __slots__ = ("source", "ring", "_terms")

    def __init__(self, source, ring: RingSpec | None = None):
        if isinstance(source, LinRec):
            self.source = source
            self.ring = source.ring
            self._terms: list[RingElem] = []
        else:
            self.source = None
            self._terms = list(source)
            if self._terms:
                self.ring = self._terms[0].ring
            elif ring is not None:
                self.ring = ring
            else:
                raise ValueError("an empty fixed stream needs an explicit ring")

    @property
    def available(self) -> int:
        """Number of terms computed so far (fixed streams: total length)."""
        return len(self._terms)

    def take(self, k: int) -> list[RingElem]:
        """The first ``k`` terms, extending the prefix if possible."""
        if k < 0:
            raise ValueError("term count must be >= 0")
        if k > len(self._terms):
            if self.source is None:
                raise ValueError(f"fixed stream holds only {len(self._terms)} terms")
            self._terms.extend(self.source.terms(k)[len(self._terms) :])
        return self._terms[:k]


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


def _values(elems) -> list:
    return [e.value for e in elems]


def _wrap(ring: RingSpec, raw) -> list[RingElem]:
    return [RingElem(ring, v) for v in raw]


def _conv_newton(ring: RingSpec, xs, ys):
    """Newton convolution as B^-1(B(x) . B(y)), B the binomial transform.

    O(len^2) additions on raw values; residues mod m are reduced only at
    the end.
    """
    bx = binomial_transform_values(_values(xs))
    by = binomial_transform_values(_values(ys))
    return _wrap(ring, binomial_transform_values([u * v for u, v in zip(bx, by)], -1, ring.modulus))


def seq_sum(a: LinRec, b: LinRec) -> LinRec:
    """Termwise sum; characteristic polynomial p_a * p_b."""
    _require_same_ring(a, b)
    p = a.charpoly * b.charpoly
    need = len(p.coeffs) - 1
    ta, tb = a.terms(need), b.terms(need)
    return LinRec(p, [x + y for x, y in zip(ta, tb)])


def cauchy(a: LinRec, b: LinRec) -> LinRec:
    """Convolution product c_n = sum a_i b_{n-i}; charpoly p_a * p_b."""
    _require_same_ring(a, b)
    p = a.charpoly * b.charpoly
    need = len(p.coeffs) - 1
    raw = cauchy_values(_values(a.terms(need)), _values(b.terms(need)), a.ring.modulus)
    return LinRec(p, _wrap(a.ring, raw))


def hadamard(a: LinRec, b: LinRec) -> LinRec:
    """Termwise product; charpoly is the composed product of charpolys."""
    _require_same_ring(a, b)
    p = composed_product(a.charpoly, b.charpoly)
    need = len(p.coeffs) - 1
    ta, tb = a.terms(need), b.terms(need)
    return LinRec(p, [x * y for x, y in zip(ta, tb)])


def hurwitz(a: LinRec, b: LinRec) -> LinRec:
    """Binomial convolution c_n = sum C(n,i) a_i b_{n-i}.

    The characteristic polynomial is the composed sum of the operands'
    characteristic polynomials (equivalently the normalized shifted
    resultant); the initial conditions come from the direct formula.
    """
    _require_same_ring(a, b)
    p = composed_sum(a.charpoly, b.charpoly)
    need = len(p.coeffs) - 1
    raw = binomial_convolution_values(_values(a.terms(need)), _values(b.terms(need)), a.ring.modulus)
    return LinRec(p, _wrap(a.ring, raw))


def newton(a: LinRec, b: LinRec) -> LinRec:
    """Multinomial convolution c_n = sum C(n,i) C(i,j) a_i b_{n-j}."""
    _require_same_ring(a, b)
    p = composed_newton(a.charpoly, b.charpoly)
    need = len(p.coeffs) - 1
    return LinRec(p, _conv_newton(a.ring, a.terms(need), b.terms(need)))


def newton_via_decomposition(a: LinRec, b: LinRec) -> TermStream:
    """Newton product computed as [(a * 1) Hadamard (b * 1)] * e.

    Both inner products are Hurwitz products against the all-ones
    sequence, the outer one against the alternating-sign sequence; this
    is an independent route to the same terms as :func:`newton`.
    """
    _require_same_ring(a, b)
    one_seq = ones(a.ring)
    mixed = hadamard(hurwitz(a, one_seq), hurwitz(b, one_seq))
    return TermStream(hurwitz(mixed, alternating_ones(a.ring)))


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


def _transform_values(a: LinRec, depth: int) -> list[RingElem]:
    """d_t = sum_s C(t,s) a_s for t < depth: the binomial transform of the terms."""
    ring = a.ring
    return _wrap(ring, binomial_transform_values(_values(a.terms(depth)), modulus=ring.modulus))


@dataclass(frozen=True)
class InvertibilityReport:
    """Outcome of a Newton-invertibility check; truthy iff invertible."""

    invertible: bool
    first_failure: int | None
    checked: int

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
    for t, d in enumerate(_transform_values(a, depth)):
        if not d.is_unit():
            return InvertibilityReport(False, t, depth)
    return InvertibilityReport(True, None, depth)


@dataclass(frozen=True)
class InvertibilityConditions:
    """Elementwise-unit condition vs transform-unit condition, side by side.

    The two conditions coincide only in special cases; ``first_disagreement``
    is the first index where one holds and the other does not.
    """

    elements_unit: bool
    elements_first_failure: int | None
    transform_unit: bool
    transform_first_failure: int | None
    first_disagreement: int | None
    checked: int


def invertibility_conditions(a: LinRec, depth: int) -> InvertibilityConditions:
    """Report both candidate invertibility conditions over a prefix."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    terms = a.terms(depth)
    values = _transform_values(a, depth)
    elem_fail = None
    trans_fail = None
    disagree = None
    for t in range(depth):
        e_ok = terms[t].is_unit()
        d_ok = values[t].is_unit()
        if not e_ok and elem_fail is None:
            elem_fail = t
        if not d_ok and trans_fail is None:
            trans_fail = t
        if e_ok != d_ok and disagree is None:
            disagree = t
    return InvertibilityConditions(
        elements_unit=elem_fail is None,
        elements_first_failure=elem_fail,
        transform_unit=trans_fail is None,
        transform_first_failure=trans_fail,
        first_disagreement=disagree,
        checked=depth,
    )


def newton_inverse(a: LinRec, k: int) -> TermStream:
    """First ``k`` terms of the Newton-product inverse of ``a``.

    b_n = (-1)^n sum_t C(n,t) (-1)^t / d_t with d_t the binomial-transform
    values of a.  Raises :class:`NotInvertible` when some d_t is not a
    unit.  Returns a fixed prefix: no characteristic polynomial is claimed
    for the inverse.
    """
    if k < 1:
        raise ValueError("term count must be >= 1")
    ring = a.ring
    signed = []  # (-1)^t / d_t
    for t, d in enumerate(_transform_values(a, k)):
        if not d.is_unit():
            raise NotInvertible(t, d)
        r = d.inv().value
        signed.append(-r if t % 2 else r)
    # the binomial convolution with the all-ones sequence sums C(n,t) (-1)^t / d_t
    raw = binomial_convolution_values(signed, [1] * k, ring.modulus)
    return TermStream(_wrap(ring, [-b if n % 2 else b for n, b in enumerate(raw)]), ring)


def prefix_terms(x, k: int) -> list[RingElem]:
    """First ``k`` terms of a LinRec, TermStream, or plain term list."""
    if isinstance(x, LinRec):
        return x.terms(k)
    if isinstance(x, TermStream):
        return x.take(k)
    terms = list(x)
    if len(terms) < k:
        raise ValueError(f"need {k} terms, got {len(terms)}")
    return terms[:k]


def prefix_equal(a, b, length: int = DEFAULT_PREFIX) -> bool:
    """Exact equality of term prefixes of the given length."""
    return prefix_terms(a, length) == prefix_terms(b, length)
