"""Polynomials and dense matrices over an exact ring.

Provides companion matrices, Kronecker constructions, a division-free
characteristic polynomial (Berkowitz), Sylvester resultants, and the three
composed operations on monic polynomials:

* :func:`composed_product` -- roots multiply (closes the Hadamard product),
* :func:`composed_sum` -- roots add (closes the Hurwitz product),
* :func:`composed_newton` -- roots combine as a + b + a*b (closes the
  Newton product).

The composed operations never build a matrix.  Newton's identities give
the power sums of each operand's roots, and the power sums of the roots
of p form the linear recurrent sequence with characteristic polynomial p.
So the product that the composed operation closes, applied to the two
power-sum sequences, gives the power sums of the combined roots: the
Hadamard, Hurwitz or Newton loop of :mod:`recseq.kernels`, the same loop
that gives a product's initial conditions.  Newton's identities run
backwards recover the polynomial (Bostan, Flajolet, Salvy, Schost, "Fast
computation of special resultants", 2006).  That is O(D^2) coefficient
operations for D = deg p * deg q.  The Kronecker constructions with
Berkowitz, and :func:`resultant_shift`, compute the same polynomials
independently and serve as cross-checks.

Everything works over any of the supported commutative rings, including
Z/m with composite m: no division by a ring element ever happens.  The
composed operations run one integer core for every ring, with bounded
sizes: over Q the roots are scaled to algebraic integers and the result
scaled back; over Z the division by k <= D is exact; over Z/m the core
works modulo m times the m-part of D!, so each division by k is exact
on the part of k that shares primes with m and an inverse on the rest
(see :func:`_root_power_sums` and :func:`_composed`).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul

from .kernels import binomial_convolution_values, newton_values, termwise_values
from .ring import RingElem, RingMismatch, RingSpec, binom, int_scale

NEG_INFINITY = float("-inf")


class ZeroPolynomial(ValueError):
    """Operation undefined for the zero polynomial."""


class NotMonic(ValueError):
    """A monic polynomial was required."""


class DegreeZero(ValueError):
    """A polynomial of degree >= 1 was required."""


class Poly:
    """Dense polynomial over a ring, coefficients stored low-to-high.

    Canonical form: no trailing zero coefficients; the zero polynomial has
    an empty coefficient tuple and degree ``NEG_INFINITY``.  ``str()``
    produces the CLI list syntax, e.g. ``[-1,-1,1]`` for t^2 - t - 1.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: RingSpec, coeffs):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, RingElem):
                raise TypeError("polynomial coefficients must be RingElem")
            if c.ring != ring:
                raise RingMismatch(f"coefficient from {c.ring} in a {ring} polynomial")
        while cs and cs[-1].value == 0:
            cs.pop()
        self.ring = ring
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, ring: RingSpec, ints) -> "Poly":
        """Build from a low-to-high list of plain integers."""
        return cls(ring, [ring.from_int(i) for i in ints])

    @property
    def degree(self):
        """Degree, or ``NEG_INFINITY`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].value == 1

    def coeff(self, i: int) -> RingElem:
        """Coefficient of t^i (zero beyond the degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero

    def scale(self, x: RingElem) -> "Poly":
        if x.ring != self.ring:
            raise RingMismatch(f"scalar from {x.ring} on a {self.ring} polynomial")
        return Poly(self.ring, [x * c for c in self.coeffs])

    def reciprocal(self) -> "Poly":
        """The reflected polynomial t^deg(p) * p(1/t): coefficients reversed."""
        if self.is_zero():
            raise ZeroPolynomial("the zero polynomial has no reciprocal")
        return Poly(self.ring, reversed(self.coeffs))

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if self.ring != other.ring:
            raise RingMismatch(f"cannot combine polynomials over {self.ring} and {other.ring}")
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.ring, out)

    def __neg__(self):
        return Poly(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if self.ring != other.ring:
            raise RingMismatch(f"cannot combine polynomials over {self.ring} and {other.ring}")
        if self.is_zero() or other.is_zero():
            return Poly(self.ring, [])
        zero = self.ring.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.value == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.ring, out)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __str__(self):
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"Poly({self.ring}, {self})"


class Matrix:
    """Immutable dense square matrix over a ring."""

    __slots__ = ("ring", "n", "entries")

    def __init__(self, ring: RingSpec, rows):
        entries = tuple(tuple(row) for row in rows)
        n = len(entries)
        if n == 0:
            raise ValueError("matrices must have dimension >= 1")
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for e in row:
                if not isinstance(e, RingElem):
                    raise TypeError("matrix entries must be RingElem")
                if e.ring != ring:
                    raise RingMismatch(f"entry from {e.ring} in a {ring} matrix")
        self.ring = ring
        self.n = n
        self.entries = entries

    @classmethod
    def identity(cls, ring: RingSpec, n: int) -> "Matrix":
        one, zero = ring.one, ring.zero
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring != other.ring:
            raise RingMismatch(f"cannot combine matrices over {self.ring} and {other.ring}")
        if self.n != other.n:
            raise ValueError("matrix dimensions differ")
        return Matrix(
            self.ring,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring != other.ring:
            raise RingMismatch(f"cannot combine matrices over {self.ring} and {other.ring}")
        if self.n != other.n:
            raise ValueError("matrix dimensions differ")
        zero = self.ring.zero
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(row)
        return Matrix(self.ring, rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.ring == other.ring and self.entries == other.entries

    def __hash__(self):
        return hash((self.ring, self.entries))

    def __str__(self):
        return "[" + ",".join("[" + ",".join(str(e) for e in row) + "]" for row in self.entries) + "]"

    def __repr__(self):
        return f"Matrix({self.ring}, {self})"


def _require_charpoly_operand(p: Poly) -> None:
    if not p.is_monic():
        raise NotMonic(f"expected a monic polynomial, got {p}")
    if len(p.coeffs) < 2:
        raise DegreeZero("expected degree >= 1")


def companion(p: Poly) -> Matrix:
    """Companion matrix of a monic polynomial of degree >= 1.

    Convention: ones on the subdiagonal, negated coefficients of p in the
    last column, so e.g. t^2 - t - 1 maps to [[0,1],[1,1]].
    """
    _require_charpoly_operand(p)
    d = len(p.coeffs) - 1
    ring = p.ring
    one, zero = ring.one, ring.zero
    rows = []
    for i in range(d):
        row = [zero] * d
        if i > 0:
            row[i - 1] = one
        row[d - 1] = -p.coeffs[i]
        rows.append(row)
    return Matrix(ring, rows)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: block (i, j) equals a[i][j] * b."""
    if a.ring != b.ring:
        raise RingMismatch(f"cannot combine matrices over {a.ring} and {b.ring}")
    na, nb = a.n, b.n
    rows = []
    for i in range(na):
        for r in range(nb):
            row = []
            for j in range(na):
                aij = a.entries[i][j]
                row.extend(aij * b.entries[r][s] for s in range(nb))
            rows.append(row)
    return Matrix(a.ring, rows)


def kron_sum(a: Matrix, b: Matrix) -> Matrix:
    """A (x) I + I (x) B; eigenvalues are pairwise sums."""
    if a.ring != b.ring:
        raise RingMismatch(f"cannot combine matrices over {a.ring} and {b.ring}")
    ia = Matrix.identity(a.ring, a.n)
    ib = Matrix.identity(b.ring, b.n)
    return kron(a, ib) + kron(ia, b)


def kron_newton(a: Matrix, b: Matrix) -> Matrix:
    """A (x) I + I (x) B + A (x) B; eigenvalues combine as x + y + x*y."""
    return kron_sum(a, b) + kron(a, b)


def _berkowitz(rows, one, zero):
    """Division-free characteristic polynomial of a square array.

    Generic over any element type supporting +, -, * (ring elements or
    polynomials).  Returns det(tI - A) coefficients low-to-high.
    """
    n = len(rows)
    poly = [one]  # highest-degree-first during the iteration
    for k in range(1, n + 1):
        top = n - k
        col = [one, -rows[top][top]]
        if k >= 2:
            r = rows[top][top + 1 :]
            sub = [row[top + 1 :] for row in rows[top + 1 :]]
            v = [rows[i][top] for i in range(top + 1, n)]
            for j in range(k - 1):
                if j > 0:
                    v = [_dot(sub_row, v, zero) for sub_row in sub]
                col.append(-_dot(r, v, zero))
        new = []
        plen = len(poly)
        for i in range(k + 1):
            acc = zero
            lo = max(0, i - k)
            hi = min(i, plen - 1)
            for j in range(lo, hi + 1):
                acc = acc + col[i - j] * poly[j]
            new.append(acc)
        poly = new
    poly.reverse()
    return poly


def _dot(xs, ys, zero):
    acc = zero
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def charpoly(m: Matrix) -> Poly:
    """Monic characteristic polynomial det(tI - M) by Berkowitz, division-free.

    One generic path over ring elements for every ring.  The products no
    longer need it (see :func:`_composed`); it is the cross-check for the
    composed operations, on the Kronecker matrices.
    """
    rows = [list(row) for row in m.entries]
    return Poly(m.ring, _berkowitz(rows, m.ring.one, m.ring.zero))


def _power_sums(cs, count: int, modulus: int | None) -> list:
    """Power sums s_0..s_{count-1} of the roots of a monic polynomial.

    ``cs`` are integer coefficients c_0..c_d low-to-high (c_d = 1).
    Newton's identities, division-free:
    s_k = -(k c_{d-k} + sum_{i=1}^{min(k-1,d)} c_{d-i} s_{k-i}), where the
    first term is dropped once k > d.  With a ``modulus`` every s_k is
    reduced.
    """
    d = len(cs) - 1
    high = cs[-2::-1]  # high[i - 1] = c_{d-i}
    s = [d]
    for k in range(1, count):
        acc = sum(map(mul, high, reversed(s)))
        if k <= d:
            acc += (k - d) * high[k - 1]  # the sum used s_0 = d where k belongs
        s.append(-acc % modulus if modulus else -acc)
    return s


def _split_by_modulus(k: int, m: int) -> tuple[int, int]:
    """k = k2 * k1 where every prime of k2 divides m and gcd(k1, m) = 1."""
    k2, g = 1, gcd(k, m)
    while g > 1:
        k //= g
        k2 *= g
        g = gcd(k, m)
    return k2, k


def _scaled_values(p: Poly, lam: int) -> list:
    """Integer coefficients of lam^d p(t / lam); ``lam`` clears every denominator."""
    d = len(p.coeffs) - 1
    return [c.value.numerator * (lam ** (d - j) // c.value.denominator) for j, c in enumerate(p.coeffs)]


def _root_power_sums(p: Poly, q: Poly):
    """``(xs, ys, lam, modulus)``: the power sums s_0..s_D of lam a and of lam b.

    a runs over the roots of p, b over those of q, D = deg p * deg q.
    These are what a product's loop in :mod:`recseq.kernels` combines
    into the power sums of the combined roots; :func:`_composed` turns
    those back into the polynomial.  One integer core serves every ring:

    * Over Q the roots are scaled to algebraic integers: with lam the
      lcm of all coefficient denominators, the power sums are those of
      lam^d p(t/lam) and lam^d q(t/lam), whose roots are lam a and lam b.
      Over Z and Z/m, lam = 1.
    * Over Z/m the residues are lifted and everything runs modulo
      M = m * P, P the m-part of D! (see :func:`_composed`).  For a prime
      m > D, M = m.  Over Z and Q, ``modulus`` is None.
    """
    _require_charpoly_operand(p)
    _require_charpoly_operand(q)
    ring = p.ring
    if ring != q.ring:
        raise RingMismatch(f"cannot combine polynomials over {ring} and {q.ring}")
    count = (len(p.coeffs) - 1) * (len(q.coeffs) - 1) + 1
    lam = lcm(*(c.value.denominator for c in p.coeffs + q.coeffs))
    m = ring.modulus
    modulus = None if m is None else m * _split_by_modulus(factorial(count - 1), m)[0]
    xs = _power_sums(_scaled_values(p, lam), count, modulus)
    ys = _power_sums(_scaled_values(q, lam), count, modulus)
    return xs, ys, lam, modulus


def _composed(ring: RingSpec, sums, mu: int, modulus: int | None) -> Poly:
    """Monic polynomial over ``ring`` with root power sums ``sums``, roots divided by ``mu``.

    Newton's identities in reverse, k c_{D-k} = -sum_{i=1}^k c_{D-k+i} S_i:

    * Over Z the division by k is exact.
    * Over Z/m, ``sums`` are reduced modulo M = m * P (from
      :func:`_root_power_sums`).  Each k <= D splits as k = k2 k1, where
      the primes of k2 divide m and k1 is a unit mod m; P = prod k2.
      Dividing by k then drops the factor k2 from the modulus (the
      division is exact on the lift) and multiplies by the inverse of
      k1, so the modulus shrinks step by step and ends at m.
    * Over Q the combined roots are mu times the wanted ones (mu a power
      of the scale lam), so c_{D-k} is the core's coefficient over mu^k.
    """
    m = ring.modulus
    high = [1]  # high[j] = coefficient of t^(D-j)
    tail = sums[1:]
    for k in range(1, len(sums)):
        acc = -sum(map(mul, reversed(high), tail))
        if modulus is None:
            high.append(acc // k)
        else:
            k2, k1 = _split_by_modulus(k, m)
            acc %= modulus
            modulus //= k2
            c = acc // k2
            high.append(c * pow(k1, -1, modulus) % modulus if k1 > 1 else c)
    if mu != 1:
        high = [Fraction(c, mu**k) for k, c in enumerate(high)]
    return Poly(ring, [RingElem(ring, c) for c in reversed(high)])


def composed_product(p: Poly, q: Poly) -> Poly:
    """Monic polynomial whose roots are the pairwise products of roots.

    Its root power sums are the termwise products of those of p and q:
    the Hadamard loop on the power sums.  Equals the characteristic
    polynomial of the Kronecker product of the companion matrices; closes
    the Hadamard product of sequences.  Identity: t - 1.
    """
    xs, ys, lam, modulus = _root_power_sums(p, q)
    return _composed(p.ring, termwise_values(mul, xs, ys, modulus), lam * lam, modulus)


def composed_sum(p: Poly, q: Poly) -> Poly:
    """Monic polynomial whose roots are the pairwise sums of roots.

    Its root power sums are the binomial convolution
    S_k = sum_i C(k,i) s_i(p) s_{k-i}(q): the Hurwitz loop on the power
    sums.  Equals the characteristic polynomial of the Kronecker sum of
    the companion matrices and :func:`resultant_shift`; closes the Hurwitz
    product of sequences.  Identity: t.
    """
    xs, ys, lam, modulus = _root_power_sums(p, q)
    return _composed(p.ring, binomial_convolution_values(xs, ys, modulus), lam, modulus)


def composed_newton(p: Poly, q: Poly) -> Poly:
    """Monic polynomial with roots a + b + a*b over pairs of roots a, b.

    Its root power sums come from the Newton loop on the power sums.  On
    the scaled roots lam a, lam b it runs with root shift lam, which gives
    the power sums of lam^2 (a + b + a*b).  Equals the characteristic
    polynomial of A (x) I + I (x) B + A (x) B; closes the Newton product
    of sequences.  Identity: t.
    """
    xs, ys, lam, modulus = _root_power_sums(p, q)
    return _composed(p.ring, newton_values(xs, ys, modulus, lam), lam * lam, modulus)


def _sylvester_rows(f_desc, g_desc, zero):
    """Sylvester matrix rows from high-to-low coefficient lists."""
    deg_f = len(f_desc) - 1
    deg_g = len(g_desc) - 1
    dim = deg_f + deg_g
    rows = []
    for i in range(deg_g):
        row = [zero] * dim
        row[i : i + deg_f + 1] = f_desc
        rows.append(row)
    for i in range(deg_f):
        row = [zero] * dim
        row[i : i + deg_g + 1] = g_desc
        rows.append(row)
    return rows


def _det(rows, one, zero):
    """Division-free determinant via the Berkowitz constant term."""
    n = len(rows)
    coeffs = _berkowitz(rows, one, zero)
    det = coeffs[0]  # det(-A) = (-1)^n det(A)
    return det if n % 2 == 0 else -det


def resultant(f: Poly, g: Poly) -> RingElem:
    """Resultant of two monic polynomials: the product of root differences.

    Computed as the Sylvester determinant, evaluated division-free so it
    stays valid when the ring is not a domain.
    """
    _require_charpoly_operand(f)
    _require_charpoly_operand(g)
    ring = f.ring
    if ring != g.ring:
        raise RingMismatch(f"cannot combine polynomials over {ring} and {g.ring}")
    f_desc = list(reversed(f.coeffs))
    g_desc = list(reversed(g.coeffs))
    rows = _sylvester_rows(f_desc, g_desc, ring.zero)
    return _det(rows, ring.one, ring.zero)


def resultant_shift(p: Poly, q: Poly) -> Poly:
    """Eliminate x from p(x) and q(t - x); equals :func:`composed_sum`.

    q(t - x) is expanded as a polynomial in x with coefficients in R[t]
    and the Sylvester determinant is taken over R[t].  Its leading
    coefficient in t is +-1; the result is normalized to monic.
    """
    _require_charpoly_operand(p)
    _require_charpoly_operand(q)
    ring = p.ring
    if ring != q.ring:
        raise RingMismatch(f"cannot combine polynomials over {ring} and {q.ring}")
    deg_p = len(p.coeffs) - 1
    deg_q = len(q.coeffs) - 1
    zero_poly = Poly(ring, [])
    one_poly = Poly(ring, [ring.one])

    # x^j coefficient of q(t - x): (-1)^j * sum_i C(i+j, j) q_{i+j} t^i
    g_by_xdeg = []
    for j in range(deg_q + 1):
        sign = -1 if j % 2 else 1
        cs = [int_scale(sign * binom(i + j, j), q.coeffs[i + j]) for i in range(deg_q - j + 1)]
        g_by_xdeg.append(Poly(ring, cs))

    f_desc = [Poly(ring, [c]) for c in reversed(p.coeffs)]
    g_desc = list(reversed(g_by_xdeg))
    rows = _sylvester_rows(f_desc, g_desc, zero_poly)
    det = _det(rows, one_poly, zero_poly)

    if det.degree != deg_p * deg_q:
        raise ArithmeticError("shifted resultant has unexpected degree")
    lead = det.coeffs[-1]
    if lead.value == 1:
        return det
    if (-lead).value == 1:
        return -det
    raise ArithmeticError("shifted resultant has a non-unit leading coefficient")
