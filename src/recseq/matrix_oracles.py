"""The matrix oracles: the composed operations through matrices and determinants.

The composed operations of :mod:`recseq.polymat` run on power sums of
roots.  This module reaches the same polynomials another way, on ring
elements only: dense matrices (:class:`Matrix`), companion matrices, the
Kronecker constructions whose characteristic polynomials are the
composed operations (:func:`kron` for the composed product,
:func:`kron_sum` for the composed sum, :func:`kron_newton` for the
composed Newton operation), the division-free Berkowitz characteristic
polynomial (:func:`charpoly`), and the shifted Sylvester resultant that
equals the composed sum (:func:`resultant_shift`).  The
cofactor-expansion characteristic polynomial (:func:`charpoly_cofactor`)
avoids the Berkowitz routine entirely.  As in :mod:`recseq.verify`, the
arithmetic is written out again on purpose: nothing here calls a loop
of :mod:`recseq.kernels`, and the determinants over R[t] compute on
:class:`_Rt`, not on :class:`~recseq.polymat.Poly`.  Beyond ring
arithmetic, the oracles share only the ring's input checks with the
library: :mod:`recseq.ring` owns the agreement of operands and the
membership of a matrix's entries.

``recseq selftest`` and the tests cross-check the composed operations
against these constructions; no check of ``recseq verify`` runs them, so
the CLI loads this module only for ``selftest``.  The package does not
re-export these names, and neither does :mod:`recseq.verify`; import
them from here.
"""

from __future__ import annotations

from .polymat import Poly, _require_charpoly_operand
from .ring import RingSpec, _one_ring, _values_in, binom, int_scale


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
            _values_in(ring, row, "matrix entries", "entry", "matrix")
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
        _one_ring("matrices over", self, other)
        if self.n != other.n:
            raise ValueError("matrix dimensions differ")
        return Matrix(
            self.ring,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

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


def companion(p: Poly) -> Matrix:
    """Companion matrix of a monic polynomial of degree >= 1.

    Convention: ones on the subdiagonal, negated coefficients of p in the
    last column, so e.g. t^2 - t - 1 maps to [[0,1],[1,1]].
    """
    _require_charpoly_operand(p)
    cs = p.coeffs
    d = len(cs) - 1
    ring = p.ring
    one, zero = ring.one, ring.zero
    rows = []
    for i in range(d):
        row = [zero] * d
        if i > 0:
            row[i - 1] = one
        row[d - 1] = -cs[i]
        rows.append(row)
    return Matrix(ring, rows)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: block (i, j) equals a[i][j] * b."""
    ring = _one_ring("matrices over", a, b)
    na, nb = a.n, b.n
    rows = []
    for i in range(na):
        for r in range(nb):
            row = []
            for j in range(na):
                aij = a.entries[i][j]
                row.extend(aij * b.entries[r][s] for s in range(nb))
            rows.append(row)
    return Matrix(ring, rows)


def kron_sum(a: Matrix, b: Matrix) -> Matrix:
    """A (x) I + I (x) B; eigenvalues are pairwise sums."""
    ring = _one_ring("matrices over", a, b)
    ia = Matrix.identity(ring, a.n)
    ib = Matrix.identity(ring, b.n)
    return kron(a, ib) + kron(ia, b)


def kron_newton(a: Matrix, b: Matrix) -> Matrix:
    """A (x) I + I (x) B + A (x) B; eigenvalues combine as x + y + x*y."""
    return kron_sum(a, b) + kron(a, b)


def _berkowitz(rows, one, zero):
    """Division-free characteristic polynomial of a square array.

    Generic over any element type supporting +, unary - and * (ring
    elements, or the :class:`_Rt` polynomials of the determinants over
    R[t]).  Returns det(tI - A) coefficients low-to-high.
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
    longer need it (see :func:`recseq.polymat._composed`); it is the
    cross-check for the
    composed operations, on the Kronecker matrices.
    """
    rows = [list(row) for row in m.entries]
    return Poly(m.ring, _berkowitz(rows, m.ring.one, m.ring.zero))


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


def resultant_shift(p: Poly, q: Poly) -> Poly:
    """Eliminate x from p(x) and q(t - x); equals :func:`~recseq.polymat.composed_sum`.

    q(t - x) is expanded as a polynomial in x with coefficients in R[t]
    and the Sylvester determinant is taken over R[t].  Its leading
    coefficient in t is +-1; the result is normalized to monic.
    """
    _require_charpoly_operand(p)
    _require_charpoly_operand(q)
    ring = _one_ring("polynomials over", p, q)
    p_cs, q_cs = p.coeffs, q.coeffs
    deg_p = len(p_cs) - 1
    deg_q = len(q_cs) - 1

    # x^j coefficient of q(t - x): (-1)^j * sum_i C(i+j, j) q_{i+j} t^i
    g_by_xdeg = []
    for j in range(deg_q + 1):
        sign = -1 if j % 2 else 1
        g_by_xdeg.append(_Rt([int_scale(sign * binom(i + j, j), q_cs[i + j]) for i in range(deg_q - j + 1)]))

    f_desc = [_Rt([c]) for c in reversed(p_cs)]
    g_desc = list(reversed(g_by_xdeg))
    zero = _Rt([])
    det = _det(_sylvester_rows(f_desc, g_desc, zero), _Rt([ring.one]), zero)

    if len(det.cs) - 1 != deg_p * deg_q:
        raise ArithmeticError("shifted resultant has unexpected degree")
    lead = det.cs[-1]
    if lead == ring.one:
        return Poly(ring, det.cs)
    if -lead == ring.one:
        return Poly(ring, (-det).cs)
    raise ArithmeticError("shifted resultant has a non-unit leading coefficient")


class _Rt:
    """An element of R[t]: ring elements low-to-high, no trailing zeros.

    The determinants over R[t] of :func:`resultant_shift` and
    :func:`charpoly_cofactor` compute on these.  Their ``+``, unary ``-``
    and ``*`` are written out over ring elements, while
    :class:`~recseq.polymat.Poly` arithmetic runs the kernels.
    """

    __slots__ = ("cs",)

    def __init__(self, cs):
        cs = list(cs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.cs = cs

    def __add__(self, other):
        a, b = (self.cs, other.cs) if len(self.cs) >= len(other.cs) else (other.cs, self.cs)
        return _Rt([x + y for x, y in zip(a, b)] + a[len(b) :])

    def __neg__(self):
        return _Rt([-x for x in self.cs])

    def __mul__(self, other):
        if not self.cs or not other.cs:
            return _Rt([])
        out = [self.cs[0].ring.zero] * (len(self.cs) + len(other.cs) - 1)
        for i, x in enumerate(self.cs):
            for j, y in enumerate(other.cs):
                out[i + j] = out[i + j] + x * y
        return _Rt(out)


def charpoly_cofactor(m: Matrix) -> Poly:
    """Characteristic polynomial by Laplace cofactor expansion.

    Exponential-time oracle for cross-checking the division-free routine;
    intended for dimensions up to 4 or so.
    """
    ring = m.ring
    t = _Rt([ring.zero, ring.one])
    rows = []
    for i in range(m.n):
        row = []
        for j in range(m.n):
            cell = -_Rt([m.entries[i][j]])
            if i == j:
                cell = cell + t
            row.append(cell)
        rows.append(row)
    return Poly(ring, _det_cofactor(rows).cs)


def _det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * _det_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total
