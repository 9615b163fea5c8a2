"""Brute-force oracles and checkers.

Everything in this module recomputes results strictly from the defining
formulas, sharing nothing with the closed-form construction paths beyond
ring arithmetic and ``math.comb`` (as ``binom``).  The library holds raw
values inside :class:`~recseq.polymat.Poly` and
:class:`~recseq.linrec.LinRec`; this module computes only on ring
elements, which it gets through ``coeffs``, ``initial`` and ``terms()``.
In particular the convolutions here are written out again on purpose (no
call into the sequence product constructors or the raw-value loops of
:mod:`recseq.kernels`), and so is the polynomial arithmetic of the
determinants over R[t].

The matrix oracles live here too: dense matrices, companion matrices, the
Kronecker constructions whose characteristic polynomials are the composed
operations, the division-free Berkowitz characteristic polynomial, and
the shifted Sylvester resultant that equals the composed sum.  The
cofactor-expansion characteristic polynomial avoids the Berkowitz
routine entirely.

Checks are prefix-bounded evidence, not proofs; they are exact, so a
single nonzero coefficient or mismatched term is a hard failure.

The package does not re-export these names; import them from here.  The
CLI loads this module only for its ``verify`` and ``selftest`` verbs, so
the other verbs start without it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linrec import LinRec, NotInvertible, newton, newton_inverse, newton_via_decomposition
from .polymat import Poly, _require_charpoly_operand
from .ring import RingElem, RingMismatch, RingSpec, binom, int_scale


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification: pass/fail plus the first failure seen."""

    name: str
    passed: bool
    checked_prefix: int
    first_failure: tuple | None = None  # (index, expected, actual)

    def to_text(self) -> str:
        if self.passed:
            return f"check {self.name}: PASS (prefix={self.checked_prefix})"
        index, expected, actual = self.first_failure
        return (
            f"check {self.name}: FAIL at index {index}: "
            f"expected {expected}, got {actual} (prefix={self.checked_prefix})"
        )

    def to_dict(self) -> dict:
        failure = None
        if self.first_failure is not None:
            index, expected, actual = self.first_failure
            failure = {"index": str(index), "expected": str(expected), "actual": str(actual)}
        return {
            "name": self.name,
            "passed": self.passed,
            "checked_prefix": str(self.checked_prefix),
            "first_failure": failure,
        }


def _report(name: str, prefix: int, failure: tuple | None) -> CheckReport:
    return CheckReport(name=name, passed=failure is None, checked_prefix=prefix, first_failure=failure)


def satisfies_recurrence(terms, p: Poly, name: str = "recurrence") -> CheckReport:
    """Check that a term prefix satisfies the recurrence encoded by ``p``.

    Every index from deg(p) to the end of the prefix is tested exactly.
    """
    terms = list(terms)
    cs = p.coeffs
    order = len(cs) - 1
    if order < 0:
        raise ValueError("the zero polynomial defines no recurrence")
    if len(terms) < order:
        raise ValueError(f"need at least {order} terms, got {len(terms)}")
    hs = [-cs[order - i] for i in range(1, order + 1)]
    failure = None
    for n in range(order, len(terms)):
        acc = p.ring.zero
        for i, h in enumerate(hs):
            acc = acc + h * terms[n - 1 - i]
        if acc != terms[n]:
            failure = (n, acc, terms[n])
            break
    return _report(name, len(terms), failure)


def _check_oracle_inputs(a_terms, b_terms) -> RingSpec:
    if len(a_terms) != len(b_terms):
        raise ValueError("oracle inputs must have equal length")
    if not a_terms:
        raise ValueError("oracle inputs must be non-empty")
    ring = a_terms[0].ring
    for x in a_terms:
        if x.ring != ring:
            raise RingMismatch("mixed rings in oracle input")
    for y in b_terms:
        if y.ring != ring:
            raise RingMismatch("mixed rings in oracle input")
    return ring


def direct_product_oracle(kind: str, a_terms, b_terms) -> list[RingElem]:
    """Product prefix computed straight from the defining formulas.

    ``kind`` is one of sum, hadamard, cauchy, hurwitz, newton.  Output
    length equals the input length; the convolution sums truncate
    naturally.
    """
    a_terms = list(a_terms)
    b_terms = list(b_terms)
    ring = _check_oracle_inputs(a_terms, b_terms)
    length = len(a_terms)
    if kind == "sum":
        return [x + y for x, y in zip(a_terms, b_terms)]
    if kind == "hadamard":
        return [x * y for x, y in zip(a_terms, b_terms)]
    if kind == "cauchy":
        out = []
        for n in range(length):
            acc = ring.zero
            for i in range(n + 1):
                acc = acc + a_terms[i] * b_terms[n - i]
            out.append(acc)
        return out
    if kind == "hurwitz":
        out = []
        for n in range(length):
            acc = ring.zero
            for i in range(n + 1):
                acc = acc + int_scale(binom(n, i), a_terms[i] * b_terms[n - i])
            out.append(acc)
        return out
    if kind == "newton":
        out = []
        for n in range(length):
            acc = ring.zero
            for i in range(n + 1):
                for j in range(i + 1):
                    acc = acc + int_scale(binom(n, i) * binom(i, j), a_terms[i] * b_terms[n - j])
            out.append(acc)
        return out
    raise ValueError(f"unknown product kind {kind!r}")


def ogf_poly_check(a, extra: int = 50, p: Poly | None = None, name: str = "ogf") -> CheckReport:
    """Rationality criterion for the ordinary generating function.

    For a genuine linear recurrent sequence the product of the reflected
    characteristic polynomial with the o.g.f. is a polynomial of degree
    below deg(p); hence every product coefficient at degrees deg(p) up to
    deg(p) + extra must vanish exactly.

    ``a`` may be a :class:`LinRec` (its own charpoly is used) or a raw
    term list, in which case ``p`` must be supplied.
    """
    if extra < 1:
        raise ValueError("extra must be >= 1")
    if isinstance(a, LinRec):
        poly = a.charpoly if p is None else p
        cs = poly.coeffs
        degree = len(cs) - 1
        terms = a.terms(degree + extra + 1)
    else:
        if p is None:
            raise ValueError("a raw term list needs an explicit polynomial")
        poly = p
        cs = poly.coeffs
        degree = len(cs) - 1
        terms = list(a)
        if len(terms) < degree + extra + 1:
            raise ValueError(f"need {degree + extra + 1} terms, got {len(terms)}")
    if degree < 0:
        raise ValueError("the zero polynomial is not a characteristic polynomial")
    ring = poly.ring
    # reflected polynomial: coefficient of t^i is cs[degree - i]
    failure = None
    for k in range(degree, degree + extra + 1):
        acc = ring.zero
        for i in range(degree + 1):
            acc = acc + cs[degree - i] * terms[k - i]
        if acc.value != 0:
            failure = (k, ring.zero, acc)
            break
    return _report(name, degree + extra + 1, failure)


def _ones_terms(ring: RingSpec, k: int) -> list[RingElem]:
    return [ring.one] * k


def _alternating_terms(ring: RingSpec, k: int) -> list[RingElem]:
    one = ring.one
    return [one if n % 2 == 0 else -one for n in range(k)]


def _delta_terms(ring: RingSpec, k: int) -> list[RingElem]:
    out = [ring.zero] * k
    if k:
        out[0] = ring.one
    return out


def morphism_laws(map_terms, source_kind: str, target_kind: str, pairs, prefix: int, name: str) -> CheckReport:
    """Check the additivity and product laws of a map on term prefixes via the oracles.

    ``map_terms`` maps a term list to a term list; on every pair (a, b) it
    must carry the termwise sum to the termwise sum and the
    ``source_kind`` product to the ``target_kind`` product.  The report
    is named ``name``; :func:`morphism_check` runs it on the named maps.
    """
    failure = None
    for a, b in pairs:
        ta, tb = a.terms(prefix), b.terms(prefix)
        fa, fb = map_terms(ta), map_terms(tb)
        add_lhs = map_terms(direct_product_oracle("sum", ta, tb))
        add_rhs = direct_product_oracle("sum", fa, fb)
        mul_lhs = map_terms(direct_product_oracle(source_kind, ta, tb))
        mul_rhs = direct_product_oracle(target_kind, fa, fb)
        for n in range(prefix):
            if add_lhs[n] != add_rhs[n]:
                failure = (n, add_rhs[n], add_lhs[n])
                break
            if mul_lhs[n] != mul_rhs[n]:
                failure = (n, mul_rhs[n], mul_lhs[n])
                break
        if failure is not None:
            break
    return _report(name, prefix, failure)


def morphism_check(map_name: str, pairs, prefix: int) -> CheckReport:
    """Verify the algebra-morphism laws of the named map on term prefixes.

    ``psi`` maps through the alternating-signs Hurwitz convolution and must
    carry Hadamard products to Newton products; ``psi-inverse`` maps through
    the all-ones Hurwitz convolution and must do the reverse.  Both sides
    of every law are computed with :func:`direct_product_oracle`.
    """
    if prefix < 1:
        raise ValueError("prefix must be >= 1")
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    ring = pairs[0][0].ring
    if map_name == "psi":
        mate = _alternating_terms(ring, prefix)
        source_kind, target_kind = "hadamard", "newton"
    elif map_name == "psi-inverse":
        mate = _ones_terms(ring, prefix)
        source_kind, target_kind = "newton", "hadamard"
    else:
        raise ValueError(f"unknown morphism {map_name!r}")

    def map_terms(ts):
        return direct_product_oracle("hurwitz", ts, mate)

    return morphism_laws(map_terms, source_kind, target_kind, pairs, prefix, f"morphism-{map_name}")


def decomposition_check(a: LinRec, b: LinRec, prefix: int) -> CheckReport:
    """Compare the Newton product of ``a`` and ``b`` with its decomposition on ``prefix`` terms.

    :func:`~recseq.linrec.newton` builds the product from the composed
    Newton charpoly; :func:`~recseq.linrec.newton_via_decomposition`
    reaches it through the two binomial transforms and a Hadamard
    product.  Both routes shift roots with
    :func:`~recseq.polymat._shifted`; they differ in the charpoly rule
    and in the last step (see ``newton_via_decomposition``).  So this
    check is not independent of the fast path: the direct oracles of
    this module, such as :func:`direct_product_oracle`, are.  A failure
    names the decomposition's term as expected and the direct product's
    as actual.
    """
    direct = newton(a, b).terms(prefix)
    composed = newton_via_decomposition(a, b).terms(prefix)
    failure = None
    for n in range(prefix):
        if direct[n] != composed[n]:
            failure = (n, composed[n], direct[n])
            break
    return _report("newton-decomposition", prefix, failure)


def inverse_check(a: LinRec, k: int) -> CheckReport:
    """Cross-validate the Newton inverse of ``a`` on ``k`` terms.

    The closed-formula inverse (production path) is compared against a
    triangular back-substitution solved here from scratch, and the Newton
    product of ``a`` with the inverse is checked against the impulse
    sequence, all via the direct formulas.  Raises :class:`NotInvertible`
    when the unit condition fails.
    """
    if k < 1:
        raise ValueError("term count must be >= 1")
    ring = a.ring
    a_terms = a.terms(k)
    formula = newton_inverse(a, k)

    # d_n = sum_s C(n,s) a_s is the coefficient of b_n in the product at
    # index n; back-substitution needs every d_n to be a unit.
    solved: list[RingElem] = []
    deltas = _delta_terms(ring, k)
    for n in range(k):
        d_n = ring.zero
        for s in range(n + 1):
            d_n = d_n + int_scale(binom(n, s), a_terms[s])
        if not d_n.is_unit():
            raise NotInvertible(n, d_n)
        known = ring.zero
        for i in range(n + 1):
            for j in range(1, i + 1):
                known = known + int_scale(binom(n, i) * binom(i, j), a_terms[i] * solved[n - j])
        solved.append(d_n.inv() * (deltas[n] - known))

    failure = None
    for n in range(k):
        if formula[n] != solved[n]:
            failure = (n, solved[n], formula[n])
            break
    if failure is None:
        product = direct_product_oracle("newton", a_terms, formula)
        for n in range(k):
            if product[n] != deltas[n]:
                failure = (n, deltas[n], product[n])
                break
    return _report("newton-inverse", k, failure)


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
    ring = p.ring
    if ring != q.ring:
        raise RingMismatch(f"cannot combine polynomials over {ring} and {q.ring}")
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
