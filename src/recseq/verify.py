"""Brute-force oracles and checkers.

Everything in this module recomputes results strictly from the defining
formulas, sharing nothing with the closed-form construction paths beyond
ring arithmetic and the binomial table.  In particular the convolutions
here are written out again on purpose, over ring elements (no call into
the sequence product constructors or the raw-value loops of
:mod:`recseq.kernels`), and the cofactor-expansion
characteristic polynomial avoids the Berkowitz routine entirely.

Checks are prefix-bounded evidence, not proofs; they are exact, so a
single nonzero coefficient or mismatched term is a hard failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linrec import LinRec, NotInvertible, newton_inverse
from .polymat import Matrix, Poly
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
    order = len(p.coeffs) - 1
    if order < 0:
        raise ValueError("the zero polynomial defines no recurrence")
    if len(terms) < order:
        raise ValueError(f"need at least {order} terms, got {len(terms)}")
    hs = [-p.coeffs[order - i] for i in range(1, order + 1)]
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
        degree = len(poly.coeffs) - 1
        terms = a.terms(degree + extra + 1)
    else:
        if p is None:
            raise ValueError("a raw term list needs an explicit polynomial")
        poly = p
        degree = len(poly.coeffs) - 1
        terms = list(a)
        if len(terms) < degree + extra + 1:
            raise ValueError(f"need {degree + extra + 1} terms, got {len(terms)}")
    if degree < 0:
        raise ValueError("the zero polynomial is not a characteristic polynomial")
    ring = poly.ring
    # reflected polynomial: coefficient of t^i is poly.coeffs[degree - i]
    failure = None
    for k in range(degree, degree + extra + 1):
        acc = ring.zero
        for i in range(degree + 1):
            acc = acc + poly.coeffs[degree - i] * terms[k - i]
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


def _morphism_impl(map_terms, source_kind: str, target_kind: str, pairs, prefix: int, name: str) -> CheckReport:
    """Check additivity and product laws of a termwise map via the oracles."""
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
    elif map_name in ("psi-inverse", "psi_inverse"):
        mate = _ones_terms(ring, prefix)
        source_kind, target_kind = "newton", "hadamard"
    else:
        raise ValueError(f"unknown morphism {map_name!r}")

    def map_terms(ts):
        return direct_product_oracle("hurwitz", ts, mate)

    return _morphism_impl(map_terms, source_kind, target_kind, pairs, prefix, f"morphism-{map_name}")


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
    formula = newton_inverse(a, k).take(k)

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


def charpoly_cofactor(m: Matrix) -> Poly:
    """Characteristic polynomial by Laplace cofactor expansion.

    Exponential-time oracle for cross-checking the division-free routine;
    intended for dimensions up to 4 or so.
    """
    ring = m.ring
    t = Poly.from_ints(ring, [0, 1])
    rows = []
    for i in range(m.n):
        row = []
        for j in range(m.n):
            cell = -Poly(ring, [m.entries[i][j]])
            if i == j:
                cell = cell + t
            row.append(cell)
        rows.append(row)
    return _det_cofactor(rows)


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
