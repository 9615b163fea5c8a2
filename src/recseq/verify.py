"""Brute-force oracles and checkers.

Everything in this module recomputes results strictly from the defining
formulas, sharing nothing with the closed-form construction paths beyond
ring arithmetic, the ring's input checks (:mod:`recseq.ring` owns the
rule that operands share one ring) and ``math.comb`` (as ``binom``).
The library holds raw values inside :class:`~recseq.polymat.Poly` and
:class:`~recseq.linrec.LinRec`; this module computes only on ring
elements, which it gets through ``coeffs``, ``initial`` and ``terms()``.
In particular the convolutions here are written out again on purpose (no
call into the sequence product constructors or the raw-value loops of
:mod:`recseq.kernels`).  A check calls the library only for the value
it checks: :func:`inverse_check` its Newton inverse, and
:func:`decomposition_check` its Newton decomposition.

The matrix oracles, which reach the composed operations through
Kronecker matrices and resultants, live apart, in
:mod:`recseq.matrix_oracles`: no check here runs them.

Checks are exact, so a single nonzero coefficient or mismatched term is
a hard failure.  Most are prefix-bounded evidence, not proofs;
:func:`product_check` decides, and so does :func:`decomposition_check`,
which is product_check of the decomposition.  The true product
satisfies a monic polynomial of known degree D, so the check reads the
``c.order + D`` terms that prove a claimed product ``c``.  It reads a
Newton product through psi^-1, the Hurwitz convolution with the ones
sequence, which carries Newton products to Hadamard products.
:func:`inverse_check` reads the Newton inverse the same way: psi^-1
also sends the Newton identity to the ones sequence, so b inverts a on
k terms iff their images multiply to 1 termwise, in O(k^2).  psi^-1 is
unitriangular, so both map a failure of the images back to the terms
through one helper, :func:`_image_failure`.  The identity both rest on
is checked against the direct O(k^3) Newton sum by
:func:`morphism_check`.

Every check reports its first failure through one rule,
:func:`_first_failure`: the first ``(index, expected, actual)`` whose
two values differ.  The ``recurrence`` and ``ogf`` checks share one
recurrence sum, :func:`_predictions`.  :func:`satisfies_recurrence`
needs a monic polynomial; :func:`ogf_poly_check` takes any annihilating
polynomial.  Both check the polynomial and then the ring of the terms
before they read a term.  :func:`product_check` and
:func:`morphism_check` refuse sequences over different rings before they
read a term.

The package does not re-export these names; import them from here.  The
CLI loads this module only for its ``verify`` and ``selftest`` verbs, so
the other verbs start without it; ``verify`` loads no other module of
oracles, and only ``selftest`` loads :mod:`recseq.matrix_oracles`.
"""

from __future__ import annotations

from collections import namedtuple

from .linrec import LinRec, NotInvertible, newton_inverse, newton_via_decomposition
from .polymat import Poly, _require_charpoly_operand
from .ring import RingElem, RingMismatch, RingSpec, _one_ring, binom, int_scale


class CheckReport(namedtuple("CheckReport", "name passed checked_prefix first_failure", defaults=(None,))):
    """Outcome of one verification: pass/fail plus the first failure seen, ``(index, expected, actual)``."""

    __slots__ = ()

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
    return CheckReport(name, failure is None, prefix, failure)


def _first_failure(triples):
    """The first ``(index, expected, actual)`` of ``triples`` whose two values differ, or None.

    Every check reports through this one rule, and pulls no triple past
    the first failure.
    """
    return next(((n, e, a) for n, e, a in triples if e != a), None)


def _predictions(cs, terms, start, stop):
    """Yield -sum_{i=1..d} c_(d-i) t_(n-i), the term that monic ``cs`` predicts at n, for start <= n < stop.

    ``cs`` are the coefficients c_0..c_d, low-to-high, of a polynomial of
    degree d >= 0, and ``terms`` the t_n.  This is the one recurrence sum
    of the ``recurrence`` and ``ogf`` checks.
    """
    d = len(cs) - 1
    hs = [-cs[d - i] for i in range(1, d + 1)]
    zero = cs[d].ring.zero
    for n in range(start, stop):
        acc = zero
        for i, h in enumerate(hs):
            acc = acc + h * terms[n - 1 - i]
        yield acc


def _require_terms_in(ring: RingSpec, terms) -> None:
    """Raise RingMismatch unless each of ``terms`` is an element of ``ring``; ``terms`` may be a LinRec.

    Only rings are compared, so no term's value is read, and a LinRec
    is checked by its own ring, before any of its terms is unrolled.
    """
    if isinstance(terms, LinRec):
        inside = terms.ring == ring
    else:
        inside = all(isinstance(x, RingElem) and x.ring == ring for x in terms)
    if not inside:
        raise RingMismatch(f"terms outside {ring}, the ring of the polynomial")


def satisfies_recurrence(terms, p: Poly) -> CheckReport:
    """Check that a term prefix satisfies the recurrence encoded by the monic ``p``.

    Every index from deg(p) to the end of the prefix is tested exactly,
    so the prefix needs at least deg(p) + 1 terms: a shorter one, which
    would test no index, raises ValueError.  The polynomial is checked
    first, then the terms' ring (:func:`_require_terms_in`), before any
    term is read.  Raises :class:`~recseq.polymat.NotMonic` on a
    polynomial that is not monic; :func:`ogf_poly_check` takes any
    annihilating polynomial.
    """
    terms = list(terms)
    cs = p.coeffs
    order = len(cs) - 1
    if order < 0:
        raise ValueError("the zero polynomial defines no recurrence")
    if not p.is_monic():
        _require_charpoly_operand(p)  # raises NotMonic
    _require_terms_in(p.ring, terms)
    if len(terms) <= order:
        raise ValueError(f"need at least {order + 1} term{'s' if order else ''}, got {len(terms)}")
    predictions = enumerate(_predictions(cs, terms, order, len(terms)), order)
    return _report("recurrence", len(terms), _first_failure((n, e, terms[n]) for n, e in predictions))


def _check_oracle_inputs(a_terms, b_terms) -> RingSpec:
    if len(a_terms) != len(b_terms):
        raise ValueError("oracle inputs must have equal length")
    if not a_terms:
        raise ValueError("oracle inputs must be non-empty")
    ring = a_terms[0].ring
    if any(x.ring != ring for x in a_terms + b_terms):
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


# The true product of operands of orders d1 and d2 satisfies a monic
# polynomial of degree d1 + d2 where this is True (the termwise sum and
# Cauchy), and of degree d1 d2 where it is False
_ADDS_ORDERS = {"sum": True, "hadamard": False, "cauchy": True, "hurwitz": False, "newton": False}


def _binomial(ts, s: int) -> list[RingElem]:
    """sum_i C(n,i) s^(n-i) t_i for each n: psi^-1 of the prefix ``ts`` at s = 1, psi at s = -1.

    This is the direct Hurwitz convolution with s^n, the one copy of both
    maps that :func:`morphism_check`, :func:`product_check` and
    :func:`inverse_check` read.
    """
    one = ts[0].ring.one
    return direct_product_oracle("hurwitz", ts, [int_scale(s**n, one) for n in range(len(ts))])


def _image_failure(ts, want):
    """The first failure of the terms ``ts`` against the psi^-1 images ``want``, mapped back to the terms, or None.

    Let u be the sequence whose images are ``want``, and got those of
    ``ts`` (:func:`_binomial`).  psi^-1 is lower triangular with ones on
    its diagonal, so the first n where want_n != got_n is the first where
    u_n != t_n, and u_n - t_n = want_n - got_n there.  The failure names
    u_n = t_n + want_n - got_n as expected and t_n as actual.
    :func:`product_check` (Newton) and :func:`inverse_check` map every
    psi^-1 failure back through this one rule.
    """
    return _first_failure((n, t + w - g, t) for n, (t, w, g) in enumerate(zip(ts, want, _binomial(ts, 1))))


def product_check(kind: str, a: LinRec, b: LinRec, c: LinRec) -> CheckReport:
    """Decide whether ``c`` is the ``kind`` product of ``a`` and ``b``.

    The true product satisfies a monic polynomial of degree D: d1 + d2
    for sum and Cauchy, d1 d2 for Hadamard, Hurwitz and Newton, where d1
    and d2 are the orders of ``a`` and ``b``.  Its difference with ``c``
    satisfies a monic polynomial of degree ``c.order + D``, so over any
    commutative ring ``c`` is the product iff its first ``c.order + D``
    terms match the direct formula; that is the prefix this check reads.
    A Newton product is compared through psi^-1, which carries it to the
    Hadamard product of the images, in O(k^2) in place of the double
    sum's O(k^3), and a failure of the images is mapped back to the
    terms by :func:`_image_failure`: on both routes a failure names the
    true term as expected and ``c``'s as actual.  Unknown kinds and
    sequences over different rings are refused before any term is read.
    """
    if kind not in _ADDS_ORDERS:
        raise ValueError(f"unknown product kind {kind!r}")
    _one_ring("sequences over", a, b, c)
    k = c.order + (a.order + b.order if _ADDS_ORDERS[kind] else a.order * b.order)
    ta, tb, tc = a.terms(k), b.terms(k), c.terms(k)
    if kind == "newton":
        failure = _image_failure(tc, direct_product_oracle("hadamard", _binomial(ta, 1), _binomial(tb, 1)))
    else:
        failure = _first_failure(zip(range(k), direct_product_oracle(kind, ta, tb), tc))
    return _report(f"product-{kind}", k, failure)


def ogf_poly_check(a, extra: int = 50, p: Poly | None = None) -> CheckReport:
    """Rationality criterion for the ordinary generating function.

    For a genuine linear recurrent sequence the product of the reflected
    characteristic polynomial with the o.g.f. is a polynomial of degree
    below deg(p); hence every product coefficient at degrees deg(p) up to
    deg(p) + extra must vanish exactly.

    ``a`` may be a :class:`LinRec` (its own charpoly is used) or a raw
    term list, in which case ``p`` must be supplied.  The polynomial is
    checked first, then the terms' ring (:func:`_require_terms_in`),
    before any term is unrolled or read.
    """
    if extra < 1:
        raise ValueError("extra must be >= 1")
    is_linrec = isinstance(a, LinRec)
    poly = a.charpoly if is_linrec and p is None else p
    if poly is None:
        raise ValueError("a raw term list needs an explicit polynomial")
    cs = poly.coeffs
    degree = len(cs) - 1
    if degree < 0:
        raise ValueError("the zero polynomial is not a characteristic polynomial")
    if not is_linrec:
        a = list(a)
    _require_terms_in(poly.ring, a)
    count = degree + extra + 1
    terms = a.terms(count) if is_linrec else a
    if len(terms) < count:
        raise ValueError(f"need {count} terms, got {len(terms)}")
    # coefficient k of the reflected polynomial times the o.g.f.:
    # c_d t_k + ... + c_0 t_(k-d), which is c_d t_k less the prediction
    zero, lead = poly.ring.zero, cs[degree]
    predictions = enumerate(_predictions(cs, terms, degree, count), degree)
    return _report("ogf", count, _first_failure((k, zero, lead * terms[k] - e) for k, e in predictions))


def morphism_laws(map_terms, source_kind: str, target_kind: str, pairs, prefix: int, name: str) -> CheckReport:
    """Check the additivity and product laws of a map on term prefixes via the oracles.

    ``map_terms`` maps a term list to a term list; on every pair (a, b) it
    must carry the termwise sum to the termwise sum and the
    ``source_kind`` product to the ``target_kind`` product.  The report
    is named ``name``; :func:`morphism_check` runs it on the named maps.
    """

    def laws():  # at each index the additive law, then the multiplicative
        for a, b in pairs:
            ta, tb = a.terms(prefix), b.terms(prefix)
            fa, fb = map_terms(ta), map_terms(tb)
            add_lhs = map_terms(direct_product_oracle("sum", ta, tb))
            add_rhs = direct_product_oracle("sum", fa, fb)
            mul_lhs = map_terms(direct_product_oracle(source_kind, ta, tb))
            mul_rhs = direct_product_oracle(target_kind, fa, fb)
            for n in range(prefix):
                yield n, add_rhs[n], add_lhs[n]
                yield n, mul_rhs[n], mul_lhs[n]

    return _report(name, prefix, _first_failure(laws()))


# The s of each map's binomial transform, and the products it carries from and to
_MAPS = {"psi": (-1, "hadamard", "newton"), "psi-inverse": (1, "newton", "hadamard")}


def morphism_check(map_name: str, pairs, prefix: int) -> CheckReport:
    """Verify the algebra-morphism laws of the named map on term prefixes.

    ``psi`` maps through the alternating-signs Hurwitz convolution and must
    carry Hadamard products to Newton products; ``psi-inverse`` maps through
    the all-ones Hurwitz convolution and must do the reverse.  Both sides
    of every law are computed with :func:`direct_product_oracle`.
    Sequences over different rings are refused before any term is read.
    """
    if prefix < 1:
        raise ValueError("prefix must be >= 1")
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    _one_ring("sequences over", *(s for pair in pairs for s in pair))
    if map_name not in _MAPS:
        raise ValueError(f"unknown morphism {map_name!r}")
    s, source_kind, target_kind = _MAPS[map_name]
    return morphism_laws(lambda ts: _binomial(ts, s), source_kind, target_kind, pairs, prefix, f"morphism-{map_name}")


def decomposition_check(a: LinRec, b: LinRec) -> CheckReport:
    """Decide whether the decomposition of the Newton product of ``a`` and ``b`` is that product.

    :func:`~recseq.linrec.newton_via_decomposition` builds it as
    psi(psi^-1 a Hadamard psi^-1 b), and :func:`product_check` decides it
    on its ``c.order + D`` terms, 2 d1 d2 for operands of orders d1 and
    d2, against the direct Newton formula read through psi^-1.  The
    report is named ``newton-decomposition``; a failure names the true
    Newton term as expected and the decomposition's as actual.
    """
    return product_check("newton", a, b, newton_via_decomposition(a, b))._replace(name="newton-decomposition")


def inverse_check(a: LinRec, k: int) -> CheckReport:
    """Decide whether the library's Newton inverse of ``a`` is the inverse on ``k`` terms.

    psi^-1 carries the Newton product to the Hadamard product and the
    Newton identity delta to the ones sequence, over any commutative
    ring.  So with d = psi^-1 a and e = psi^-1 b, the closed-formula
    inverse b is the inverse iff d_n e_n = 1 for every n < k, and a has
    one iff every d_n is a unit.  Both images are the direct Hurwitz
    convolution with 1, 1, 1, ... (:func:`_binomial`), O(k^2) on ring
    elements.  The library refuses first: k < 1 with its ``ValueError``,
    and an a with no inverse with :class:`NotInvertible`.  Should it
    return terms all the same, this check raises :class:`NotInvertible`
    at the first d_n that is not a unit.  The wanted
    images are the d_n^-1, and :func:`_image_failure` maps the first n
    with e_n != d_n^-1 back to the terms: the failure names the true
    inverse's term, b_n + d_n^-1 - e_n, as expected and b_n as actual.
    """
    b = newton_inverse(a, k)
    d = _binomial(a.terms(k), 1)
    for n, d_n in enumerate(d):
        if not d_n.is_unit():
            raise NotInvertible(n, d_n)
    return _report("newton-inverse", k, _image_failure(b, [d_n.inv() for d_n in d]))
