"""The acceptance suite behind ``recseq selftest``.

Ten seeded, deterministic criteria exercising the closure laws, the
resultant identity, the Newton decomposition and inverses, the
rationality criterion, the algebra isomorphism, the composed-operation
semiring laws, and the characteristic-polynomial round trip with its
cross-checks (the power-sum composed operations against Berkowitz on the
Kronecker matrices, Berkowitz against cofactor expansion, from
:mod:`recseq.matrix_oracles`).  Criteria 1, 3, 4 and 6 decide each
constructed product with :func:`recseq.verify.product_check`, which
reads the ``c.order + D`` terms that prove it; criterion 4 through
:func:`recseq.verify.decomposition_check`.  Criterion 7 decides the
charpolys: each must annihilate the direct product, on the
``c.order + D + 1`` terms that prove it.  Everything is exact: the
tolerance is zero throughout.  The pytest acceptance module runs the
same functions one criterion per test.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .linrec import (
    LinRec,
    hadamard,
    hadamard_to_newton,
    hurwitz,
    newton,
    newton_inverse,
    newton_to_hadamard,
    cauchy,
    is_newton_invertible,
    ones,
    seq_sum,
)
from .polymat import Poly, composed_newton, composed_product, composed_sum
from .ring import QQ, RingElem, RingSpec, ZZ, Zmod
from .matrix_oracles import charpoly, charpoly_cofactor, companion, kron, kron_newton, kron_sum, resultant_shift
from .verify import (
    _ADDS_ORDERS,
    decomposition_check,
    direct_product_oracle,
    inverse_check,
    morphism_check,
    morphism_laws,
    ogf_poly_check,
    product_check,
)

DEFAULT_SEED = 20107

_MOD_RING = Zmod(10007)


class CriterionResult(namedtuple("CriterionResult", "number name passed detail")):
    """One criterion's outcome; :meth:`line` is its row in the selftest output."""

    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.number:2d}/10] {self.name}: {status} ({self.detail})"


def _random_elem(rng: random.Random, ring: RingSpec) -> RingElem:
    if ring.kind == RingSpec.INTEGERS:
        return ring.from_int(rng.randint(-5, 5))
    if ring.kind == RingSpec.RATIONALS:
        return RingElem(ring, Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
    return ring.from_int(rng.randrange(ring.modulus))


def _random_monic(rng: random.Random, ring: RingSpec, degree: int) -> Poly:
    coeffs = [_random_elem(rng, ring) for _ in range(degree)]
    coeffs.append(ring.one)
    return Poly(ring, coeffs)


def _random_linrec(rng: random.Random, ring: RingSpec, degree: int) -> LinRec:
    return LinRec(_random_monic(rng, ring, degree), [_random_elem(rng, ring) for _ in range(degree)])


def _pairs(seed: int, ring: RingSpec, count: int, degrees=(1, 2, 3)) -> list[tuple[LinRec, LinRec]]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        da, db = rng.choice(degrees), rng.choice(degrees)
        out.append((_random_linrec(rng, ring, da), _random_linrec(rng, ring, db)))
    return out


# Each closure case once, keyed by its product kind: the seed offset of its
# pairs, and the constructor whose products criteria 1, 3 and 6 decide
# with product_check, and whose charpolys criterion 7 checks on the direct
# product by the rationality criterion.
_CLOSURE_CASES = {
    "hurwitz": (1, hurwitz),
    "newton": (3, newton),
    "hadamard": (61, hadamard),
    "cauchy": (62, cauchy),
    "sum": (63, seq_sum),
}


def _closure_pairs(seed: int, offset: int) -> list[tuple[LinRec, LinRec]]:
    return _pairs(seed * 100 + offset, _MOD_RING, 100)


def _closure_run(seed: int, kind: str) -> tuple[bool, str]:
    """Each constructed product, with its composed charpoly, must be the direct formula's (product_check)."""
    offset, constructor = _CLOSURE_CASES[kind]
    pairs = _closure_pairs(seed, offset)
    for idx, (a, b) in enumerate(pairs):
        report = product_check(kind, a, b, constructor(a, b))
        if not report.passed:
            return False, f"pair {idx}: {report.to_text()}"
    return True, f"{len(pairs)} pairs"


def criterion_1(seed: int) -> tuple[bool, str]:
    """Hurwitz closure: the product recurring with the composed sum is the binomial convolution."""
    ok, detail = _closure_run(seed, "hurwitz")
    if not ok:
        return False, detail
    return True, detail + f" over {_MOD_RING}, degrees 1-3, prefix c.order + D"


def criterion_2(seed: int) -> tuple[bool, str]:
    """Shifted resultant equals the composed sum, coefficient by coefficient."""
    rng = random.Random(seed * 100 + 2)
    for idx in range(50):
        p = _random_monic(rng, ZZ, rng.choice([1, 2, 3]))
        q = _random_monic(rng, ZZ, rng.choice([1, 2, 3]))
        if resultant_shift(p, q) != composed_sum(p, q):
            return False, f"pair {idx}: resultant_shift({p}, {q}) != composed_sum"
    return True, "50 monic pairs over Z, coefficients in [-5,5], degrees <= 3"


def criterion_3(seed: int) -> tuple[bool, str]:
    """Newton closure plus the 1x1 root law u + v + uv."""
    ok, detail = _closure_run(seed, "newton")
    if not ok:
        return False, detail
    rng = random.Random(seed * 100 + 31)
    one = _MOD_RING.one
    for idx in range(50):
        u = _MOD_RING.from_int(rng.randrange(1, _MOD_RING.modulus))
        v = _MOD_RING.from_int(rng.randrange(1, _MOD_RING.modulus))
        got = composed_newton(Poly(_MOD_RING, [-u, one]), Poly(_MOD_RING, [-v, one]))
        want = Poly(_MOD_RING, [-(u + v + u * v), one])
        if got != want:
            return False, f"unit pair {idx}: ({u}, {v}) gave {got}, expected {want}"
    return True, detail + " through psi-inverse, prefix c.order + D, plus 50 unit root-law cases"


def criterion_4(seed: int) -> tuple[bool, str]:
    """Newton decomposition: psi(psi^-1 a Hadamard psi^-1 b) is the Newton product (decomposition_check)."""
    for pairs in (_pairs(seed * 100 + 4, _MOD_RING, 100), _pairs(seed * 100 + 41, QQ, 20, degrees=(1, 2))):
        for idx, (a, b) in enumerate(pairs):
            report = decomposition_check(a, b)
            if not report.passed:
                return False, f"pair {idx} over {a.ring}: {report.to_text()}"
    return True, "100 pairs over Zmod:10007 and 20 over Q, prefix c.order + D"


def criterion_5(seed: int) -> tuple[bool, str]:
    """Newton inverses: the closed formula decided through psi^-1 (inverse_check), and (-1/2)^n over Q."""
    rng = random.Random(seed * 100 + 5)
    depth = 20
    checked = 0
    while checked < 50:
        a = _random_linrec(rng, _MOD_RING, rng.choice([1, 2, 3]))
        if not is_newton_invertible(a, depth):
            continue
        report = inverse_check(a, depth)
        if not report.passed:
            return False, f"sequence {checked}: {report.to_text()}"
        checked += 1
    one_seq = ones(QQ)
    report = inverse_check(one_seq, depth)
    if not report.passed:
        return False, f"all-ones over Q: {report.to_text()}"
    inverse = newton_inverse(one_seq, depth)
    expected = [RingElem(QQ, Fraction(-1, 2) ** n) for n in range(depth)]
    if inverse != expected:
        return False, "all-ones inverse over Q is not (-1/2)^n"
    return True, "50 invertible sequences over Zmod:10007 plus (-1/2)^n over Q, 20 terms"


def criterion_6(seed: int) -> tuple[bool, str]:
    """Hadamard, Cauchy and sum closures: each product is the direct formula's."""
    details = []
    for kind in ("hadamard", "cauchy", "sum"):
        ok, detail = _closure_run(seed, kind)
        if not ok:
            return False, f"{kind}: {detail}"
        details.append(f"{kind} {detail}")
    return True, "; ".join(details) + f" over {_MOD_RING}, prefix c.order + D"


def criterion_7(seed: int) -> tuple[bool, str]:
    """Rationality criterion: the charpoly of each product of criteria 1, 3, 6 annihilates the direct product.

    The direct product u satisfies a monic polynomial of degree D, and
    so does p(E) u for c's charpoly p and the shift E; so the D + 1
    o.g.f. coefficients read on ``c.order + D + 1`` terms of u decide
    that p annihilates u.
    """
    for kind, (offset, constructor) in _CLOSURE_CASES.items():
        for idx, (a, b) in enumerate(_closure_pairs(seed, offset)):
            c = constructor(a, b)
            d = a.order + b.order if _ADDS_ORDERS[kind] else a.order * b.order
            k = c.order + d + 1
            report = ogf_poly_check(direct_product_oracle(kind, a.terms(k), b.terms(k)), extra=d, p=c.charpoly)
            if not report.passed:
                return False, f"{kind} pair {idx}: {report.to_text()}"
    return True, f"{100 * len(_CLOSURE_CASES)} constructed charpolys on the direct products, extra=D"


def criterion_8(seed: int) -> tuple[bool, str]:
    """The Hadamard-to-Newton isomorphism: laws, round trips, negative control."""
    groups = [
        _pairs(seed * 100 + 8, QQ, 50, degrees=(1, 2)),
        _pairs(seed * 100 + 81, _MOD_RING, 50),
    ]
    prefix = 30
    for pairs in groups:
        report = morphism_check("psi", pairs, prefix)
        if not report.passed:
            return False, report.to_text()
        for idx, (a, _) in enumerate(pairs):
            there = newton_to_hadamard(hadamard_to_newton(a)).terms(prefix)
            if there != a.terms(prefix):
                return False, f"round trip failed for sequence {idx} over {a.ring}"
            back = hadamard_to_newton(newton_to_hadamard(a)).terms(prefix)
            if back != a.terms(prefix):
                return False, f"reverse round trip failed for sequence {idx} over {a.ring}"
    # negative control: mapping through the all-ones convolution is NOT a
    # Hadamard-to-Newton morphism and must be caught
    control = [(ones(QQ), ones(QQ))]
    mate = [QQ.one] * prefix

    def bad_map(ts):
        return direct_product_oracle("hurwitz", ts, mate)

    report = morphism_laws(bad_map, "hadamard", "newton", control, prefix, "corrupted")
    if report.passed:
        return False, "negative control passed but should fail"
    return True, "50 pairs over Q and 50 over Zmod:10007, prefix 30, negative control fails"


def criterion_9(seed: int) -> tuple[bool, str]:
    """Semiring structure of the composed operations over Z."""
    rng = random.Random(seed * 100 + 9)
    t = Poly.from_ints(ZZ, [0, 1])
    t_minus_1 = Poly.from_ints(ZZ, [-1, 1])
    ops = [
        ("composed_product", composed_product, t_minus_1),
        ("composed_sum", composed_sum, t),
        ("composed_newton", composed_newton, t),
    ]
    for name, op, identity in ops:
        for idx in range(20):
            p = _random_monic(rng, ZZ, rng.choice([1, 2, 3]))
            if op(p, identity) != p:
                return False, f"{name}: identity failed on {p}"
            q = _random_monic(rng, ZZ, rng.choice([1, 2, 3]))
            if op(p, q) != op(q, p):
                return False, f"{name}: commutativity failed on ({p}, {q})"
        for idx in range(8):
            p = _random_monic(rng, ZZ, rng.choice([1, 2]))
            q = _random_monic(rng, ZZ, rng.choice([1, 2]))
            r = _random_monic(rng, ZZ, rng.choice([1, 2]))
            if op(op(p, q), r) != op(p, op(q, r)):
                return False, f"{name}: associativity failed on ({p}, {q}, {r})"
            if op(p * q, r) != op(p, r) * op(q, r):
                return False, f"{name}: distributivity over * failed on ({p}, {q}, {r})"
    return True, "identities, 20 commutativity pairs and 8 assoc/distrib triples per operation"


_COMPOSED_KRON = [
    (composed_product, kron),
    (composed_sum, kron_sum),
    (composed_newton, kron_newton),
]


def criterion_10(seed: int) -> tuple[bool, str]:
    """Charpoly round trip; Berkowitz vs cofactors; power-sum composed ops vs Berkowitz."""
    rings = [ZZ, QQ, Zmod(10007), Zmod(12)]
    compared = 0
    composed = 0
    for ring_index, ring in enumerate(rings):
        rng = random.Random(seed * 100 + 10 + ring_index)
        for idx in range(100):
            p = _random_monic(rng, ring, rng.choice([1, 2, 3, 4, 5]))
            mat = companion(p)
            if charpoly(mat) != p:
                return False, f"round trip failed over {ring} for {p}"
            if mat.n <= 4:
                # Berkowitz gave p just above
                if charpoly_cofactor(mat) != p:
                    return False, f"Berkowitz vs cofactor mismatch over {ring} for {p}"
                compared += 1
        # five 2 x 2 pairs, then ten with degrees 1-3
        for idx in range(15):
            da, db = (2, 2) if idx < 5 else (rng.choice([1, 2, 3]), rng.choice([1, 2, 3]))
            p = _random_monic(rng, ring, da)
            q = _random_monic(rng, ring, db)
            for compose, build in _COMPOSED_KRON:
                mat = build(companion(p), companion(q))
                berkowitz = charpoly(mat)
                if mat.n <= 4:
                    if berkowitz != charpoly_cofactor(mat):
                        return False, f"{build.__name__} charpoly mismatch over {ring}"
                    compared += 1
                if compose(p, q) != berkowitz:
                    return False, f"{compose.__name__}({p}, {q}) differs from Berkowitz over {ring}"
                composed += 1
    return True, (
        f"100 round trips per ring over 4 rings; {compared} cofactor cross-checks (dim <= 4); "
        f"{composed} power-sum composed operations vs Berkowitz (dim <= 9)"
    )


_CRITERIA = [
    (1, "Hurwitz closure", criterion_1),
    (2, "resultant identity", criterion_2),
    (3, "Newton closure and root law", criterion_3),
    (4, "Newton decomposition", criterion_4),
    (5, "Newton inverse", criterion_5),
    (6, "Hadamard/Cauchy/sum closure", criterion_6),
    (7, "o.g.f. rationality criterion", criterion_7),
    (8, "Hadamard-Newton isomorphism", criterion_8),
    (9, "composed-operation semirings", criterion_9),
    (10, "charpoly round trip and cofactor oracle", criterion_10),
]


def criteria() -> list[tuple[int, str]]:
    return [(number, name) for number, name, _ in _CRITERIA]


def run_criterion(number: int, seed: int = DEFAULT_SEED) -> CriterionResult:
    for num, name, fn in _CRITERIA:
        if num == number:
            passed, detail = fn(seed)
            return CriterionResult(num, name, passed, detail)
    raise ValueError(f"no criterion numbered {number}")


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    return [
        CriterionResult(num, name, *fn(seed)) for num, name, fn in _CRITERIA
    ]
