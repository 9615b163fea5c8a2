"""The acceptance suite behind ``recseq selftest``.

Ten seeded, deterministic criteria exercising the closure laws, the
resultant identity, the Newton decomposition and inverses, the rationality
criterion, the algebra isomorphism, the composed-operation semiring laws,
and the characteristic-polynomial round trip with its cross-checks (the
power-sum composed operations against Berkowitz on the Kronecker
matrices, Berkowitz against cofactor expansion).  Everything is exact:
the tolerance is zero throughout.  The pytest acceptance module runs the
same functions one criterion per test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .linrec import (
    LinRec,
    hadamard,
    hadamard_to_newton,
    hurwitz,
    newton,
    newton_inverse,
    newton_to_hadamard,
    newton_via_decomposition,
    cauchy,
    is_newton_invertible,
    ones,
    seq_sum,
)
from .polymat import (
    Poly,
    charpoly,
    companion,
    composed_newton,
    composed_product,
    composed_sum,
    kron,
    kron_newton,
    kron_sum,
    resultant_shift,
)
from .ring import QQ, RingElem, RingSpec, ZZ, Zmod
from .verify import (
    charpoly_cofactor,
    direct_product_oracle,
    inverse_check,
    morphism_check,
    morphism_laws,
    ogf_poly_check,
    satisfies_recurrence,
)

DEFAULT_SEED = 20107

_MOD_RING = Zmod(10007)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

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


def _closure_run(pairs, oracle_kind: str, compose, extra: int = 20) -> tuple[bool, str]:
    """Direct-formula prefixes must satisfy the composed charpoly recurrence."""
    for idx, (a, b) in enumerate(pairs):
        p = compose(a.charpoly, b.charpoly)
        length = (len(p.coeffs) - 1) + extra
        prefix = direct_product_oracle(oracle_kind, a.terms(length), b.terms(length))
        report = satisfies_recurrence(prefix, p)
        if not report.passed:
            return False, f"pair {idx}: {report.to_text()}"
    return True, f"{len(pairs)} pairs"


def _mul_compose(p: Poly, q: Poly) -> Poly:
    return p * q


def criterion_1(seed: int) -> tuple[bool, str]:
    """Hurwitz closure: binomial-convolution prefixes recur with the composed sum."""
    pairs = _pairs(seed * 100 + 1, _MOD_RING, 100)
    ok, detail = _closure_run(pairs, "hurwitz", composed_sum)
    return ok, detail + f" over {_MOD_RING}, degrees 1-3, prefix deg+20"


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
    pairs = _pairs(seed * 100 + 3, _MOD_RING, 100)
    ok, detail = _closure_run(pairs, "newton", composed_newton)
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
    return True, detail + " plus 50 unit root-law cases"


def criterion_4(seed: int) -> tuple[bool, str]:
    """Newton product equals its Hurwitz/Hadamard decomposition termwise."""
    groups = [
        (_pairs(seed * 100 + 4, _MOD_RING, 100), 30),
        (_pairs(seed * 100 + 41, QQ, 20, degrees=(1, 2)), 30),
    ]
    for pairs, prefix in groups:
        for idx, (a, b) in enumerate(pairs):
            direct = newton(a, b).terms(prefix)
            composed = newton_via_decomposition(a, b).take(prefix)
            if direct != composed:
                return False, f"pair {idx} over {a.ring}: decomposition mismatch"
    return True, "100 pairs over Zmod:10007 and 20 over Q, 30-term prefixes"


def criterion_5(seed: int) -> tuple[bool, str]:
    """Newton inverses: closed formula vs back-substitution vs the impulse."""
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
    inverse = newton_inverse(one_seq, depth).take(depth)
    expected = [RingElem(QQ, Fraction(-1, 2) ** n) for n in range(depth)]
    if inverse != expected:
        return False, "all-ones inverse over Q is not (-1/2)^n"
    return True, "50 invertible sequences over Zmod:10007 plus (-1/2)^n over Q, 20 terms"


def criterion_6(seed: int) -> tuple[bool, str]:
    """Hadamard, Cauchy and sum closures against their charpolys."""
    setups = [
        ("hadamard", composed_product, 61),
        ("cauchy", _mul_compose, 62),
        ("sum", _mul_compose, 63),
    ]
    details = []
    for kind, compose, offset in setups:
        pairs = _pairs(seed * 100 + offset, _MOD_RING, 100)
        ok, detail = _closure_run(pairs, kind, compose)
        if not ok:
            return False, f"{kind}: {detail}"
        details.append(f"{kind} {detail}")
    return True, "; ".join(details) + f" over {_MOD_RING}"


_PRODUCTS_136 = [
    (1, hurwitz),
    (3, newton),
    (61, hadamard),
    (62, cauchy),
    (63, seq_sum),
]


def criterion_7(seed: int) -> tuple[bool, str]:
    """Rationality criterion on every product constructed in criteria 1, 3, 6."""
    total = 0
    for offset, constructor in _PRODUCTS_136:
        for idx, (a, b) in enumerate(_pairs(seed * 100 + offset, _MOD_RING, 100)):
            c = constructor(a, b)
            report = ogf_poly_check(c, extra=50)
            if not report.passed:
                return False, f"{constructor.__name__} pair {idx}: {report.to_text()}"
            total += 1
    return True, f"{total} constructed sequences, extra=50"


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
