"""The oracle gate: every timed result is checked here, after its timer stops.

Reference values come from ``recseq.verify`` (``direct_product_oracle``,
``satisfies_recurrence``, ``inverse_check``) applied to operand terms
that this module unrolls itself, so a defect in ``LinRec.terms`` or in a
product cannot vouch for its own output.  CLI output is parsed back here
and put through the same oracles.

Each check returns ``None`` for a correct result or a :class:`Failure`.
``Failure.wrong`` separates a wrong answer from a refusal, which is a
failed operation but not a wrong answer.  The only refusal is exit 2 on
Python's int/str digit limit (the CLI cannot print a value of more than
4300 digits, ROADMAP item 5).  Everything else that is not the oracle's
answer is wrong: a wrong value, a wrong exit code, a crash, a time-out,
another exit 2, or an exception from a library call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from recseq import QQ, ZZ, Poly, RingElem, Zmod, is_newton_invertible
from recseq.linrec import LinRec
from recseq.verify import direct_product_oracle, inverse_check, satisfies_recurrence

from workloads import COMPOSED_KINDS, Seq

# inverse_check is cubic in the prefix length; the full printed inverse
# is checked by the quadratic binomial-transform identity instead.
INVERSE_CHECK_PREFIX = 30
# extra terms past the charpoly degree compared against the oracle
ORACLE_EXTRA = 20
# what the CLI prints when a value is too long for str(int)
INT_STR_LIMIT = "for integer string conversion"


@dataclass(frozen=True)
class Failure:
    wrong: bool
    reason: str


def wrong(reason: str) -> Failure:
    return Failure(True, reason)


def refused(reason: str) -> Failure:
    return Failure(False, reason)


def ring_of(text: str):
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    return Zmod(int(text[len("Zmod:") :]))


def linrec(seq: Seq) -> LinRec:
    ring = ring_of(seq.ring)
    return LinRec(Poly.from_ints(ring, seq.p), [RingElem(ring, v) for v in seq.init])


def unroll(seq: Seq, k: int) -> list:
    """First ``k`` terms of ``seq``, computed here from the recurrence."""
    ring = ring_of(seq.ring)
    p = [ring.from_int(c) for c in seq.p]
    out = [RingElem(ring, v) for v in seq.init]
    d = len(out)
    for n in range(d, k):
        acc = ring.zero
        for i in range(d):
            acc = acc - p[i] * out[n - d + i]
        out.append(acc)
    return out[:k]


def product_degree(kind: str, da: int, db: int) -> int:
    return da * db if kind in COMPOSED_KINDS else da + db


def count_digits(text: str) -> int:
    return sum(text.count(d) for d in "0123456789")


def _closed_form(kind: str, a: Seq, b: Seq, charpoly, initial, terms) -> Failure | None:
    """Check a product's closed form and printed terms against the oracle."""
    degree = product_degree(kind, a.degree, b.degree)
    if len(charpoly) != degree + 1 or charpoly[-1] != charpoly[-1].ring.one:
        return wrong(f"charpoly has degree {len(charpoly) - 1}, expected monic degree {degree}")
    k = degree + ORACLE_EXTRA
    if terms is None:
        expected = direct_product_oracle(kind, unroll(a, k), unroll(b, k))
        terms = expected
    else:
        k = min(k, len(terms))
        expected = direct_product_oracle(kind, unroll(a, k), unroll(b, k))
        if terms[:k] != expected:
            first = next(i for i in range(k) if terms[i] != expected[i])
            return wrong(f"term {first} differs from the direct product oracle")
    if list(initial) != terms[:degree]:
        return wrong("initial terms differ from the direct product oracle")
    report = satisfies_recurrence(terms, Poly(charpoly[0].ring, charpoly))
    if not report.passed:
        return wrong(f"terms break the returned charpoly at index {report.first_failure[0]}")
    return None


def check_product(op, result: LinRec) -> Failure | None:
    """A library product: closed form against D+20 oracle terms."""
    if result.ring != ring_of(op.ring):
        return wrong(f"result ring {result.ring}, expected {op.ring}")
    return _closed_form(op.kind, op.a, op.b, result.charpoly.coeffs, result.initial, None)


# ---- CLI output -------------------------------------------------------------

def parse_value(ring, text: str) -> RingElem:
    """One printed element; residues must be canonical."""
    if ring == QQ:
        return RingElem(ring, Fraction(text))
    value = int(text)
    if ring.modulus is not None and not 0 <= value < ring.modulus:
        raise ValueError(f"residue {text} not reduced mod {ring.modulus}")
    return RingElem(ring, value)


def _plain_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _plain_list(text: str) -> list[str]:
    body = text.strip()[1:-1]
    return body.split(",") if body else []


def _printed(op, stdout: str):
    """(charpoly, initial, terms) as printed, each a list of elements."""
    ring = ring_of(op.ring)
    if op.structured:
        tree = json.loads(stdout)
        if tree.get("ring") != op.ring:
            raise ValueError(f"structured output names ring {tree.get('ring')!r}")
        raw = tree.get("charpoly"), tree.get("initial"), tree["terms"]
    else:
        fields = _plain_fields(stdout)
        terms_text = fields["terms"]
        raw = (
            _plain_list(fields["charpoly"]) if "charpoly" in fields else None,
            _plain_list(fields["initial"]) if "initial" in fields else None,
            terms_text.split(" ") if terms_text else [],
        )
    return [None if r is None else [parse_value(ring, x) for x in r] for r in raw]


def _check_inverse_terms(seq: Seq, terms: list) -> Failure | None:
    """A printed Newton inverse b of a: B(b)_t * B(a)_t == 1 for every t.

    B is the binomial transform (Hurwitz product with the ones sequence),
    which carries Newton products to Hadamard products and the Newton
    identity to the ones sequence.
    """
    ring = ring_of(seq.ring)
    ones = [ring.one] * len(terms)
    tb = direct_product_oracle("hurwitz", terms, ones)
    ta = direct_product_oracle("hurwitz", unroll(seq, len(terms)), ones)
    for t, (x, y) in enumerate(zip(ta, tb)):
        if x * y != ring.one:
            return wrong(f"inverse term check fails at binomial-transform index {t}")
    report = inverse_check(linrec(seq), min(len(terms), INVERSE_CHECK_PREFIX))
    if not report.passed:
        return wrong(f"verify.inverse_check fails: {report.to_text()}")
    return None


def check_cli(op, code: int, stdout: str, stderr: str) -> Failure | None:
    """A CLI call: exit code and parsed output against the oracles."""
    if "Traceback" in stderr:
        return wrong(f"exit {code}, crashed: {stderr.strip().splitlines()[-1][:200]}")
    if code == 2 and INT_STR_LIMIT in stderr:
        return refused(f"exit 2: {stderr.strip()[:200]}")
    if code < 0:
        return wrong(f"killed by signal {-code} (time limit)")
    if op.verb == "invert" and code == 1:
        report = is_newton_invertible(linrec(op.seqs["s"]), op.count)
        if report or f"index {report.first_failure} " not in stdout:
            return wrong(f"exit 1 but is_newton_invertible gives {report}")
        return None
    if op.verb == "verify":
        return _check_verify(op, code, stdout)
    if code != 0:
        return wrong(f"exit {code}: {stderr.strip()[-200:]}")
    try:
        charpoly, initial, terms = _printed(op, stdout)
    except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        return wrong(f"unparseable output: {exc!r}")
    if len(terms) != op.count:
        return wrong(f"printed {len(terms)} terms, expected {op.count}")
    if op.verb == "terms":
        seq = op.seqs["s"]
        expected = unroll(seq, min(op.count, seq.degree))
        if terms[: seq.degree] != expected:
            return wrong("printed terms do not start with the initial terms")
        if op.count > seq.degree:
            report = satisfies_recurrence(terms, Poly.from_ints(ring_of(op.ring), seq.p))
            if not report.passed:
                return wrong(f"printed terms break the recurrence at index {report.first_failure[0]}")
        return None
    if op.verb == "invert":
        return _check_inverse_terms(op.seqs["s"], terms)
    if op.verb == "transform":
        # binomial and psi-inverse are the Hurwitz product with 1, 1, 1, ...;
        # inverse-binomial and psi with 1, -1, 1, ...; plain output has no
        # initial line, so the printed prefix stands in for it
        seq = op.seqs["s"]
        mate = Seq(op.ring, (-1, 1) if op.kind in ("binomial", "psi-inverse") else (1, 1), (1,))
        return _closed_form("hurwitz", seq, mate, charpoly, terms[: seq.degree], terms)
    return _closed_form(op.kind, op.seqs["a"], op.seqs["b"], charpoly, initial, terms)


def _check_verify(op, code: int, stdout: str) -> Failure | None:
    if op.kind == "decomposition":
        # the Newton decomposition is an identity: the check must pass
        expected_pass = True
    else:
        expected_pass = bool(is_newton_invertible(linrec(op.seqs["s"]), op.count))
    if expected_pass:
        if code == 0 and ": PASS" in stdout:
            return None
        return wrong(f"verify --check {op.kind} exit {code}, expected a PASS")
    if code == 1:
        return None
    return wrong(f"verify --check inverse exit {code} on a non-invertible input")
