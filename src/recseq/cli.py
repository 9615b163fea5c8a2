"""Command-line front door.

Grammars
--------
ring:      ``Z`` | ``Q`` | ``Zmod:<m>``
element:   integer ``-12``, rational ``3/4`` (Q only), residue ``5``
poly:      coefficient list low-to-high, e.g. ``[-1,-1,1]`` for t^2 - t - 1
sequence:  ``ring=<ring>;p=<poly>;init=<list>``
raw terms: ``ring=<ring>;terms=<list>`` (verification inputs only)

Exit codes: 0 success, 1 failed verification or non-invertible input,
2 parse/usage errors.  ``--format structured`` emits a JSON tree whose
numeric leaves are strings, so arbitrary-precision values survive intact.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .linrec import (
    DEFAULT_PREFIX,
    LinRec,
    NotInvertible,
    binomial_transform,
    cauchy,
    hadamard,
    hadamard_to_newton,
    hurwitz,
    inverse_binomial_transform,
    newton,
    newton_inverse,
    newton_to_hadamard,
    newton_via_decomposition,
    seq_sum,
)
from .polymat import NotMonic, Poly, composed_newton, composed_product, composed_sum
from .ring import NotAUnit, RingElem, RingSpec, ZZ, Zmod
from .verify import CheckReport, inverse_check, morphism_check, ogf_poly_check, satisfies_recurrence


class ParseError(ValueError):
    """Malformed input text."""


# ParseError, InvariantError, NotMonic, DegreeZero, ZeroPolynomial and
# RingMismatch all subclass ValueError; NotAUnit is an ArithmeticError.
_INPUT_ERRORS = (ValueError, NotAUnit)

# ASCII digits only: int() alone would also take "1_0" and non-ASCII digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_integer(text: str) -> int:
    """An integer literal; ValueError unless it matches ``[+-]?[0-9]+``.

    Surrounding whitespace is ignored, as ``int()`` ignores it.
    """
    text = text.strip()
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid integer literal {text!r}")
    return int(text)


def parse_ring(text: str) -> RingSpec:
    text = text.strip()
    if text == "Z":
        return ZZ
    if text == "Q":
        return RingSpec(RingSpec.RATIONALS)
    if text.startswith("Zmod:"):
        body = text[len("Zmod:") :]
        try:
            m = _parse_integer(body)
        except ValueError:
            raise ParseError(f"bad modulus {body!r}") from None
        if m < 2:
            raise ParseError(f"modulus must be >= 2, got {m}")
        return Zmod(m)
    raise ParseError(f"unknown ring {text!r} (expected Z, Q, or Zmod:<m>)")


def parse_element(ring: RingSpec, text: str) -> RingElem:
    text = text.strip()
    if "/" in text:
        if ring.kind != RingSpec.RATIONALS:
            raise ParseError(f"fraction literal {text!r} outside Q")
        num, _, den = text.partition("/")
        try:
            value = Fraction(_parse_integer(num), _parse_integer(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {text!r}: {exc}") from None
        return RingElem(ring, value)
    try:
        n = _parse_integer(text)
    except ValueError:
        raise ParseError(f"bad element literal {text!r}") from None
    return ring.from_int(n)


def _parse_bracket_list(text: str) -> list[str]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"expected a bracketed list, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return []
    return body.split(",")


def parse_poly(text: str, ring: RingSpec, require_monic: bool = True) -> Poly:
    """Parse a low-to-high coefficient list; monicity enforced by default."""
    items = _parse_bracket_list(text)
    p = Poly(ring, [parse_element(ring, item) for item in items])
    if require_monic and not p.is_monic():
        raise NotMonic(f"polynomial {text.strip()} is not monic")
    return p


def _split_fields(text: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        if not sep:
            raise ParseError(f"expected key=value, got {chunk!r}")
        key = key.strip()
        if key in fields:
            raise ParseError(f"duplicate field {key!r}")
        fields[key] = value.strip()
    return fields


def parse_sequence(text: str) -> LinRec:
    """Parse ``ring=...;p=...;init=...`` into a validated sequence."""
    fields = _split_fields(text)
    unknown = set(fields) - {"ring", "p", "init"}
    if unknown:
        raise ParseError(f"unknown sequence fields: {sorted(unknown)}")
    for key in ("ring", "p", "init"):
        if key not in fields:
            raise ParseError(f"sequence is missing the {key!r} field")
    ring = parse_ring(fields["ring"])
    p = parse_poly(fields["p"], ring, require_monic=True)
    init = [parse_element(ring, item) for item in _parse_bracket_list(fields["init"])]
    return LinRec(p, init)


def parse_raw_terms(text: str) -> tuple[RingSpec, list[RingElem]]:
    """Parse ``ring=...;terms=...`` into a ring and a fixed term list."""
    fields = _split_fields(text)
    unknown = set(fields) - {"ring", "terms"}
    if unknown:
        raise ParseError(f"unknown raw-sequence fields: {sorted(unknown)}")
    for key in ("ring", "terms"):
        if key not in fields:
            raise ParseError(f"raw sequence is missing the {key!r} field")
    ring = parse_ring(fields["ring"])
    terms = [parse_element(ring, item) for item in _parse_bracket_list(fields["terms"])]
    return ring, terms


def parse_sequence_or_terms(text: str):
    """Either a LinRec or a (ring, terms) pair, depending on the fields."""
    fields = _split_fields(text)
    if "terms" in fields:
        return parse_raw_terms(text)
    return parse_sequence(text)


def _format_terms(terms) -> str:
    return " ".join(str(t) for t in terms)


def _terms_strings(terms) -> list[str]:
    return [str(t) for t in terms]


def _default_prefix() -> int:
    raw = os.environ.get("RECSEQ_PREFIX", "")
    if not raw:
        return DEFAULT_PREFIX
    try:
        value = _parse_integer(raw)
    except ValueError:
        raise ParseError(f"RECSEQ_PREFIX must be an integer, got {raw!r}") from None
    if value < 1:
        raise ParseError("RECSEQ_PREFIX must be >= 1")
    return value


def _emit(args, plain_lines: list[str], structured: dict) -> None:
    if args.format == "structured":
        print(json.dumps(structured, sort_keys=True, indent=2))
    else:
        for line in plain_lines:
            print(line)


_SEQ_OPS = {
    "sum": seq_sum,
    "hadamard": hadamard,
    "cauchy": cauchy,
    "hurwitz": hurwitz,
    "newton": newton,
}

_POLY_OPS = {
    "otimes": composed_product,
    "star": composed_sum,
    "boxtimes": composed_newton,
}

_TRANSFORMS = {
    "binomial": binomial_transform,
    "inverse-binomial": inverse_binomial_transform,
    "psi": hadamard_to_newton,
    "psi-inverse": newton_to_hadamard,
}


def _cmd_terms(args) -> int:
    seq = parse_sequence(args.sequence)
    terms = seq.terms(args.count)
    _emit(
        args,
        [f"terms: {_format_terms(terms)}"],
        {"ring": str(seq.ring), "terms": _terms_strings(terms)},
    )
    return 0


def _cmd_op(args) -> int:
    a = parse_sequence(args.a)
    b = parse_sequence(args.b)
    result = _SEQ_OPS[args.kind](a, b)
    terms = result.terms(args.count)
    _emit(
        args,
        [
            f"sequence: {result}",
            f"charpoly: {result.charpoly}",
            f"initial: [{','.join(str(x) for x in result.initial)}]",
            f"terms: {_format_terms(terms)}",
        ],
        {
            "kind": args.kind,
            "ring": str(result.ring),
            "charpoly": _terms_strings(result.charpoly.coeffs),
            "initial": _terms_strings(result.initial),
            "terms": _terms_strings(terms),
        },
    )
    return 0


def _cmd_charpoly_op(args) -> int:
    ring = parse_ring(args.ring)
    p = parse_poly(args.p, ring)
    q = parse_poly(args.q, ring)
    result = _POLY_OPS[args.kind](p, q)
    _emit(
        args,
        [f"result: {result}"],
        {"kind": args.kind, "ring": str(ring), "result": _terms_strings(result.coeffs)},
    )
    return 0


def _cmd_invert(args) -> int:
    seq = parse_sequence(args.sequence)
    try:
        terms = newton_inverse(seq, args.count).take(args.count)
    except NotInvertible as exc:
        _emit(
            args,
            [f"not invertible: binomial-transform value at index {exc.index} is not a unit"],
            {
                "invertible": False,
                "first_failure_index": str(exc.index),
                "checked": str(args.count),
            },
        )
        return 1
    _emit(
        args,
        [f"terms: {_format_terms(terms)}"],
        {"invertible": True, "ring": str(seq.ring), "terms": _terms_strings(terms)},
    )
    return 0


def _cmd_transform(args) -> int:
    seq = parse_sequence(args.sequence)
    result = _TRANSFORMS[args.kind](seq)
    terms = result.terms(args.count)
    _emit(
        args,
        [
            f"sequence: {result}",
            f"charpoly: {result.charpoly}",
            f"terms: {_format_terms(terms)}",
        ],
        {
            "kind": args.kind,
            "ring": str(result.ring),
            "charpoly": _terms_strings(result.charpoly.coeffs),
            "initial": _terms_strings(result.initial),
            "terms": _terms_strings(terms),
        },
    )
    return 0


def _cmd_verify(args) -> int:
    prefix = args.count if args.count is not None else _default_prefix()
    check = args.check
    if check == "recurrence":
        parsed = parse_sequence_or_terms(_require(args.sequence, "-s"))
        if isinstance(parsed, LinRec):
            p = parse_poly(args.p, parsed.ring) if args.p else parsed.charpoly
            terms = parsed.terms(max(prefix, len(p.coeffs) - 1))
        else:
            ring, terms = parsed
            if not args.p:
                raise ParseError("raw terms need an explicit -p polynomial")
            p = parse_poly(args.p, ring)
        report = satisfies_recurrence(terms, p)
    elif check == "ogf":
        parsed = parse_sequence_or_terms(_require(args.sequence, "-s"))
        if isinstance(parsed, LinRec):
            p = parse_poly(args.p, parsed.ring) if args.p else None
            report = ogf_poly_check(parsed, extra=args.extra, p=p)
        else:
            ring, terms = parsed
            if not args.p:
                raise ParseError("raw terms need an explicit -p polynomial")
            report = ogf_poly_check(terms, extra=args.extra, p=parse_poly(args.p, ring))
    elif check == "decomposition":
        a = parse_sequence(_require(args.a, "-a"))
        b = parse_sequence(_require(args.b, "-b"))
        direct = newton(a, b).terms(prefix)
        composed = newton_via_decomposition(a, b).take(prefix)
        failure = None
        for n in range(prefix):
            if direct[n] != composed[n]:
                failure = (n, composed[n], direct[n])
                break
        report = CheckReport("newton-decomposition", failure is None, prefix, failure)
    elif check == "morphism":
        a = parse_sequence(_require(args.a, "-a"))
        b = parse_sequence(_require(args.b, "-b"))
        report = morphism_check(args.map, [(a, b)], prefix)
    elif check == "inverse":
        seq = parse_sequence(_require(args.sequence, "-s"))
        report = inverse_check(seq, prefix)
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown check {check!r}")
    _emit(args, [report.to_text()], report.to_dict())
    return 0 if report.passed else 1


def _require(value, flag: str):
    if value is None:
        raise ParseError(f"this check requires {flag}")
    return value


def _cmd_selftest(args) -> int:
    from . import selftest  # only this verb needs it; keeps start-up cheap

    seed = selftest.DEFAULT_SEED if args.seed is None else args.seed
    results = selftest.run_all(seed=seed)
    if args.format == "structured":
        payload = [
            {
                "number": str(r.number),
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ]
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for r in results:
            print(r.line())
        passed = sum(1 for r in results if r.passed)
        print(f"selftest: {passed}/{len(results)} criteria passed")
    return 0 if all(r.passed for r in results) else 1


def _nonneg_int(text: str) -> int:
    value = _parse_integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_int(text: str) -> int:
    value = _parse_integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recseq",
        description="Closure algebra for linear recurrent sequences with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["plain", "structured"], default="plain")

    p = sub.add_parser("terms", help="print the first terms of a sequence")
    p.add_argument("-s", "--sequence", required=True)
    p.add_argument("-n", "--count", type=_nonneg_int, default=10)
    add_format(p)
    p.set_defaults(func=_cmd_terms)

    p = sub.add_parser("op", help="combine two sequences under a product")
    p.add_argument("--kind", choices=sorted(_SEQ_OPS), required=True)
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("-n", "--count", type=_nonneg_int, default=10)
    add_format(p)
    p.set_defaults(func=_cmd_op)

    p = sub.add_parser("charpoly-op", help="composed operation on monic polynomials")
    p.add_argument("--kind", choices=sorted(_POLY_OPS), required=True)
    p.add_argument("-p", required=True)
    p.add_argument("-q", required=True)
    p.add_argument("--ring", default="Z")
    add_format(p)
    p.set_defaults(func=_cmd_charpoly_op)

    p = sub.add_parser("invert", help="Newton-product inverse prefix")
    p.add_argument("-s", "--sequence", required=True)
    p.add_argument("-n", "--count", type=_positive_int, default=10)
    add_format(p)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("transform", help="binomial transforms and the algebra isomorphism")
    p.add_argument("--kind", choices=sorted(_TRANSFORMS), required=True)
    p.add_argument("-s", "--sequence", required=True)
    p.add_argument("-n", "--count", type=_nonneg_int, default=10)
    add_format(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("psi", help="shorthand for transform --kind psi")
    p.add_argument("-s", "--sequence", required=True)
    p.add_argument("-n", "--count", type=_nonneg_int, default=10)
    add_format(p)
    p.set_defaults(func=_cmd_transform, kind="psi")

    p = sub.add_parser("verify", help="run a brute-force verification check")
    p.add_argument(
        "--check",
        choices=["recurrence", "ogf", "decomposition", "morphism", "inverse"],
        required=True,
    )
    p.add_argument("-s", "--sequence")
    p.add_argument("-a")
    p.add_argument("-b")
    p.add_argument("-p")
    p.add_argument("--map", choices=["psi", "psi-inverse"], default="psi")
    p.add_argument(
        "-n", "--count", type=_positive_int, default=None,
        help="prefix length (default RECSEQ_PREFIX or 30)",
    )
    p.add_argument("--extra", type=_positive_int, default=50)
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    p.add_argument("--seed", type=_parse_integer, default=None)  # None: selftest.DEFAULT_SEED
    add_format(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotInvertible as exc:
        print(f"not invertible: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
