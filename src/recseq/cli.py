"""Command-line front door.

Grammars
--------
ring:      ``Z`` | ``Q`` | ``Zmod:<m>``
element:   integer ``-12``, rational ``3/4`` (Q only); over Z/m any
           integer, reduced mod m; integers of any length
poly:      coefficient list low-to-high, e.g. ``[-1,-1,1]`` for t^2 - t - 1
sequence:  ``ring=<ring>;p=<poly>;init=<list>``
raw terms: ``ring=<ring>;terms=<list>`` (verification inputs only)

Every numeric option takes an integer literal as above; a malformed one
is a usage error, ``invalid integer value: 'x'``, and a count below its
least value reads ``must be >= 0`` or ``must be >= 1``.  ``verify
--check recurrence`` reads at least deg p + 1 terms of a sequence, so
that it tests at least one index, and refuses fewer raw terms.

Exit codes: 0 success, 1 failed verification or non-invertible input,
2 parse/usage errors, or a value longer than ``sys.get_int_max_str_digits()``
digits (4300 by default), which is refused with the interpreter's own
message and nothing on stdout.  141 when the reader closes stdout before
the output ends, as ``recseq terms ... | head`` does: the call stops at
its next write, prints nothing on stderr, and exits with the status a
shell reports for a program that SIGPIPE ended (128 + 13).
``--format structured`` emits a JSON tree whose numeric leaves are
strings, so arbitrary-precision values survive intact.  No environment
variable is read: a call's output and exit status depend only on its
argv and the interpreter's int/str limit.

Terms are printed as a stream: ``LinRec.term_string_chunks`` yields
lists of at most ``kernels.CHUNK`` term strings, and each list is joined
into one write, to the ``terms:`` line or, element by element, into the
JSON ``terms`` array; the separator before it is a write of its own.  So
a call holds one chunk of terms at a time, however many it prints, and
while a chunk is written, its joined text and the bytes that the text
layer encodes from it are its only copies: the list is emptied before
the write, and no earlier layer keeps the chunk.  The exceptions are Q
with lam > 1 and a modulus longer than the int/str limit, where the
values are checked as they are unrolled and held until the last has
passed, O(k) terms, and printed a chunk at a time.  ``invert`` prints
its k values, which its O(k^2) inverse holds anyway, through the same
rule (``linrec._printed_chunks``), in lists of ``kernels.CHUNK``.  The
first list is taken before anything is written, and a term past the
int/str limit is found before the first list, so a refusal leaves
stdout empty.  ``json`` is imported only for ``--format structured``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction

from . import kernels
from .linrec import (
    DEFAULT_PREFIX,
    LinRec,
    NotInvertible,
    _printed_chunks,
    binomial_transform,
    cauchy,
    hadamard,
    hadamard_to_newton,
    hurwitz,
    inverse_binomial_transform,
    newton,
    newton_inverse,
    newton_to_hadamard,
    seq_sum,
)
from .polymat import NotMonic, Poly, composed_newton, composed_product, composed_sum
from .ring import NotAUnit, QQ, RingElem, RingSpec, ZZ, Zmod


class ParseError(ValueError):
    """Malformed input text."""


# ParseError, InvariantError, NotMonic, DegreeZero and RingMismatch all
# subclass ValueError; NotAUnit is an ArithmeticError.
_INPUT_ERRORS = (ValueError, NotAUnit)

# The exit status when the reader closes stdout early, as a shell reports
# a program that SIGPIPE ended: 128 + 13
_CLOSED_STDOUT = 141

# ASCII digits only: int() alone would also take "1_0" and non-ASCII digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_integer(text: str) -> int:
    """An integer literal of any length; ValueError unless it matches ``[+-]?[0-9]+``.

    Surrounding whitespace is ignored, as ``int()`` ignores it.  The
    conversion goes through ``Decimal``, which the int/str limit does not
    bound: a literal longer than ``sys.get_int_max_str_digits()`` digits
    is well formed, and only printing it is refused.
    """
    text = text.strip()
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid integer literal {text!r}")
    return int(Decimal(text))


def parse_ring(text: str) -> RingSpec:
    text = text.strip()
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
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


def _parse_elements(ring: RingSpec, text: str) -> list[RingElem]:
    return [parse_element(ring, item) for item in _parse_bracket_list(text)]


def parse_poly(text: str, ring: RingSpec) -> Poly:
    """Parse a low-to-high coefficient list of a monic polynomial."""
    p = Poly(ring, _parse_elements(ring, text))
    if not p.is_monic():
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


def _grammar_fields(text: str, grammar: str, keys: tuple[str, ...]) -> tuple:
    """The ring, parsed, then the text of each further field in ``keys``; ``text`` has exactly these fields."""
    fields = _split_fields(text)
    unknown = set(fields) - set(keys)
    if unknown:
        raise ParseError(f"unknown {grammar.replace(' ', '-')} fields: {sorted(unknown)}")
    for key in keys:
        if key not in fields:
            raise ParseError(f"{grammar} is missing the {key!r} field")
    return (parse_ring(fields["ring"]), *(fields[key] for key in keys[1:]))


def parse_sequence(text: str) -> LinRec:
    """Parse ``ring=...;p=...;init=...`` into a validated sequence."""
    ring, p, init = _grammar_fields(text, "sequence", ("ring", "p", "init"))
    return LinRec(parse_poly(p, ring), _parse_elements(ring, init))


def parse_raw_terms(text: str) -> tuple[RingSpec, list[RingElem]]:
    """Parse ``ring=...;terms=...`` into a ring and a fixed term list."""
    ring, terms = _grammar_fields(text, "raw sequence", ("ring", "terms"))
    return ring, _parse_elements(ring, terms)


def _emit(args, plain_lines: list[str], structured: dict | list, terms=None) -> None:
    """Print ``structured`` as JSON, or the plain lines and then, if given, the ``terms:`` line.

    ``terms`` is an iterable of lists of term strings: the words of the
    ``terms:`` line, and in structured output the ``terms`` member that
    is added to ``structured``.  Its first list is taken before anything
    is written, so an error in it leaves stdout empty; then each list is
    joined into one write (:func:`_write_joined`), after a write of the
    separator from the list before, and emptied before that write.  Lists
    are taken one at a time and none is kept.  The JSON array is spliced
    into the text of the rest, element by element, byte for byte as
    ``json.dumps(..., sort_keys=True, indent=2)`` writes the whole.  A field that is no JSON type, such as
    the ring, is written as its ``str``: it is formatted for structured
    output only, so plain output never refuses a modulus that it does
    not print.
    """
    chunks = iter(terms or ())
    chunk = next(chunks, None)
    if args.format == "structured":
        import json  # only structured output needs it; keeps start-up cheap

        text = json.dumps(structured if terms is None else {**structured, "terms": []}, sort_keys=True, indent=2, default=str)
        if chunk is None:
            print(text)
            return
        head, _, tail = text.rpartition('"terms": []')  # a JSON string cannot contain this unescaped
        start, sep, end, word = head + '"terms": [\n    ', ",\n    ", f"\n  ]{tail}\n", json.encoder.encode_basestring_ascii
    else:
        for line in plain_lines:
            print(line)
        if terms is None:
            return
        start, sep, end, word = "terms: ", " ", "\n", str
    write = sys.stdout.write
    write(start)
    if chunk is not None:
        _write_joined(write, chunk, sep, word)
        for chunk in chunks:
            write(sep)
            _write_joined(write, chunk, sep, word)
    write(end)


def _write_joined(write, words: list, sep: str, word) -> None:
    """``write(sep.join(map(word, words)))``, with ``words`` emptied before the write.

    At most two copies of the chunk are alive at each step: the words and
    their printed forms while the forms replace them in the list, the
    forms and the joined text while it is joined, and, once the list is
    cleared, the text and the bytes that the text layer encodes from it
    while it is written.
    """
    words[:] = map(word, words)
    text = sep.join(words)
    words.clear()
    write(text)


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
    _emit(args, [], {"ring": seq.ring}, seq.term_string_chunks(args.count))
    return 0


def _cmd_sequence(args) -> int:
    """``op`` of ``-a`` and ``-b``, or ``transform`` and ``psi`` of ``-s``; plain ``op`` output adds ``initial:``."""
    if args.verb == "op":
        result = _SEQ_OPS[args.kind](parse_sequence(args.a), parse_sequence(args.b))
    else:
        result = _TRANSFORMS[args.kind](parse_sequence(args.sequence))
    initial = list(map(str, result.initial_values))
    plain = [f"sequence: {result}", f"charpoly: {result.charpoly}"]
    if args.verb == "op":
        plain.append(f"initial: [{','.join(initial)}]")
    _emit(
        args,
        plain,
        {
            "kind": args.kind,
            "ring": result.ring,
            "charpoly": list(map(str, result.charpoly.values)),
            "initial": initial,
        },
        result.term_string_chunks(args.count),
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
        {"kind": args.kind, "ring": ring, "result": list(map(str, result.values))},
    )
    return 0


def _cmd_invert(args) -> int:
    seq = parse_sequence(args.sequence)
    try:
        values = [b.value for b in newton_inverse(seq, args.count)]
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
    chunks = (values[i : i + kernels.CHUNK] for i in range(0, len(values), kernels.CHUNK))
    _emit(args, [], {"invertible": True, "ring": seq.ring}, _printed_chunks(chunks, seq.ring.modulus))
    return 0


def _cmd_verify(args) -> int:
    from . import verify  # only this verb and selftest need the oracles

    check = args.check
    if check in ("recurrence", "ogf"):
        text = _require(args.sequence, "-s")
        if "terms" in _split_fields(text):
            ring, seq = parse_raw_terms(text)
            if not args.p:
                raise ParseError("raw terms need an explicit -p polynomial")
            p = parse_poly(args.p, ring)
        else:
            seq = parse_sequence(text)
            p = parse_poly(args.p, seq.ring) if args.p else seq.charpoly
            if check == "recurrence":
                seq = seq.terms(max(args.count, len(p.values)))  # deg p + 1 terms at least
        if check == "ogf":
            report = verify.ogf_poly_check(seq, extra=args.extra, p=p)
        else:
            report = verify.satisfies_recurrence(seq, p)
    elif check in ("decomposition", "morphism"):
        a, b = (parse_sequence(_require(text, flag)) for text, flag in ((args.a, "-a"), (args.b, "-b")))
        if check == "decomposition":
            report = verify.decomposition_check(a, b, args.count)
        else:
            report = verify.morphism_check(args.map, [(a, b)], args.count)
    else:  # "inverse", the last of the choices argparse allows
        seq = parse_sequence(_require(args.sequence, "-s"))
        report = verify.inverse_check(seq, args.count)
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
    passed = sum(1 for r in results if r.passed)
    _emit(
        args,
        [*(r.line() for r in results), f"selftest: {passed}/{len(results)} criteria passed"],
        [{"number": str(r.number), "name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
    )
    return 0 if passed == len(results) else 1


def _integer(least: int | None = None):
    """The type of every numeric option: an integer literal, at least ``least`` if given.

    argparse names a type by its ``__name__`` when a value does not
    convert, so a malformed value reads ``invalid integer value: 'x'``;
    one below ``least`` reads ``must be >= <least>``.
    """

    def integer(text: str) -> int:
        value = _parse_integer(text)
        if least is not None and value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recseq", description="Closure algebra for linear recurrent sequences with exact arithmetic."
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, help: str, func, *options, **defaults) -> None:
        """A subparser with ``options`` in order, then ``--format``; ``func`` and ``defaults`` are set on it."""
        p = sub.add_parser(name, help=help)
        for flags, settings in options:
            p.add_argument(*flags, **settings)
        p.add_argument("--format", choices=["plain", "structured"], default="plain")
        p.set_defaults(func=func, **defaults)

    def option(*flags, **settings):
        return flags, settings

    def sequence(required=True):
        return option("-s", "--sequence", required=required)

    def count(least=0, default=10, **settings):
        return option("-n", "--count", type=_integer(least), default=default, **settings)

    def kind(table):
        return option("--kind", choices=sorted(table), required=True)

    verb("terms", "print the first terms of a sequence", _cmd_terms, sequence(), count())
    verb("op", "combine two sequences under a product", _cmd_sequence,
         kind(_SEQ_OPS), option("-a", required=True), option("-b", required=True), count())
    verb("charpoly-op", "composed operation on monic polynomials", _cmd_charpoly_op,
         kind(_POLY_OPS), option("-p", required=True), option("-q", required=True), option("--ring", default="Z"))
    verb("invert", "Newton-product inverse prefix", _cmd_invert, sequence(), count(1))
    verb("transform", "binomial transforms and the algebra isomorphism", _cmd_sequence,
         kind(_TRANSFORMS), sequence(), count())
    verb("psi", "shorthand for transform --kind psi", _cmd_sequence, sequence(), count(), kind="psi")
    verb("verify", "run a brute-force verification check", _cmd_verify,
         option("--check", choices=["recurrence", "ogf", "decomposition", "morphism", "inverse"], required=True),
         sequence(False), option("-a"), option("-b"), option("-p"),  # each check asks for those it reads
         option("--map", choices=["psi", "psi-inverse"], default="psi"),
         count(1, DEFAULT_PREFIX, help="prefix length of the recurrence check on a sequence, and of decomposition, "
               "morphism and inverse (default %(default)s); ogf reads --extra, and recurrence on raw terms checks "
               "them all"),
         option("--extra", type=_integer(1), default=50))
    # no --seed: selftest.DEFAULT_SEED
    verb("selftest", "run the full acceptance suite", _cmd_selftest, option("--seed", type=_integer(), default=None))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # what is still buffered cannot be written; send it to devnull, or
        # the flush at exit raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _CLOSED_STDOUT
    except NotInvertible as exc:
        print(f"not invertible: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
