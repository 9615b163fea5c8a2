"""CLI parsing, round trips, verbs, exit codes, and structured output."""

import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recseq import cli, kernels, newton_inverse, selftest
from recseq.cli import (
    ParseError,
    parse_element,
    parse_poly,
    parse_raw_terms,
    parse_ring,
    parse_sequence,
)
from recseq.polymat import NotMonic
from recseq.ring import QQ, ZZ, RingElem, Zmod

from conftest import linrecs


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FIB_Q = "ring=Q;p=[-1,-1,1];init=[0,1]"
FIB_Z = "ring=Z;p=[-1,-1,1];init=[0,1]"
LONG = "3" * 4400  # a well-formed literal longer than the int/str limit
LONG_VALUE = (10**4400 - 1) // 3


class TestParsing:
    def test_rings(self):
        assert parse_ring("Z") == ZZ
        assert parse_ring("Q") == QQ
        assert str(parse_ring("Zmod:10007")) == "Zmod:10007"

    def test_bad_rings(self):
        for text in ("Zmod:1", "Zmod:x", "GF:8", "", "Zmod:1_0", "Zmod:\u0661\u0660", "Zmod:0x10"):
            with pytest.raises(ParseError):
                parse_ring(text)

    def test_poly_monicity_enforced(self):
        with pytest.raises(NotMonic):
            parse_poly("[-1,-1,2]", ZZ)

    def test_fraction_literals_only_over_q(self):
        assert parse_poly("[-1/2,1]", QQ).coeffs[0].value.denominator == 2
        with pytest.raises(ParseError):
            parse_poly("[-1/2,1]", ZZ)

    def test_integer_literals_are_ascii_digits_only(self):
        assert parse_element(ZZ, " -12 ").value == -12
        assert parse_element(ZZ, "+7").value == 7
        assert parse_element(QQ, "3 / -4").value == Fraction(-3, 4)
        for text in ("1_0", "\u0661", "\uff11", "0x1f", "1e3", "", "-", "1/2"):
            with pytest.raises(ParseError):
                parse_element(ZZ, text)
        for text in ("1/_2", "\u0663/4", "3/\u0664", "/4", "3/"):
            with pytest.raises(ParseError):
                parse_element(QQ, text)

    def test_integer_literals_of_any_length(self):
        # the int/str limit bounds printing, not parsing
        assert parse_element(ZZ, LONG).value == LONG_VALUE
        assert parse_element(Zmod(7), LONG).value == LONG_VALUE % 7
        assert parse_element(QQ, f"-1/{LONG}").value == Fraction(-1, LONG_VALUE)
        assert parse_element(QQ, f"{LONG}/3").value == Fraction(LONG_VALUE, 3)
        assert parse_ring(f"Zmod:{LONG}").modulus == LONG_VALUE

    def test_sequence_round_trip(self):
        seq = parse_sequence(FIB_Q)
        assert parse_sequence(str(seq)) == seq

    def test_sequence_with_spaces(self):
        seq = parse_sequence("ring=Q; p=[-1,-1,1]; init=[0, 1]")
        assert str(seq) == FIB_Q

    def test_sequence_missing_fields(self):
        with pytest.raises(ParseError):
            parse_sequence("ring=Q;p=[-1,1]")
        with pytest.raises(ParseError):
            parse_sequence("ring=Q;p=[-1,1];init=[1];extra=[2]")

    def test_init_length_checked_at_parse_time(self):
        from recseq import InvariantError

        with pytest.raises(InvariantError):
            parse_sequence("ring=Q;p=[-1,-1,1];init=[0]")

    def test_raw_terms(self):
        ring, terms = parse_raw_terms("ring=Z;terms=[1,2,4,8]")
        assert ring == ZZ
        assert [t.value for t in terms] == [1, 2, 4, 8]

    def test_ring_and_poly_round_trips(self):
        for text in ("Z", "Q", "Zmod:17"):
            ring = parse_ring(text)
            assert parse_ring(str(ring)) == ring
        for ring, text in [(ZZ, "[-1,-1,1]"), (QQ, "[1/2,-3,1]")]:
            p = parse_poly(text, ring)
            assert parse_poly(str(p), ring) == p

    @given(linrecs(max_degree=3))
    @settings(max_examples=30, deadline=None)
    def test_any_sequence_round_trips(self, seq):
        assert parse_sequence(str(seq)) == seq


class TestVerbs:
    def test_terms(self, capsys):
        code, out, _ = run_cli(capsys, "terms", "-s", "ring=Zmod:7;p=[-1,-1,1];init=[0,1]", "-n", "10")
        assert code == 0
        assert out.strip() == "terms: 0 1 1 2 3 5 1 6 0 6"

    def test_op_hurwitz_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "op", "--kind", "hurwitz", "-a", FIB_Q, "-b", FIB_Q, "-n", "8")
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert lines["charpoly"] == "[-4,6,1,-4,1]"
        assert lines["terms"].split() == ["0", "0", "2", "6", "22", "70", "230", "742"]
        # the printed sequence re-parses to an equal object
        reparsed = parse_sequence(lines["sequence"])
        assert str(reparsed) == lines["sequence"]

    def test_charpoly_op(self, capsys):
        code, out, _ = run_cli(capsys, "charpoly-op", "--kind", "boxtimes", "-p", "[-2,1]", "-q", "[-3,1]")
        assert code == 0
        assert out.strip() == "result: [-11,1]"

    def test_charpoly_op_star_default_ring(self, capsys):
        code, out, _ = run_cli(capsys, "charpoly-op", "--kind", "star", "-p", "[-1,1]", "-q", "[-2,1]")
        assert code == 0
        assert out.strip() == "result: [-3,1]"

    def test_invert_over_q(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "-s", "ring=Q;p=[-1,1];init=[1]", "-n", "5")
        assert code == 0
        assert out.strip() == "terms: 1 -1/2 1/4 -1/8 1/16"

    def test_invert_over_z_reports_witness(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "-s", "ring=Z;p=[-1,1];init=[1]", "-n", "5")
        assert code == 1
        assert "index 1" in out

    def test_transform_binomial(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--kind", "binomial", "-s", FIB_Q, "-n", "6")
        assert code == 0
        assert "terms: 0 1 3 8 21 55" in out

    def test_psi_alias(self, capsys):
        code_alias, out_alias, _ = run_cli(capsys, "psi", "-s", FIB_Q, "-n", "8")
        code_full, out_full, _ = run_cli(capsys, "transform", "--kind", "psi", "-s", FIB_Q, "-n", "8")
        assert code_alias == code_full == 0
        assert out_alias == out_full

    @pytest.mark.parametrize(
        "argv, out",
        [
            pytest.param(["terms", "-s", FIB_Z], "terms: \n", id="terms"),
            pytest.param(
                ["op", "--kind", "newton", "-a", FIB_Q, "-b", "ring=Q;p=[-2,1];init=[1]"],
                "sequence: ring=Q;p=[1,-7,1];init=[0,3]\ncharpoly: [1,-7,1]\ninitial: [0,3]\nterms: \n",
                id="op",
            ),
            pytest.param(
                ["transform", "--kind", "binomial", "-s", "ring=Zmod:12;p=[-1,-1,1];init=[0,1]"],
                "sequence: ring=Zmod:12;p=[1,9,1];init=[0,1]\ncharpoly: [1,9,1]\nterms: \n",
                id="transform",
            ),
            pytest.param(
                ["psi", "-s", "ring=Q;p=[-1/2,1];init=[1/3]"],
                "sequence: ring=Q;p=[1/2,1];init=[1/3]\ncharpoly: [1/2,1]\nterms: \n",
                id="psi",
            ),
            pytest.param(
                ["terms", "-s", FIB_Z, "--format", "structured"],
                '{\n  "ring": "Z",\n  "terms": []\n}\n',
                id="terms-structured",
            ),
            pytest.param(
                ["op", "--kind", "newton", "-a", FIB_Q, "-b", "ring=Q;p=[-2,1];init=[1]", "--format", "structured"],
                '{\n  "charpoly": [\n    "1",\n    "-7",\n    "1"\n  ],\n  "initial": [\n    "0",\n    "3"\n  ],\n'
                '  "kind": "newton",\n  "ring": "Q",\n  "terms": []\n}\n',
                id="op-structured",
            ),
            pytest.param(
                ["transform", "--kind", "binomial", "-s", "ring=Zmod:12;p=[-1,-1,1];init=[0,1]", "--format", "structured"],
                '{\n  "charpoly": [\n    "1",\n    "9",\n    "1"\n  ],\n  "initial": [\n    "0",\n    "1"\n  ],\n'
                '  "kind": "binomial",\n  "ring": "Zmod:12",\n  "terms": []\n}\n',
                id="transform-structured",
            ),
            pytest.param(
                ["psi", "-s", "ring=Q;p=[-1/2,1];init=[1/3]", "--format", "structured"],
                '{\n  "charpoly": [\n    "1/2",\n    "1"\n  ],\n  "initial": [\n    "1/3"\n  ],\n'
                '  "kind": "psi",\n  "ring": "Q",\n  "terms": []\n}\n',
                id="psi-structured",
            ),
        ],
    )
    def test_zero_terms(self, capsys, argv, out):
        # plain output keeps the space after "terms:" when no term follows
        assert run_cli(capsys, *argv, "-n", "0") == (0, out, "")

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["terms", "-s", FIB_Q, "--bogus"])
        assert exc.value.code == 2

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "terms", "-s", "ring=Zmod:1;p=[-1,1];init=[1]")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["terms", "-s", "ring=Z;p=[-1,-1,1];init=[1_0,\u0661]"], id="ring=Z;p=[-1,-1,1];init=[1_0,\u0661]"),
            pytest.param(["terms", "-s", "ring=Zmod:1_0;p=[-1,1];init=[1]"], id="ring=Zmod:1_0;p=[-1,1];init=[1]"),
            pytest.param(["terms", "-s", "ring=Q;p=[-1/\u0662,1];init=[1]"], id="ring=Q;p=[-1/\u0662,1];init=[1]"),
            pytest.param(["terms", "-s", FIB_Z, "-n", "\u0661_\u0660"], id="-n"),
            pytest.param(["verify", "--check", "inverse", "-s", FIB_Z, "--extra", "\u0665"], id="--extra"),
            pytest.param(["selftest", "--seed", "\u0663"], id="--seed"),
        ],
    )
    def test_non_ascii_or_underscored_literals_exit_two(self, capsys, argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects option values itself
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["terms", "-s", "ring=Z;p=[-1,1];init=[1];extra=[2]"], "unknown sequence fields: ['extra']"),
            (["terms", "-s", "ring=Z;q=1"], "unknown sequence fields: ['q']"),  # before the missing ones
            (["terms", "-s", "p=[-1,1];init=[1]"], "sequence is missing the 'ring' field"),
            (["terms", "-s", "ring=Z;init=[1]"], "sequence is missing the 'p' field"),
            (["terms", "-s", "ring=Z;p=[-1,1]"], "sequence is missing the 'init' field"),
            (["verify", "--check", "ogf", "-s", "ring=Z;terms=[1,2];p=[-2,1]", "-p", "[-2,1]"],
             "unknown raw-sequence fields: ['p']"),
            (["verify", "--check", "recurrence", "-s", "ring=Z;terms=[1,2];init=[1];x=2", "-p", "[-2,1]"],
             "unknown raw-sequence fields: ['init', 'x']"),
            (["verify", "--check", "recurrence", "-s", "terms=[1,2]", "-p", "[-2,1]"],
             "raw sequence is missing the 'ring' field"),
            (["terms", "-s", "ring=Z;p=[-1,-1,1];init=0,1"], "expected a bracketed list, got '0,1'"),
            (["terms", "-s", "ring=Z;ring=Z;p=[-1,1];init=[1]"], "duplicate field 'ring'"),
        ],
    )
    def test_field_errors_exit_two(self, capsys, argv, err):
        assert run_cli(capsys, *argv) == (2, "", f"error: {err}\n")

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["terms", "-s", FIB_Z, "-n", "-1"], "must be >= 0"),
            (["invert", "-s", FIB_Q, "-n", "0"], "must be >= 1"),
        ],
    )
    def test_counts_out_of_range_exit_two(self, capsys, argv, err):
        with pytest.raises(SystemExit) as exc:  # argparse rejects option values itself
            cli.main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.endswith(f": error: argument -n/--count: {err}\n")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["terms", "-s", FIB_Z, "-n", "abc"], "-n/--count"),
            (["invert", "-s", FIB_Q, "-n", "abc"], "-n/--count"),
            (["verify", "--check", "inverse", "-s", FIB_Q, "-n", "abc"], "-n/--count"),
            (["verify", "--check", "ogf", "-s", FIB_Q, "--extra", "abc"], "--extra"),
            (["selftest", "--seed", "abc"], "--seed"),
        ],
    )
    def test_malformed_integers_exit_two(self, capsys, argv, option):
        # one message for every numeric option, naming no function of cli
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.endswith(f": error: argument {option}: invalid integer value: 'abc'\n")

    def test_non_monic_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "terms", "-s", "ring=Z;p=[-1,2];init=[1]")
        assert code == 2

    def test_non_verify_verbs_leave_the_oracles_unloaded(self):
        # every verb but verify and selftest runs without recseq.verify; the
        # five verify checks run without recseq.matrix_oracles, which only
        # selftest loads; no verb, verify included, pulls in the dataclasses
        # or inspect modules; and if json was not loaded before cli, neither
        # the import nor a plain-format call loads it
        verbs = [
            ["terms", "-s", FIB_Q, "-n", "5"],
            ["op", "--kind", "newton", "-a", FIB_Q, "-b", FIB_Q],
            ["charpoly-op", "--kind", "star", "-p", "[-1,1]", "-q", "[-2,1]"],
            ["invert", "-s", "ring=Q;p=[-1,1];init=[1]"],
            ["invert", "-s", "ring=Z;p=[-1,1];init=[1]"],
            ["transform", "--kind", "binomial", "-s", FIB_Z],
            ["psi", "-s", FIB_Z],
            ["terms", "-s", "ring=Z;p=[-1,2];init=[1]"],
        ]
        checks = [
            ["verify", "--check", "recurrence", "-s", FIB_Q, "-n", "5"],
            ["verify", "--check", "ogf", "-s", FIB_Q],
            ["verify", "--check", "decomposition", "-a", FIB_Q, "-b", FIB_Q, "-n", "5"],
            ["verify", "--check", "morphism", "-a", FIB_Q, "-b", FIB_Q, "-n", "5"],
            ["verify", "--check", "inverse", "-s", FIB_Q, "-n", "5"],
        ]
        code = f"""
import contextlib, io, sys
json_before = "json" in sys.modules
from recseq import cli
oracles, never = ("recseq.verify", "recseq.matrix_oracles"), ("dataclasses", "inspect")
if not json_before:
    never += ("json",)
def loaded(names):
    return [name for name in names if name in sys.modules]
def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
assert not loaded(oracles + never), ("import", loaded(oracles + never))
for argv in {verbs!r}:
    run(argv)
    assert not loaded(oracles + never), (argv, loaded(oracles + never))
for argv in {checks!r}:
    run(argv)
    assert loaded(oracles) == ["recseq.verify"], (argv, loaded(oracles))
    assert not loaded(never), (argv, loaded(never))
run(["terms", "-s", {FIB_Q!r}, "--format", "structured"])
assert "json" in sys.modules
from recseq import selftest  # as the selftest verb imports it
assert "recseq.matrix_oracles" in sys.modules
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def _limit_message(value: int = 10**4300) -> str:
    try:
        str(value)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("Python's int/str limit is off")


IMPULSE_MOD_LONG = f"ring=Zmod:{LONG};p=[0,1];init=[1]"
POWERS_OF_TEN = "ring=Z;p=[-10,1];init=[1]"  # a_n = 10^n
THIRDS_OF_POWERS_OF_TEN = "ring=Q;p=[-10,1];init=[1/3]"  # a_n = 10^n / 3
TEN_4299 = "1" + "0" * 4299  # 10^4299: 4300 digits


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit")
class TestIntStrLimit:
    """Over Z and Q a numerator of more than ``sys.get_int_max_str_digits()`` digits is refused, exit 2."""

    @pytest.mark.parametrize(
        "argv, last",
        [
            pytest.param(["terms", "-s", POWERS_OF_TEN], TEN_4299, id="terms"),
            pytest.param(
                ["op", "--kind", "hadamard", "-a", POWERS_OF_TEN, "-b", "ring=Z;p=[-1,1];init=[1]"], TEN_4299, id="op"
            ),
            pytest.param(  # sum C(n,i) 9^i = 10^n
                ["transform", "--kind", "binomial", "-s", "ring=Z;p=[-9,1];init=[1]"], TEN_4299, id="transform"
            ),
            pytest.param(["terms", "-s", THIRDS_OF_POWERS_OF_TEN], TEN_4299 + "/3", id="terms-Q"),
            pytest.param(
                ["op", "--kind", "cauchy", "-a", THIRDS_OF_POWERS_OF_TEN, "-b", "ring=Q;p=[0,1];init=[1]"],
                TEN_4299 + "/3",
                id="op-Q",
            ),
        ],
    )
    def test_limit_is_the_interpreters(self, capsys, argv, last):
        code, out, err = run_cli(capsys, *argv, "-n", "4300")
        assert code == 0
        assert out.split()[-1] == last
        code, out, err = run_cli(capsys, *argv, "-n", "4301")
        assert (code, out, err) == (2, "", f"error: {_limit_message()}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["terms", "-s", f"ring=Z;p=[-1,1];init=[{LONG}]"], id="element-Z"),
            pytest.param(["terms", "-s", f"ring=Q;p=[-1,1];init=[-1/{LONG}]"], id="rational-Q"),
            pytest.param(["terms", "-s", f"ring=Q;p=[-{LONG}/2,1];init=[1]"], id="rational-Q-lam2"),
            # the modulus is formatted: in the ring of the structured
            # output, and in the sequence line of op
            pytest.param(["terms", "--format", "structured", "-s", IMPULSE_MOD_LONG], id="modulus"),
            pytest.param(["op", "--kind", "sum", "-a", IMPULSE_MOD_LONG, "-b", IMPULSE_MOD_LONG], id="modulus-op"),
        ],
    )
    def test_long_literals_parse_and_printing_refuses_them(self, capsys, argv):
        # well-formed input: the refusal is the interpreter's, when the
        # value is printed, and stdout stays empty
        assert run_cli(capsys, *argv, "-n", "2") == (2, "", f"error: {_limit_message(LONG_VALUE)}\n")

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["terms", "-s", f"ring=Zmod:{LONG};p=[-1,-1,1];init=[0,1]", "-n", "8"], "terms: 0 1 1 2 3 5 8 13"),
            (["invert", "-s", IMPULSE_MOD_LONG, "-n", "3"], "terms: 1 0 0"),
        ],
        ids=["terms", "invert"],
    )
    def test_plain_output_does_not_format_the_modulus(self, capsys, argv, line):
        # the ring appears only in structured output, so a plain call over
        # a modulus past the limit prints its short residues
        assert run_cli(capsys, *argv) == (0, line + "\n", "")

    def test_residues_of_a_long_modulus_are_checked_before_the_first_chunk(self, capsys):
        # a_n = 10^(16 n) mod 10^4400 + 7: index 269 is the first term past
        # the limit, after the first chunk has been unrolled, and its
        # refusal must still leave stdout empty
        seq = f"ring=Zmod:1{'0' * 4399}7;p=[-1{'0' * 16},1];init=[1]"
        terms = " ".join("1" + "0" * (16 * n) for n in range(269))
        assert run_cli(capsys, "terms", "-s", seq, "-n", "269") == (0, f"terms: {terms}\n", "")
        assert run_cli(capsys, "terms", "-s", seq, "-n", "270") == (2, "", f"error: {_limit_message(10**4304)}\n")

    def test_long_literal_reduces_mod_m(self, capsys):
        r = LONG_VALUE % 7
        argv = ["terms", "-s", f"ring=Zmod:7;p=[-1,1];init=[{LONG}]", "-n", "3"]
        assert run_cli(capsys, *argv) == (0, f"terms: {r} {r} {r}\n", "")

    def test_no_limit_prints_every_term(self, capsys):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out, err = run_cli(capsys, "terms", "-s", POWERS_OF_TEN, "-n", "4301")
        finally:
            sys.set_int_max_str_digits(old)
        assert (code, err) == (0, "")
        assert out.split()[1:] == ["1" + "0" * n for n in range(4301)]


CHUNK = kernels.CHUNK
# the edges of one and two chunks, and those of the 256-term chunk that
# came before the 64-term one (255 to 257 also straddle the fourth 64-term
# edge, and 513 ends one term into the ninth chunk)
STREAM_COUNTS = sorted({0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 255, 256, 257, 513})
Q_LAM_1 = "ring=Q;p=[-1,-1,1];init=[1/2,-2/3]"  # delta = 6
Q_LAM_2 = "ring=Q;p=[-1/2,-1,1];init=[1/3,1]"


def _whole_output(argv, structured):
    """What ``argv`` prints, built from the library in one piece: ``json.dumps`` or one joined line."""
    verb, n = argv[0], int(argv[-1])
    if verb in ("terms", "invert"):
        seq = parse_sequence(argv[2])
        if verb == "terms":
            fields, terms = {}, [str(v) for v in seq.term_values(n)]
        else:
            fields, terms = {"invertible": True}, [str(v) for v in newton_inverse(seq, n)]
        fields.update(ring=str(seq.ring), terms=terms)
        lines = [f"terms: {' '.join(terms)}"]
    else:
        if verb == "op":
            result = cli._SEQ_OPS[argv[2]](parse_sequence(argv[4]), parse_sequence(argv[6]))
        else:
            result = cli._TRANSFORMS[argv[2]](parse_sequence(argv[4]))
        terms = [str(v) for v in result.term_values(n)]
        initial = [str(v) for v in result.initial_values]
        fields = {
            "kind": argv[2],
            "ring": str(result.ring),
            "charpoly": [str(v) for v in result.charpoly.values],
            "initial": initial,
            "terms": terms,
        }
        lines = [f"sequence: {result}", f"charpoly: {result.charpoly}"]
        if verb == "op":
            lines.append(f"initial: [{','.join(initial)}]")
        lines.append(f"terms: {' '.join(terms)}")
    return json.dumps(fields, sort_keys=True, indent=2) + "\n" if structured else "\n".join(lines) + "\n"


_STREAMED = [
    pytest.param(["terms", "-s", FIB_Z], id="terms-Z"),
    pytest.param(["terms", "-s", Q_LAM_1], id="terms-Q"),
    pytest.param(["terms", "-s", Q_LAM_2], id="terms-Q-lam2"),
    pytest.param(["terms", "-s", "ring=Zmod:12;p=[-1,-1,1];init=[0,1]"], id="terms-Zmod:12"),
    pytest.param(["op", "--kind", "hurwitz", "-a", Q_LAM_1, "-b", "ring=Q;p=[-2,1];init=[1/5]"], id="op-Q"),
    pytest.param(["op", "--kind", "newton", "-a", f"ring=Zmod:{2**61 - 1};p=[-1,-1,1];init=[0,1]",
                  "-b", f"ring=Zmod:{2**61 - 1};p=[-2,1];init=[1]"], id="op-Zmod"),
    pytest.param(["transform", "--kind", "psi", "-s", FIB_Z], id="transform-Z"),
    pytest.param(["transform", "--kind", "binomial", "-s", Q_LAM_2], id="transform-Q-lam2"),
]


def _traced_growth(monkeypatch, argv, count):
    """How far the ``tracemalloc`` peak of ``argv + [count]`` passes that of ``argv + ["10"]``.

    stdout is a real text file, so the bytes that the text layer encodes
    are traced too.
    """

    def peak(count):
        with open(os.devnull, "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            tracemalloc.start()
            try:
                assert cli.main([*argv, count]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    peak("10")  # the first call warms the parser and the imports
    return peak(count) - peak("10")


class TestStream:
    """Terms are written chunk by chunk, with the same bytes as the whole output."""

    @pytest.mark.parametrize("structured", [False, True], ids=["plain", "structured"])
    @pytest.mark.parametrize("count", STREAM_COUNTS)
    @pytest.mark.parametrize("argv", _STREAMED)
    def test_stream_is_the_whole_output(self, capsys, argv, count, structured):
        argv = [*argv, "-n", str(count)]
        fmt = ["--format", "structured"] if structured else []
        assert run_cli(capsys, *argv, *fmt) == (0, _whole_output(argv, structured), "")

    @pytest.mark.parametrize("structured", [False, True], ids=["plain", "structured"])
    @pytest.mark.parametrize("count", STREAM_COUNTS[1:])  # invert takes -n >= 1
    def test_invert_stream_is_the_whole_output(self, capsys, count, structured):
        argv = ["invert", "-s", "ring=Zmod:10007;p=[-1,-1,1];init=[1,1]", "-n", str(count)]
        fmt = ["--format", "structured"] if structured else []
        assert run_cli(capsys, *argv, *fmt) == (0, _whole_output(argv, structured), "")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit")
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["terms", "-s", POWERS_OF_TEN, "--format", "structured"], id="terms-structured"),
            pytest.param(
                ["op", "--kind", "hadamard", "-a", POWERS_OF_TEN, "-b", "ring=Z;p=[-1,1];init=[1]",
                 "--format", "structured"],
                id="op-structured",
            ),
            pytest.param(["terms", "-s", THIRDS_OF_POWERS_OF_TEN, "--format", "structured"], id="terms-Q-structured"),
            # lam = 10: a_n = 10^-n, whose denominator passes the limit
            pytest.param(["terms", "-s", "ring=Q;p=[-1/10,1];init=[1]"], id="terms-Q-lam10"),
            pytest.param(
                ["terms", "-s", "ring=Q;p=[-1/10,1];init=[1]", "--format", "structured"], id="terms-Q-lam10-structured"
            ),
        ],
    )
    def test_refusal_past_the_first_chunk_leaves_stdout_empty(self, capsys, argv):
        # the first term too long for str comes at index 4300, many chunks in
        assert run_cli(capsys, *argv, "-n", "4301") == (2, "", f"error: {_limit_message()}\n")
        code, out, err = run_cli(capsys, *argv, "-n", "4300")
        assert (code, err) == (0, "")
        assert TEN_4299 in out  # the last term, 4300 digits, is printed

    def test_a_chunk_is_written_from_one_copy(self, monkeypatch):
        # at 10^4 terms over Z the last full chunks hold terms of more than
        # 2,000 digits each, kernels.CHUNK of them to a write; while a
        # chunk is written, the text and the bytes that the text layer
        # encodes from it should be the only copies of the chunk alive:
        # no list of its words, no second joined string, no Decimal or int
        # chunk and no previous chunk.  The file is a real text file, so
        # the encoded copy is traced.
        argv = ["terms", "-s", "ring=Z;p=[-1,1,1];init=[3,-2]", "-n"]

        class Longest:
            size = 0

            def write(self, text):
                self.size = max(self.size, len(text))

            def flush(self):
                pass

        longest = Longest()
        monkeypatch.setattr(sys, "stdout", longest)
        assert cli.main([*argv, "10000"]) == 0
        grown = _traced_growth(monkeypatch, argv, "10000")
        assert longest.size > 2000 * kernels.CHUNK
        assert grown < 2.5 * longest.size, (grown, longest.size)

    @pytest.mark.parametrize("sequence", ["ring=Z;p=[-1,-1,1];init=[3,-2]", Q_LAM_1], ids=["Z", "Q"])
    def test_a_long_print_grows_by_one_small_chunk(self, monkeypatch, sequence):
        # 10^4 terms of up to 2,090 digits: the traced peak may grow at most
        # 0.5 MB over that of ten terms, about two copies of one 64-term
        # chunk; a 256-term chunk made it grow about 1.08 MB
        grown = _traced_growth(monkeypatch, ["terms", "-s", sequence, "-n"], "10000")
        assert grown <= 500_000, grown

    @pytest.mark.parametrize("structured", [False, True], ids=["plain", "structured"])
    def test_invert_writes_one_chunk_at_a_time(self, monkeypatch, structured):
        # 200 inverse terms over Q print 516 KB; each write holds at most
        # kernels.CHUNK of them, and the writes join to the whole output
        argv = ["invert", "-s", "ring=Q;p=[1,3,1];init=[-5,-2]", "-n", "200"]
        fmt = ["--format", "structured"] if structured else []

        class Writes(list):
            write = list.append

            def flush(self):
                pass

        writes = Writes()
        monkeypatch.setattr(sys, "stdout", writes)
        assert cli.main([*argv, *fmt]) == 0
        monkeypatch.undo()
        assert "".join(writes) == _whole_output(argv, structured)
        sep = ",\n" if structured else " "  # a write of c terms holds c - 1 separators
        assert max(text.count(sep) + 1 for text in writes) <= kernels.CHUNK

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit")
    @pytest.mark.parametrize("structured", [False, True], ids=["plain", "structured"])
    def test_invert_refusal_leaves_stdout_empty(self, capsys, structured):
        # a term of the inverse passes the int/str limit before index 200:
        # every value is checked before the first chunk is written
        argv = ["invert", "-s", "ring=Q;p=[-2,-2,1];init=[-2,1/3]", "-n", "200"]
        argv += ["--format", "structured"] if structured else []
        assert run_cli(capsys, *argv) == (2, "", f"error: {_limit_message()}\n")

    def test_invert_stops_at_the_first_non_unit(self, capsys, unroll_budget):
        # the failure at index 0 reads one chunk of the divisors, not 10^6;
        # an unroll past 2 CHUNK terms fails before it runs
        unroll_budget.reset(2 * kernels.CHUNK)
        argv = ["invert", "-s", "ring=Zmod:12;p=[-1,-1,1];init=[0,1]", "-n", "1000000"]
        want = "not invertible: binomial-transform value at index 0 is not a unit\n"
        assert run_cli(capsys, *argv) == (1, want, "")

    @pytest.mark.parametrize("structured", [False, True], ids=["plain", "structured"])
    def test_closed_stdout_ends_quietly(self, structured):
        # a reader that stops early, as `| head -c 20` does: no traceback,
        # exit 141, the status a shell reports for a program ended by SIGPIPE
        argv = ["terms", "-s", "ring=Zmod:10007;p=[-1,-1,1];init=[0,1]", "-n", "300000"]
        argv += ["--format", "structured"] if structured else []
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "recseq.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        head = proc.stdout.read(20)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")
        assert head == (b'{\n  "ring": "Zmod:10' if structured else b"terms: 0 1 1 2 3 5 8")


class TestVerifyVerb:
    def test_recurrence_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "recurrence", "-s", FIB_Q)
        assert code == 0
        assert "PASS" in out

    def test_recurrence_failure_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--check", "recurrence", "-s", "ring=Z;terms=[1,2,4,8]", "-p", "[-3,1]"
        )
        assert code == 1
        assert "FAIL at index 1" in out

    def test_ogf_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "ogf", "-s", FIB_Q)
        assert code == 0

    def test_decomposition(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "decomposition", "-a", FIB_Q, "-b", FIB_Q)
        assert code == 0
        assert "PASS" in out

    def test_morphism(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--check", "morphism", "--map", "psi", "-a", FIB_Q, "-b", FIB_Q, "-n", "20"
        )
        assert code == 0

    def test_inverse(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "inverse", "-s", "ring=Q;p=[-1,1];init=[1]", "-n", "15")
        assert code == 0

    def test_inverse_not_invertible_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--check", "inverse", "-s", "ring=Z;p=[-1,1];init=[1]")
        assert code == 1

    def test_missing_argument_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--check", "recurrence")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--check", "ogf", "-s", "ring=Z;terms=[1,2,4,8,16]", "-p", "[-2,1]", "--extra", "3"],
             (0, "check ogf: PASS (prefix=5)\n", "")),
            (["--check", "ogf", "-s", "ring=Z;terms=[1,2,4,8,17]", "-p", "[-2,1]", "--extra", "3"],
             (1, "check ogf: FAIL at index 4: expected 0, got 1 (prefix=5)\n", "")),
            (["--check", "ogf", "-s", "ring=Z;terms=[1,2,4,8,16]"],
             (2, "", "error: raw terms need an explicit -p polynomial\n")),
            (["--check", "recurrence", "-s", "ring=Z;terms=[1,2,4,8,16]"],
             (2, "", "error: raw terms need an explicit -p polynomial\n")),
            (["--check", "recurrence", "-s", "ring=Z;terms=[1,x]"], (2, "", "error: bad element literal 'x'\n")),
            (["--check", "recurrence", "-s", FIB_Z, "-p", "[1,0,-2,1]", "-n", "6"],
             (0, "check recurrence: PASS (prefix=6)\n", "")),
            (["--check", "recurrence", "-s", FIB_Z, "-p", "[1,0,-2,1]", "-n", "2"],  # deg p + 1 terms at least
             (0, "check recurrence: PASS (prefix=4)\n", "")),
            (["--check", "recurrence", "-s", FIB_Z, "-p", "[-2,1]", "-n", "6"],
             (1, "check recurrence: FAIL at index 1: expected 0, got 1 (prefix=6)\n", "")),
            (["--check", "ogf", "-s", FIB_Z, "-p", "[1,0,-2,1]", "--extra", "2"],
             (0, "check ogf: PASS (prefix=6)\n", "")),
            (["--check", "ogf", "-s", FIB_Z, "-p", "[1,x]"], (2, "", "error: bad element literal 'x'\n")),
            (["--check", "morphism", "-a", FIB_Z], (2, "", "error: this check requires -b\n")),
            (["--check", "decomposition", "-a", FIB_Z], (2, "", "error: this check requires -b\n")),
            (["--check", "decomposition", "-b", FIB_Z], (2, "", "error: this check requires -a\n")),
            (["--check", "morphism", "-a", "ring=Z;p=[-1,1];init=[x]"], (2, "", "error: bad element literal 'x'\n")),
            # deg p + 1 terms at least: a prefix of deg p terms tests no index
            (["--check", "recurrence", "-s", "ring=Z;p=[-1,1];init=[1]", "-p", "[-2,1]", "-n", "1"],
             (1, "check recurrence: FAIL at index 1: expected 2, got 1 (prefix=2)\n", "")),
            (["--check", "recurrence", "-s", "ring=Z;terms=[1]", "-p", "[-2,1]"],
             (2, "", "error: need at least 2 terms, got 1\n")),
            (["--check", "recurrence", "-s", "ring=Z;terms=[]", "-p", "[1]"],
             (2, "", "error: need at least 1 term, got 0\n")),
            # a pair over two rings is refused in the products' words, before any term is read
            (["--check", "morphism", "-a", FIB_Z, "-b", FIB_Q], (2, "", "error: cannot combine sequences over Z and Q\n")),
            (["--check", "decomposition", "-a", FIB_Z, "-b", FIB_Q],
             (2, "", "error: cannot combine sequences over Z and Q\n")),
            # an empty -p is no polynomial: a sequence is checked on its charpoly, raw terms are refused
            (["--check", "recurrence", "-s", FIB_Z, "-p", ""], (0, "check recurrence: PASS (prefix=30)\n", "")),
            (["--check", "ogf", "-s", FIB_Z, "-p", ""], (0, "check ogf: PASS (prefix=53)\n", "")),
            (["--check", "ogf", "-s", "ring=Z;terms=[1,2,4,8,16]", "-p", ""],
             (2, "", "error: raw terms need an explicit -p polynomial\n")),
            # the terms are parsed before -p, and the fields are split before either
            (["--check", "ogf", "-s", "ring=Z;terms=[1,x]", "-p", "[1,y]"], (2, "", "error: bad element literal 'x'\n")),
            (["--check", "recurrence", "-s", "ring=Z;terms=[1];p=[1]", "-p", "[-2,1]"],
             (2, "", "error: unknown raw-sequence fields: ['p']\n")),
            (["--check", "recurrence", "-s", "ring=Z;ring=Q;terms=[1]", "-p", "[-2,1]"],
             (2, "", "error: duplicate field 'ring'\n")),
            (["--check", "ogf", "-s", "ring=Z;terms=[1,2,4,8,17]", "-p", "[-2,1]", "--extra", "3", "--format", "structured"],
             (1, '{\n  "checked_prefix": "5",\n  "first_failure": {\n    "actual": "1",\n    "expected": "0",\n'
                 '    "index": "4"\n  },\n  "name": "ogf",\n  "passed": false\n}\n', "")),
        ],
    )
    def test_inputs_of_each_check(self, capsys, argv, expected):
        assert run_cli(capsys, "verify", *argv) == expected

    # The CLI reads no environment variable, so RECSEQ_PREFIX, which older
    # versions read as the default of -n, changes no call.  The inverse
    # meets a non-unit at index 17, which a prefix of 5 would pass.
    INVERSE_AT_17 = ["verify", "--check", "inverse", "-s", "ring=Zmod:101;p=[17,72,1];init=[97,8]"]
    NOT_A_UNIT_AT_17 = (1, "", "not invertible: binomial-transform value at index 17 is not a unit: 0\n")

    def test_prefix_env_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("RECSEQ_PREFIX", "5")
        assert run_cli(capsys, "verify", "--check", "recurrence", "-s", FIB_Q) == (
            0, "check recurrence: PASS (prefix=30)\n", ""
        )
        assert run_cli(capsys, *self.INVERSE_AT_17) == self.NOT_A_UNIT_AT_17

    def test_bad_prefix_env_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("RECSEQ_PREFIX", "soon")
        assert run_cli(capsys, *self.INVERSE_AT_17) == self.NOT_A_UNIT_AT_17
        assert run_cli(capsys, "verify", "--check", "ogf", "-s", FIB_Z) == (0, "check ogf: PASS (prefix=53)\n", "")


class TestStructuredOutput:
    def test_op_structured_is_byte_stable(self, capsys):
        args = ["op", "--kind", "newton", "-a", FIB_Q, "-b", FIB_Q, "-n", "6", "--format", "structured"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        payload = json.loads(first)
        assert payload["kind"] == "newton"
        assert all(isinstance(v, str) for v in payload["terms"])
        assert all(isinstance(v, str) for v in payload["charpoly"])

    def test_verify_structured(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--check", "recurrence",
            "-s", "ring=Z;terms=[1,2,4,8]", "-p", "[-3,1]",
            "--format", "structured",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["first_failure"]["index"] == "1"
        assert payload["first_failure"]["expected"] == "3"

    def test_invert_structured_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "invert", "-s", "ring=Z;p=[-1,1];init=[1]", "--format", "structured"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["invertible"] is False
        assert payload["first_failure_index"] == "1"


class TestSelftestVerb:
    def test_exit_code_reflects_results(self, capsys, monkeypatch):
        fake = [
            (1, "alpha", lambda seed: (True, "ok")),
            (2, "beta", lambda seed: (True, "ok")),
        ]
        monkeypatch.setattr(selftest, "_CRITERIA", fake)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "2/2 criteria passed" in out

        fake_bad = fake + [(3, "gamma", lambda seed: (False, "broken"))]
        monkeypatch.setattr(selftest, "_CRITERIA", fake_bad)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        assert "gamma: FAIL" in out

    def test_default_seed(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(selftest, "_CRITERIA", [(1, "alpha", lambda seed: (seen.append(seed) is None, "ok"))])
        assert run_cli(capsys, "selftest")[0] == 0
        assert run_cli(capsys, "selftest", "--seed", "5")[0] == 0
        assert seen == [20107, 5]

    def test_cli_import_leaves_selftest_unloaded(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import recseq.cli, sys; assert 'recseq.selftest' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_structured_selftest(self, capsys, monkeypatch):
        monkeypatch.setattr(selftest, "_CRITERIA", [(1, "alpha", lambda seed: (True, "ok"))])
        code, out, _ = run_cli(capsys, "selftest", "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["passed"] is True

    def test_output_bytes(self, capsys, monkeypatch):
        fake = [(1, "alpha", lambda seed: (True, "ok")), (10, "beta", lambda seed: (False, "broken"))]
        monkeypatch.setattr(selftest, "_CRITERIA", fake)
        assert run_cli(capsys, "selftest") == (
            1,
            "[ 1/10] alpha: PASS (ok)\n[10/10] beta: FAIL (broken)\nselftest: 1/2 criteria passed\n",
            "",
        )
        structured = [
            '{\n    "detail": "ok",\n    "name": "alpha",\n    "number": "1",\n    "passed": true\n  }',
            '{\n    "detail": "broken",\n    "name": "beta",\n    "number": "10",\n    "passed": false\n  }',
        ]
        assert run_cli(capsys, "selftest", "--format", "structured") == (
            1, "[\n  " + ",\n  ".join(structured) + "\n]\n", ""
        )


def _readme_block(heading, fence):
    """The first ``fence`` code block under README's ``heading``."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as f:
        return f.read().split(heading, 1)[1].split(fence, 1)[1].split("```", 1)[0]


def test_readme_command_line_examples_exit_0(capsys):
    # every recseq line of README's "Command line" block, continuations
    # joined, runs through cli.main; selftest has its own CI step
    block = _readme_block("## Command line", "```sh\n")
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("recseq ")]
    assert lines[-1] == "recseq selftest" and len(lines) == 8
    for line in lines[:-1]:
        code, _, err = run_cli(capsys, *shlex.split(line, comments=True)[1:])
        assert (line, code, err) == (line, 0, "")


def test_readme_python_quickstart_values():
    # README's "Python quickstart" block runs line by line; each expression
    # line's comment starts with the repr of its value
    namespace = {}
    checked = []
    for line in _readme_block("## Python quickstart", "```python\n").splitlines():
        code, _, comment = line.partition("#")
        try:
            expression = compile(code, "README", "eval")
        except SyntaxError:
            exec(line, namespace)
            continue
        value = repr(eval(expression, namespace))
        assert comment.strip().startswith(value), (code, value)
        checked.append(code.strip())
    assert checked == [
        "h.charpoly",
        "h.charpoly.values",
        "h.initial",
        "h.term_values(6)",
        "charpoly(kron_sum(companion(fib.charpoly), companion(fib.charpoly))) == h.charpoly",
    ]
    assert namespace["inv"] == [RingElem(QQ, Fraction(-1, 2) ** n) for n in range(5)]


ENV_READ = re.compile(r"os\.environ|getenv")


def test_no_module_reads_the_environment():
    # a call's output and exit status depend only on its argv and the
    # interpreter's int/str limit; a setting read from the environment
    # would be one more input, so adding one means changing this test
    src = os.path.dirname(os.path.abspath(cli.__file__))
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                found += [f"{name}:{number}: {line.strip()}" for number, line in enumerate(f, 1) if ENV_READ.search(line)]
    assert found == []


# The grammar as declared: for the top-level parser and each verb, every
# option's flags, dest, required, default, choices and help, and which
# of the probes 7, 0, -1 and x its type accepts (None: no type).  It is
# compared as structure, since argparse lays out -h differently from one
# Python version to the next.
HELP = (["-h", "--help"], "help", False, "==SUPPRESS==", None, "show this help message and exit", None)
FORMAT = (["--format"], "format", False, "plain", ["plain", "structured"], None, None)
SEQUENCE = (["-s", "--sequence"], "sequence", True, None, None, None, None)
COUNT = (["-n", "--count"], "count", False, 10, None, None, ["7", "0"])
PREFIX_HELP = (
    "prefix length of the recurrence check on a sequence, and of morphism and inverse (default %(default)s); "
    "decomposition reads the terms that decide it, ogf reads --extra, and recurrence on raw terms checks them all"
)
GRAMMAR = {
    "terms": ("_cmd_terms", {}, [HELP, SEQUENCE, COUNT, FORMAT]),
    "op": ("_cmd_sequence", {}, [
        HELP,
        (["--kind"], "kind", True, None, ["cauchy", "hadamard", "hurwitz", "newton", "sum"], None, None),
        (["-a"], "a", True, None, None, None, None),
        (["-b"], "b", True, None, None, None, None),
        COUNT,
        FORMAT,
    ]),
    "charpoly-op": ("_cmd_charpoly_op", {}, [
        HELP,
        (["--kind"], "kind", True, None, ["boxtimes", "otimes", "star"], None, None),
        (["-p"], "p", True, None, None, None, None),
        (["-q"], "q", True, None, None, None, None),
        (["--ring"], "ring", False, "Z", None, None, None),
        FORMAT,
    ]),
    "invert": ("_cmd_invert", {}, [
        HELP, SEQUENCE, (["-n", "--count"], "count", False, 10, None, None, ["7"]), FORMAT,
    ]),
    "transform": ("_cmd_sequence", {}, [
        HELP,
        (["--kind"], "kind", True, None, ["binomial", "inverse-binomial", "psi", "psi-inverse"], None, None),
        SEQUENCE,
        COUNT,
        FORMAT,
    ]),
    "psi": ("_cmd_sequence", {"kind": "psi"}, [HELP, SEQUENCE, COUNT, FORMAT]),
    "verify": ("_cmd_verify", {}, [
        HELP,
        (["--check"], "check", True, None, ["recurrence", "ogf", "decomposition", "morphism", "inverse"], None, None),
        (["-s", "--sequence"], "sequence", False, None, None, None, None),
        (["-a"], "a", False, None, None, None, None),
        (["-b"], "b", False, None, None, None, None),
        (["-p"], "p", False, None, None, None, None),
        (["--map"], "map", False, "psi", ["psi", "psi-inverse"], None, None),
        (["-n", "--count"], "count", False, 30, None, PREFIX_HELP, ["7"]),
        (["--extra"], "extra", False, 50, None, None, ["7"]),
        FORMAT,
    ]),
    "selftest": ("_cmd_selftest", {}, [
        HELP, (["--seed"], "seed", False, None, None, None, ["7", "0", "-1"]), FORMAT,
    ]),
}
VERB_HELP = [
    "print the first terms of a sequence",
    "combine two sequences under a product",
    "composed operation on monic polynomials",
    "Newton-product inverse prefix",
    "binomial transforms and the algebra isomorphism",
    "shorthand for transform --kind psi",
    "run a brute-force verification check",
    "run the full acceptance suite",
]


def _accepted(convert):
    accepted = []
    for probe in ("7", "0", "-1", "x"):
        try:
            convert(probe)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            continue
        accepted.append(probe)
    return accepted


def _options(parser):
    return [
        (a.option_strings, a.dest, a.required, a.default, a.choices, a.help, a.type and _accepted(a.type))
        for a in parser._actions
        if not isinstance(a, argparse._SubParsersAction)
    ]


def test_grammar_is_pinned():
    parser = cli._build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert (parser.prog, _options(parser)) == ("recseq", [HELP])
    assert (verbs.dest, verbs.required) == ("verb", True)
    assert [(c.dest, c.help) for c in verbs._choices_actions] == list(zip(GRAMMAR, VERB_HELP))
    for verb, sub in verbs.choices.items():
        defaults = dict(sub._defaults)
        assert (defaults.pop("func").__name__, defaults, _options(sub)) == GRAMMAR[verb], verb


# A grammar fuzz: command lines drawn from the CLI grammar, in which each
# field is well formed or, now and then, broken.  Counts and degrees
# stay small, so that each call takes milliseconds.  selftest, which takes
# seconds, is left out.
RING_TEXTS = ["Z", "Q", "Zmod:7", "Zmod:12", "Zmod:10007"]
BROKEN_RINGS = ["Zmod:1", "Zmod:x", "GF:8", "", "Zmod:1_0"]
BROKEN_ELEMENTS = ["x", "", "1_0", "1/0", "/4", "0x10", "1e3", "3/4"]  # 3/4 is broken outside Q
# well formed, with terms past the int/str limit from index 4300 on
LONG_SEQUENCES = [POWERS_OF_TEN, THIRDS_OF_POWERS_OF_TEN, "ring=Q;p=[-1/10,1];init=[1]"]


def _field(draw, valid, broken, odds=10):
    """A draw from ``valid``, or one time in ``odds`` one of the ``broken`` texts."""
    # Hypothesis leans to the ends of a range and shrinks to its low end,
    # so the high end breaks: a shrunk failure keeps only the broken
    # fields that it needs
    return draw(st.sampled_from(broken)) if draw(st.integers(1, odds)) == odds else draw(valid)


def _element_texts(ring):
    values = st.integers(-9, 9).map(str)
    if ring == "Q":
        values |= st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(lambda nd: f"{nd[0]}/{nd[1]}")
    return values


@st.composite
def _list_text(draw, ring, count):
    # one time in forty: a sequence has up to seven elements, and most
    # sequences should parse
    return "[" + ",".join(_field(draw, _element_texts(ring), BROKEN_ELEMENTS, 40) for _ in range(count)) + "]"


@st.composite
def _poly_text(draw, ring, degree):
    low = draw(_list_text(ring, degree))[1:-1]
    return f"[{low},{_field(draw, st.just('1'), ['2', '0', '-1'])}]"  # the leading coefficient, monic or not


@st.composite
def _sequence_text(draw, ring=None, raw_terms=False):
    if not raw_terms and draw(st.integers(1, 20)) == 20:
        return draw(st.sampled_from(LONG_SEQUENCES))
    ring = ring or _field(draw, st.sampled_from(RING_TEXTS), BROKEN_RINGS)
    degree = draw(st.integers(1, 3))
    if raw_terms:
        fields = [f"ring={ring}", f"terms={draw(_list_text(ring, draw(st.integers(0, 8))))}"]
    else:
        init = _field(draw, st.just(degree), [degree - 1, degree + 1])
        fields = [f"ring={ring}", f"p={draw(_poly_text(ring, degree))}", f"init={draw(_list_text(ring, init))}"]
    broken = draw(st.integers(0, 20))
    if broken == 20:
        fields.pop(draw(st.integers(0, len(fields) - 1)))  # a missing field
    elif broken == 19:
        fields.append(draw(st.sampled_from(["extra=[1]", fields[0], "junk"])))  # unknown, duplicate, no "="
    return ";".join(fields)


@st.composite
def command_lines(draw):
    """An argv of the CLI grammar, with a few fields broken."""
    verb = draw(st.sampled_from(["terms", "op", "charpoly-op", "invert", "transform", "psi", "verify"]))
    ring = _field(draw, st.sampled_from(RING_TEXTS), BROKEN_RINGS)
    if verb in ("invert", "verify"):
        count = str(draw(st.integers(1, 20)))
    else:  # now and then long enough for a refusal at the int/str limit
        count = _field(draw, st.integers(0, 40).map(str), ["4300", "4301"], 15)
    argv = [verb]
    if verb == "op":
        other = None if draw(st.integers(0, 10)) == 10 else ring  # mostly one ring for both
        argv += ["--kind", draw(st.sampled_from(sorted(cli._SEQ_OPS)))]
        argv += ["-a", draw(_sequence_text(ring)), "-b", draw(_sequence_text(other))]
    elif verb == "charpoly-op":
        argv += ["--kind", draw(st.sampled_from(sorted(cli._POLY_OPS))), "--ring", ring]
        argv += ["-p", draw(_poly_text(ring, draw(st.integers(1, 3))))]
        argv += ["-q", draw(_poly_text(ring, draw(st.integers(1, 3))))]
    elif verb == "verify":
        check = draw(st.sampled_from(["recurrence", "ogf", "decomposition", "morphism", "inverse"]))
        argv += ["--check", check]
        if check in ("decomposition", "morphism"):
            argv += ["-a", draw(_sequence_text(ring)), "-b", draw(_sequence_text(ring))]
            argv += ["--map", draw(st.sampled_from(["psi", "psi-inverse"]))] if check == "morphism" else []
        else:
            argv += ["-s", draw(_sequence_text(ring, raw_terms=check != "inverse" and draw(st.booleans())))]
        if check in ("recurrence", "ogf") and draw(st.booleans()):
            argv += ["-p", draw(_poly_text(ring, draw(st.integers(1, 3))))]
        if check == "ogf":
            argv += ["--extra", str(draw(st.integers(1, 10)))]
        if draw(st.integers(0, 10)) == 10:  # the last option left out, mostly a required one
            argv = argv[:-2]
    else:
        if verb == "transform":
            argv += ["--kind", draw(st.sampled_from(sorted(cli._TRANSFORMS)))]
        argv += ["-s", draw(_sequence_text(ring))]
    if verb != "charpoly-op":
        # verify's default prefix is 30; a count keeps its oracles cheap
        if verb == "verify" or draw(st.booleans()):
            argv += ["-n", _field(draw, st.just(count), ["-1", "0", "x", "1.5", ""])]
    if draw(st.booleans()):
        argv += ["--format", "structured"]
    return argv


@given(command_lines())
@example(["terms", "-s", POWERS_OF_TEN, "-n", "4301"])
@example(["op", "--kind", "cauchy", "-a", THIRDS_OF_POWERS_OF_TEN, "-b", "ring=Q;p=[0,1];init=[1]", "-n", "4301"])
@example(["terms", "-s", "ring=Q;p=[-1/10,1];init=[1]", "-n", "4301", "--format", "structured"])
@settings(max_examples=150, deadline=None)
def test_grammar_fuzz_exit_codes_are_truthful(argv):
    # main raises nothing: a malformed command line is argparse's exit 2,
    # and every other outcome is main's return value; exit 1 is a failed
    # check or a non-invertible input, so only verify and invert give it;
    # exit 2 leaves stdout empty, because a refusal comes before the first
    # byte
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse, on a malformed command line
            code = exc.code
            assert code == 2, (argv, err.getvalue())
    assert code in (0, 1, 2), argv
    assert code != 1 or argv[0] in ("verify", "invert"), (argv, out.getvalue())
    assert code != 2 or out.getvalue() == "", (argv, out.getvalue())
