"""Golden CLI transcript: stdout, stderr and exit code of fixed command lines.

``data/cli_golden.json`` maps each argv to what ``recseq`` printed and
returned when the file was written.  The test replays every entry through
``cli.main`` and requires byte-identical output, so a refactor that keeps
the file passing keeps the CLI's behaviour.  The entries cover ``op`` (five
kinds) and ``charpoly-op`` (three kinds) in plain and structured form,
``terms``, ``invert`` on invertible and non-invertible inputs,
``transform`` (four kinds) and ``verify`` (five checks), over Z, Q with
fractional coefficients and Z/m for m = 2, 12, 720, 5040, 10007, 2^61-1
and 2^64.  Three more over Z print long integers: ``terms`` with values
of about 200 digits, a structured Hadamard product over 300 terms, and a
``terms`` call whose last value has 4301 digits, one over Python's
int/str limit, which exits 2.  One more replay runs the verbs that print
sequences and polynomials with the ring-element views (``LinRec.terms``,
``LinRec.initial``, ``Poly.coeffs``) made to raise: those verbs print
raw values.

The interpreter's own message for the int/str limit differs between
Python versions ("(4300)" on 3.10, "(4300 digits)" from 3.11), so the
transcript stores it as the placeholder ``LIMIT``.

To rewrite the file from the current code (only when a change of output
is intended)::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from recseq import cli
from recseq.linrec import LinRec
from recseq.polymat import Poly

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# the verbs whose output comes from raw values, never from ring elements
RAW_VALUE_VERBS = ("terms", "op", "transform", "charpoly-op")
RAW_VALUES = "raw values"

# stands in the stored stderr for the interpreter's int/str-limit message
LIMIT = "<int/str limit>"

RINGS = ["Z", "Q", "Zmod:2", "Zmod:12", "Zmod:720", "Zmod:5040", "Zmod:10007", f"Zmod:{2**61 - 1}", f"Zmod:{2**64}"]


def _limit_message() -> str:
    """What this interpreter raises when asked to print 10^4300."""
    try:
        str(10**4300)
    except ValueError as exc:
        return str(exc)
    return LIMIT  # no limit is set: there is nothing to replace


LIMIT_MESSAGE = _limit_message()


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    stderr = err.getvalue().replace(LIMIT_MESSAGE, LIMIT)
    return {"argv": list(argv), "stdout": out.getvalue(), "stderr": stderr, "exit": code}


def _element(rng: random.Random, ring: str) -> str:
    if ring == "Z":
        return str(rng.randint(-5, 5))
    if ring == "Q":
        return str(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
    return str(rng.randrange(int(ring.partition(":")[2])))


def _monic(rng: random.Random, ring: str, degree: int) -> str:
    return "[" + ",".join([_element(rng, ring) for _ in range(degree)] + ["1"]) + "]"


def _sequence(rng: random.Random, ring: str, degree: int) -> str:
    init = ",".join(_element(rng, ring) for _ in range(degree))
    return f"ring={ring};p={_monic(rng, ring, degree)};init=[{init}]"


def _cases(ring: str, seed: int) -> list[list[str]]:
    """The command lines for one ring; ``seed`` fixes the operands."""
    rng = random.Random(seed)
    a, b = _sequence(rng, ring, 2), _sequence(rng, ring, 3)
    p, q = _monic(rng, ring, 2), _monic(rng, ring, 2)
    cases = []
    for fmt in ("plain", "structured"):
        for kind in ("sum", "hadamard", "cauchy", "hurwitz", "newton"):
            cases.append(["op", "--kind", kind, "-a", a, "-b", b, "-n", "8", "--format", fmt])
        for kind in ("otimes", "star", "boxtimes"):
            cases.append(["charpoly-op", "--kind", kind, "-p", p, "-q", q, "--ring", ring, "--format", fmt])
        cases.append(["terms", "-s", b, "-n", "12", "--format", fmt])
    invert = [
        f"ring={ring};p=[2,1];init=[1]",  # (-2)^n: every transform value is (-1)^t, a unit
        _sequence(rng, ring, 2),
        f"ring={ring};p=[1,1];init=[1]",  # (-1)^n: the transform value at 1 is 0
        f"ring={ring};p={_monic(rng, ring, 2)};init=[0,1]",  # not a unit at 0
    ]
    for i, s in enumerate(invert):
        cases.append(["invert", "-s", s, "-n", "7", "--format", ("plain", "structured")[i % 2]])
    for i, kind in enumerate(("binomial", "inverse-binomial", "psi", "psi-inverse")):
        cases.append(["transform", "--kind", kind, "-s", a, "-n", "8", "--format", ("plain", "structured")[i % 2]])
    raw = ",".join(t for t in run(["terms", "-s", a, "-n", "8"])["stdout"].split()[1:])
    cases += [
        ["verify", "--check", "recurrence", "-s", f"ring={ring};terms=[{raw}]", "-p", a.split(";")[1][2:]],
        ["verify", "--check", "ogf", "-s", b, "--extra", "6"],
        ["verify", "--check", "decomposition", "-a", a, "-b", b, "-n", "8"],
        ["verify", "--check", "morphism", "-a", a, "-b", b, "-n", "6", "--format", "structured"],
        ["verify", "--check", "morphism", "--map", "psi-inverse", "-a", a, "-b", b, "-n", "6"],
        ["verify", "--check", "inverse", "-s", invert[0], "-n", "6"],
    ]
    return cases


def _long_integer_cases() -> list[list[str]]:
    """Calls over Z whose values run to hundreds of digits (group Z)."""
    return [
        ["terms", "-s", "ring=Z;p=[-3,-97,1];init=[2,-5]", "-n", "101"],
        [
            "op", "--kind", "hadamard", "-a", "ring=Z;p=[-1,-1,1];init=[0,1]",
            "-b", "ring=Z;p=[1,-3,-2,1];init=[2,-1,4]", "-n", "300", "--format", "structured",
        ],
    ]


def _error_cases() -> list[list[str]]:
    return [
        ["op", "--kind", "sum", "-a", "ring=Z;p=[-1,1];init=[1]", "-b", "ring=Q;p=[-1,1];init=[1]"],
        ["terms", "-s", "ring=Z;p=[-1,2];init=[1]"],
        ["terms", "-s", "ring=Zmod:12;p=[-1,-1,1];init=[1]"],
        ["charpoly-op", "--kind", "star", "-p", "[1/2,1]", "-q", "[1,1]"],
        ["invert", "-s", "ring=Q;p=[-2/5,3/2,1];init=[0,2/5]", "-n", "40"],
        ["verify", "--check", "inverse", "-s", "ring=Zmod:12;p=[1,1];init=[1]", "-n", "5"],
        ["terms", "-s", "ring=Z;p=[-10,1];init=[1]", "-n", "4301"],  # 10^4300 is over the int/str limit
    ]


def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def _refuse(*args):
    raise AssertionError("the CLI built ring elements to print them")


@pytest.mark.parametrize("group", RINGS + ["errors", RAW_VALUES])
def test_cli_transcript(group, monkeypatch):
    if group == RAW_VALUES:
        monkeypatch.setattr(LinRec, "terms", _refuse)
        monkeypatch.setattr(LinRec, "initial", property(_refuse))
        monkeypatch.setattr(Poly, "coeffs", property(_refuse))
        entries = [entry for entry in _load() if entry["argv"][0] in RAW_VALUE_VERBS]
    else:
        entries = [entry for entry in _load() if entry["group"] == group]
    assert entries
    mismatches = []
    for entry in entries:
        got = run(entry["argv"])
        want = {key: entry[key] for key in ("argv", "stdout", "stderr", "exit")}
        if got != want:
            mismatches.append((entry["argv"], want, got))
    assert not mismatches, f"{len(mismatches)} of {len(entries)} calls differ; first: {mismatches[0]}"


def test_transcript_size():
    entries = _load()
    assert 250 <= len(entries) <= 320
    assert {entry["exit"] for entry in entries} == {0, 1, 2}


def main() -> None:
    entries = []
    for seed, ring in enumerate(RINGS):
        entries += [{"group": ring, **run(argv)} for argv in _cases(ring, seed)]
    entries += [{"group": "Z", **run(argv)} for argv in _long_integer_cases()]
    entries += [{"group": "errors", **run(argv)} for argv in _error_cases()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN}")


if __name__ == "__main__":
    main()
