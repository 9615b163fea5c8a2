#!/usr/bin/env python3
"""Quick self-check of the benchmark itself (about a minute).

Usage, from the root of a checkout: ``python3 perfbench/selfcheck.py``

1. Runs every workload of BENCHMARK.json at tiny size, untraced and
   traced, and asserts the result line's shape, that every end-to-end or
   per-layer metric of BENCHMARK.json is emitted with its unit and no
   other, that no operation failed, and that the traced self times sum to
   the traced busy time.
2. Asserts the oracle gate: each tiny operation passes its check, and the
   same output with one term or the exit code altered fails it, as do a
   crash, a library exception and an exit 2 for any reason other than
   the int/str digit limit (which is a refusal: failed, not wrong).
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(label: str, result: dict, expected_units: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, (label, result)
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == expected_units, (label, set(units) ^ set(expected_units))
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, (label, name)
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), (label, name)


def check_runs(bench: dict) -> None:
    import workloads

    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in workloads.WORKLOADS:
        check_result(f"{workload} trace 0", run_tiny(workload, 0), end_to_end)
        traced = run_tiny(workload, 1)
        check_result(f"{workload} trace 1", traced, per_layer)
        values = {name: metric["value"] for name, metric in traced["metrics"].items()}
        self_sum = sum(v for name, v in values.items() if name.endswith(".self_ms"))
        busy = values["trace.busy_ms"]
        assert abs(self_sum - busy) <= 1e-9 * busy + 1e-6, (workload, self_sum, busy)
        print(f"ok   {workload}: metrics emitted, self times sum to {busy:.3f} ms busy")


def _tamper_digit(text: str) -> str:
    i = max(text.rfind(d) for d in "0123456789")
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]


INT_LIMIT_ERROR = (
    "error: Exceeds the limit (4300 digits) for integer string conversion; "
    "use sys.set_int_max_str_digits() to increase the limit\n"
)
CRASH = 'Traceback (most recent call last):\n  File "cli.py", line 1\nTypeError: boom\n'


def check_gate() -> None:
    sys.path.insert(0, SRC)
    import worker
    import workloads
    from recseq import LinRec

    rng = random.Random(7)
    for name in ("closure-exact", "closure-mod"):
        for op in workloads.cycle(name, rng, tiny=True):
            result, error, _ = worker.call(worker.prepare(op, None))
            assert worker.check(op, result, error) is None, op.label()
            bumped = [result.initial[0] + result.ring.one, *result.initial[1:]]
            assert worker.check(op, LinRec(result.charpoly, bumped), None).wrong, op.label()
            assert worker.check(op, None, ArithmeticError("raised")).wrong, op.label()
    checked = 0
    for op in workloads.cycle("cli-stream", rng, tiny=True):
        code, out, err, *_ = worker.cli_in_process(op.argv())
        assert worker.check(op, (code, out, err), None) is None, (op.label(), code, out, err)
        flipped = worker.check(op, (1 - code, out, err), None)
        assert flipped is not None and flipped.wrong, op.label()
        if code == 0 and op.verb != "verify":
            assert worker.check(op, (code, _tamper_digit(out), err), None).wrong, op.label()
        assert not worker.check(op, (2, "", INT_LIMIT_ERROR), None).wrong, op.label()
        assert worker.check(op, (2, "", "error: refused"), None).wrong, op.label()
        assert worker.check(op, (code, out, err + CRASH), None).wrong, op.label()
        checked += 1
    assert checked
    print(f"ok   oracle gate: passes real results, rejects altered ones ({checked} CLI calls)")


def main() -> int:
    sys.path.insert(0, HERE)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check_gate()
    check_runs(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
