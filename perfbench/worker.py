"""One run of one workload, in a fresh process started by ``run.py``.

Closed loop with one caller and no threads: the next operation starts
when the previous one has returned and been checked.  Operations run in
cycles of the workload's fixed mix until ``--seconds`` of wall time have
passed and, untraced, at least MIN_SAMPLES operations were timed, so
that ten or more samples lie beyond the p90.  Each result is checked against the
oracles (``checks.py``) after its timer stops.

Before timing, one small operation per ring runs unmeasured.  The first
call in a fresh process pays one-time costs that a steady caller does
not pay per call: bytecode compilation into ``__pycache__``, the first
touch of the ring code paths, growth of the shared binomial table and
of the allocator's arenas.  Interpreter start and import are measured on
their own as ``setup_s``.

The end-to-end figures are robust to a host whose CPU speed drifts by
tens of percent over seconds, as shared cloud hosts do:

* Calibration.  A fixed reference loop (``reference_ms``) runs before
  every timed operation, outside its window.  Each time is scaled by
  REF_MS over the median reference time around it, so the figures read
  as ms on a host where that loop takes REF_MS.  The loop is independent
  of the program, so a change to the program moves the figures and a
  change of host speed does not.  The unscaled figures are kept in the
  metadata as ``uncalibrated``.
* Per-shape medians.  Each operation counts with the median time of its
  shape (its position in the cycle) over the run: ``ops_per_s`` is
  correct operations over the summed shape medians, and the quantiles
  are taken over the shape medians, each weighted by its sample count.
  A failed operation counts as +inf inside its shape's median.

``--trace 1`` runs the same mix in-process, each operation first
untraced and then with the span wrappers of ``spans.py`` installed; the
two results must agree.  Its metrics are per cycle of the mix.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

import checks
import workloads
from recseq import BACKEND, cli, linrec
from spans import PRODUCT_FNS, Tracer

MIN_SAMPLES = 110
# no new cycle starts after this much wall time, whatever --seconds says
HARD_CAP_S = 120
CLI_TIMEOUT_S = 60
# Interpreter start-up probes run between operations, one per interval,
# so that their median spans the whole run and not one moment of it: on
# a shared host the CPU speed drifts by tens of percent over seconds.
PROBE_INTERVAL_S = 2.0
MIN_PROBES = 5
E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s"}
# Host-speed calibration: reference_ms() runs before every timed operation,
# and times are scaled by REF_MS over the median of the reference times
# within REF_WINDOW operations on either side.
REF_MS = 1.0
REF_WINDOW = 4
REF_XS = tuple(range(1, 251))
REF_BIG = 3**3000
IMPORT_PROBE = "import time; t = time.perf_counter(); import recseq.cli; print(time.perf_counter() - t)"
HERE = os.path.dirname(os.path.abspath(__file__))


def quantile(sorted_values: list[float], p: float) -> float:
    """The ``statistics.quantiles`` (exclusive method) quantile at ``p``.

    Written out so that +inf samples (failed operations) sort last and
    only reach the result when they are at or beyond the quantile.
    """
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    pos = p * (n + 1)
    j = min(max(int(pos), 1), n - 1)
    delta = pos - j
    lo, hi = sorted_values[j - 1], sorted_values[j]
    return lo if delta <= 0 or lo == hi else lo + (hi - lo) * delta


def reference_ms() -> float:
    """Wall ms of a fixed slice of pure-Python work: small-int and bigint
    arithmetic, as in the program's generic and modular paths.  About
    1 ms on an idle 2-core Xeon VM."""
    start = time.perf_counter_ns()
    acc = 1
    for _ in range(40):
        for x in REF_XS:
            acc = (acc * x + 7) % 1_000_003
    big = REF_BIG
    for _ in range(20):
        big = (big * big) >> 4800
    return (time.perf_counter_ns() - start) / 1e6


def spawn_seconds(code: str) -> float:
    """Wall seconds of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class CliOutcome(NamedTuple):
    code: int
    stdout: str
    stderr: str
    ns: int | None = None  # spawn-to-exit wall time, for launcher calls
    maxrss_kb: int | None = None


class Launcher:
    """Spawns CLI calls through ``launcher.py`` (see there for why)."""

    def __init__(self, scratch: str):
        self.out = os.path.join(scratch, "stdout")
        self.err = os.path.join(scratch, "stderr")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv) -> CliOutcome:
        request = {"argv": argv, "out": self.out, "err": self.err, "timeout": CLI_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        with open(self.out) as out, open(self.err) as err:
            return CliOutcome(reply["code"], out.read(), err.read(), reply["ns"], reply["maxrss_kb"])

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def cli_in_process(argv):
    """``recseq.cli.main`` with captured output, exiting as the CLI would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
        except Exception:  # an uncaught exception: traceback and exit 1
            traceback.print_exc()
            code = 1
    return CliOutcome(code, out.getvalue(), err.getvalue())


def prepare(op, launcher):
    """A zero-argument call for the timed window; inputs are built here."""
    if isinstance(op, workloads.ProductOp):
        a, b = checks.linrec(op.a), checks.linrec(op.b)
        name = PRODUCT_FNS[op.kind]
        # looked up at call time, so the traced run sees its wrapper
        return lambda: getattr(linrec, name)(a, b)
    argv = op.argv()
    if launcher is None:
        return lambda: cli_in_process(argv)
    return lambda: launcher.run(argv)


def check(op, outcome, error):
    if error is not None:  # no product raises on the workloads' valid inputs
        return checks.wrong(f"raised {type(error).__name__}: {error}"[:300])
    try:
        if isinstance(op, workloads.ProductOp):
            return checks.check_product(op, outcome)
        return checks.check_cli(op, *outcome[:3])
    except Exception as exc:  # the output broke the checker itself
        return checks.wrong(f"check raised {exc!r}"[:300])


def output_digits(outcome) -> int:
    if isinstance(outcome, CliOutcome):
        return checks.count_digits(outcome.stdout)
    return checks.count_digits(str(outcome.charpoly)) + sum(
        checks.count_digits(str(x)) for x in outcome.initial
    )


def call(thunk):
    """(outcome, error, ns); a launcher call is timed by the launcher."""
    start = time.perf_counter_ns()
    try:
        outcome = thunk()
    except Exception as exc:
        return None, exc, time.perf_counter_ns() - start
    elapsed = time.perf_counter_ns() - start
    if isinstance(outcome, CliOutcome) and outcome.ns is not None:
        elapsed = outcome.ns
    return outcome, None, elapsed


def comparable(outcome, error):
    if error is not None:
        return type(error).__name__
    if isinstance(outcome, CliOutcome):
        return outcome[:2]
    return outcome


class Probes:
    """Fresh-interpreter timings, one per PROBE_INTERVAL_S of the run."""

    def __init__(self, traced: bool):
        self.traced = traced
        # setup_s holds (index of the next operation, seconds)
        self.setup_s, self.spawn_s, self.import_s = [], [], []
        self.last = time.monotonic()

    def tick(self, index: int, force: bool = False):
        if not force and time.monotonic() - self.last < PROBE_INTERVAL_S:
            return
        if self.traced:
            self.spawn_s.append(spawn_seconds("pass"))
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True)
            self.import_s.append(float(proc.stdout))
        else:
            self.setup_s.append((index, spawn_seconds("import recseq.cli")))
        self.last = time.monotonic()

    def finish(self, index: int):
        while len(self.spawn_s if self.traced else self.setup_s) < MIN_PROBES:
            self.tick(index, force=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans-out")
    parser.add_argument("--scratch", required=True, help="directory for CLI output files")
    args = parser.parse_args()

    # One CPU for the worker and every process it starts, so that the
    # reference loop measures the speed of the CPU that runs the program.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rng = random.Random(args.seed)
    tracer = Tracer() if args.trace else None
    # the untraced CLI workload spawns every call; the traced one runs main() in-process
    launcher = Launcher(args.scratch) if args.workload == "cli-stream" and tracer is None else None
    try:
        result = measure(args, rng, tracer, launcher)
    finally:
        if launcher is not None:
            launcher.close()
    print(json.dumps(result))
    return 0


class Sample(NamedTuple):
    shape: int  # position in the cycle
    ms: float
    ok: bool
    ref_ms: float | None  # the reference loop just before the operation
    rss_kb: int | None  # peak RSS of the CLI process


def measure(args, rng, tracer, launcher) -> dict:
    for op in workloads.warmup(args.workload, rng):
        call(prepare(op, launcher))

    probes = Probes(traced=tracer is not None)
    samples, failures = [], []
    busy_ns = traced_ns = digits = cycles = 0
    start = time.monotonic()
    while True:
        for shape, op in enumerate(workloads.cycle(args.workload, rng, args.tiny)):
            thunk = prepare(op, launcher)
            ref_ms = reference_ms() if tracer is None else None
            outcome, error, elapsed = call(thunk)
            failure = check(op, outcome, error)
            if tracer is not None:
                try:
                    traced, ns = tracer.run(len(samples), thunk)
                    traced_error = None
                except Exception as exc:
                    traced, traced_error, ns = None, exc, 0
                traced_ns += ns
                if failure is None and comparable(traced, traced_error) != comparable(outcome, error):
                    failure = checks.wrong("the traced call returned a different result")
            busy_ns += elapsed
            rss_kb = outcome.maxrss_kb if isinstance(outcome, CliOutcome) else None
            samples.append(Sample(shape, elapsed / 1e6, failure is None, ref_ms, rss_kb))
            if failure is None:
                digits += output_digits(outcome)
            else:
                failures.append({"op": op.label(), "input": op.spec(), "wrong": failure.wrong,
                                 "reason": failure.reason})
            probes.tick(len(samples))
        cycles += 1
        wall = time.monotonic() - start
        enough = tracer is not None or len(samples) >= MIN_SAMPLES
        if args.tiny or wall >= HARD_CAP_S or (wall >= args.seconds and enough):
            break
    probes.finish(len(samples))

    meta = {
        "backend": BACKEND,
        "cycles": cycles,
        "samples": len(samples),
        "fail_share": len(failures) / len(samples),
        "wrong": sum(1 for f in failures if f["wrong"]),
        "failures": failures,
    }
    if tracer is None:
        refs = [s.ref_ms for s in samples]
        speed = [REF_MS / statistics.median(refs[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1])
                 for i in range(len(samples))]
        summary = summarise(samples, speed, probes.setup_s)
        if not math.isfinite(summary["op_p90_ms"]):
            raise SystemExit(f"{len(failures)} of {len(samples)} operations failed: the p90 is not finite")
        meta["beyond_p90"] = sum(1 for s, f in zip(samples, speed) if not s.ok or s.ms * f > summary["op_p90_ms"])
        meta["uncalibrated"] = summarise(samples, [1.0] * len(samples), probes.setup_s)
        meta["ref_ms_median"] = statistics.median(refs)
        meta["setup_probes"] = len(probes.setup_s)
        rss_by_shape = by_shape(samples, lambda s: s.rss_kb)
        if any(rss_by_shape):
            # the CLI processes' own peaks: the largest shape's median call
            peak_mb = max(statistics.median(v) for v in rss_by_shape) / 1024
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: (value, E2E_UNITS[name]) for name, value in summary.items()}
        metrics["peak_rss_mb"] = (peak_mb, "MB")
    else:
        layers = tracer.layer_metrics(cycles)
        layers["trace.overhead_share"] = traced_ns / busy_ns - 1
        layers["out.digits"] = digits / cycles
        layers["cli.spawn_ms"] = statistics.median(probes.spawn_s) * 1e3
        layers["cli.import_ms"] = statistics.median(probes.import_s) * 1e3
        metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
        meta["unwrapped"] = tracer.missing
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    return {
        "correct": meta["wrong"] == 0,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "meta": meta,
    }


def by_shape(samples, value) -> list[list]:
    """``value(sample)`` for every sample, grouped by shape."""
    groups = [[] for _ in range(max(s.shape for s in samples) + 1)]
    for s in samples:
        if value(s) is not None:
            groups[s.shape].append(value(s))
    return groups


def summarise(samples, speed, setup_probes) -> dict:
    """End-to-end figures from per-shape medians of scaled times.

    ``speed[i]`` scales sample i's time (1.0 leaves it as measured).
    Every sample counts with its shape's median: summed for
    ``ops_per_s``, and as the sample's latency for the quantiles, where a
    failed operation counts as +inf inside its shape's median.
    """
    scaled = [s._replace(ms=s.ms * f) for s, f in zip(samples, speed)]
    times = by_shape(scaled, lambda s: s.ms)
    latencies = by_shape(scaled, lambda s: s.ms if s.ok else math.inf)
    total_ms = sum(statistics.median(v) * len(v) for v in times)
    spread = sorted(statistics.median(v) for v in latencies for _ in v)
    last = len(speed) - 1
    return {
        "ops_per_s": sum(s.ok for s in samples) / total_ms * 1e3,
        "op_p50_ms": quantile(spread, 0.5),
        "op_p90_ms": quantile(spread, 0.9),
        "setup_s": statistics.median(sec * speed[min(i, last)] for i, sec in setup_probes),
    }


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
