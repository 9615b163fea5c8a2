#!/usr/bin/env python3
"""The recseq benchmark: one command, three closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closure-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/selfcheck.py        # quick check of the benchmark itself

The program is used from ``src/`` of the checkout; nothing is built,
because recseq is pure Python (``recseq.BACKEND`` is recorded with every
result; numbers from different backends must not be compared).

Workloads (the seed draws operand coefficients; the mix is fixed):

* ``closure-exact``: all five products over Z and Q at operand degrees
  3-5.  The generic bigint path, where Berkowitz on the D x D Kronecker
  matrix takes nearly all the time; it never enters ``kernels``.
* ``closure-mod``: all five products over Zmod:10007, Zmod:12 and
  Zmod:2^61-1 at degrees 4-8 (D up to 64): the modular kernels plus the
  Kronecker build from ring elements.
* ``cli-stream``: ``recseq`` command lines over all five rings (terms
  -n 10^4, op -n 2000 plain and structured, invert -n 200, transform,
  verify), each a fresh interpreter: start, import, parse, unrolling and
  formatting of values with thousands of digits.  The long terms calls
  over Z and Q unroll recurrences of fixed growth (only signs and initial
  terms are drawn); one over Z crosses the 4300-digit int/str limit and
  exits 2 in every cycle (ROADMAP item 5).

Each run starts the workload in its own worker process (``worker.py``)
and prints, as the last line of standard output, one JSON object with
``correct`` (no operation returned a wrong answer), ``attempted``,
``failed`` (wrong answers plus refusals such as exit 2 on valid input)
and ``metrics``.  The line before it carries the run metadata: machine,
Python, backend, commit, seed and every failure with its input.  Both
also go to ``.perfbench-out/`` with, for traced runs, the spans.

``--trace 0`` reports the end-to-end metrics: ``ops_per_s`` (correct
operations per second of summed operation time), ``op_p50_ms`` and
``op_p90_ms`` (failed operations count as +inf), ``peak_rss_mb`` (peak
RSS of the worker that calls the library; for ``cli-stream`` the CLI
processes' own peaks, as the largest over op shapes of the shape's
median call) and ``setup_s`` (median wall time of a fresh interpreter
running ``import recseq.cli``, probed every two seconds through the run).
Times are per-shape medians, calibrated against a reference loop run
between operations (see ``worker.py``); the uncalibrated figures are in
the metadata.  ``--trace 1`` reports per-layer self times and counts per
cycle of the mix.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
DEADLINE_S = 170


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_digest() -> str:
    """sha256 over the files of ``src/``, to identify the code measured."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_worker(cmd, env, timeout):
    """Run the worker in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def main() -> int:
    parser = argparse.ArgumentParser(description="recseq benchmark (see the module docstring)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="one small cycle (for selfcheck.py)")
    args = parser.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "recseq", "__init__.py")):
        print(f"error: no recseq sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=SRC)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    scratch = tempfile.mkdtemp(dir=OUT_DIR)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--scratch", scratch,
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--spans-out", stem + "-spans.jsonl"]
    try:
        code, out = run_worker(cmd, env, DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print("error: the worker did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if code != 0:
        print(f"error: the worker exited with {code}", file=sys.stderr)
        return 1

    result = json.loads(out.strip().splitlines()[-1])
    meta = result.pop("meta")
    meta.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        nproc=os.cpu_count(), cpu=cpu_model(), python=platform.python_version(),
        commit=commit(), src_sha256=src_digest(),
    )
    with open(stem + ".json", "w") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
