"""Runs ``recseq`` command lines for the worker and reports their cost.

A child's ``ru_maxrss`` starts from the high-water mark of the process
that spawned it, so CLI calls are spawned from this process, which stays
small, rather than from the worker, which grows while it parses outputs.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "out": path, "err": path, "timeout": seconds}``;
one JSON reply per line on stdout, ``{"code", "ns", "maxrss_kb"}``.
The call's output goes to the named files.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
            start = time.perf_counter_ns()
            proc = subprocess.Popen([sys.executable, "-m", "recseq.cli", *request["argv"]], stdout=out, stderr=err)
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(request["timeout"])
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter_ns() - start
            signal.alarm(0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": code, "ns": elapsed, "maxrss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
