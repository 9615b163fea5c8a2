"""Span recording for the traced run, installed from outside the program.

A :class:`Tracer` wraps recseq's public functions by rebinding module
attributes (and ``LinRec.terms`` on the class).  A function imported by
name into another recseq module is rebound there too, so internal calls
such as ``linrec.hadamard -> composed_product`` are seen.  Only public
names are touched: a refactor of private helpers cannot break this.

The wrappers are installed only around a traced operation, so the
untraced run and the oracle checks execute the program unmodified.
Spans (name, start ns, end ns, parent id, op id, info) stay in memory
and are written out when the run ends.

Not spanned: ring arithmetic (its cost is the self time of its caller),
and products called through the CLI's private dispatch table (their
self time lands in ``cli.main``).
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter_ns

KERNEL_FNS = (
    "lin_terms_mod",
    "berkowitz_mod",
    "conv_sum_mod",
    "conv_hadamard_mod",
    "conv_cauchy_mod",
    "conv_hurwitz_mod",
    "conv_newton_mod",
)
PRODUCT_FNS = {"sum": "seq_sum", "hadamard": "hadamard", "cauchy": "cauchy", "hurwitz": "hurwitz", "newton": "newton"}
KRON_FNS = ("companion", "kron", "kron_sum", "kron_newton")
COMPOSED = ("product", "sum", "newton")
CLI_VERIFY_FNS = ("inverse_check", "morphism_check", "ogf_poly_check", "satisfies_recurrence")

SELF_SPANS = (
    ["op", "cli.main", "cli.parse", "verify", "linrec.terms", "linrec.inverse", "linrec.invertible"]
    + [f"linrec.product.{kind}" for kind in PRODUCT_FNS]
    + ["polymat.kron", "polymat.charpoly"]
    + [f"polymat.composed.{kind}" for kind in COMPOSED]
    + [f"kernels.{fn}" for fn in KERNEL_FNS]
)
CALL_SPANS = ["linrec.terms", "polymat.charpoly"] + [f"kernels.{fn}" for fn in KERNEL_FNS]


def berkowitz_mults(n: int) -> int:
    """Ring multiplications of the Berkowitz loop on an n x n matrix.

    Computed, not counted: step k (k = 1..n) does (k-2)(k-1)^2 for the
    matrix-vector products, (k-1)^2 for the dot products, and
    k(k+1)/2 + k for the polynomial update.
    """
    total = 0
    for k in range(1, n + 1):
        total += k * (k + 1) // 2 + k
        if k >= 2:
            total += (k - 1) ** 2 + (k - 2) * (k - 1) ** 2
    return total


def _matrix_info(args, result):
    m = args[0]
    return m.n, m.ring.modulus is not None


def _len_info(args, result):
    return len(result)


class Tracer:
    def __init__(self):
        from recseq import cli, kernels, linrec, polymat, verify

        self.spans: list = []
        self._stack: list[int] = []
        self.op_id: int | None = None
        self.missing: list[str] = []
        targets = [(kernels, fn, f"kernels.{fn}", None) for fn in KERNEL_FNS]
        targets += [(polymat, fn, "polymat.kron", None) for fn in KRON_FNS]
        targets.append((polymat, "charpoly", "polymat.charpoly", _matrix_info))
        targets += [(polymat, f"composed_{k}", f"polymat.composed.{k}", None) for k in COMPOSED]
        targets += [(linrec, fn, f"linrec.product.{kind}", None) for kind, fn in PRODUCT_FNS.items()]
        targets += [
            (linrec, "newton_inverse", "linrec.inverse", None),
            (linrec, "is_newton_invertible", "linrec.invertible", None),
            (linrec.LinRec, "terms", "linrec.terms", _len_info),
            (cli, "main", "cli.main", None),
            (cli, "parse_sequence", "cli.parse", None),
        ]
        targets += [(verify, fn, "verify", None) for fn in CLI_VERIFY_FNS]

        modules = (kernels, polymat, linrec, cli, verify)
        self._patches = []  # (owner, attribute, original, wrapper)
        for owner, attr, name, info in targets:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            wrapper = self._wrap(original, name, info)
            owners = {(owner, attr)}
            for module in modules:
                for key, value in vars(module).items():
                    if value is original and not key.startswith("_"):
                        owners.add((module, key))
            self._patches += [(o, a, original, wrapper) for o, a in owners]

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = [name, start, end, parent, self.op_id, None]
            if info is not None:
                spans[sid][5] = info(args, result)
            return result

        return traced

    def run(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as one traced operation; returns (result, ns)."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.op_id = op_id
        sid = len(self.spans)
        try:
            result = self._wrap(fn, "op", None)(*args)
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.op_id = None
        _, start, end, *_ = self.spans[sid]
        return result, end - start

    def layer_metrics(self, cycles: int) -> dict[str, float]:
        """Self times and counts per cycle of the mix."""
        child_ns: dict[int, int] = defaultdict(int)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        busy_ns = dim_sum = mults = zmod_charpolys = produced = 0
        for sid, (name, start, end, parent, _, info) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[sid]
            calls[name] += 1
            if parent is None:
                busy_ns += end - start
            if name == "polymat.charpoly" and info:
                n, zmod = info
                dim_sum += n
                mults += berkowitz_mults(n)
                zmod_charpolys += zmod
            elif name == "linrec.terms" and info:
                produced += info
        out = {f"{name}.self_ms": self_ns[name] / 1e6 / cycles for name in SELF_SPANS}
        out.update({f"{name}.calls": calls[name] / cycles for name in CALL_SPANS})
        out["trace.busy_ms"] = busy_ns / 1e6 / cycles
        out["polymat.charpoly.dim_sum"] = dim_sum / cycles
        out["polymat.charpoly.mults"] = mults / cycles
        out["linrec.terms.produced"] = produced / cycles
        berkowitz = calls["kernels.berkowitz_mod"]
        out["kernels.fast_share"] = berkowitz / zmod_charpolys if zmod_charpolys else 0.0
        return out
