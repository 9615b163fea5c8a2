"""Seeded inputs for the three workloads.

Every workload is a fixed mix of operation shapes (ring, product kind,
operand degrees, verb, term count) repeated in cycles; only the operand
coefficients are drawn from the seed, and every cycle draws fresh ones,
so no input repeats within a run.  Every cycle holds every shape once, in
the same order, and a run ends only at the end of a cycle, so the mix is
the same for every run and every seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

MOD_RINGS = ("Zmod:10007", "Zmod:12", f"Zmod:{2**61 - 1}")
EXACT_RINGS = ("Z", "Q")
CLI_RINGS = EXACT_RINGS + MOD_RINGS
KINDS = ("sum", "hadamard", "cauchy", "hurwitz", "newton")
# kinds whose charpoly is a composed operation on a D x D Kronecker matrix
COMPOSED_KINDS = ("hadamard", "hurwitz", "newton")
TRANSFORMS = ("binomial", "inverse-binomial", "psi", "psi-inverse")

# Each cycle has three (ring, degree pair) combos, each run through all
# five kinds: sum and cauchy are cheap (40% of the ops), and each combo's
# three composed kinds form a group of 20%.  With the groups ordered by
# cost, the p50 falls in the middle of the first group and the p90 in the
# middle of the last, never on a boundary between groups.
# Over Z and Q the generic Berkowitz path costs O(D^4) bigint operations,
# so degrees 3-5 (D <= 20) already take a quarter second per product.
EXACT_COMBOS = (("Q", (3, 4)), ("Z", (4, 5)), ("Q", (4, 5)))
# Over Z/m the kernels reach D = 64.  Each cycle runs every ring at every
# degree pair: 18 cheap ops, then groups of nine composed ops at D = 24,
# 35 and 64, so the p50 falls in the middle of the D = 24 group and the
# p90 in the middle of the D = 64 group.
MOD_PAIRS = ((4, 6), (5, 7), (8, 8))
TINY_PAIRS = ((2, 2), (2, 3), (3, 3))


@dataclass(frozen=True)
class Seq:
    """A sequence as plain data: ring text, monic p low-to-high, init."""

    ring: str
    p: tuple
    init: tuple

    @property
    def degree(self) -> int:
        return len(self.init)

    def text(self) -> str:
        return (
            f"ring={self.ring};p=[{','.join(map(str, self.p))}];"
            f"init=[{','.join(map(str, self.init))}]"
        )


@dataclass(frozen=True)
class ProductOp:
    """One library call ``linrec.<product>(a, b)``."""

    ring: str
    kind: str
    a: Seq
    b: Seq

    def label(self) -> str:
        return f"{self.kind} {self.ring} {self.a.degree}x{self.b.degree}"

    def spec(self) -> dict:
        return {"kind": self.kind, "a": self.a.text(), "b": self.b.text()}


@dataclass(frozen=True)
class CliOp:
    """One ``recseq`` command line."""

    verb: str
    ring: str
    seqs: dict = field(hash=False)
    count: int | None = None
    kind: str | None = None
    structured: bool = False

    def argv(self) -> list[str]:
        args = [self.verb]
        if self.verb == "verify":
            args += ["--check", self.kind]
        elif self.kind is not None:
            args += ["--kind", self.kind]
        for role, seq in self.seqs.items():
            args += [f"-{role}", seq.text()]
        if self.count is not None:
            args += ["-n", str(self.count)]
        if self.structured:
            args += ["--format", "structured"]
        return args

    def label(self) -> str:
        parts = [self.verb, self.kind or "", self.ring, f"n={self.count}" if self.count else ""]
        if self.structured:
            parts.append("structured")
        return " ".join(p for p in parts if p)

    def spec(self) -> dict:
        return {"argv": self.argv()}


def draw_seq(rng, ring: str, degree: int) -> Seq:
    """A random sequence of the given order over ``ring``."""
    if ring.startswith("Zmod:"):
        m = int(ring[len("Zmod:") :])
        return Seq(ring, tuple(rng.randrange(m) for _ in range(degree)) + (1,),
                   tuple(rng.randrange(m) for _ in range(degree)))
    p = tuple(rng.randint(-3, 3) for _ in range(degree)) + (1,)
    if ring == "Q":
        init = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(degree))
    else:
        init = tuple(rng.randint(-5, 5) for _ in range(degree))
    return Seq(ring, p, init)


def _product_cycle(rng, combos) -> list[ProductOp]:
    return [
        ProductOp(ring, kind, draw_seq(rng, ring, da), draw_seq(rng, ring, db))
        for ring, (da, db) in combos
        for kind in KINDS
    ]


def draw_growing_seq(rng, ring: str, a: int) -> Seq:
    """x^2 - (+-a) x - 1: the terms grow like ((a + sqrt(a^2 + 4)) / 2)^n.

    Only the sign and the nonzero initial terms are drawn, so the size of
    the terms, and with it the cost of printing them, is the same for
    every seed.  Over 10^4 terms they reach 2,090 digits for a = 1, under
    Python's 4300-digit int/str limit, and cross it at n = 8,285 for a = 3.
    """
    def nonzero():
        return rng.choice((-1, 1)) * rng.randint(1, 5)

    if ring == "Q":
        init = tuple(Fraction(nonzero(), rng.randint(1, 3)) for _ in range(2))
    else:
        init = (nonzero(), nonzero())
    return Seq(ring, (-1, rng.choice((-a, a)), 1), init)


def _cli_cycle(rng, tiny: bool) -> list[CliOp]:
    n_terms, n_op, n_inv = (20, 12, 6) if tiny else (10_000, 2000, 200)
    ops = []
    for i, ring in enumerate(CLI_RINGS):
        def s(degree, ring=ring):
            return draw_seq(rng, ring, degree)

        if ring in EXACT_RINGS:
            # two long terms calls whose printing cost is fixed; over Z a
            # third crosses the int/str limit and exits 2 every cycle
            # (ROADMAP item 5).  With invert over Q these are the six
            # slowest of the 43 calls, and the p90 falls between the two
            # terms calls over Z.
            ops += [CliOp("terms", ring, {"s": draw_growing_seq(rng, ring, 1)}, n_terms) for _ in range(2)]
            if ring == "Z":
                ops.append(CliOp("terms", ring, {"s": draw_growing_seq(rng, ring, 3)}, n_terms))
        else:
            ops.append(CliOp("terms", ring, {"s": s(2)}, n_terms))
        ops += [
            CliOp("op", ring, {"a": s(2), "b": s(1)}, n_op, KINDS[i]),
            CliOp("op", ring, {"a": s(2), "b": s(1)}, n_op, KINDS[(i + 1) % 5]),
            CliOp("op", ring, {"a": s(2), "b": s(2)}, n_op, KINDS[(i + 2) % 5], structured=True),
            CliOp("invert", ring, {"s": s(2)}, n_inv),
            CliOp("transform", ring, {"s": s(2)}, n_inv, TRANSFORMS[i % 4]),
            CliOp("verify", ring, {"a": s(2), "b": s(1)}, 30, "decomposition"),
            CliOp("verify", ring, {"s": s(2)}, 30, "inverse"),
        ]
    return ops


def cycle(workload: str, rng, tiny: bool = False) -> list:
    """One cycle of the workload's fixed mix, with fresh operands."""
    if workload == "closure-exact":
        pairs = TINY_PAIRS if tiny else [pair for _, pair in EXACT_COMBOS]
        return _product_cycle(rng, [(ring, pair) for (ring, _), pair in zip(EXACT_COMBOS, pairs)])
    if workload == "closure-mod":
        pairs = TINY_PAIRS if tiny else MOD_PAIRS
        return _product_cycle(rng, [(ring, pair) for pair in pairs for ring in MOD_RINGS])
    if workload == "cli-stream":
        return _cli_cycle(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, rng) -> list:
    """One small operation per ring of the workload."""
    if workload == "cli-stream":
        return [CliOp("terms", ring, {"s": draw_seq(rng, ring, 2)}, 10) for ring in CLI_RINGS]
    rings = EXACT_RINGS if workload == "closure-exact" else MOD_RINGS
    return [ProductOp(ring, "hadamard", draw_seq(rng, ring, 2), draw_seq(rng, ring, 2)) for ring in rings]


WORKLOADS = ("closure-exact", "closure-mod", "cli-stream")
