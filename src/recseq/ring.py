"""Exact arithmetic over the integers, the rationals, and integers mod m.

Every value is immutable after construction.  Elements of different rings
never mix: binary operations on mismatched rings raise :class:`RingMismatch`
instead of coercing.  Rationals are kept in lowest terms with a positive
denominator (``fractions.Fraction`` guarantees this), residues are kept
reduced into ``[0, m)``, so equality is structural everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


class RingMismatch(ValueError):
    """Operands belong to different rings."""


class NotAUnit(ArithmeticError):
    """Multiplicative inverse requested for a non-invertible element."""


class RingSpec:
    """One of the supported coefficient rings: Z, Q, or Z/m for m >= 2.

    Instances are compared structurally; ``Zmod(7) == Zmod(7)`` holds even
    for separately constructed specs.  ``str()`` produces the text syntax
    used by the CLI (``Z``, ``Q``, ``Zmod:<m>``).
    """

    INTEGERS = "Z"
    RATIONALS = "Q"
    INTEGERS_MOD = "Zmod"

    __slots__ = ("kind", "modulus")

    def __init__(self, kind: str, modulus: int | None = None):
        if kind not in (self.INTEGERS, self.RATIONALS, self.INTEGERS_MOD):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == self.INTEGERS_MOD:
            if not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 2:
                raise ValueError("modulus must be an integer >= 2")
        elif modulus is not None:
            raise ValueError(f"ring {kind} takes no modulus")
        self.kind = kind
        self.modulus = modulus

    def __eq__(self, other):
        if not isinstance(other, RingSpec):
            return NotImplemented
        return self.kind == other.kind and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __str__(self):
        if self.kind == self.INTEGERS_MOD:
            return f"Zmod:{self.modulus}"
        return self.kind

    def __repr__(self):
        return f"RingSpec({self})"

    @property
    def zero(self) -> "RingElem":
        return self.from_int(0)

    @property
    def one(self) -> "RingElem":
        return self.from_int(1)

    def unit_inverse(self, value):
        """The inverse of ``value``, a raw value of this ring, or None if it is not a unit."""
        if self.kind == self.INTEGERS:
            return value if value in (1, -1) else None
        if self.kind == self.RATIONALS:
            return 1 / value if value else None
        try:
            return pow(value, -1, self.modulus)
        except ValueError:
            return None

    def from_int(self, n: int) -> "RingElem":
        """Image of an arbitrary-precision integer in this ring."""
        if not isinstance(n, int):
            raise TypeError(f"expected int, got {type(n).__name__}")
        if self.kind == self.RATIONALS:
            return RingElem(self, Fraction(n))
        return RingElem(self, n)


ZZ = RingSpec(RingSpec.INTEGERS)
QQ = RingSpec(RingSpec.RATIONALS)


def Zmod(m: int) -> RingSpec:
    """The ring of integers modulo ``m`` (any m >= 2, prime or not)."""
    return RingSpec(RingSpec.INTEGERS_MOD, m)


class RingElem:
    """An exact element of a :class:`RingSpec`.

    Supports ``+``, ``-``, ``*`` and unary ``-`` against elements of the
    same ring.  Arbitrary precision throughout; no floats ever.
    """

    __slots__ = ("ring", "value")

    def __init__(self, ring: RingSpec, value):
        kind = ring.kind
        if kind == RingSpec.RATIONALS:
            if isinstance(value, Fraction):
                pass
            elif isinstance(value, int) and not isinstance(value, bool):
                value = Fraction(value)
            else:
                raise TypeError(f"rational value must be int or Fraction, got {type(value).__name__}")
        elif not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"ring value must be int, got {type(value).__name__}")
        elif kind == RingSpec.INTEGERS_MOD:
            value %= ring.modulus
        self.ring = ring
        self.value = value

    def _require_same_ring(self, other) -> None:
        if self.ring != other.ring:
            raise RingMismatch(f"cannot combine elements of {self.ring} and {other.ring}")

    def __add__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        self._require_same_ring(other)
        return RingElem(self.ring, self.value + other.value)

    def __sub__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        self._require_same_ring(other)
        return RingElem(self.ring, self.value - other.value)

    def __mul__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        self._require_same_ring(other)
        return RingElem(self.ring, self.value * other.value)

    def __neg__(self):
        return RingElem(self.ring, -self.value)

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.ring == other.ring and self.value == other.value

    def __hash__(self):
        return hash((self.ring, self.value))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"{self.value} (in {self.ring})"

    def is_zero(self) -> bool:
        return self.value == 0

    def is_unit(self) -> bool:
        """True iff the element has a multiplicative inverse in its ring."""
        return self.ring.unit_inverse(self.value) is not None

    def inv(self) -> "RingElem":
        """Multiplicative inverse; raises :class:`NotAUnit` if none exists."""
        r = self.ring.unit_inverse(self.value)
        if r is None:
            raise NotAUnit(f"{self.value} is not a unit of {self.ring}")
        return RingElem(self.ring, r)


def int_scale(n: int, x: RingElem) -> RingElem:
    """``n . x``: the action of an integer scalar on a ring element.

    Computed as (image of n in the ring) * x, so it stays correct in
    positive characteristic where n itself may not live in the ring.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("scalar must be an int")
    return x.ring.from_int(n) * x


# C(n, k) exactly: zero when k > n, ValueError on negative arguments
binom = comb
