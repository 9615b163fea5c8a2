"""The value core: the hot loops of the sequence algebra on raw values.

Every function here takes and returns plain values -- ``int`` over Z and
Z/m, ``int`` or ``Fraction`` over Q, and ``Decimal`` integers over Z and
Q when ``LinRec.term_string_chunks`` unrolls terms for printing from an
integer charpoly, in a context that cannot round -- never
:class:`~recseq.ring.RingElem` objects.  Over Q
the products and polynomial arithmetic pass integers scaled by a common
denominator and divide once per output; only term
unrolling (``LinRec.term_values``, and printing over Q when the charpoly
has a denominator) and the Newton inverse's binomial convolution pass
``Fraction`` values, so :func:`binomial_transform_values`
sees only integers.  Where a function takes a ``modulus``, each result
is reduced mod m as soon as it is formed; with ``modulus=None`` the
arithmetic is exact.  One copy of each loop serves Z, Q and Z/m for
every m.  Every term unroll runs :func:`recurrence_values`, so a
negative term count raises ``ValueError`` there, on every route.  It
takes the monic charpoly low-to-high, as ``Poly.values`` and the scaled
coefficient lists of :mod:`recseq.polymat` hold it, and negates its
coefficients into the step of the recurrence itself; over ``Decimal``
that negation is exact only in the caller's exact context.
:func:`recurrence_chunks` gives the same terms in lists of at most
``CHUNK``, each unrolled by :func:`recurrence_values` from the last
terms of the one before.  Each caller picks one of the two itself: the
products and the composed operations take the one list; printing and
the Newton inverse's divisors take the chunks, so that they can refuse
or stop at index t after O(t + ``CHUNK``) terms, and so that a printing
call holds the strings of one chunk at a time.  ``CHUNK`` is 64: the
comment on it gives the peaks that chose it.

The products run on these loops: :func:`termwise_values` (sum and
Hadamard), :func:`cauchy_values` (Cauchy) and
:func:`binomial_convolution_values` (Hurwitz); the Newton product runs
:func:`termwise_values` between root shifts and one
:func:`binomial_transform_values`.  Which loop each product runs, and
how, is written once, in :func:`recseq.polymat._product_values`: it
gives the initial conditions of :mod:`recseq.linrec`'s products from the
operands' terms, and the power sums of the combined roots of the
composed operations from those of two characteristic polynomials.
:mod:`recseq.polymat` also runs polynomial ``+``, ``-`` and ``*`` on the
sum and Cauchy loops.  :class:`~recseq.polymat.Poly` and
:class:`~recseq.linrec.LinRec` hold raw values, so the values pass
straight through; ring elements are built only when a caller reads them.

Over Z/m with (n-1)! a unit mod m, :func:`binomial_convolution_values`
weights by inverse factorials and runs its convolution as one big-int
multiplication (Kronecker substitution, :func:`_packed_cauchy`); every
other input takes the Pascal loop.

:mod:`recseq.verify` keeps its own, deliberately independent loops over
ring elements as the oracle, and so does :mod:`recseq.matrix_oracles`
(Kronecker constructions, Berkowitz, the shifted resultant): none calls
a kernel.
"""

from __future__ import annotations

from math import gcd
from operator import add, mul, sub

# recseq is pure Python; the name stays for code that records it
BACKEND = "python"

# Terms per list of recurrence_chunks, the unit in which terms are printed.
# Up to three copies of a chunk are alive around its write (the words, the
# joined text, the encoded bytes); at 2,090-digit terms, 256 of them are
# 0.53 MB of text.  Child peak RSS of `terms -n 10000` over Z / Q at 256,
# 128, 64 and 32 terms: 16.90/16.90, 16.20/16.22, 15.65/15.63 and
# 15.67/15.62 MB, so 64 is the smallest that still saves.  In-process, 64
# against 256 printed no shape measurably slower (Python 3.11)
CHUNK = 64


def recurrence_values(cs, init, count: int, modulus: int | None = None) -> list:
    """The first ``count`` terms from ``init`` of the sequence with monic charpoly ``cs``.

    ``cs`` holds c_0..c_N low-to-high (c_N = 1, never read), as
    ``Poly.values`` does, and the terms follow
    a_n = -(c_(N-1) a_(n-1) + ... + c_0 a_(n-N)).  ``ValueError`` if
    ``count < 0``.
    """
    if count < 0:
        raise ValueError("term count must be >= 0")
    hs = [-c for c in cs[-2::-1]]  # hs[i] multiplies a_(n-1-i)
    vals = list(init[:count])
    for _ in range(len(vals), count):
        acc = sum(map(mul, hs, reversed(vals)))
        vals.append(acc % modulus if modulus else acc)
    return vals


def recurrence_chunks(cs, init, count: int, modulus: int | None = None):
    """``recurrence_values(cs, init, count, modulus)`` as consecutive lists of at most ``CHUNK`` terms.

    Each chunk is :func:`recurrence_values` again, seeded with the last N
    terms before it (N the order).  Between chunks the iterator holds
    those N terms and no chunk: each is unrolled in a call that returns
    it, so once the caller drops a chunk its terms are freed.
    ``count = 0`` yields nothing; a negative count raises ``ValueError``
    at the first ``next``.
    """
    order = len(cs) - 1
    window, start, done = init, 0, 0  # window holds the terms from index start on

    def unroll():  # the next chunk, or None after the last
        nonlocal window, start, done
        vals = recurrence_values(cs, window, min(done + CHUNK, count) - start, modulus)
        if start + len(vals) == done:
            return None
        chunk, done = vals[done - start :], start + len(vals)
        if len(vals) >= order:
            window, start = vals[-order:], done - order
        return chunk

    return iter(unroll, None)


def termwise_values(op, xs, ys, modulus: int | None = None) -> list:
    """z_k = op(x_k, y_k): ``add`` for the sum, ``mul`` for the Hadamard product."""
    zs = list(map(op, xs, ys))
    return [z % modulus for z in zs] if modulus else zs


def cauchy_values(xs, ys, modulus: int | None = None) -> list:
    """Truncated convolution z_k = sum_i x_i y_(k-i) for k < len(xs); callers pass len(ys) >= len(xs)."""
    out = []
    for k in range(len(xs)):
        z = sum(map(mul, xs, reversed(ys[: k + 1])))
        out.append(z % modulus if modulus else z)
    return out


def binomial_transform_values(xs, shift: int = 1, modulus: int | None = None) -> list:
    """Shifted binomial transform y_k = sum_i C(k,i) shift^(k-i) x_i, k < len(xs).

    If the x_k are the power sums of some roots, the y_k are those of the
    roots plus ``shift``.  ``shift=1`` is the binomial transform and
    ``shift=-1`` its inverse.  Computed as a table of repeated pairwise
    combinations: O(len^2) additions, and for shift +-1 no multiplication
    or division, so it works on ints and unreduced lifts of residues
    alike.  Only the outputs are reduced by ``modulus``.
    """
    out, row = [], list(xs)
    while row:
        out.append(row[0] % modulus if modulus else row[0])
        if shift == 1:
            row = list(map(add, row, row[1:]))
        elif shift == -1:
            row = list(map(sub, row[1:], row))
        else:
            row = [shift * a + b for a, b in zip(row, row[1:])]
    return out


def binomial_convolution_values(xs, ys, modulus: int | None = None) -> list:
    """z_k = sum_i C(k,i) x_i y_(k-i) for k < len(xs); callers pass len(ys) >= len(xs).

    With n = len(xs), the route depends only on n and ``modulus``:

    * If (n-1)! is a unit mod m, z_k = k! sum_i (x_i / i!) (y_(k-i) / (k-i)!)
      with inverse factorials mod m, and the sum is one packed Cauchy
      product (:func:`_packed_cauchy`).
    * Otherwise -- Z, Q's scaled integers, a modulus sharing a prime with
      (n-1)!, and the ``Fraction`` values of the Newton inverse -- the
      binomial coefficients come from Pascal rows built on the way, so
      each z_k is a running sum that adds one product at a time.  For
      ``Fraction`` values that keeps one operand of every addition small;
      the pairwise table of :func:`binomial_transform_values` adds two
      partial sums that both carry the lcm of many denominators.

    The first route reads only ys[:n], the second ys[:k+1] for each k, so
    with a shorter ``ys`` the two would disagree.
    """
    n = len(xs)
    if modulus and n:
        fact = [1]
        for k in range(1, n):
            fact.append(fact[-1] * k % modulus)
        if gcd(fact[-1], modulus) == 1:
            inv = [pow(fact[-1], -1, modulus)]
            for k in range(n - 1, 0, -1):
                inv.append(inv[-1] * k % modulus)
            inv.reverse()
            us = [x * w % modulus for x, w in zip(xs, inv)]
            vs = [y * w % modulus for y, w in zip(ys, inv)]
            return [z * f % modulus for z, f in zip(_packed_cauchy(us, vs, modulus), fact)]
    out = []
    row = [1]
    for k in range(len(xs)):
        z = sum(map(mul, row, map(mul, xs, reversed(ys[: k + 1]))))
        out.append(z % modulus if modulus else z)
        row = [1, *map(add, row, row[1:]), 1]
    return out


def _packed_cauchy(xs, ys, modulus: int) -> list:
    """z_k = sum_i x_i y_(k-i) mod m for k < len(xs), by Kronecker substitution.

    xs and ys hold len(xs) residues in [0, m).  Each is written into a
    byte slot of one integer, wide enough that no slot of the product
    (a sum of at most len(xs) terms below m^2) carries into the next, so
    one big-int multiplication gives every z_k.
    """
    n = len(xs)
    width = -(-(n * (modulus - 1) ** 2).bit_length() // 8) + 1
    size = n * width

    def packed(vs):
        return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in vs), "little")

    data = (packed(xs) * packed(ys)).to_bytes(2 * size, "little")
    return [int.from_bytes(data[i : i + width], "little") % modulus for i in range(0, size, width)]
