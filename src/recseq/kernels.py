"""The value core: the hot loops of the sequence algebra on raw values.

Every function here takes and returns plain values -- ``int`` over Z and
Z/m, ``int`` or ``Fraction`` over Q -- never :class:`~recseq.ring.RingElem`
objects.  Where a function takes a ``modulus``, each result is reduced
mod m as soon as it is formed; with ``modulus=None`` the arithmetic is
exact.  One copy of each loop serves Z, Q and Z/m for every m.

Each of the five products has one loop here: :func:`termwise_values`
(sum and Hadamard), :func:`cauchy_values`,
:func:`binomial_convolution_values` (Hurwitz) and :func:`newton_values`.
:mod:`recseq.linrec` applies it to the operands' terms to get the initial
conditions; :mod:`recseq.polymat` applies the Hadamard, Hurwitz and
Newton loops to the power sums of the roots of two characteristic
polynomials, which the same loop turns into the power sums of the
combined roots.  Both wrap the results as ring elements once, at their
API boundary.

:mod:`recseq.verify` keeps its own, deliberately independent loops over
ring elements as the oracle.
"""

from __future__ import annotations

from operator import add, mul, sub

# recseq is pure Python; the name stays for code that records it
BACKEND = "python"


def recurrence_values(hs, init, count: int, modulus: int | None = None) -> list:
    """First ``count`` terms of a_n = sum_i hs[i] a_(n-1-i), from ``init``.

    ``count`` must be at least ``len(init)``.
    """
    vals = list(init)
    for _ in range(len(vals), count):
        acc = sum(map(mul, hs, reversed(vals)))
        vals.append(acc % modulus if modulus else acc)
    return vals


def termwise_values(op, xs, ys, modulus: int | None = None) -> list:
    """z_k = op(x_k, y_k): ``add`` for the sum, ``mul`` for the Hadamard product."""
    zs = list(map(op, xs, ys))
    return [z % modulus for z in zs] if modulus else zs


def cauchy_values(xs, ys, modulus: int | None = None) -> list:
    """Truncated convolution z_k = sum_i x_i y_(k-i) for k < len(xs)."""
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
    or division, so it works on ints, Fractions and unreduced lifts of
    residues alike.  Only the outputs are reduced by ``modulus``.
    """
    row = list(xs)
    out = []
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
    """z_k = sum_i C(k,i) x_i y_(k-i) for k < len(xs).

    The binomial coefficients come from Pascal rows built on the way, so
    each z_k is a running sum that adds one product at a time.  Over Q
    that keeps one operand of every Fraction addition small; the pairwise
    table of :func:`binomial_transform_values` adds two partial sums that
    both carry the lcm of many denominators.
    """
    out = []
    row = [1]
    for k in range(len(xs)):
        z = sum(map(mul, row, map(mul, xs, reversed(ys[: k + 1]))))
        out.append(z % modulus if modulus else z)
        row = [1, *map(add, row, row[1:]), 1]
    return out


def newton_values(xs, ys, modulus: int | None = None, shift: int = 1) -> list:
    """z = B_(-shift^2)(B_shift(x) . B_shift(y)), B_s the shifted binomial transform.

    With ``shift=1`` this is the Newton convolution
    z_n = sum_i sum_j C(n,i) C(i,j) x_i y_(n-j).  If x and y are the power
    sums of roots a and b, z are those of shift a + shift b + a b: the
    roots a + shift and b + shift multiply, and the product
    (a + shift)(b + shift) less shift^2 is that root.  O(len^2) additions.
    """
    bx = binomial_transform_values(xs, shift, modulus)
    by = binomial_transform_values(ys, shift, modulus)
    return binomial_transform_values(termwise_values(mul, bx, by, modulus), -shift * shift, modulus)
