"""Exact closure algebra for linear recurrent sequences.

Sequences over Z, Q, or Z/m are closed under the termwise sum and the
Hadamard, Cauchy, Hurwitz and Newton products; every product returns an
explicit monic characteristic polynomial plus initial conditions.  Also
provides Newton-product inverses, binomial transforms and the isomorphism
between the Hadamard and Newton algebras.  The independent brute-force
oracles that check all of this live in :mod:`recseq.verify`, and the
matrix and resultant constructions of the composed operations in
:mod:`recseq.matrix_oracles`; both are imported from there.
"""

from .kernels import BACKEND
from .linrec import (
    DEFAULT_PREFIX,
    InvariantError,
    InvertibilityReport,
    LinRec,
    NotInvertible,
    alternating_ones,
    binomial_transform,
    cauchy,
    delta,
    hadamard,
    hadamard_to_newton,
    hurwitz,
    inverse_binomial_transform,
    is_newton_invertible,
    newton,
    newton_inverse,
    newton_to_hadamard,
    newton_via_decomposition,
    ones,
    seq_sum,
)
from .polymat import DegreeZero, NotMonic, Poly, composed_newton, composed_product, composed_sum
from .ring import (
    QQ,
    ZZ,
    NotAUnit,
    RingElem,
    RingMismatch,
    RingSpec,
    Zmod,
    binom,
    int_scale,
)

__version__ = "0.1.0"
