"""Exact closure algebra for linear recurrent sequences.

Sequences over Z, Q, or Z/m are closed under the termwise sum and the
Hadamard, Cauchy, Hurwitz and Newton products; every product returns an
explicit monic characteristic polynomial plus initial conditions.  Also
provides Newton-product inverses, binomial transforms, the isomorphism
between the Hadamard and Newton algebras, and independent brute-force
verification oracles.
"""

from .kernels import BACKEND
from .linrec import (
    DEFAULT_PREFIX,
    InvariantError,
    InvertibilityReport,
    LinRec,
    NotInvertible,
    TermStream,
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
from .verify import (
    CheckReport,
    Matrix,
    charpoly,
    charpoly_cofactor,
    companion,
    direct_product_oracle,
    inverse_check,
    kron,
    kron_newton,
    kron_sum,
    morphism_check,
    ogf_poly_check,
    resultant_shift,
    satisfies_recurrence,
)

__version__ = "0.1.0"
