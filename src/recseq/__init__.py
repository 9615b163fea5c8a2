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
    InvertibilityConditions,
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
    invertibility_conditions,
    is_newton_invertible,
    newton,
    newton_inverse,
    newton_to_hadamard,
    newton_via_decomposition,
    ones,
    prefix_equal,
    prefix_terms,
    seq_sum,
)
from .polymat import (
    DegreeZero,
    Matrix,
    NotMonic,
    Poly,
    ZeroPolynomial,
    charpoly,
    companion,
    composed_newton,
    composed_product,
    composed_sum,
    kron,
    kron_newton,
    kron_sum,
    resultant,
    resultant_shift,
)
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
    charpoly_cofactor,
    direct_product_oracle,
    inverse_check,
    morphism_check,
    ogf_poly_check,
    satisfies_recurrence,
)

__version__ = "0.1.0"
