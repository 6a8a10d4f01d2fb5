"""Exact-arithmetic engine for basic hypergeometric series, Askey-Wilson
polynomials, structured determinants/Pfaffians, and a verification harness
that certifies each identity by exact evaluation at random rational points."""

from .scalar import (
    ParamPoint,
    PoleError,
    DomainError,
    SamplingExhausted,
    Scalar,
    qpoch,
    qpoch_multi,
    sample_point,
)
from .series import (
    HypergeometricSpec,
    NotTerminating,
    OrderMismatch,
    TruncatedSeries,
    phi_series,
    phi_term,
    phi_terminating,
    series_linear_combine,
)
from .askey_wilson import (
    AWParams,
    PolynomialInX,
    XPoint,
    aw_moment,
    aw_moments,
    aw_poly,
    aw_poly_as_polynomial,
    newton_coeffs,
    newton_lattice_coeffs,
)
from .linalg import (
    Matrix,
    NonSquare,
    OddOrder,
    OrderTooLarge,
    SkewMatrix,
    desnanot_jacobi_residual,
    det_cofactor,
    det_condensation,
    det_fraction_free,
    minor,
    pfaffian_expansion,
    pfaffian_matchings,
)
from .identities import (
    REGISTRY,
    CheckReport,
    EmptyResiduals,
    IdentityCheck,
    Sizes,
    run_check,
)

__version__ = "0.1.0"
