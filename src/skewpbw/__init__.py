"""Exact workbench for skew PBW extensions.

Normal forms in the standard monomial basis, catalog algebras with
stable-rank/d-Hermite bounds, unimodular-matrix certificates, and the Zariski
lattice / Kronecker reduction over finite commutative rings and F_p[t].
"""

from .catalog import (
    BoundReport,
    build,
    catalog_names,
    d_hermite_bound,
    parse_presentation_file,
    serialize,
    stable_rank_bound,
)
from .errors import (
    BadParams,
    DimensionMismatch,
    InfiniteRing,
    InvalidRing,
    KindMismatch,
    LimitExceeded,
    MissingDimR,
    NotAUnit,
    NotFoundWithinBound,
    ParseError,
    PreconditionFailed,
    SemanticError,
    SkewPBWError,
    UnknownAlgebra,
    UnsupportedCoefficientRing,
)
from .matrices import (
    PolyMatrix,
    UnimodularCertificate,
    elementary_matrix,
    find_left_inverse_column,
    find_right_inverse_row,
    mat_multiply,
    random_invertible,
    search_stable_reduction,
    stable_reduce_check,
    verify_completion,
    verify_completion_rect,
    verify_inverse,
)
from .parsing import eval_expr
from .pbw import (
    DEFAULT_SEED,
    NEG_INF,
    Presentation,
    SkewPoly,
    associated_graded,
    is_quasi_commutative,
    validate_presentation,
    zero_divisor_probe,
)
from .rings import (
    DerivationSpec,
    EndoSpec,
    PolynomialRing,
    PrimeField,
    QuotientRing,
    Rationals,
    ResidueRing,
)
from .zariski import (
    FiniteCommRing,
    FptBackend,
    IdealFin,
    RadicalClass,
    boundary_ideal,
    check_boundary_condition,
    check_lattice_laws,
    enumerate_primes,
    ideal_generated,
    kronecker_reduce,
    kronecker_reduce_dim0,
    parse_backend_spec,
    parse_ring_spec,
    radical_membership,
    unimodular_shrink,
    zariski_D,
)

__version__ = "0.1.0"
