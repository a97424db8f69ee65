"""Toolkit for summation-by-parts operator pairs: construction, algebraic
verification, spectral diagnosis of the boundary-penalized matrix, repair by
arbitrarily small dissipation, pseudospectral operators on arbitrary grids,
and penalized solves of the scalar model problem."""

from .errors import (
    ContractError,
    DecompositionError,
    IndefiniteNormError,
    InternalInconsistencyError,
    InvariantError,
    ParameterError,
    ParseError,
    RepairImpossibleError,
    SbpError,
    SchemaError,
    ShapeError,
    SingularNormError,
    SingularSystemError,
)
from .linalg import DEFAULT_TOLERANCE
from .operators import (
    BUILTIN_OPERATORS,
    Interval,
    SbpOperatorPair,
    build_classical_fd,
    build_counterexample,
    build_two_point,
    derive_d_minus,
)
from .pseudospectral import (
    CertificationReport,
    Family,
    NodeFamily,
    build_interpolatory_h,
    build_pseudospectral_d,
    build_pseudospectral_operator,
    certify_families,
    legendre_gauss_lobatto,
)
from .repair import NormChoice, PerturbationPlan, build_s_prime, repair_operator
from .sat import (
    ConvergenceStudy,
    FlowDirection,
    SatProblem,
    assemble,
    convergence_study,
    solve,
)
from .spectral import (
    EigenvalueClass,
    SpectralReport,
    build_d_tilde,
    eigen_decompose,
    h_inner,
    orthogonalize_imaginary,
    spectral_report,
)
from .storage import load_operator, operator_from_document, operator_to_document, save_operator
from .verify import (
    Property,
    PropertyResidual,
    VerificationReport,
    check_accuracy,
    check_eigenvalue_property,
    check_nullspace_consistency,
    check_s_conditions,
    check_sbp_identities,
    check_spd,
    verify_all,
)

__version__ = "0.1.0"
