"""Conjugate points, isotropic Jacobi fields and curvature pinching on
rank-one normal homogeneous spaces built from explicit Lie-algebra data."""

from .algebra import (
    AlgebraElement,
    AlgebraError,
    AlgebraMismatch,
    BasisMatrix,
    DegenerateGram,
    GramRule,
    NotClosed,
    StructuredAlgebra,
    algebra_to_json,
    assemble_algebra,
    bracket,
    check_biinvariance,
    jacobi_identity_residual,
)
from .catalog import (
    BadParams,
    SpaceDescriptor,
    SymmetricReference,
    build_b13,
    build_berger_sphere,
    build_cp_odd,
    build_round_sphere,
    build_sp_sphere,
    build_space,
    build_w7,
    parse_descriptor,
    sp_algebra,
    su_algebra,
    symmetric_conjugate_times,
)
from .closed_form import (
    ClosedFormError,
    CpData,
    HypothesisViolated,
    Mismatch,
    closed_form_times,
    cross_validate,
    extract_cp_data,
    solve_tan_family,
)
from .homogeneous import (
    DegeneratePlane,
    MissingSplit,
    NoWitness,
    PlaneSpec,
    ReductiveSpace,
    isotropy_transitivity_check,
    lts_check,
    project,
    rank_one_check,
    sectional_curvature,
)
from .jacobi import (
    BadAngle,
    BadAux,
    ConjugateEvent,
    JacobiSystem,
    ScanStats,
    ZeroVector,
    build_system,
    classify_isotropy,
    conjugate_events,
    fundamental_block,
    geodesic_direction,
    geodesic_pair,
    scan_conjugate_times,
    scan_with_stats,
)
from .pinching import PinchingReport, estimate_pinching, expected_delta, pinching_curve

__version__ = "0.1.0"
