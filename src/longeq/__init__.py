"""Exact tools for the Long equation: solution constructors and predicates,
the induced FRT-type bialgebra with its sigma-form, finite-dimensional
bialgebra axiom machinery, and numerical Knizhnik-Zamolodchikov holonomy."""

from .bialgebra import (
    AXIOMS,
    AffineTableSpace,
    Coalgebra,
    FeasibilityResult,
    FinDimBialgebra,
    GeneratorBialgebra,
    SigmaTable,
    check_axioms,
    comatrix_coalgebra,
    comatrix_tensor_truncation,
    cyclic_group_algebra,
    fundamental_comodule,
    group_algebra,
    l1_solution_space,
    sigma_feasibility,
    strong_dmap_rsigma,
    sweedler_h4,
)
from .errors import (
    CentralityViolated,
    DimensionCap,
    InternalCheckFailed,
    InvalidBialgebra,
    InvalidCoaction,
    InvalidGroupTable,
    LongeqError,
    NonCommutingPair,
    NotALongSolution,
    NotAStrongDMap,
    NotASubmodule,
    NotIdempotent,
    PathTooClose,
    SigmaIllDefined,
    SingularMatrix,
    SingularOperator,
)
from .frt import (
    LongPresentation,
    QuotientCoalgebra,
    SigmaForm,
    build_LR,
    check_L1_on_generators,
    convolution_inverse,
    dimodule_action,
    dimodule_compatible,
    presentation_text,
    round_trip,
    sigma_extend,
)
from .kz import (
    KZSystem,
    LoopSpec,
    convergence_order,
    flatness_residuals,
    integrate_holonomy,
)
from .tensor_ops import (
    LAWS,
    GradedActionData,
    TensorOp2,
    check_laws,
    idempotent_maps,
    invert,
    long_witness,
    make_conjugate,
    make_diag,
    make_graded,
    make_homothety,
    make_pair,
    make_phi,
)

__version__ = "0.1.0"
