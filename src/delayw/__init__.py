"""Lambert W spectra and eigenvalue assignment for scalar delay systems."""

from .errors import (
    AlphaOutOfRange,
    BoundaryRootSuspected,
    BranchOutOfRange,
    ConditionViolated,
    DelayWError,
    DomainError,
    InsufficientData,
    InvalidGain,
    InvalidStep,
    MismatchDetected,
    NoConvergence,
    NonFiniteInput,
    NotAssignableAsRightmost,
)
from .assign import (
    AssignmentMode,
    AssignmentResult,
    FeasibilityReport,
    ModeCheck,
    Target,
    as_target,
    assign_both,
    assign_current_only,
    assign_delay_only,
    assign_input_delay,
    assign_real_both,
    feasibility_report,
)
from .oracle import (
    CLUSTER_TOL,
    CrossValidation,
    LocatedRoot,
    RootSet,
    SearchRect,
    count_roots,
    cross_validate,
    find_roots,
)
from .lambertw import (
    BRANCH_POINT_Z,
    K_MAX,
    WValue,
    lambert_w,
    lambert_w_real,
    on_w0_boundary,
    w0_boundary_point,
)
from .spectrum import (
    COALESCENCE_TOL,
    ClosedLoopParams,
    Gains,
    Spectrum,
    SpectrumRoot,
    SystemParams,
    char_residual,
    close_loop,
    is_stable,
    spectrum,
)
from .sim import (
    ConstantHistory,
    EigEstimate,
    InitialData,
    LinearHistory,
    SampledHistory,
    Trajectory,
    estimate_dominant_eig_detailed,
    simulate,
)

__version__ = "0.1.0"
