"""Numerical toolkit for bounded sequences in finite-dimensional complex
spaces: rotated Cesaro means and unit-circle spectrum scans, mode
decompositions, a linear difference-equation simulator with asymptotic
checks, and the supporting matrix calculus (spectral radius estimates,
resolvents, contour-quadrature coefficient recovery).
"""

from .errors import (
    ConvergenceError,
    DivergenceError,
    ParseError,
    PreconditionError,
    SeqSpectrumError,
    SingularMatrixError,
    UnboundedTrajectoryError,
)
from .linalg import (
    CMatrix,
    CVector,
    MAX_DIM,
    hermitian_defect,
    mat_power_seq,
    mat_solve,
    operator_norm,
    require_unitary,
    solve_vector,
)
from .eigen import (
    GelfandReport,
    Polynomial,
    PowerBoundVerdict,
    SpectrumInfo,
    cayley_hamilton_residual,
    char_poly,
    gelfand_radius_estimate,
    poly_roots,
    power_bounded_probe,
    spectrum_info,
)
from .resolvent import (
    IsometryBoundReport,
    NeumannResult,
    PoleProbeReport,
    ResolventSample,
    cauchy_coefficient,
    isometry_bound_check,
    pole_order_probe,
    resolvent_direct,
    resolvent_neumann,
    resolvent_norm_scan,
)
from .sequences import (
    BoundedSeq,
    DEFAULT_GRID_SIZE,
    DEFAULT_HORIZON,
    KtzVerdict,
    Mode,
    ModeDecomp,
    RotatedMeanResult,
    SingleModeVerdict,
    SpectrumScanReport,
    TailStats,
    VanishingVerdict,
    angular_distance,
    difference_tail,
    extract_modes,
    ktz_check,
    modes_plus_decay,
    rotated_mean,
    single_mode_check,
    spectrum_scan,
    tail_norm,
    unimodular_powers,
    vanishing_check,
)
from .dynamics import (
    ContainmentVerdict,
    DecompositionVerdict,
    DelayProbeReport,
    DelaySystem,
    ForcingSpec,
    TrajectoryReport,
    delay_limit_probe,
    recurrence_defect,
    simulate_delay,
    spectrum_containment_check,
    verify_asymptotic_decomposition,
)
from .corpus import CorpusMember, generate_corpus
from .trend import classify_growth

__version__ = "0.1.0"
