"""Radial reaction problems for the p-Laplacian on the unit ball:
minimal/limiting solutions, parameter brackets, semi-stability spectra, and
sharp-regularity checks."""

__version__ = "0.1.0"

from .core import (
    ConsistencyError,
    EvaluationError,
    Exponential,
    ParameterError,
    Power,
    ProblemSpec,
    QuadratureRule,
    RadialGrid,
    RadialProfile,
    Tabulated,
    energy,
    make_grid,
    make_rule,
)
from .exponents import (
    ExponentReport,
    classify_regime,
    consistency_q0_mcs,
    critical_dimension,
    exponent_report,
    m_cs,
    q_exponent,
)
from .oracle import ExactSolution, exact_exponential, exact_power, ode_residual
from .solver import (
    BifurcationPoint,
    BracketingError,
    ContinuationResult,
    IterationControls,
    LambdaRecord,
    bifurcation_curve,
    lambda_star_estimate,
    minimal_iterate,
    shoot,
)
from .stability import (
    HardyCheck,
    PowerCutoff,
    QPencil,
    RScaled,
    SineModes,
    StabilityReport,
    assemble_q,
    hardy_inequality_check,
    weighted_gradient_integral,
    reaction_free_identity,
    min_eigenvalue,
    q_apply,
    stability_report,
)
from .estimates import (
    EstimateReport,
    FluxCheck,
    check_regularity_bounds,
    flux_monotonicity_check,
    gradient_L1_bound,
    integrability_threshold,
    lq_norm,
    log_singularity_fit,
    singularity_exponent_fit,
    w1q_norm,
)
