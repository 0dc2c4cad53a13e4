"""Grid-density and ensemble filtering built from explicit measure maps.

The package decomposes one assimilation step into composable maps on
probability measures: prediction through the stochastic dynamics, lifting to
the joint state/data space, and either exact conditioning on the datum or the
affine Kalman transport that replaces it in ensemble methods. Densities live
on tensor-product grids with trapezoidal quadrature; closed-form Gaussian
algebra and a finite particle ensemble sit alongside as oracles and
approximations. The ``verify`` module measures the library's contract
inequalities; the ``cli`` module batches experiments.
"""

__version__ = "0.1.0"

from .gaussian import (
    BlockStructure,
    GaussianMeasure,
    SingularCovarianceError,
    chol_spd,
    condition,
    density_at,
    dg_upper_bound,
    g2_moment,
    kl_divergence,
    log_density_at,
    sample,
)
from .density import (
    CoverageError,
    GridDensity,
    GridMismatchError,
    Moments,
    ResolutionWarning,
    dg_distance,
    from_function,
    from_gaussian,
    gaussian_projection,
    lifted_epsilon,
    load_binary,
    marginal_u,
    moments,
    save_binary,
    save_csv,
    tv_distance,
)
from .model import (
    AssumptionReport,
    MapSpec,
    ModelSpec,
    bounded_model_1d,
    fingerprint,
    from_config,
    linear_model_1d,
    load_config,
    registered_families,
    save_config,
    sweep_model,
    to_config,
    validate_assumptions,
)
from .operators import (
    DegenerateEvidenceError,
    OperatorWorkspace,
    OutOfDomainError,
    WorkspaceMismatchError,
    bayes,
    default_workspace,
    kalman_gain,
    lift,
    lifted_envelope,
    predict,
    prediction_envelope,
    transport,
)
from .filters import (
    Ensemble,
    FilterConfig,
    FilterStepError,
    FilterTrajectory,
    generate_data,
    kalman_analytic,
    lipschitz_p,
    lipschitz_q,
    plan_workspace,
    run_filter,
    step_enkf_particles,
    trajectory_to_csv,
)
from .verify import PropertyResult, measure_sweep, run_suites, write_report

__all__ = [
    "__version__",
    # gaussian
    "BlockStructure", "GaussianMeasure", "SingularCovarianceError", "chol_spd",
    "condition", "density_at", "dg_upper_bound", "g2_moment", "kl_divergence",
    "log_density_at", "sample",
    # density
    "CoverageError", "GridDensity", "GridMismatchError", "Moments",
    "ResolutionWarning", "dg_distance", "from_function", "from_gaussian",
    "gaussian_projection", "lifted_epsilon", "load_binary", "marginal_u",
    "moments", "save_binary", "save_csv", "tv_distance",
    # model
    "AssumptionReport", "MapSpec", "ModelSpec", "bounded_model_1d", "fingerprint",
    "from_config", "linear_model_1d", "load_config", "registered_families",
    "save_config", "sweep_model", "to_config", "validate_assumptions",
    # operators
    "DegenerateEvidenceError", "OperatorWorkspace", "OutOfDomainError",
    "WorkspaceMismatchError", "bayes", "default_workspace", "kalman_gain", "lift",
    "lifted_envelope", "predict", "prediction_envelope", "transport",
    # filters
    "Ensemble", "FilterConfig", "FilterStepError", "FilterTrajectory",
    "generate_data", "kalman_analytic", "lipschitz_p", "lipschitz_q",
    "plan_workspace", "run_filter", "step_enkf_particles", "trajectory_to_csv",
    # verify
    "PropertyResult", "measure_sweep", "run_suites", "write_report",
]
