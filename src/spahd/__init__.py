"""Saddlepoint density approximation for sample means, with explicit error control.

Core flow: describe a symmetric Gaussian mixture (model), solve the saddle
equation at the query point (saddle), assemble the log-domain density estimate
and its error budget (spa), measure the true multiplicative correction by
contour quadrature (correction), and compare against exact or Monte Carlo
references (oracle).  The experiments module sweeps these over (d, n) grids
and writes deterministic CSV/manifest outputs; the cli module exposes all of
it as subcommands.
"""

from .errors import (
    AssumptionViolationError,
    ConfigError,
    DimensionError,
    FitError,
    ModelDomainError,
    NonconvergenceError,
    PhaseBranchError,
    QuadratureError,
    SpahdError,
    StandardizationError,
)
from .model import (
    CgfModel,
    ComplexCgfValue,
    GaussianMixture,
    MixtureParams,
    load_model_file,
)
from .saddle import LegendreGapReport, SaddlePoint, legendre_gap_report, solve_saddle
from .spa import ErrorBudget, SpaEstimate, error_bound, spa_density
from .correction import (
    AssumptionReport,
    CorrectionResult,
    QuadSpec,
    check_assumptions,
    correction_integral,
    g_function,
)
from .oracle import (
    ExactMeanDensity,
    McOracleConfig,
    clt_ratio,
    exact_mean_density,
    mc_density,
)
from .experiments import (
    ExperimentSpec,
    ResultRecord,
    SlopeFit,
    fit_slope,
    run_experiment,
)

__version__ = "0.1.0"

# every kernel is NumPy; kept as a name for scripts that record the backend
BACKEND = "python"

__all__ = [
    "BACKEND",
    "AssumptionReport",
    "AssumptionViolationError",
    "CgfModel",
    "ComplexCgfValue",
    "ConfigError",
    "CorrectionResult",
    "DimensionError",
    "ErrorBudget",
    "ExactMeanDensity",
    "ExperimentSpec",
    "FitError",
    "GaussianMixture",
    "LegendreGapReport",
    "McOracleConfig",
    "MixtureParams",
    "ModelDomainError",
    "NonconvergenceError",
    "PhaseBranchError",
    "QuadSpec",
    "QuadratureError",
    "ResultRecord",
    "SaddlePoint",
    "SlopeFit",
    "SpaEstimate",
    "SpahdError",
    "StandardizationError",
    "check_assumptions",
    "clt_ratio",
    "correction_integral",
    "error_bound",
    "exact_mean_density",
    "fit_slope",
    "g_function",
    "legendre_gap_report",
    "load_model_file",
    "mc_density",
    "run_experiment",
    "solve_saddle",
    "spa_density",
    "__version__",
]
