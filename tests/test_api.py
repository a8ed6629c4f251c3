"""The public surface: exported names and the backend tag stay fixed."""

import spahd

PUBLIC = [
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


def test_all_is_pinned():
    assert spahd.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(spahd, name), name


def test_backend_is_python():
    assert spahd.BACKEND == "python"
