"""The public surface: exported names, the backend tag and the import set
stay fixed."""

import subprocess
import sys
from pathlib import Path

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


def test_import_loads_no_scipy():
    # a fresh interpreter, with this spahd first on its path
    root = str(Path(spahd.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {root!r}); import spahd; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
