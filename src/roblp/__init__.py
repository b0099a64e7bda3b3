"""Robust local polynomial regression at a point.

Fits a local polynomial by minimizing a kernel-weighted Huber criterion
over an l1-ball of coefficients, with either the bias/variance-optimal
bandwidth for known smoothness or Lepski's data-driven selection over a
dyadic grid.  Ships a simulation harness that verifies convergence rates
and deviation bounds by seeded Monte Carlo.
"""

__version__ = "0.1.0"

from .basis import (
    CoefficientVector,
    MultiIndexSet,
    local_polynomial_eval,
    monomial_vector,
    multi_index_set,
    neighborhood_contains,
    taylor_coefficients,
)
from .contrast import (
    ContrastSpec,
    absolute,
    check_contrast_assumptions,
    curvature_constant,
    huber,
    square,
)
from .kernels import (
    KernelSpec,
    ProcedureConstants,
    epanechnikov_kernel,
    lambda_min,
    moment_matrix,
    procedure_constants,
    risk_bound_constant,
    series_constant,
    triangular_kernel,
    uniform_kernel,
)
from .lepski import (
    BandwidthGrid,
    SelectionConfig,
    SelectionTrace,
    adaptive_rate,
    bandwidth_grid,
    holder_floor,
    minimax_bandwidth,
    minimax_rate,
    price_to_pay,
    select_bandwidth,
    selection_config,
    threshold_constant,
    threshold_scale,
)
from .local_fit import (
    Dataset,
    EmptyNeighborhoodError,
    FitResult,
    LocalFitConfig,
    OptimizerSettings,
    criterion,
    criterion_gradient,
    fit_local,
    project_l1_ball,
)
from .simulate import (
    NoiseModel,
    TestFunction,
    gen_data,
    gen_design,
    gen_noise,
    function_library,
)
from .harness import (
    Estimator,
    RateFit,
    RiskReport,
    TailReport,
    compare_contrasts,
    mc_risk,
    rate_fit,
    risk_curve,
    tail_check,
)
from .experiments import ConfigError, load_config, run_experiment
