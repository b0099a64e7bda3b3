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
    monomial_vector,
    multi_index_set,
    taylor_coefficients,
)
from .contrast import (
    ContrastSpec,
    absolute,
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
    series_constant,
    triangular_kernel,
    uniform_kernel,
)
from .lepski import (
    BandwidthGrid,
    SelectionTrace,
    bandwidth_grid,
    holder_floor,
    minimax_bandwidth,
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
