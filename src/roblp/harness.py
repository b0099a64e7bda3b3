"""Monte Carlo verification harness.

Estimates pointwise risks E|f_hat(x0) - f(x0)|^r by seeded replication,
regresses log risk against log n to compare with the theoretical
convergence exponent -beta/(2 beta + d), checks empirical deviation tails
against the exponential bound, and compares contrasts under heavy-tailed
noise.  Replications are keyed by (seed, replication index) so results
are independent of execution order and reproducible bit-for-bit.

Risks are always finite without moment assumptions on the noise: both the
estimator and the target are bounded by the coefficient bound M, so every
error is at most 2M.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .contrast import ContrastSpec, huber, square
from .kernels import KernelSpec, ProcedureConstants
from .lepski import (
    BandwidthGrid,
    SelectionTrace,
    bandwidth_grid,
    holder_floor,
    minimax_bandwidth,
    _level_configs,
    _select_estimates,
    select_bandwidth,
    selection_config,
)
from .local_fit import (
    Dataset,
    EmptyNeighborhoodError,
    LocalFitConfig,
    OptimizerSettings,
    _fit_problems,
    _windows,
    fit_local,
)
from .simulate import NoiseModel, TestFunction, gen_data

__all__ = [
    "Estimator",
    "RiskPoint",
    "RiskReport",
    "RateFit",
    "TailPoint",
    "TailReport",
    "ComparisonRow",
    "mc_risk",
    "risk_curve",
    "rate_fit",
    "wilson_half_width",
    "deviation_bound",
    "deviation_bound_threshold",
    "tail_check",
    "compare_contrasts",
    "TooManyFailuresError",
]


# The fields each estimator kind reads; the experiment schema requires
# them too, except a curvature, which a config may derive from its noise.
ESTIMATOR_FIELDS = {
    "fixed": ("h", "degree"),
    "minimax": ("beta", "lipschitz"),
    "adaptive": ("degree", "curvature"),
}


@dataclass(frozen=True)
class Estimator:
    """Descriptor of one pointwise estimator.

    kind 'fixed' uses bandwidth ``h`` and ``degree`` directly; 'minimax'
    derives the bandwidth from known (beta, lipschitz) and uses the
    integer part of beta as degree; 'adaptive' runs the selection rule on
    the dyadic grid for ``degree`` with curvature constant ``curvature``.
    """

    kind: str
    contrast: ContrastSpec
    kernel_kind: str
    bound: float
    h: float | None = None
    degree: int | None = None
    beta: float | None = None
    lipschitz: float | None = None
    curvature: float | None = None
    risk_power: float = 2.0
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)
    # Selection threshold constant by dimension, filled on first use: it
    # depends only on the fields above, so every replication shares it.
    _selection: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.kind not in ESTIMATOR_FIELDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        fields = ESTIMATOR_FIELDS[self.kind]
        if any(getattr(self, name) is None for name in fields):
            raise ValueError(f"{self.kind} estimator needs {' and '.join(fields)}")

    def bandwidth(self, n: int, d: int) -> float:
        if self.kind == "fixed":
            return float(self.h)
        if self.kind == "minimax":
            return minimax_bandwidth(self.beta, self.lipschitz, n, d)
        raise ValueError("adaptive estimator has no single bandwidth")

    def fit_degree(self) -> int:
        if self.kind == "minimax":
            return holder_floor(self.beta)
        return int(self.degree)

    def _local_config(self, x0: tuple[float, ...], h: float) -> LocalFitConfig:
        return LocalFitConfig(
            x0=x0,
            h=h,
            degree=self.fit_degree(),
            bound=self.bound,
            kernel=KernelSpec(kind=self.kernel_kind, d=len(x0)),
            contrast=self.contrast,
            optimizer=self.optimizer,
        )

    def fit_config(self, x0, n: int) -> LocalFitConfig:
        x0 = tuple(float(v) for v in np.atleast_1d(x0))
        return self._local_config(x0, self.bandwidth(n, len(x0)))

    def _selection_setup(
        self, x0: tuple[float, ...], n: int
    ) -> tuple[BandwidthGrid, LocalFitConfig, float]:
        """The adaptive kind's bandwidth grid for n samples, its fit template
        at x0 and the selection threshold constant C."""
        d = len(x0)
        grid = bandwidth_grid(n, d, int(self.degree))
        template = self._local_config(x0, grid.h_max)
        threshold = self._selection.get(d)
        if threshold is None:
            threshold = self._selection[d] = selection_config(
                self.contrast, template.kernel, template.degree, self.curvature, self.risk_power
            )
        return grid, template, threshold

    def selection_trace(self, data: Dataset, x0) -> SelectionTrace:
        if self.kind != "adaptive":
            raise ValueError("selection trace only defined for the adaptive kind")
        x0 = tuple(float(v) for v in np.atleast_1d(x0))
        return select_bandwidth(data, *self._selection_setup(x0, data.n))

    def estimate(self, data: Dataset, x0) -> float:
        if self.kind == "adaptive":
            return self.selection_trace(data, x0).selected
        return fit_local(data, self.fit_config(x0, data.n)).estimate

    def describe(self) -> dict:
        desc = {
            "kind": self.kind,
            "contrast": self.contrast.to_config(),
            "kernel": self.kernel_kind,
            "bound": self.bound,
        }
        for name in ("h", "degree", "beta", "lipschitz", "curvature"):
            val = getattr(self, name)
            if val is not None:
                desc[name] = val
        if self.kind == "adaptive":
            desc["risk_power"] = self.risk_power
        return desc


# Most replications one pool task runs.  A block's fits are solved in
# stacks, so larger blocks spread the solver's per-iteration cost over more
# fits.
BLOCK_REPLICATIONS = 64


def _block_errors(args) -> list[float]:
    """|f_hat(x0) - f(x0)| for a contiguous block of seeded replications.

    Each replication's dataset is reduced to its windows (every grid level
    for the adaptive kind) as soon as it is drawn.  One solver call takes
    the block's windows as they are drawn and solves them in stacks, and
    the adaptive kind applies the selection rule per replication.  NaN
    marks a replication with an empty window (counted and excluded by the
    caller).
    """
    estimator, f, x0, model, n, seed, reps = args
    x0 = tuple(float(v) for v in np.atleast_1d(x0))
    adaptive = estimator.kind == "adaptive"
    if adaptive:
        grid, template, threshold = estimator._selection_setup(x0, n)
        configs = _level_configs(grid, template)
    else:
        configs = [estimator.fit_config(x0, n)]
    fitted = []  # per replication: whether it has windows to fit

    def windows():
        for rep in reps:
            data = gen_data(f, model, n, len(x0), (seed, rep))
            try:
                own = _windows(data, configs, grid=adaptive)
            except EmptyNeighborhoodError:
                fitted.append(False)
                continue
            fitted.append(True)
            yield from own

    fits = iter(_fit_problems(windows()))
    target = float(f(np.asarray(x0)))
    errors = []
    for ok in fitted:
        if not ok:
            errors.append(math.nan)
            continue
        estimates = [next(fits).estimate for _ in configs]
        if adaptive:
            est = _select_estimates(estimates, grid, threshold).selected
        else:
            est = estimates[0]
        errors.append(abs(est - target))
    return errors


def _replication_errors(
    estimator, f, x0, model, n, replications, seed, workers: int = 1
) -> np.ndarray:
    """Errors of replications 0..replications-1, in contiguous blocks (at
    least one per worker); each block is one pool task."""
    size = max(1, min(BLOCK_REPLICATIONS, -(-replications // workers)))
    tasks = [
        (estimator, f, x0, model, n, seed, range(start, min(start + size, replications)))
        for start in range(0, replications, size)
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            blocks = list(ex.map(_block_errors, tasks))
    else:
        blocks = [_block_errors(task) for task in tasks]
    return np.asarray([e for block in blocks for e in block], dtype=float)


class TooManyFailuresError(RuntimeError):
    """More than 1% of a run's replications had an empty window."""


def _valid_errors(errs: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """The finite errors and the count of empty-window replications (NaN);
    more than 1% of them aborts the run with TooManyFailuresError."""
    failed = int(np.count_nonzero(np.isnan(errs)))
    if failed > 0.01 * errs.size:
        raise TooManyFailuresError(
            f"{failed}/{errs.size} replications had empty windows at n={n},"
            " more than the 1% a run allows"
        )
    return errs[~np.isnan(errs)], failed


def _risk(errors: np.ndarray, r: float) -> tuple[float, float]:
    """Mean of errors**r and its standard error (0.0 from one replication)."""
    powered = errors**r
    stderr = (
        float(np.std(powered, ddof=1) / math.sqrt(powered.size)) if powered.size > 1 else 0.0
    )
    return float(np.mean(powered)), stderr


@dataclass(frozen=True)
class RiskPoint:
    n: int
    risk: float
    stderr: float
    replications: int
    failures: int


@dataclass(frozen=True)
class RiskReport:
    """Empirical risk curve over a grid of sample sizes."""

    points: tuple[RiskPoint, ...]
    r: float
    seed: int
    estimator: dict

    @property
    def n_grid(self) -> tuple[int, ...]:
        return tuple(p.n for p in self.points)

    @property
    def risks(self) -> tuple[float, ...]:
        return tuple(p.risk for p in self.points)


def _check_replications(replications: int) -> None:
    """mc_risk's floor on the replication count."""
    if replications < 30:
        raise ValueError(f"need at least 30 replications, got {replications}")


def _check_rate_sizes(n_grid) -> None:
    """rate_fit's demands on the sample sizes of a risk curve."""
    if len(n_grid) < 4:
        raise ValueError("need at least 4 sample sizes for a rate fit")
    if max(n_grid) / min(n_grid) < 4.0:
        raise ValueError("sample sizes must span at least two dyadic octaves")


def mc_risk(
    estimator: Estimator,
    f: TestFunction,
    x0,
    model: NoiseModel,
    r: float,
    n: int,
    replications: int,
    seed: int,
    workers: int = 1,
) -> RiskPoint:
    """Monte Carlo estimate of E|f_hat(x0) - f(x0)|^r with its standard
    error.  Replications with empty windows are excluded and counted;
    more than 1% of them aborts the run."""
    _check_replications(replications)
    errs = _replication_errors(estimator, f, x0, model, n, replications, seed, workers)
    ok, failed = _valid_errors(errs, n)
    risk, stderr = _risk(ok, r)
    return RiskPoint(
        n=n, risk=risk, stderr=stderr, replications=replications, failures=failed
    )


def risk_curve(
    estimator: Estimator,
    f: TestFunction,
    x0,
    model: NoiseModel,
    r: float,
    n_grid,
    replications: int,
    seed: int,
    workers: int = 1,
) -> RiskReport:
    points = tuple(
        mc_risk(estimator, f, x0, model, r, int(n), replications, seed, workers)
        for n in n_grid
    )
    return RiskReport(points=points, r=r, seed=seed, estimator=estimator.describe())


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponent of the risk curve on the log-log scale."""

    slope: float
    intercept: float
    residual_spread: float
    target: float

    @property
    def gap(self) -> float:
        return self.slope - self.target


def rate_fit(report: RiskReport, target: float) -> RateFit:
    """Regress (1/r) log risk on log n and compare against the
    theoretical exponent (e.g. -beta/(2 beta + d))."""
    _check_rate_sizes(report.n_grid)
    x = np.log(np.asarray(report.n_grid, dtype=float))
    y = np.log(np.asarray(report.risks)) / report.r
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        residual_spread=float(np.max(np.abs(resid))),
        target=float(target),
    )


def wilson_half_width(successes: int, trials: int, z: float = 1.96) -> float:
    """Half-width of the Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials**2))
    return half


def deviation_bound_threshold(n_b: int, c: float, lam: float, u: float) -> float:
    """Smallest normalized deviation the exponential bound covers:
    (4 n_b / (c lam)) * u with u = max(1, bias * sqrt(n h^d))."""
    return 4.0 * n_b / (c * lam) * u


def deviation_bound(
    eps: float,
    n_b: int,
    sigma: float,
    lam: float,
    c: float,
    k_sup: float,
    rho_prime_sup: float,
    u: float,
    nhd: float,
) -> float:
    """Exponential bound on P(sqrt(n h^d) |f_hat(x0) - f(x0)| >= eps)
    under the localization event, for eps above the validity threshold."""
    clam = c * lam
    gap = clam * eps / (2.0 * n_b) - u
    if gap == math.inf:  # c lam eps beyond float range: the exponent grows with it
        return 0.0
    try:
        num = gap**2
        den = 8.0 * k_sup**2 * max(1.0, rho_prime_sup**2) + (
            4.0 * k_sup / (3.0 * n_b)
        ) * max(1.0, rho_prime_sup) * clam * eps / math.sqrt(nhd)
        exponent = num / den
    except OverflowError:  # a square beyond float range: the same ratio, unsquared
        s = max(1.0, rho_prime_sup)
        exponent = (abs(gap) / s) * (
            abs(gap) / (8.0 * k_sup**2 * s + 4.0 * k_sup / (3.0 * n_b) * clam * eps / math.sqrt(nhd))
        )
    return n_b * sigma * math.exp(-exponent)


@dataclass(frozen=True)
class TailPoint:
    eps: float
    valid: bool
    empirical: float
    exceedances: int
    wilson: float
    bound: float | None
    informative: bool
    non_violated: bool | None


@dataclass(frozen=True)
class TailReport:
    """Empirical deviation tails against the exponential bound.

    The bound controls the estimator only on the event that it stays in a
    fixed neighborhood of the target coefficients; the empirical tail is
    unconditional, so rare excursions outside that event can exceed the
    bound without contradicting it.  ``caveat`` records this.
    """

    n: int
    h: float
    nhd: float
    bias_majorant: float
    u: float
    eps_min: float
    replications: int
    failures: int
    points: tuple[TailPoint, ...]
    caveat: str = (
        "bound holds on the localization event; the empirical tail is"
        " unconditional, so isolated violations may reflect its complement"
    )

    @property
    def all_informative_non_violated(self) -> bool:
        checked = [p.non_violated for p in self.points if p.informative and p.valid]
        return all(checked) if checked else True


def _validity_threshold(
    f: TestFunction, cfg: LocalFitConfig, constants: ProcedureConstants, n: int
) -> tuple[float, float, float]:
    """The bias majorant L d h^beta, u = max(1, bias sqrt(n h^d)) and the
    validity threshold eps_min of the exponential bound for a fit at
    ``cfg`` on n samples."""
    d = cfg.d
    bias_majorant = f.lipschitz * d * cfg.h**f.beta
    u = max(1.0, bias_majorant * math.sqrt(n * cfg.h**d))
    eps_min = deviation_bound_threshold(cfg.index_set.size, constants.c, constants.lam, u)
    return bias_majorant, u, eps_min


def tail_check(
    f: TestFunction,
    model: NoiseModel,
    cfg: LocalFitConfig,
    constants: ProcedureConstants,
    eps_grid,
    n: int,
    replications: int,
    seed: int,
    workers: int = 1,
) -> TailReport:
    """Empirical P(sqrt(n h^d)|f_hat - f(x0)| >= eps) with Wilson
    half-widths against the exponential bound.

    The bias enters through its smoothness majorant L d h^beta.  Grid
    points below the validity threshold are flagged and not compared; the
    bound is compared only where it is informative (< 1).  Replications
    with empty windows are excluded and counted; more than 1% of them
    aborts the run.
    """
    estimator = Estimator(
        kind="fixed",
        contrast=cfg.contrast,
        kernel_kind=cfg.kernel.kind,
        bound=cfg.bound,
        h=cfg.h,
        degree=cfg.degree,
        optimizer=cfg.optimizer,
    )
    errs = _replication_errors(
        estimator, f, cfg.x0, model, n, replications, seed, workers
    )
    ok, failed = _valid_errors(errs, n)
    nhd = n * cfg.h**cfg.d
    norm_errs = math.sqrt(nhd) * ok

    n_b = cfg.index_set.size
    bias_majorant, u, eps_min = _validity_threshold(f, cfg, constants, n)
    rho_sup = cfg.contrast.derivative_bound
    k_sup = cfg.kernel.sup_norm

    points = []
    for eps in eps_grid:
        eps = float(eps)
        valid = eps >= eps_min
        exceed = int(np.count_nonzero(norm_errs >= eps))
        emp = exceed / ok.size
        wilson = wilson_half_width(exceed, ok.size)
        if not valid:
            points.append(
                TailPoint(eps, False, emp, exceed, wilson, None, False, None)
            )
            continue
        bound = deviation_bound(
            eps, n_b, constants.sigma, constants.lam, constants.c, k_sup, rho_sup, u, nhd
        )
        informative = bound < 1.0
        non_violated = emp <= bound + 3.0 * wilson
        points.append(
            TailPoint(eps, True, emp, exceed, wilson, bound, informative, non_violated)
        )
    return TailReport(
        n=n,
        h=cfg.h,
        nhd=nhd,
        bias_majorant=bias_majorant,
        u=u,
        eps_min=eps_min,
        replications=replications,
        failures=failed,
        points=tuple(points),
    )


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    risk: float
    stderr: float
    max_error: float
    failures: int


# Huber threshold of compare_contrasts' proxy for the absolute loss.
TINY_GAMMA = 1e-6


def compare_contrasts(
    estimator: Estimator,
    f: TestFunction,
    x0,
    model: NoiseModel,
    n: int,
    replications: int,
    seed: int,
    r: float = 2.0,
    workers: int = 1,
) -> tuple[ComparisonRow, ...]:
    """Risk table of squared loss, a tiny-threshold Huber proxy for the
    absolute loss, and the estimator's own Huber loss, each fitted at the
    estimator's single bandwidth on identical replicated datasets.
    Replications with empty windows are excluded and counted per row;
    more than 1% of them aborts the run.

    The proxy approaches the flat absolute-loss minimum slowly, and the
    table is Monte Carlo limited anyway, so the iteration cap is reduced.
    """
    if estimator.kind == "adaptive" or estimator.contrast.kind != "huber":
        raise ValueError("compare_contrasts needs a single-bandwidth Huber estimator")
    optimizer = OptimizerSettings(max_iterations=3000)
    variants = [
        ("square", square()),
        ("absolute_proxy", huber(TINY_GAMMA)),
        (f"huber({estimator.contrast.gamma:g})", estimator.contrast),
    ]
    rows = []
    for name, contrast in variants:
        variant = dataclasses.replace(estimator, contrast=contrast, optimizer=optimizer)
        errs = _replication_errors(
            variant, f, x0, model, n, replications, seed, workers
        )
        ok, failed = _valid_errors(errs, n)
        risk, stderr = _risk(ok, r)
        rows.append(
            ComparisonRow(
                name=name, risk=risk, stderr=stderr, max_error=float(np.max(ok)), failures=failed
            )
        )
    return tuple(rows)
