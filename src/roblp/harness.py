"""Monte Carlo verification harness.

Estimates pointwise risks E|f_hat(x0) - f(x0)|^r by seeded replication,
regresses log risk against log n to compare with the theoretical
convergence exponent -beta/(2 beta + d), checks empirical deviation tails
against the exponential bound, and compares contrasts under heavy-tailed
noise.  Replications are keyed by (seed, replication index) so results
are independent of execution order and of how a run splits them into
blocks, and reproducible bit-for-bit.

Each study is one driver call: every fit plan it needs (one per n of a
risk curve, one holding the three contrasts of a contrast table) is a
job.  A task is one block of replication numbers across every job of the
run, so a run makes one call to the process's live pool, and the jobs'
windows of one fit setting share solver stacks.  A block returns every
fit's estimate, and the parent applies a grid's selection rule.  The 1%
abort rule is checked once every job has run, and its error names the
sample size of the first offending job.

A window is only its rows.  For each job, a block draws each
replication's rows inside the first window of the job's plan (a grid's
widest level, or the one window every contrast of a compare table
shares) in distribution, from streams keyed by the run seed and the
replication number (``gen_window``), never a whole ``Dataset``, and cuts
each fit's window from those rows; so a plan's windows must lie each
inside the one before it, checked by ``_windows``.  Only the random
draws are made replication by replication: the test function, the noise
transform and every window cut each run once per job over the block's
rows, and the solver's layout once per stack, as array operations.

Risks are always finite without moment assumptions on the noise: both the
estimator and the target are bounded by the coefficient bound M, so every
error is at most 2M.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .contrast import ContrastSpec, huber, square
from .kernels import KernelSpec, ProcedureConstants
from .lepski import (
    SelectionTrace,
    bandwidth_grid,
    holder_floor,
    minimax_bandwidth,
    _selection_plan,
    select_bandwidth,
    select_index,
    selection_config,
)
from .local_fit import (
    Dataset,
    LocalFitConfig,
    OptimizerSettings,
    _STACK_CHUNKS,
    _fit_problems,
    _windows,
    fit_local,
)
from .simulate import (
    NOISE_FAMILIES,
    NoiseModel,
    TestFunction,
    gen_data,  # noqa: F401  perfbench/tracing.py patches this lookup site
    gen_window,
)

__all__ = [
    "Estimator",
    "RiskPoint",
    "RiskReport",
    "RateFit",
    "TailPoint",
    "TailReport",
    "ComparisonRow",
    "risk_curve",
    "rate_fit",
    "deviation_bound_threshold",
    "tail_check",
    "compare_contrasts",
    "TooManyFailuresError",
    "close_pool",
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
    # The plan by point and sample size, filled on first use: it depends
    # only on the fields above and that key, so every replication shares it.
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ESTIMATOR_FIELDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        fields = ESTIMATOR_FIELDS[self.kind]
        if any(getattr(self, name) is None for name in fields):
            raise ValueError(f"{self.kind} estimator needs {' and '.join(fields)}")

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

    def plan(
        self, x0, n: int
    ) -> tuple[tuple[LocalFitConfig, ...], tuple[float, ...] | None]:
        """The fits of one estimate at x0 from n samples and their selection
        thresholds, built once per (x0, n): one fit config and None for a
        single bandwidth (``h`` or the minimax one); for the adaptive kind,
        the config and threshold of each level of its grid, finest last."""
        x0 = tuple(float(v) for v in np.atleast_1d(x0))
        plan = self._plans.get((x0, n))
        if plan is not None:
            return plan
        d = len(x0)
        if self.kind == "adaptive":
            grid = bandwidth_grid(n, d, int(self.degree))
            template = self._local_config(x0, grid.h_max)
            threshold = selection_config(
                self.contrast, template.kernel, template.degree, self.curvature, self.risk_power
            )
            plan = _selection_plan(grid, template, threshold)
        else:
            fixed = self.kind == "fixed"
            h = float(self.h) if fixed else minimax_bandwidth(self.beta, self.lipschitz, n, d)
            plan = (self._local_config(x0, h),), None
        self._plans[x0, n] = plan
        return plan

    def fit_config(self, x0, n: int) -> LocalFitConfig:
        """The fit config of a single-bandwidth plan."""
        configs, thresholds = self.plan(x0, n)
        if thresholds is not None:
            raise ValueError("adaptive estimator has no single bandwidth")
        return configs[0]

    def selection_trace(self, data: Dataset, x0) -> SelectionTrace:
        """The adaptive kind's selection at x0 on ``data``: the estimate
        and bandwidth of every grid level, every pairwise check and the
        chosen level.  A single-bandwidth kind is a ValueError; an empty
        window raises EmptyNeighborhoodError carrying its grid index."""
        levels, thresholds = self.plan(x0, data.n)
        if thresholds is None:
            raise ValueError("selection trace only defined for the adaptive kind")
        return select_bandwidth(data, levels, thresholds)

    def estimate(self, data: Dataset, x0) -> float:
        """The estimate of f(x0) from ``data``: the fit at the single
        bandwidth, or the adaptive kind's selected one.  An empty window
        raises EmptyNeighborhoodError, with the grid index inside a
        selection."""
        configs, thresholds = self.plan(x0, data.n)
        if thresholds is None:
            return fit_local(data, configs[0]).estimate
        return self.selection_trace(data, x0).selected

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


# Most replications one pool task runs: as many as a solver stack holds
# chunks.  A nonempty window fills at least one 64-row chunk, so a full
# block gives each fit setting of its run at least one full stack (a tails
# block at n=1024 fills about 630 chunks, two stacks), and a block's fixed
# costs (draw set-up, window cut, stack builds, pool round trip) are paid
# once per 512 replications.  A block spans every job of its run, so the
# jobs' windows of one fit setting share stacks: a criterion-2 Cauchy rates
# run of 30 replications at six sample sizes fills two stacks, not six.
BLOCK_REPLICATIONS = _STACK_CHUNKS

# The pool's start method: fork on Linux, whose default it was until
# Python 3.14 made it forkserver, so that a worker inherits the loaded
# modules rather than importing roblp afresh; elsewhere the platform's
# default (macOS offers fork, but its system libraries are not fork-safe).
_START_METHOD = "fork" if sys.platform.startswith("linux") else None

# The live process pool, as (key, pool), or None: the first pooled run
# opens it and later runs with its key reuse it, so a process pays the
# workers' start once, not once per run.  The key is the worker count, the
# start method and the entries of NOISE_FAMILIES, which a worker looks up
# by a model's family name: a family registered or replaced after the pool
# opened gets a pool forked after the change.  Any other module state its
# workers see is as it was when it opened.
_pool = None

# The (parameter, value) pairs a worker passes to glibc's mallopt:
# M_MMAP_THRESHOLD (-3 in malloc.h) 32 MiB and M_TRIM_THRESHOLD (-1) 64 MiB.
# A block's temporaries (4-5 MB for a tails block) then stay on the heap
# between blocks, where glibc's dynamic thresholds (about 1 MB after the
# first large free) would hand them back to the kernel and re-fault their
# pages in the next block.
_WORKER_MALLOPT = ((-3, 32 << 20), (-1, 64 << 20))


def _keep_heap() -> None:
    """The pool's worker initializer: where the C library is glibc, keep
    freed memory on the heap rather than returning it to the kernel (see
    _WORKER_MALLOPT), so that a worker's later blocks reuse its pages.  A
    tuning only, never a result: where glibc or its ``mallopt`` cannot be
    found it does nothing, and it never raises, since an initializer that
    raises breaks the pool."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):  # no confstr, name, libc or mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _WORKER_MALLOPT:
        mallopt(param, value)


def _forget_pool() -> None:
    """Drop, unclosed, the pool a forked child inherits: its threads and
    workers belong to the parent, so a pooled run in the child would wait
    on them forever."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def close_pool() -> None:
    """Shut this process's live replication pool down, if one is open,
    cancelling the futures it has not started and joining its threads and
    processes, and forget it; the next pooled run opens a new one.  Call it
    to free the workers' memory in a long-lived process, or after changing
    module state its workers read (a test's monkeypatch), which workers
    forked before the change do not see."""
    global _pool
    if _pool is not None:
        (_, pool), _pool = _pool, None
        pool.shutdown(wait=True, cancel_futures=True)


def _pool_map(workers: int, tasks) -> list:
    """``_block_estimates`` of each task through the live pool, opened
    first if the live one has another key (see ``_pool``): the old pool is
    shut down before the new one forks, so no fork meets a pool's running
    threads.  Each worker runs ``_keep_heap`` as it starts.  If the map
    raises, the pool is shut down with its futures cancelled and forgotten,
    so no later run meets a broken pool, and the error is raised."""
    global _pool
    key = (workers, _START_METHOD, tuple(NOISE_FAMILIES.items()))
    if _pool is None or _pool[0] != key:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        close_pool()
        context = multiprocessing.get_context(_START_METHOD)
        _pool = key, ProcessPoolExecutor(max_workers=workers, mp_context=context, initializer=_keep_heap)
    try:
        return list(_pool[1].map(_block_estimates, tasks))
    except BaseException:
        close_pool()
        raise


def _block_estimates(args) -> list[np.ndarray]:
    """The estimates of a contiguous block of seeded replications in every
    (configs, n) job of a run, a (replications x configs) array per job:
    a row per replication and a column per fit config of the job's plan
    (see ``Estimator.plan``).  A NaN row marks a replication with an
    empty window in that job (counted and excluded by the caller).

    Each job's rows are drawn in its plan's first window by one
    ``gen_window`` call, as ``_windows`` reads the jobs, so that only one
    job's drawn rows are held before they are cut.  One ``_windows`` call
    cuts every job's windows, job after job (and rejects a plan whose
    windows do not each lie inside the one before), and one solver call
    solves them in stacks across jobs.  A replication whose depth is short
    of its plan's configs has an empty window: its row is NaN, and it has
    no window in that job.
    """
    jobs, f, model, seed, reps = args

    def drawn(configs, n):
        first = configs[0]
        x, y, counts = gen_window(f, model, n, first.d, seed, reps, (first.x0, first.h))
        return x, y, n, configs, counts

    windows, depths = _windows(drawn(configs, n) for configs, n in jobs)
    estimates = _fit_problems(windows).estimate
    blocks, start = [], 0
    for (configs, _), depth in zip(jobs, depths):
        ok = depth == len(configs)
        block = np.full((len(reps), len(configs)), math.nan)
        stop = start + len(configs) * int(ok.sum())
        block[ok] = estimates[start:stop].reshape(len(configs), -1).T
        blocks.append(block)
        start = stop
    return blocks


def _replication_estimates(jobs, f, model, replications, seed, workers: int = 1) -> list[np.ndarray]:
    """Estimates of replications 0..replications-1 of each (configs, n) job
    of one run, a (replications x configs) array per job.  The run's
    replications go in contiguous blocks of one size (the last may be
    shorter): BLOCK_REPLICATIONS, or fewer so that each worker gets a
    block (1,000 replications make blocks [0,512) and [512,1000) on one
    worker, two of 500 on two).  A task is one block across every job, so
    the jobs share solver stacks.  A run of more than one block on more
    than one worker maps its tasks in one call through the process's live
    pool (see ``_pool_map``), opened for its worker count and kept for the
    next run: no more processes than this process may run on CPUs (its
    affinity mask, where the platform has one) or the run has blocks,
    started by _START_METHOD.  A replication count below 1 is a
    ValueError."""
    if replications < 1:
        raise ValueError(f"need at least 1 replication, got {replications}")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(workers, cpus)
    size = max(1, min(BLOCK_REPLICATIONS, -(-replications // workers)))
    tasks = [
        (jobs, f, model, seed, range(start, min(start + size, replications)))
        for start in range(0, replications, size)
    ]
    workers = min(workers, len(tasks))
    if workers > 1:
        blocks = _pool_map(workers, tasks)
    else:
        blocks = [_block_estimates(task) for task in tasks]
    return [np.concatenate(job) for job in zip(*blocks)]


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


def _risks(errors, n_values, r: float) -> list[tuple[np.ndarray, int, float, float]]:
    """Per row of ``errors`` (one per job of a run, of sample size n): its
    finite errors, its count of empty-window replications, and the mean of
    errors**r with its standard error (0.0 from one replication).  Every
    row is checked against the 1% abort rule, in order, before any risk is
    formed."""
    valid = [_valid_errors(errs, n) for errs, n in zip(errors, n_values)]
    risks = []
    for ok, failed in valid:
        powered = ok**r
        stderr = (
            float(np.std(powered, ddof=1) / math.sqrt(powered.size)) if powered.size > 1 else 0.0
        )
        risks.append((ok, failed, float(np.mean(powered)), stderr))
    return risks


def _choices(estimates: np.ndarray, thresholds) -> np.ndarray:
    """The level each replication's estimate is taken from: for a grid
    plan, the one the selection rule chooses from its row of estimates;
    for a single bandwidth, or a NaN row, level 0."""
    if thresholds is None:
        return np.zeros(len(estimates), dtype=int)
    return np.array([0 if np.isnan(row[0]) else select_index(row, thresholds)[0] for row in estimates])


def _selection_summary(estimates, chosen, levels, thresholds, target, r, risk) -> dict | None:
    """For a grid plan (None otherwise): each level's risk and chosen count,
    the selected risk ``risk`` over the best level's, and whether any
    threshold at a level l >= 1 lies below 2M, the largest difference two
    estimates bounded by M can have: where none does, the rule cannot
    reject and always chooses level 0."""
    if thresholds is None:
        return None
    ok = ~np.isnan(estimates[:, 0])
    level_risks = [float(np.mean(np.abs(column - target) ** r)) for column in estimates[ok].T]
    best, counts = min(level_risks), np.bincount(chosen[ok], minlength=len(levels))
    return {
        "levels": [
            {"k": k, "h": cfg.h, "risk": level_risk, "chosen": int(counts[k])}
            for k, (cfg, level_risk) in enumerate(zip(levels, level_risks))
        ],
        "ratio": risk / best if best > 0 else math.inf,
        "can_reject": any(t < 2.0 * levels[0].bound for t in thresholds[1:]),
    }


@dataclass(frozen=True)
class RiskPoint:
    n: int
    risk: float
    stderr: float
    replications: int
    failures: int
    selection: dict | None = None  # a grid plan's, from ``_selection_summary``


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
    """risk_curve's floor on the replication count."""
    if replications < 30:
        raise ValueError(f"need at least 30 replications, got {replications}")


def _check_rate_sizes(n_grid) -> None:
    """rate_fit's demands on the sample sizes of a risk curve."""
    if len(n_grid) < 4:
        raise ValueError("need at least 4 sample sizes for a rate fit")
    if max(n_grid) / min(n_grid) < 4.0:
        raise ValueError("sample sizes must span at least two dyadic octaves")


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
    """Monte Carlo estimates of E|f_hat(x0) - f(x0)|^r with their standard
    errors at each n of ``n_grid``.  Replications with empty windows are
    excluded and counted; more than 1% of them at any n aborts the run.
    For the adaptive kind each point carries its ``selection`` summary."""
    _check_replications(replications)
    n_grid = [int(n) for n in n_grid]
    plans = [estimator.plan(x0, n) for n in n_grid]
    estimates = _replication_estimates(
        [(levels, n) for (levels, _), n in zip(plans, n_grid)], f, model, replications, seed, workers
    )
    target = float(f(np.asarray(plans[0][0][0].x0)))
    chosen = [_choices(est, thresholds) for (_, thresholds), est in zip(plans, estimates)]
    rows = np.arange(replications)
    errors = [np.abs(est[rows, k] - target) for est, k in zip(estimates, chosen)]
    points = tuple(
        RiskPoint(
            n, risk, stderr, replications, failed,
            _selection_summary(est, k, *plan, target, r, risk),
        )
        for n, plan, est, k, (_, failed, risk, stderr) in zip(
            n_grid, plans, estimates, chosen, _risks(errors, n_grid, r)
        )
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


# Normal quantile of the two-sided 95% Wilson interval.
WILSON_Z = 1.96


def _wilson_half_width(successes: int, trials: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + WILSON_Z * WILSON_Z / trials
    half = (WILSON_Z / denom) * math.sqrt(p * (1.0 - p) / trials + WILSON_Z * WILSON_Z / (4.0 * trials**2))
    return half


def deviation_bound_threshold(n_b: int, c: float, lam: float, u: float) -> float:
    """Smallest normalized deviation the exponential bound covers:
    (4 n_b / (c lam)) * u with u = max(1, bias * sqrt(n h^d))."""
    return 4.0 * n_b / (c * lam) * u


def _deviation_bound(
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
    bias_majorant: float
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
    (est,) = _replication_estimates([((cfg,), n)], f, model, replications, seed, workers)
    ok, failed = _valid_errors(np.abs(est[:, 0] - float(f(np.asarray(cfg.x0)))), n)
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
        wilson = _wilson_half_width(exceed, ok.size)
        if not valid:
            points.append(
                TailPoint(eps, False, emp, exceed, wilson, None, False, None)
            )
            continue
        bound = _deviation_bound(
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
        bias_majorant=bias_majorant,
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
    table is Monte Carlo limited anyway: the iteration cap is at most 3000.
    """
    if estimator.kind == "adaptive" or estimator.contrast.kind != "huber":
        raise ValueError("compare_contrasts needs a single-bandwidth Huber estimator")
    cfg = estimator.fit_config(x0, n)
    cap = min(3000, cfg.optimizer.max_iterations)
    cfg = dataclasses.replace(cfg, optimizer=dataclasses.replace(cfg.optimizer, max_iterations=cap))
    variants = [
        ("square", square()),
        ("absolute_proxy", huber(TINY_GAMMA)),
        (f"huber({estimator.contrast.gamma:g})", estimator.contrast),
    ]
    configs = tuple(dataclasses.replace(cfg, contrast=contrast) for _, contrast in variants)
    (est,) = _replication_estimates([(configs, n)], f, model, replications, seed, workers)
    errors = np.abs(est - float(f(np.asarray(cfg.x0)))).T
    return tuple(
        ComparisonRow(
            name=name, risk=risk, stderr=stderr, max_error=float(np.max(ok)), failures=failed
        )
        for (name, _), (ok, failed, risk, stderr) in zip(variants, _risks(errors, [n] * 3, r))
    )
