"""Robust local polynomial fitting at a point.

For a window center x0, bandwidth h, degree b and contrast rho, the
estimator minimizes the localized criterion

    pi_h(t) = (1 / (n h^d)) sum_i rho(Y_i - f_t(X_i)) K((X_i - x0) / h)

over the l1-ball {||t||_1 <= M} of coefficient vectors, where f_t is the
local polynomial with coefficients t and the sum runs over the full
sample (the kernel support restricts it to the window).  The fitted value
at x0 is the first coordinate of the minimizer.  The criterion is convex
whenever rho is, so any stationary point is a global minimizer.

The solver takes proximal Newton steps (Lee, Sun & Saunders 2014) on the
Huber active set, the IRLS Hessian of Holland & Welsch (1977).  The
quadratic model over the ball lives in N_b dimensions and is solved
exactly without touching the samples: by the Newton point when that lies
in the ball, else by the lasso homotopy (Osborne, Presnell & Turlach
2000), which ends after at most 4 N_b + 4 path events.  Where that
Hessian is singular or badly conditioned (absolute loss, tiny thresholds,
too few samples in the quadratic band), or the homotopy fails, it takes a
Barzilai-Borwein projected gradient step instead.  The l1-ball projection
is the classic sort-based simplex projection (Duchi et al. 2008).

The solver works on a stack of windows.  A plan is the fit configs of
one estimate: a grid's levels, a compare table's contrasts, or one fit.
The Monte Carlo harness draws a block of replications for every plan of
its run (one per sample size of a risk curve), cuts the windows of every
plan in one ``_windows`` call, plan after plan, and hands them to one
solver call, ``_fit_problems``, which cuts them in one pass into stacks,
runs of consecutive windows of equal fit settings (x0, degree, kernel,
radius, contrast, optimizer) of up to _STACK_CHUNKS chunks, and stores
every result in one ``_Fits``; so a stack may hold the windows of
several plans.  A bandwidth selection solves its grid levels as one
stack, and ``fit_local`` is a stack of one.  A window is only its rows,
and ``_windows`` alone cuts them, from given rows ``x``, ``y`` of a
block of samples of size n (a ``Dataset``'s, a block of one, or those
the harness drew inside the plan's first window for a block of
replications); n sets its 1/(n h^d) scale.  A plan's windows lie each
inside the one before it, checked by ``_windows``: each is cut from the
samples of the one before, by one mask over the block's rows, so only
the first scans the given rows.  The windows of a block's plans come as
one ``_Windows``, plan after plan and config after config: their rows
end to end, and each one's row count, config and scale.  A stack takes a
run of them as a view, writes every window's rescaled points into whole
chunks of _CHUNK rows, padded with zero rows, by one mask scatter,
writes the design monomials of all its windows straight into that chunk
layout, and makes their kernel weights in one call (the uniform kernel's
are the live rows themselves).  Every fit starts from the
kernel-weighted median of its window's responses.  Under the uniform
kernel, whose weights are all one, the fits of one chunk count find theirs
by one row-wise sort of their chunks, padding rows sorting last; a chunk
count only one fit holds and a zero median take a partition, and other
kernels a sort per fit.  Each iteration takes the residuals, gradients,
Hessians, condition tests, Newton solves, line searches and stationarity
gaps of all live fits at once; a fit that needs the homotopy or a
gradient step takes it inside the same loop.  Every sum over a window's
samples adds its own chunks in order, so a fit's arithmetic, and its
result, is the same bit for bit whatever else shares its stack: harness
results do not depend on the block size, on the worker count
(ROBLP_WORKERS) or on the other plans of a run.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .basis import CoefficientVector, MultiIndexSet, _write_monomials, multi_index_set
from .contrast import ContrastSpec
from .kernels import KernelSpec

__all__ = [
    "Dataset",
    "OptimizerSettings",
    "LocalFitConfig",
    "FitResult",
    "EmptyNeighborhoodError",
    "criterion",
    "criterion_gradient",
    "fit_local",
]


def _check_responses(y: np.ndarray) -> None:
    """A response that is not finite is a ValueError."""
    if not np.all(np.isfinite(y)):
        raise ValueError("responses must be finite")


@dataclass(frozen=True)
class Dataset:
    """Design matrix in [0,1]^d and response vector, validated on build."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"{x.shape[0]} design points but {y.shape[0]} responses")
        if not np.all(np.isfinite(x)) or np.any(x < 0.0) or np.any(x > 1.0):
            raise ValueError("design points must lie in [0,1]^d")
        _check_responses(y)
        x = x.copy()
        y = y.copy()
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        """Read a dataset CSV with header x_1,...,x_d,y; invalid contents
        are a ValueError naming the file, and the line of a row whose
        field count is not the header's."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, header row required")
            d = len(header) - 1
            expected = [f"x_{j + 1}" for j in range(d)] + ["y"]
            if d < 1 or header != expected:
                raise ValueError(
                    f"{path}: header must be {','.join(expected) if d >= 1 else 'x_1,...,y'},"
                    f" got {','.join(header)}"
                )
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(
                        f"{path}: line {reader.line_num} has {len(row)} fields,"
                        f" the header {len(header)}"
                    )
                rows.append(row)
        if not rows:
            raise ValueError(f"{path}: no data rows")
        try:
            arr = np.asarray([[float(v) for v in row] for row in rows], dtype=float)
            return cls(x=arr[:, :d], y=arr[:, d])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x_{j + 1}" for j in range(self.d)] + ["y"])
            for xi, yi in zip(self.x, self.y):
                writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])


@dataclass(frozen=True)
class OptimizerSettings:
    """Solver settings.  ``max_iterations`` caps the outer (Newton or
    gradient) steps and ``gradient_tolerance`` bounds the stationarity
    gap at convergence."""

    max_iterations: int = 20_000
    gradient_tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient_tolerance must be positive")


@dataclass(frozen=True)
class LocalFitConfig:
    """Everything defining one local fit at a point."""

    x0: tuple[float, ...]
    h: float
    degree: int
    bound: float
    kernel: KernelSpec
    contrast: ContrastSpec
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)

    def __post_init__(self):
        x0 = tuple(float(v) for v in np.atleast_1d(np.asarray(self.x0, dtype=float)))
        object.__setattr__(self, "x0", x0)
        if not 0 < self.h <= 1:
            raise ValueError(f"bandwidth must be in (0, 1], got {self.h}")
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if self.bound <= 0:
            raise ValueError(f"coefficient bound must be positive, got {self.bound}")
        if self.kernel.d != len(x0):
            raise ValueError(
                f"kernel dimension {self.kernel.d} != point dimension {len(x0)}"
            )

    @property
    def d(self) -> int:
        return len(self.x0)

    @property
    def index_set(self) -> MultiIndexSet:
        return multi_index_set(self.degree, self.d)


@dataclass(frozen=True)
class FitResult:
    """Outcome of one local fit.  ``estimate`` is the first coefficient,
    bounded by the l1 radius; ``underdetermined`` flags windows with fewer
    samples than basis functions (the convex fit still runs)."""

    theta_hat: CoefficientVector
    estimate: float
    n_local: int
    iterations: int
    stationarity_gap: float
    converged: bool
    underdetermined: bool


class _Fits:
    """The results of the fits of one ``_fit_problems`` call (the windows
    of one ``_windows`` call, of one index set), a column each, fit after
    fit: the projected coefficients ``theta`` (a row each), the sample
    count ``n_local``, the ``iterations``, the stationarity ``gap`` and the
    ``converged`` flag.  Built empty for windows of ``n_local`` samples
    each; ``_Stack.store`` writes into it as its fits stop, and
    ``result`` builds one fit's ``FitResult``."""

    def __init__(self, index_set: MultiIndexSet, n_local: np.ndarray):
        size = n_local.size
        self.index_set, self.n_local = index_set, n_local
        self.theta = np.empty((size, index_set.size))
        self.iterations = np.empty(size, dtype=int)
        self.gap = np.empty(size)
        self.converged = np.empty(size, dtype=bool)

    @property
    def estimate(self) -> np.ndarray:
        """The fitted value at x0 of each fit: its constant coefficient."""
        return self.theta[:, 0]

    def result(self, i: int) -> FitResult:
        """The ``FitResult`` of fit ``i``."""
        theta = CoefficientVector(values=self.theta[i], index_set=self.index_set)
        n_local = int(self.n_local[i])
        return FitResult(
            theta_hat=theta,
            estimate=theta.center_value,
            n_local=n_local,
            iterations=int(self.iterations[i]),
            stationarity_gap=float(self.gap[i]),
            converged=bool(self.converged[i]),
            underdetermined=n_local < self.index_set.size,
        )


class EmptyNeighborhoodError(RuntimeError):
    """No sample falls in the fitting window; the estimator is undefined.
    Raised by ``fit_local``, ``grid_index`` None, and by
    ``select_bandwidth``, ``grid_index`` its first empty grid level."""

    def __init__(self, x0, h, grid_index: int | None = None):
        where = "" if grid_index is None else f" (grid index k={grid_index})"
        super().__init__(f"no samples in the window of side {h} centered at {x0}{where}")
        self.x0 = tuple(x0)
        self.h = h
        self.grid_index = grid_index


# Monotone Armijo line search of both step kinds: the first trial step of
# a projected gradient step, the step shrink factor and the sufficient
# decrease fraction.
INITIAL_STEP = 1.0
BACKTRACKING = 0.5
ARMIJO = 1e-4
# A Newton model is used only when lambda_min(H) > _CONDITION_RATIO * lambda_max(H).
_CONDITION_RATIO = 1e-8
# Relative size of a criterion change that rounds away: under half an ulp.
_ROUNDING = 0.2 * np.finfo(float).eps
# A fit stops once its criterion has not changed over this many steps.
_STAGNANT_STEPS = 64


# Rows per chunk of a window.  A window is padded with zero rows to whole
# chunks, and each of its sums over samples adds its chunks' partial sums
# in order: it depends on the window alone, whatever else is stacked with
# it (see _Stack).
_CHUNK = 64
# Most chunks in one stack (unless one window has more): it bounds the
# solver's working arrays, about 5 MB at degree 3.  Larger stacks spread
# each iteration's fixed cost over more fits: an adaptive replication at
# n=4096 and degree 3 fills 39 chunks, so 512 solve 13 at once.  A block of
# 512 such replications took 580-614 us per replication at 512, against
# 924-943 at 64, 595-621 at 256 and 556-604 at 1024 (2-CPU Intel Xeon host,
# medians of 12, three runs).  The harness sizes its blocks by this cap.
_STACK_CHUNKS = 512


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i for each row i, one BLAS dot product per row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _residuals(design_t: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Residuals y - X t of each chunk, for coefficients ``t`` per chunk."""
    return y - np.matmul(design_t.swapaxes(1, 2), t[:, :, None])[:, :, 0]


def _in_window(x, x0, h: float):
    """|x - x0| <= h/2, coordinate by coordinate: the test a fit's window
    makes of a design point, on floats or arrays alike."""
    return abs(x - x0) <= h / 2.0


def _box_rows(x: np.ndarray, x0, h: float) -> np.ndarray:
    """Indices, in order, of the rows of ``x`` in the sup-norm box of side
    ``h`` centered at ``x0``: a fit's window."""
    inside = _in_window(x, x0, h)
    # one column needs no reduction: its flat indices are the rows
    return np.flatnonzero(inside if x.shape[1] == 1 else inside.all(axis=1))


class _Windows:
    """The windows of the fit configs of a block's plans, as ``_windows``
    cuts them: the design points ``x`` and responses ``y`` of their
    samples, window after window, and for each window its sample count
    ``n_local``, the index ``config`` of its config in ``configs`` and its
    1/(n h^d) normalization ``scale`` by its plan's full sample size n.
    ``first`` is the position of window 0: 0 for a cut, the start of a
    ``take``.
    A ``_Stack`` lays windows out for the solver and builds their
    rescaled design and kernel weights."""

    def __init__(self, x, y, n_local, config, scale, configs: Sequence[LocalFitConfig], first: int = 0):
        self.x, self.y, self.n_local, self.config, self.scale = x, y, n_local, config, scale
        self.configs, self.first = configs, first
        self.size = n_local.size  # windows

    def take(self, start: int, stop: int) -> _Windows:
        """Windows start..stop-1, as views of these rows."""
        first, last = self.n_local[:start].sum(), self.n_local[:stop].sum()
        return _Windows(
            self.x[first:last], self.y[first:last], self.n_local[start:stop],
            self.config[start:stop], self.scale[start:stop], self.configs, self.first + start,
        )


def _windows(jobs: Iterable[tuple]) -> tuple[_Windows, list[np.ndarray]]:
    """The windows of a block's jobs as one ``_Windows``, job after job,
    and each job's replication depths.  A job is ``(x, y, n, configs,
    counts)``: a plan's fit ``configs`` and the rows ``x``, ``y`` of a
    block of replications, ``counts[r]`` rows of replication r after those
    of the one before, each a sample of size ``n`` (all its rows, or a set
    holding its first window; a sample is a block of one, ``counts``
    ``[n]``).  ``jobs`` is read once, so each job's given rows may be
    dropped once cut.  A job's windows come config after config, each
    config's windows in replication order, and its config indices are
    offset by the configs of the jobs before it.  A replication's depth is
    the number of its job's configs whose window holds a row of it; one of
    depth short of the job's configs is dropped from every config's
    windows.  An empty window is no error here: ``fit_local`` and
    ``select_bandwidth`` raise EmptyNeighborhoodError from the depth.

    A job's configs are a chain of nested windows: each has the x0 of the
    one before it and a bandwidth no larger, so, a window being a sup-norm
    box, it lies inside the one before: a replication's empty windows are
    those of configs depth..K-1.  Any other plan is a ValueError, raised
    before its job is cut, as is a config of another index set than the
    first job's, since every window's result goes to one ``_Fits``.
    Window 0 is cut from the given rows and each later one from the window
    before it, by one mask over the whole block.  The kept rows stay in
    replication order, so each replication's rows in a window end where a
    ``searchsorted`` of its end in the rows before puts them.  The mask is
    elementwise, so a window is the same bit for bit as one cut from its
    replication's rows alone.  The windows of every job are joined by one
    concatenation."""
    configs, cuts, n_local, config, scale, depths = [], [], [], [], [], []
    for x, y, n, plan, counts in jobs:
        if x.shape[1] != plan[0].d:
            raise ValueError(f"data dimension {x.shape[1]} != config dimension {plan[0].d}")
        for k in range(1, len(plan)):
            prev, cfg = plan[k - 1], plan[k]
            if cfg.x0 != prev.x0 or cfg.h > prev.h:
                raise ValueError(
                    f"fit config {k} (x0={cfg.x0}, h={cfg.h}) lies outside the window of"
                    f" fit config {k - 1} (x0={prev.x0}, h={prev.h})"
                )
        head = (configs or plan)[0]
        for cfg in plan:
            if cfg.index_set != head.index_set:
                raise ValueError(
                    f"cannot join a plan of degree {cfg.degree} in dimension {cfg.d} to one of"
                    f" degree {head.degree} in dimension {head.d}"
                )
        ends = np.cumsum(counts)  # the end of each replication's rows
        job, bounds = [], []
        for cfg in plan:
            inside = _box_rows(x, cfg.x0, cfg.h)
            x, y, ends = x.take(inside, axis=0), y.take(inside), inside.searchsorted(ends)
            job.append((x, y))
            bounds.append(ends)
        # the window sizes, a row per config and a column per replication
        sizes = np.array(bounds)
        sizes[:, 1:] -= sizes[:, :-1]
        depth = (sizes > 0).sum(axis=0)
        ok = depth == len(plan)
        if not ok.all():  # keep the rows and window sizes of the kept replications
            job = [(x[keep], y[keep]) for (x, y), keep in zip(job, map(ok.repeat, sizes))]
            sizes = sizes[:, ok]
        kept = sizes.shape[1]  # windows per config
        cuts += job
        n_local.append(sizes.ravel())
        config.append(np.arange(len(configs), len(configs) + len(plan)).repeat(kept))
        # a sample of no rows (n = 0) has no window, and no scale to form
        scale.append(np.repeat([1.0 / (n * cfg.h**cfg.d) for cfg in plan] if kept else [], kept))
        configs += plan
        depths.append(depth)
        del x, y, inside  # the last cut's index and unfiltered rows: freed before the next draw
    x, y = (np.concatenate(column) for column in zip(*cuts))
    windows = _Windows(x, y, *map(np.concatenate, (n_local, config, scale)), configs)
    return windows, depths


def _stack_at(t, data: Dataset, cfg: LocalFitConfig) -> _Stack | None:
    """The window of ``data`` for ``cfg`` as a stack of one at coefficients
    ``t``, or None when the window is empty (depth 0), raising nothing."""
    windows, [(depth,)] = _windows([(data.x, data.y, data.n, [cfg], [data.n])])
    return _Stack(windows, np.asarray(t, dtype=float)[None]) if depth else None


def criterion(t, data: Dataset, cfg: LocalFitConfig) -> float:
    """Localized contrast criterion at coefficients ``t`` (defined on all
    of R^{N_b}, not just the constraint ball)."""
    stack = _stack_at(t, data, cfg)
    return 0.0 if stack is None else float(stack.fval[0])


def criterion_gradient(t, data: Dataset, cfg: LocalFitConfig) -> np.ndarray:
    """Analytic gradient of the criterion; exact wherever rho' exists."""
    stack = _stack_at(t, data, cfg)
    return np.zeros(cfg.index_set.size) if stack is None else stack.grad[0]


def _project_rows(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of each row of ``v`` onto the l1-ball,
    sort-based; a row inside the ball is returned unchanged."""
    a = np.abs(v)
    over = a.sum(axis=1) > radius
    out = v.copy()
    if not over.any():
        return out
    a = a[over]
    u = np.sort(a, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - radius
    hits = u * np.arange(1, u.shape[1] + 1) > css
    rho = u.shape[1] - 1 - np.argmax(hits[:, ::-1], axis=1)  # last hit
    tau = css[np.arange(a.shape[0]), rho] / (rho + 1.0)
    proj = np.maximum(a - tau[:, None], 0.0)
    # u_1 > u_1 - radius always holds, unless rounding absorbs the radius
    # (|u_1| >> radius): then the radius goes in equal parts to the entries
    # equal to u_1
    if not hits[:, 0].all():
        lost = ~hits[:, 0]
        top = a[lost] == u[lost, :1]
        proj[lost] = top * (radius / top.sum(axis=1, keepdims=True))
    out[over] = np.sign(v[over]) * proj
    return out


def _project_l1_ball(t, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1-ball, sort-based."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    t = np.asarray(t, dtype=float)
    if np.abs(t).sum() <= radius:
        return t.copy()
    return _project_rows(t[None], radius)[0]


def _weighted_median(values: np.ndarray, weights: np.ndarray | None = None) -> float:
    """The lower weighted median: the first value, in stable sorted order,
    at which the cumulative weight reaches half the total; ``weights``
    None stands for unit weights."""
    if weights is None:
        # The cumulative weights 1, 2, ..., m are exact, so that value has
        # rank (m - 1) // 2, and a partition finds it without a sort.  Only
        # -0.0 and 0.0 tie without being the same bits: of the zeros, take
        # the one a stable sort puts at that rank.
        rank = (values.size - 1) // 2
        value = np.partition(values, rank)[rank]
        if value == 0.0:
            value = values[values == 0.0][rank - np.count_nonzero(values < 0.0)]
        return float(value)
    if weights.sum() <= 0:
        return float(np.median(values))
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    cum = np.cumsum(w)
    idx = int(np.searchsorted(cum, 0.5 * cum[-1]))
    return float(v[min(idx, v.size - 1)])


def _gradient_step(stack, row):
    """Spectral (Barzilai-Borwein) trial step of the stack's fit ``row``,
    safeguarded, then monotone Armijo backtracking on the projected step."""
    s = stack
    t, fval, grad = s.t[row], s.fval[row], s.grad[row]
    fit = np.arange(s.size) == row
    step = INITIAL_STEP
    dt = t - s.prev_t[row]
    curv = float(dt @ (grad - s.prev_grad[row]))
    if curv > 0:  # not at the first iterate, where dt = 0
        step = min(max(float(dt @ dt) / curv, 1e-12), 1e12)
    while True:
        candidate = _project_l1_ball(t - step * grad, s.radius)
        cand_val = s.value(candidate[None], fit)[0]
        decrease = float(grad @ (candidate - t))
        if cand_val <= fval + ARMIJO * decrease:
            break
        step *= BACKTRACKING
        if not step >= 1e-18:  # NaN too: inf/inf spectral steps, the fit then stops
            break
    return candidate, cand_val


def _minimize_model(hess, grad, t, radius):
    """Minimize the model g'(u - t) + (u - t)'H(u - t)/2 over the l1-ball
    exactly, for a Newton point t - H^-1 g outside the ball.

    On the ball's surface this is the lasso u'Hu/2 - b'u + lam ||u||_1 with
    b = Ht - g, at the multiplier lam that puts ||u||_1 at the radius.  The
    homotopy (Osborne, Presnell & Turlach 2000; Efron et al. 2004) follows
    its piecewise linear path down from lam = ||b||_inf, where u = 0.  On
    each segment the active coordinates A with signs s solve
    u_A = H_AA^-1 (b_A - lam s_A); a coordinate joins A when its
    correlation (b - Hu)_j reaches +-lam and leaves when it crosses zero.
    ||u||_1 grows as lam falls and exceeds the radius at lam = 0, so the
    path meets the ball, and the KKT system of that segment gives the
    point.  Returns None when the path takes more than 4 N_b + 4 events, a
    solve fails, or the point misses the ball by more than rounding.
    """
    b = hess @ t - grad
    n_b = b.size
    signs = np.zeros(n_b)
    j = int(np.argmax(np.abs(b)))
    signs[j] = np.sign(b[j])
    lam = abs(b[j])
    # The event that just happened cannot recur on the next segment: the
    # coordinate's correlation or value is linear there and crossed at lam.
    undo = None
    for _ in range(4 * n_b + 4):
        act = np.flatnonzero(signs)
        s = signs[act]
        sub = hess[np.ix_(act, act)]
        try:
            v, w = np.linalg.solve(sub, np.column_stack((b[act], s))).T
        except np.linalg.LinAlgError:
            return None
        # Along the segment u_A = v - l w, ||u||_1 = s'v - l s'w and the
        # correlations are b - Hu = p + l q.
        lam_ball = (s @ v - radius) / (s @ w)
        p = b - hess[:, act] @ v
        q = hess[:, act] @ w
        events = np.full((3, n_b), -np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            events[0] = np.where(q < 1.0, p / (1.0 - q), -np.inf)  # reaches +l
            events[1] = np.where(q > -1.0, -p / (1.0 + q), -np.inf)  # reaches -l
            events[2, act] = np.where(s * w < 0, v / w, -np.inf)  # u_j reaches 0
        events[:2, act] = -np.inf
        if undo is not None:
            events[undo] = -np.inf
        events = np.minimum(events, lam)  # rounding past lam: happens at once
        kind, j = divmod(int(np.argmax(events)), n_b)
        lam_event = events[kind, j]
        if lam_ball >= lam_event:
            break
        if not lam_event > 0:
            return None
        undo = (2, j) if kind < 2 else (int(signs[j] < 0), j)
        signs[j] = (1.0, -1.0, 0.0)[kind]
        lam = lam_event
    else:
        return None
    if lam_ball < 0:
        return None
    k = act.size
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = sub
    kkt[:k, k] = kkt[k, :k] = s
    try:
        solution = np.linalg.solve(kkt, np.append(b[act], radius))
    except np.linalg.LinAlgError:
        return None
    u = np.zeros(n_b)
    u[act] = solution[:k]
    # ||u||_1 = s'v - lam s'w cancels terms up to s'v in size
    if not np.abs(u).sum() - radius <= 4 * k * np.finfo(float).eps * (s @ v):
        return None
    return _project_l1_ball(u, radius)


def _starts(chunks: np.ndarray) -> np.ndarray:
    """First chunk of each fit, from the fits' chunk counts."""
    return chunks.cumsum() - chunks


class _Stack:
    """The live fits of a stack of windows, and their iterates.

    The stack lays its windows out in chunks of _CHUNK rows: each window
    fills a run of whole chunks, padded with rows of exact zeros, in one
    stack-wide array per field (``design_t``, each chunk's transposed
    design, ``weights``, ``y`` and ``resid``); ``owner`` maps a chunk to its
    fit and ``starts`` a fit to its first chunk.  Its windows share one
    x0, one kernel and one index set, so one pass of products writes every
    row's design monomials into the chunk layout, and one
    ``KernelSpec.value`` call makes every row's weight (none for the
    uniform kernel, whose weights are the live rows); both are
    elementwise, so a row's bits do not depend on the rest of the stack.
    Every per-chunk product is one BLAS call on that chunk alone, and
    ``per_fit`` adds a fit's chunks in order, so a fit's arithmetic does not
    depend on the other fits.  Fits leave the stack as they stop, and the
    arrays shrink with them.
    """

    _FITS = (
        "index", "chunks", "n_local", "scale", "t", "fval", "grad", "gap", "converged",
        "stopped", "iterations", "stagnant", "prev_t", "prev_grad",
    )
    _CHUNKS = ("design_t", "weights", "y", "resid")

    @staticmethod
    def chunk_count(n_local):
        """Chunks a window of ``n_local`` samples fills."""
        return -(-n_local // _CHUNK)

    def __init__(self, windows: _Windows, t: np.ndarray | None = None):
        """Lay out ``windows`` (none empty, of one settings key, a run of
        those ``_fit_problems`` takes) and start each fit at its row of
        ``t``, by default at the kernel-weighted median of its responses in
        the constant coordinate (zeros elsewhere, projected), found under
        the uniform kernel by one row-wise sort per chunk count (see
        ``_medians``).  Every window's points, rescaled by its own config's
        h, and its responses reach the chunk layout by one mask scatter over
        the stack's rows, not window by window; a fit's ``index`` is its
        window's position in the windows ``_fit_problems`` takes."""
        cfg = windows.configs[windows.config[0]]
        self.contrast, self.radius, self.optimizer = cfg.contrast, cfg.bound, cfg.optimizer
        self.index_set = cfg.index_set
        n_b = self.index_set.size
        self.n_local, self.scale = windows.n_local, windows.scale
        size = windows.size
        self.index = np.arange(windows.first, windows.first + size)
        self.chunks = self.chunk_count(self.n_local)
        self._layout()
        self._fill(windows, cfg)
        if t is None:
            t = np.zeros((size, n_b))
            t[:, 0] = self._medians(cfg.kernel.kind == "uniform")
            t = _project_rows(t, self.radius)
        self.t = t
        self.stopped = np.zeros(size, dtype=bool)
        self.iterations = np.zeros(size, dtype=int)
        self.stagnant = np.zeros(size, dtype=int)
        self.update()
        self.fval = self.value()
        self.prev_t, self.prev_grad = self.t, self.grad

    def _fill(self, windows: _Windows, cfg: LocalFitConfig) -> None:
        """Write the rows of ``windows`` into the chunk layout: each design
        monomial and kernel weight of every window's rescaled points, and
        its responses.  Its temporaries, each the size of the stack's rows,
        are freed before the first iteration."""
        n_b = self.index_set.size
        # a window's samples fill the first rows of its chunks, in order
        position = np.arange(self.owner.size) - self.starts[self.owner]  # of a chunk in its window
        live = (np.arange(_CHUNK) < (self.n_local[self.owner] - _CHUNK * position)[:, None]).ravel()
        # the rescaled points, one coordinate per row of z (each scattered
        # by a one-dimensional mask), and the responses
        h = np.array([c.h for c in windows.configs]).take(windows.config).repeat(self.n_local)
        x = windows.x - cfg.x0
        x /= h[:, None]
        z = np.zeros((cfg.d, live.size))
        for coordinate, column in zip(x.T, z):
            column[live] = coordinate
        y = np.zeros(live.size)
        y[live] = windows.y
        # each monomial's values written straight into the chunk layout; a
        # padding row (z = 0) holds only the constant monomial, 1, so
        # writing ``live`` in its place clears it
        self.design_t = np.empty((self.owner.size, n_b, _CHUNK))
        monomials = self.design_t.transpose(1, 0, 2)
        _write_monomials(z.reshape(cfg.d, -1, _CHUNK), self.index_set, monomials)
        monomials[0] = live.reshape(-1, _CHUNK)
        if cfg.kernel.kind == "uniform":
            # a window row has |x - x0| <= h/2, so |z| <= 1/2 after rounding
            # too, where the uniform kernel is 1: its weights are ``live``
            weights = live.astype(float)
        else:
            weights = np.where(live, cfg.kernel.value(z.T), 0.0)
        self.weights, self.y = weights.reshape(-1, _CHUNK), y.reshape(-1, _CHUNK)

    def _medians(self, unit: bool) -> np.ndarray:
        """The kernel-weighted median of each window's responses
        (``_weighted_median``), with unit weights if ``unit``.

        With unit weights (the uniform kernel's, see _fill), the fits of
        one chunk count find theirs by one row-wise sort: a row per fit
        holds its chunks, its padding rows set to +inf so that they sort
        last, and the median is the row's value at rank (n_local - 1) // 2,
        the rank ``_weighted_median`` takes.  Equal responses have equal
        bits but for -0.0 and 0.0, so that is the value its partition
        finds, unless it is a zero.  A zero median, a chunk count only one
        fit holds (a bandwidth selection's windows) and every fit with
        kernel weights take ``_weighted_median``."""
        medians = np.zeros(self.size)
        if unit:
            ranks = (self.n_local - 1) // 2
            # not np.unique, whose first call imports numpy.ma (1.6 MB)
            for count in (np.bincount(self.chunks) > 1).nonzero()[0].tolist():
                fits = (self.chunks == count).nonzero()[0]
                rows = self.y[self.starts[fits, None] + np.arange(count)].reshape(fits.size, -1)
                rows[np.arange(count * _CHUNK) >= self.n_local[fits, None]] = np.inf
                rows.sort(axis=1)
                medians[fits] = rows[np.arange(fits.size), ranks[fits]]
        # the fits no sort reached are still at zero
        weights, y = self.weights.ravel(), self.y.ravel()
        for i in (medians == 0.0).nonzero()[0].tolist():
            first, m = int(self.starts[i]) * _CHUNK, int(self.n_local[i])
            medians[i] = _weighted_median(y[first : first + m], None if unit else weights[first : first + m])
        return medians

    def _layout(self) -> None:
        self.owner = np.repeat(np.arange(self.chunks.size), self.chunks)
        self.starts = _starts(self.chunks)

    @property
    def size(self) -> int:
        return self.index.size

    def per_fit(self, partial: np.ndarray, fits=None) -> np.ndarray:
        """Sum per-chunk ``partial`` over each fit's chunks, in order; with
        ``fits``, the partials are those of those fits' chunks only."""
        starts = self.starts if fits is None else _starts(self.chunks[fits])
        return np.add.reduceat(partial, starts, axis=0)

    def value(self, t: np.ndarray | None = None, fits: np.ndarray | None = None) -> np.ndarray:
        """Criterion of each fit at its row of ``t``, by default at its
        iterate (from the residuals of the last ``update``); with a mask
        ``fits``, of the flagged fits only, ``t`` holding a row for each."""
        chunks, rows = (slice(None),) * 2 if fits is None else (fits[self.owner], fits)
        if t is None:
            resid = self.resid[chunks]
        else:
            t = t.repeat(self.chunks[rows], axis=0)
            resid = _residuals(self.design_t[chunks], self.y[chunks], t)
        rho = self.contrast.value(resid)
        return self.scale[rows] * self.per_fit(_rowdot(self.weights[chunks], rho), fits)

    def update(self) -> None:
        """Residuals, gradient and stationarity gap at the current iterates;
        the gap is the norm of the unit-step projected gradient step."""
        self.resid = _residuals(self.design_t, self.y, self.t[self.owner])
        psi = self.weights * self.contrast.first_derivative(self.resid)
        chunk_grad = np.matmul(self.design_t, psi[:, :, None])[:, :, 0]  # X'psi per chunk
        self.grad = -self.scale[:, None] * self.per_fit(chunk_grad)
        step = self.t - _project_rows(self.t - self.grad, self.radius)
        self.gap = np.sqrt(_rowdot(step, step))
        self.converged = self.gap <= self.optimizer.gradient_tolerance

    def advance(self, cand: np.ndarray, cand_val: np.ndarray) -> None:
        """Move each fit to its candidate.  A fit stops where it is when
        the candidate raises its criterion (the line search stalled at
        numerical precision) or equals its iterate (a fixed point at
        numerical precision), and after it moves when its criterion has
        not changed for _STAGNANT_STEPS steps (flat at float precision,
        the tolerance unreachable)."""
        moved = (cand_val <= self.fval) & ~(cand == self.t).all(axis=1)
        self.stagnant = np.where(cand_val == self.fval, self.stagnant + 1, 0)
        self.prev_t, self.prev_grad = self.t, self.grad
        self.t = np.where(moved[:, None], cand, self.t)
        self.fval = np.where(moved, cand_val, self.fval)
        self.iterations += moved
        self.update()
        self.stopped = ~moved | (self.stagnant > _STAGNANT_STEPS)

    def store(self, fits: _Fits, rows: np.ndarray | None = None) -> None:
        """Store the results of the fits in ``rows``, by default of all, in
        their rows of ``fits``; a coefficient that is not finite is a
        ValueError."""
        rows = slice(None) if rows is None else rows
        t = _project_rows(self.t[rows], self.radius)
        if not np.isfinite(t).all():
            raise ValueError("coefficients must be finite")
        index = self.index[rows]
        fits.theta[index] = t
        fits.iterations[index] = self.iterations[rows]
        fits.gap[index] = self.gap[rows]
        fits.converged[index] = self.converged[rows]

    def release(self, done: np.ndarray, fits: _Fits) -> None:
        """Store the results of the fits flagged ``done`` and drop them."""
        if not done.any():
            return
        self.store(fits, done.nonzero()[0])
        keep = ~done
        for name in self._CHUNKS:
            setattr(self, name, getattr(self, name)[keep[self.owner]])
        for name in self._FITS:
            setattr(self, name, getattr(self, name)[keep])
        self._layout()


def _newton_steps(stack: _Stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Proximal Newton steps of the stack's fits on their Huber active sets.

    Returns candidates and their criterion values (the iterates where no
    step was taken) and the mask of fits that took one.  A fit takes none
    where its curvature is degenerate, its model solve fails or its line
    search fails; it then takes a projected gradient step.

    The model Hessian H = scale X'diag(w 1{|r| <= gamma})X is used when at
    least N_b samples are active and its condition number is below
    1/_CONDITION_RATIO.  The quadratic model is minimized over the ball
    exactly: by the Newton point when that lies inside it, else by the
    homotopy of ``_minimize_model``.  Armijo backtracking along the segment
    keeps the iterate feasible.  It compares criterion increments computed
    piece by piece, which stay accurate where the criterion values no
    longer differ in floating point.
    """
    s = stack
    cand, cand_val = s.t.copy(), s.fval.copy()
    took = np.zeros(s.size, dtype=bool)
    active = s.weights * s.contrast.second_derivative(s.resid)
    newton = s.per_fit(np.count_nonzero(active, axis=1)) >= s.index_set.size
    if not newton.any():
        return cand, cand_val, took
    partial = np.matmul(s.design_t * active[:, None, :], s.design_t.swapaxes(1, 2))
    del active  # stack-sized, and not read again
    hess = s.scale[:, None, None] * s.per_fit(partial)
    eig = np.linalg.eigvalsh(hess)
    newton &= eig[:, 0] > _CONDITION_RATIO * eig[:, -1]
    if not newton.any():
        return cand, cand_val, took
    rows = newton.nonzero()[0]
    t, grad, hess = s.t[rows], s.grad[rows], hess[rows]
    target = t - np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
    for j in (np.abs(target).sum(axis=1) > s.radius).nonzero()[0]:
        u = _minimize_model(hess[j], grad[j], t[j], s.radius)
        target[j] = np.nan if u is None else u
    direction = np.zeros_like(s.t)
    direction[rows] = target - t
    decrease = _rowdot(s.grad, direction)
    # Below this the criterion, and a direction along the ball's surface,
    # cannot be resolved in floating point.  A change that small leaves
    # fval + change == fval, so taking such a step keeps descent monotone.
    resolution = _ROUNDING * np.abs(s.fval)
    flat = np.abs(decrease) <= resolution
    pending = newton & ((decrease < 0) | flat)  # False after a failed model solve (NaN)
    direction[~pending] = 0.0
    # The residuals' change at a unit step: minus the design times the
    # direction.  A step scales it by a power of two, which is exact; the
    # unit step takes it as it is.
    drop = np.matmul(s.design_t.swapaxes(1, 2), direction[s.owner][:, :, None])[:, :, 0]
    np.negative(drop, out=drop)
    step = 1.0
    while step >= 1e-18 and pending.any():
        fits = pending.nonzero()[0]
        subset = fits.size < s.size
        chunks = pending[s.owner] if subset else slice(None)
        dz = drop[chunks] if step == 1.0 else step * drop[chunks]
        inc = s.contrast.increment(s.resid[chunks], dz)
        change = s.scale[fits] * s.per_fit(
            _rowdot(s.weights[chunks], inc), fits if subset else None
        )
        ok = (change <= ARMIJO * step * decrease[fits]) | (
            flat[fits] & (change <= resolution[fits])
        )
        accepted = fits[ok]
        cand[accepted] = s.t[accepted] + step * direction[accepted]
        cand_val[accepted] = s.fval[accepted] + change[ok]
        took[accepted] = True
        pending[accepted] = False
        step *= BACKTRACKING
    return cand, cand_val, took


def _fit_stack(windows: _Windows, fits: _Fits) -> None:
    """Minimize the local criteria of a stack of windows together, storing
    each result in its window's row of its plan's ``fits``.

    Every iteration takes a proximal Newton step (``_newton_steps``) for
    each live fit whose curvature allows one and a Barzilai-Borwein
    projected gradient step for the others; both use monotone Armijo
    backtracking.  A fit stops when its unit-step projected-gradient norm
    falls below the tolerance, when ``_Stack.advance`` stops it, or at the
    iteration cap.
    """
    stack = _Stack(windows)
    for _ in range(stack.optimizer.max_iterations):
        done = stack.converged | stack.stopped
        if done.all():
            break
        stack.release(done, fits)
        cand, cand_val, took = _newton_steps(stack)
        for row in (~took).nonzero()[0]:
            cand[row], cand_val[row] = _gradient_step(stack, row)
        stack.advance(cand, cand_val)
    stack.store(fits)  # the fits left, stopped or at the iteration cap


def _fit_problems(windows: _Windows) -> _Fits:
    """Fit every window of ``windows``, of one plan or several, as one
    ``_windows`` call cuts them; their results, in order.

    One pass over the windows cuts them into stacks: a stack is a run of
    consecutive windows of one settings key (x0, degree, kernel, radius,
    contrast and optimizer: every fit setting but h), cut where the next
    window would take it past _STACK_CHUNKS chunks (a window larger than
    that is a stack on its own).  So a stack has one x0, by which
    ``_Stack`` rescales all its points.  Each stack stores its results
    straight into the one ``_Fits``.  The windows come from ``_windows``,
    so none is empty.
    """
    configs = windows.configs
    keys = [(cfg.x0, cfg.degree, cfg.kernel, cfg.bound, cfg.contrast, cfg.optimizer) for cfg in configs]
    fits = _Fits(configs[0].index_set, windows.n_local)
    sizes = _Stack.chunk_count(windows.n_local).tolist()
    # the first window of each stack, and the chunks and key of the last
    starts, chunks, current = [], 0, None
    for i, (config, size) in enumerate(zip(windows.config.tolist(), sizes)):
        if keys[config] != current or chunks + size > _STACK_CHUNKS:
            starts.append(i)
            chunks, current = 0, keys[config]
        chunks += size
    for start, stop in zip(starts, starts[1:] + [windows.size]):
        _fit_stack(windows.take(start, stop), fits)
    return fits


def fit_local(data: Dataset, cfg: LocalFitConfig) -> FitResult:
    """Minimize the local criterion over the l1-ball by proximal Newton
    steps, with projected gradient steps where the curvature degenerates:
    a stack of one window (see ``_fit_stack``).

    Starts from the kernel-weighted median of the in-window responses in
    the constant coordinate (zeros elsewhere, projected).  Projected
    gradient steps cover absolute loss, tiny thresholds and windows with
    fewer active samples than coefficients.  Convexity of the criterion
    plus compactness of the ball make any stationary point a global
    minimizer.  An empty dataset is a ValueError, an empty window (depth 0
    in ``_windows``) an EmptyNeighborhoodError, raised here.
    """
    if data.n == 0:
        raise ValueError("dataset is empty")
    windows, [(depth,)] = _windows([(data.x, data.y, data.n, [cfg], [data.n])])
    if not depth:
        raise EmptyNeighborhoodError(cfg.x0, cfg.h)
    return _fit_problems(windows).result(0)
