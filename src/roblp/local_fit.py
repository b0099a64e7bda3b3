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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .basis import CoefficientVector, MultiIndexSet, monomial_matrix, multi_index_set
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
    "project_l1_ball",
    "fit_local",
]


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
        if not np.all(np.isfinite(y)):
            raise ValueError("responses must be finite")
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
        are a ValueError naming the file."""
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
            rows = [row for row in reader if row]
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
    gap at convergence.  ``record_objective`` keeps the criterion after
    every step, as the line search tracks it, in
    ``FitResult.objective_path``."""

    max_iterations: int = 20_000
    gradient_tolerance: float = 1e-8
    record_objective: bool = False

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
    objective_path: tuple[float, ...] | None = None


class EmptyNeighborhoodError(RuntimeError):
    """No sample falls in the fitting window; the estimator is undefined.
    ``grid_index`` is the bandwidth-grid level when the fit ran inside a
    bandwidth selection, else None."""

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


class _LocalProblem:
    """Precomputed window data: rescaled design monomials, kernel weights
    and responses, plus the 1/(n h^d) normalization by the full size."""

    def __init__(self, data: Dataset, cfg: LocalFitConfig):
        x0 = np.asarray(cfg.x0, dtype=float)
        if data.d != cfg.d:
            raise ValueError(f"data dimension {data.d} != config dimension {cfg.d}")
        inside = np.flatnonzero((np.abs(data.x - x0) <= cfg.h / 2.0).all(axis=1))
        self.n_local = inside.size
        self.scale = 1.0 / (data.n * cfg.h**cfg.d)
        self.index_set = cfg.index_set
        self.contrast = cfg.contrast
        if self.n_local:
            z = (data.x.take(inside, axis=0) - x0) / cfg.h
            self.design = monomial_matrix(z, self.index_set)
            self.weights = cfg.kernel.value(z)
            self.y = data.y.take(inside)
        else:
            self.design = np.zeros((0, self.index_set.size))
            self.weights = np.zeros(0)
            self.y = np.zeros(0)

    def value(self, t: np.ndarray) -> float:
        if not self.n_local:
            return 0.0
        resid = self.y - self.design @ t
        return self.scale * float(self.weights @ self.contrast.value(resid))

    def gradient(self, t: np.ndarray) -> np.ndarray:
        if not self.n_local:
            return np.zeros(self.index_set.size)
        resid = self.y - self.design @ t
        psi = self.weights * self.contrast.first_derivative(resid)
        return -self.scale * (self.design.T @ psi)

    def increment(self, t: np.ndarray, step: np.ndarray) -> float:
        """value(t + step) - value(t), accurate even when the step is too
        small for the two values to differ in floating point."""
        resid = self.y - self.design @ t
        inc = self.contrast.increment(resid, -(self.design @ step))
        return self.scale * float(self.weights @ inc)

    def hessian(self, t: np.ndarray) -> np.ndarray | None:
        """Generalized Hessian scale X'diag(w rho''(r))X, where rho'' is the
        indicator of the Huber band; None when fewer samples than
        coefficients are active, which makes it singular."""
        resid = self.y - self.design @ t
        w = self.weights * self.contrast.second_derivative(resid)
        if np.count_nonzero(w) < self.index_set.size:
            return None
        return self.scale * ((self.design.T * w) @ self.design)


def criterion(t, data: Dataset, cfg: LocalFitConfig) -> float:
    """Localized contrast criterion at coefficients ``t`` (defined on all
    of R^{N_b}, not just the constraint ball)."""
    t = np.asarray(t, dtype=float)
    return _LocalProblem(data, cfg).value(t)


def criterion_gradient(t, data: Dataset, cfg: LocalFitConfig) -> np.ndarray:
    """Analytic gradient of the criterion; exact wherever rho' exists."""
    t = np.asarray(t, dtype=float)
    return _LocalProblem(data, cfg).gradient(t)


def project_l1_ball(t, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1-ball, sort-based."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    if a.sum() <= radius:
        return t.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u) - radius
    k = np.arange(1, u.size + 1)
    rho = np.nonzero(u * k > css)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.sign(t) * np.maximum(a - tau, 0.0)


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    if values.size == 0:
        return 0.0
    if weights.sum() <= 0:
        return float(np.median(values))
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    cum = np.cumsum(w)
    idx = int(np.searchsorted(cum, 0.5 * cum[-1]))
    return float(v[min(idx, v.size - 1)])


def _gradient_step(problem, t, fval, grad, prev_t, prev_grad, radius):
    """Spectral (Barzilai-Borwein) trial step, safeguarded, then monotone
    Armijo backtracking on the projected step."""
    step = INITIAL_STEP
    if prev_t is not None:
        dt = t - prev_t
        dg = grad - prev_grad
        curv = float(dt @ dg)
        if curv > 0:
            step = min(max(float(dt @ dt) / curv, 1e-12), 1e12)
    while True:
        candidate = project_l1_ball(t - step * grad, radius)
        cand_val = problem.value(candidate)
        decrease = float(grad @ (candidate - t))
        if cand_val <= fval + ARMIJO * decrease:
            break
        step *= BACKTRACKING
        if step < 1e-18:
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
    return project_l1_ball(u, radius)


def _newton_step(problem, t, fval, grad, radius):
    """Proximal Newton step on the Huber active set, or None where the
    curvature is degenerate or the step fails its line search.

    The model Hessian H = scale X'diag(w 1{|r| <= gamma})X is used when at
    least N_b samples are active and its condition number is below
    1/_CONDITION_RATIO.  The quadratic model is minimized over the ball
    exactly: by the Newton point when that lies inside it, else by the
    homotopy of ``_minimize_model``; None when the homotopy fails.
    Armijo backtracking along the segment keeps the iterate feasible.  It
    compares criterion increments computed piece by piece, which stay
    accurate where the criterion values no longer differ in floating point.
    """
    hess = problem.hessian(t)
    if hess is None:
        return None
    eig = np.linalg.eigvalsh(hess)
    if not eig[0] > _CONDITION_RATIO * eig[-1]:
        return None
    target = t - np.linalg.solve(hess, grad)
    if np.abs(target).sum() > radius:
        target = _minimize_model(hess, grad, t, radius)
        if target is None:
            return None
    direction = target - t
    decrease = float(grad @ direction)
    # Below this the criterion, and a direction along the ball's surface,
    # cannot be resolved in floating point.  A change that small leaves
    # fval + change == fval, so taking such a step keeps descent monotone.
    resolution = _ROUNDING * abs(fval)
    flat = abs(decrease) <= resolution
    if not (decrease < 0 or flat):
        return None
    step = 1.0
    while step >= 1e-18:
        change = problem.increment(t, step * direction)
        if change <= ARMIJO * step * decrease or (flat and change <= resolution):
            return t + step * direction, fval + change
        step *= BACKTRACKING
    return None


def fit_local(data: Dataset, cfg: LocalFitConfig) -> FitResult:
    """Minimize the local criterion over the l1-ball by proximal Newton
    steps, with projected gradient steps where the curvature degenerates.

    Starts from the kernel-weighted median of the in-window responses in
    the constant coordinate (zeros elsewhere, projected).  Each iteration
    takes a proximal Newton step on the Huber active set when its Hessian
    is well conditioned, and a Barzilai-Borwein projected gradient step
    otherwise (absolute loss, tiny thresholds, windows with fewer active
    samples than coefficients); both use monotone Armijo backtracking.
    Stops when the unit-step projected-gradient norm falls below the
    tolerance or the iteration cap is hit.  Convexity of the criterion
    plus compactness of the ball make any stationary point a global
    minimizer.
    """
    if data.n == 0:
        raise ValueError("dataset is empty")
    problem = _LocalProblem(data, cfg)
    if problem.n_local == 0:
        raise EmptyNeighborhoodError(cfg.x0, cfg.h)

    opt = cfg.optimizer
    radius = cfg.bound
    t = np.zeros(problem.index_set.size)
    t[0] = _weighted_median(problem.y, problem.weights)
    t = project_l1_ball(t, radius)

    fval = problem.value(t)
    grad = problem.gradient(t)
    path = [fval] if opt.record_objective else None
    prev_t = prev_grad = None
    gap = float(np.linalg.norm(t - project_l1_ball(t - grad, radius)))
    converged = gap <= opt.gradient_tolerance
    iterations = 0
    stagnant = 0

    for _ in range(opt.max_iterations):
        if converged:
            break
        proposal = _newton_step(problem, t, fval, grad, radius)
        if proposal is None:
            proposal = _gradient_step(problem, t, fval, grad, prev_t, prev_grad, radius)
        candidate, cand_val = proposal
        if cand_val > fval:
            break  # line search stalled at numerical precision
        if np.array_equal(candidate, t):
            break  # fixed point at numerical precision
        stagnant = stagnant + 1 if cand_val == fval else 0
        prev_t, prev_grad = t, grad
        t, fval = candidate, cand_val
        grad = problem.gradient(t)
        iterations += 1
        if path is not None:
            path.append(fval)
        gap = float(np.linalg.norm(t - project_l1_ball(t - grad, radius)))
        converged = gap <= opt.gradient_tolerance
        if stagnant > 64:
            break  # objective flat at float precision, tolerance unreachable

    t = project_l1_ball(t, radius)
    theta = CoefficientVector(values=t, index_set=problem.index_set)
    return FitResult(
        theta_hat=theta,
        estimate=theta.center_value,
        n_local=problem.n_local,
        iterations=iterations,
        stationarity_gap=gap,
        converged=converged,
        underdetermined=problem.n_local < problem.index_set.size,
        objective_path=tuple(path) if path is not None else None,
    )
