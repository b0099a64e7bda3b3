"""Differential oracles, kept verbatim apart from their names, the
line-search constants, which they read from ``roblp.local_fit``, the start
(the kernel-weighted median), the criterion and its gradient, which they
read from a ``_Stack`` of the fit's window, cut once by ``_windows`` (the
sums ``criterion`` and ``criterion_gradient`` compute; a window carries
only its rows, and the stack builds its design and weights), and the
criterion path that ``FitResult`` no longer records:

- the projected gradient solver that ``fit_local`` used before it took
  proximal Newton steps; tests compare the criterion values the two
  solvers reach;
- the accelerated projected gradient solve of the proximal Newton model
  over the l1-ball that the homotopy solve replaced; tests compare the
  model values the two reach.
"""

import math

import numpy as np

from roblp.basis import CoefficientVector
from roblp.local_fit import (
    ARMIJO,
    BACKTRACKING,
    INITIAL_STEP,
    Dataset,
    EmptyNeighborhoodError,
    FitResult,
    LocalFitConfig,
    _Stack,
    _windows,
    _project_l1_ball,
)


def fit_local_projected_gradient(data: Dataset, cfg: LocalFitConfig) -> FitResult:
    """Minimize the local criterion over the l1-ball by projected gradient
    descent with backtracking.

    Starts from the kernel-weighted median of the in-window responses in
    the constant coordinate (zeros elsewhere, projected).  Stops when the
    unit-step projected-gradient norm falls below the tolerance or the
    iteration cap is hit.  Convexity of the criterion plus compactness of
    the ball make any stationary point a global minimizer.
    """
    if data.n == 0:
        raise ValueError("dataset is empty")
    problem, [(depth,)] = _windows([(data.x, data.y, data.n, [cfg], [data.n])])
    if not depth:
        raise EmptyNeighborhoodError(cfg.x0, cfg.h)

    opt = cfg.optimizer
    radius = cfg.bound
    stack = _Stack(problem)
    t = stack.t[0]

    def criterion(u):
        return float(stack.value(u[None])[0])

    def criterion_gradient(u):
        stack.t = u[None]
        stack.update()
        return stack.grad[0]

    fval = criterion(t)
    grad = criterion_gradient(t)
    prev_t = prev_grad = None
    gap = float(np.linalg.norm(t - _project_l1_ball(t - grad, radius)))
    converged = gap <= opt.gradient_tolerance
    iterations = 0
    stagnant = 0

    for _ in range(opt.max_iterations):
        if converged:
            break
        # Spectral (Barzilai-Borwein) trial step, safeguarded, then
        # monotone Armijo backtracking on the projected step.
        step = INITIAL_STEP
        if prev_t is not None:
            dt = t - prev_t
            dg = grad - prev_grad
            curv = float(dt @ dg)
            if curv > 0:
                step = min(max(float(dt @ dt) / curv, 1e-12), 1e12)
        candidate = t
        cand_val = fval
        while True:
            candidate = _project_l1_ball(t - step * grad, radius)
            cand_val = criterion(candidate)
            decrease = float(grad @ (candidate - t))
            if cand_val <= fval + ARMIJO * decrease:
                break
            step *= BACKTRACKING
            if step < 1e-18:
                break
        if cand_val > fval:
            break  # line search stalled at numerical precision
        if np.array_equal(candidate, t):
            break  # fixed point at numerical precision
        stagnant = stagnant + 1 if cand_val == fval else 0
        prev_t, prev_grad = t, grad
        t, fval = candidate, cand_val
        grad = criterion_gradient(t)
        iterations += 1
        gap = float(np.linalg.norm(t - _project_l1_ball(t - grad, radius)))
        converged = gap <= opt.gradient_tolerance
        if stagnant > 64:
            break  # objective flat at float precision, tolerance unreachable

    t = _project_l1_ball(t, radius)
    theta = CoefficientVector(values=t, index_set=cfg.index_set)
    return FitResult(
        theta_hat=theta,
        estimate=theta.center_value,
        n_local=int(problem.n_local[0]),
        iterations=iterations,
        stationarity_gap=gap,
        converged=converged,
        underdetermined=bool(problem.n_local[0] < cfg.index_set.size),
    )



# Safeguard on the inner accelerated projected gradient loop.
_MODEL_MAX_ITERATIONS = 10_000


def minimize_model_projected_gradient(hess, grad, t, radius, mu, lip, tol):
    """Minimize g'(u - t) + (u - t)'H(u - t)/2 over the l1-ball by
    accelerated projected gradient with the strongly convex momentum
    (sqrt(L) - sqrt(mu)) / (sqrt(L) + sqrt(mu)), started at ``t``.  Stops
    when the unit-step projected-gradient norm of the model is below
    ``tol`` or after ``_MODEL_MAX_ITERATIONS`` steps."""
    momentum = (math.sqrt(lip) - math.sqrt(mu)) / (math.sqrt(lip) + math.sqrt(mu))
    u = prev = t
    for _ in range(_MODEL_MAX_ITERATIONS):
        v = u + momentum * (u - prev)
        prev, u = u, _project_l1_ball(v - (grad + hess @ (v - t)) / lip, radius)
        model_grad = grad + hess @ (u - t)
        if np.linalg.norm(u - _project_l1_ball(u - model_grad, radius)) <= tol:
            break
    return u
