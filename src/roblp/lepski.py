"""Bandwidth machinery: minimax choice and Lepski's data-driven rule.

With known smoothness (beta, L) the optimal bandwidth solves the
bias/variance trade-off and equals (L^2 n)^{-1/(2 beta + d)}.  Without it,
Lepski's method fits the estimator on a dyadic grid of bandwidths and
keeps the largest one whose estimate is consistent with every finer one:

    k_hat = inf{ k : |f_k(x0) - f_l(x0)| <= C * S_n(l)  for all l > k },

with the comparison scale S_n(l) = sqrt((1 + l ln 2) / (n h_l^d)) and the
threshold constant C of ``selection_config``, assembled from the basis
size, the kernel, the contrast-derivative bound and the noise curvature
lower bound.  At the finest index the consistency condition is vacuous,
so the rule always selects some index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .basis import multi_index_set
from .contrast import ContrastSpec
from .kernels import KernelSpec, lambda_min, moment_matrix
from .local_fit import (
    Dataset,
    EmptyNeighborhoodError,
    LocalFitConfig,
    _fit_problems,
    _LocalProblem,
    fit_local,  # noqa: F401  perfbench/tracing.py patches this lookup site
)

__all__ = [
    "holder_floor",
    "minimax_bandwidth",
    "BandwidthGrid",
    "bandwidth_grid",
    "threshold_scale",
    "threshold_constant",
    "selection_config",
    "CheckRecord",
    "SelectionTrace",
    "select_index",
    "select_bandwidth",
]


def holder_floor(beta: float) -> int:
    """Largest integer strictly smaller than beta (so 2.0 -> 1, 2.5 -> 2)."""
    if beta <= 0:
        raise ValueError(f"smoothness must be positive, got {beta}")
    floor = math.ceil(beta) - 1 if float(beta).is_integer() else math.floor(beta)
    return int(floor)


def minimax_bandwidth(beta: float, lipschitz: float, n: int, d: int) -> float:
    """Bias/variance-optimal bandwidth (L^2 n)^{-1/(2 beta + d)}, clamped
    into (0, 1]."""
    if beta <= 0 or lipschitz <= 0 or n <= 0 or d < 1:
        raise ValueError("beta, lipschitz, n must be positive and d >= 1")
    h = (lipschitz**2 * n) ** (-1.0 / (2.0 * beta + d))
    return min(h, 1.0)


@dataclass(frozen=True)
class BandwidthGrid:
    """Dyadic bandwidth grid h_k = 2^{-k} h_max for k = 0..k_n, the last
    one still above h_min."""

    n: int
    d: int
    b: int
    h_min: float
    h_max: float
    bandwidths: tuple[float, ...]

    @property
    def k_n(self) -> int:
        return len(self.bandwidths) - 1


def _grid_bounds(n: int, d: int, b: int) -> tuple[float, float]:
    h_min = math.log(n) ** (2.0 / d) * float(n) ** (-1.0 / d)
    h_max = float(n) ** (-1.0 / (2.0 * b + d))
    return h_min, h_max


def _minimal_admissible_n(d: int, b: int, ceiling: int = 2**62) -> int:
    lo, hi = 3, 3
    while hi < ceiling:
        h_min, h_max = _grid_bounds(hi, d, b)
        if h_min <= h_max:
            break
        lo, hi = hi, hi * 2
    else:
        raise RuntimeError("no admissible sample size found")
    while lo < hi:
        mid = (lo + hi) // 2
        h_min, h_max = _grid_bounds(mid, d, b)
        if h_min <= h_max:
            hi = mid
        else:
            lo = mid + 1
    return hi


def bandwidth_grid(n: int, d: int, b: int) -> BandwidthGrid:
    """Grid with h_min = (ln n)^{2/d} n^{-1/d} and h_max = n^{-1/(2b+d)}."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if b < 1:
        raise ValueError(f"grid degree must be >= 1, got {b}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    h_min, h_max = _grid_bounds(n, d, b)
    if h_min > h_max:
        raise ValueError(
            f"grid empty: h_min {h_min:.4g} > h_max {h_max:.4g} for n={n}, d={d}, b={b};"
            f" minimal admissible n is {_minimal_admissible_n(d, b)}"
        )
    bandwidths = []
    k = 0
    while True:
        h_k = 2.0**-k * h_max
        if h_k < h_min:
            break
        bandwidths.append(h_k)
        k += 1
    return BandwidthGrid(
        n=n, d=d, b=b, h_min=h_min, h_max=h_max, bandwidths=tuple(bandwidths)
    )


def threshold_scale(l: int, grid: BandwidthGrid) -> float:
    """Comparison scale sqrt((1 + l ln 2) / (n h_l^d)); strictly
    increasing in l."""
    if not 0 <= l <= grid.k_n:
        raise ValueError(f"grid index {l} outside 0..{grid.k_n}")
    h_l = grid.bandwidths[l]
    return math.sqrt((1.0 + l * math.log(2.0)) / (grid.n * h_l**grid.d))


def threshold_constant(
    n_b: int, c: float, lam: float, k_sup: float, rho_prime_sup: float, r: float, d: int
) -> float:
    """Threshold constant (4 n_b / (c lam)) (1 + 2 k_sup (1 v rho') sqrt(r d))."""
    if not math.isfinite(rho_prime_sup):
        raise ValueError(
            "contrast derivative bound must be finite (squared loss is rejected)"
        )
    for name, val in (
        ("n_b", n_b),
        ("c", c),
        ("lam", lam),
        ("k_sup", k_sup),
        ("rho_prime_sup", rho_prime_sup),
        ("r", r),
        ("d", d),
    ):
        if not (math.isfinite(val) and val > 0):
            raise ValueError(f"{name} must be positive and finite, got {val}")
    return (4.0 * n_b / (c * lam)) * (
        1.0 + 2.0 * k_sup * max(1.0, rho_prime_sup) * math.sqrt(r * d)
    )


def selection_config(
    contrast: ContrastSpec, kernel: KernelSpec, degree: int, c: float, r: float = 2.0
) -> float:
    """The threshold constant C of the selection rule for a
    contrast/kernel/degree triple, curvature constant ``c`` and risk power
    ``r``, at the kernel's dimension.

    Rejects a contrast with unbounded derivative (the squared loss), any
    input that is not positive and finite, and r < 1.
    """
    s = multi_index_set(degree, kernel.d)
    lam = lambda_min(moment_matrix(kernel, s))
    constant = threshold_constant(
        s.size, c, lam, kernel.sup_norm, contrast.derivative_bound, r, kernel.d
    )
    if r < 1:
        raise ValueError(f"risk power must be >= 1, got {r}")
    return constant


@dataclass(frozen=True)
class CheckRecord:
    """One pairwise consistency check of the selection rule."""

    k: int
    l: int
    difference: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class SelectionTrace:
    """Full audit of one selection run: the per-bandwidth estimates, every
    pairwise check, and the chosen index."""

    estimates: tuple[tuple[int, float, float], ...]  # (k, h_k, estimate)
    chosen_k: int
    pairwise_checks: tuple[CheckRecord, ...]

    @property
    def selected(self) -> float:
        return self.estimates[self.chosen_k][2]

    @property
    def selected_bandwidth(self) -> float:
        return self.estimates[self.chosen_k][1]

    def to_dict(self) -> dict:
        return {
            "estimates": [
                {"k": k, "h": h, "estimate": est} for k, h, est in self.estimates
            ],
            "chosen_k": self.chosen_k,
            "selected": self.selected,
            "selected_bandwidth": self.selected_bandwidth,
            "pairwise_checks": [
                {
                    "k": c.k,
                    "l": c.l,
                    "difference": c.difference,
                    "threshold": c.threshold,
                    "passed": c.passed,
                }
                for c in self.pairwise_checks
            ],
        }


def select_index(
    estimates, thresholds
) -> tuple[int, tuple[CheckRecord, ...]]:
    """Pure selection rule on precomputed estimates and per-level
    thresholds: the smallest k consistent with every finer level l > k.
    The finest index passes vacuously, so a choice always exists.
    """
    estimates = [float(e) for e in estimates]
    thresholds = [float(t) for t in thresholds]
    if len(estimates) != len(thresholds):
        raise ValueError("estimates and thresholds must have equal length")
    if not estimates:
        raise ValueError("empty estimate family")
    k_last = len(estimates) - 1
    checks: list[CheckRecord] = []
    chosen = k_last
    for k in range(k_last + 1):
        all_pass = True
        for l in range(k + 1, k_last + 1):
            diff = abs(estimates[k] - estimates[l])
            passed = diff <= thresholds[l]
            checks.append(
                CheckRecord(k=k, l=l, difference=diff, threshold=thresholds[l], passed=passed)
            )
            all_pass = all_pass and passed
        if all_pass:
            chosen = k  # vacuously true at the finest index
            break
    return chosen, tuple(checks)


def select_bandwidth(
    data: Dataset, grid: BandwidthGrid, fit_template: LocalFitConfig, threshold: float
) -> SelectionTrace:
    """Run the estimator over the whole grid and apply the selection rule.

    Each bandwidth is fitted at ``fit_template.x0`` with the template's
    settings, independently on the same data (no warm starts, so results
    do not depend on evaluation order); the levels are solved as one
    stack.  ``threshold`` is the constant C from ``selection_config``.  An
    empty window raises ``EmptyNeighborhoodError`` carrying the offending
    grid index.
    """
    windows = []
    for k, h_k in enumerate(grid.bandwidths):
        window = _LocalProblem(data, replace(fit_template, h=h_k))
        if not window.n_local:
            raise EmptyNeighborhoodError(fit_template.x0, h_k, grid_index=k)
        windows.append(window)
    return _select_estimates([fit.estimate for fit in _fit_problems(windows)], grid, threshold)


def _select_estimates(estimates, grid: BandwidthGrid, threshold: float) -> SelectionTrace:
    """The selection rule on the per-level estimates of one dataset, with
    threshold constant C = ``threshold``: the trace ``select_bandwidth``
    returns."""
    thresholds = [threshold * threshold_scale(l, grid) for l in range(grid.k_n + 1)]
    chosen, checks = select_index(estimates, thresholds)
    return SelectionTrace(
        estimates=tuple(zip(range(grid.k_n + 1), grid.bandwidths, estimates)),
        chosen_k=chosen,
        pairwise_checks=checks,
    )
