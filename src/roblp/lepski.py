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
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .basis import multi_index_set
from .contrast import ContrastSpec
from .kernels import KernelSpec, lambda_min, moment_matrix
from .local_fit import (
    Dataset,
    EmptyNeighborhoodError,
    LocalFitConfig,
    _fit_problems,
    _windows,
    fit_local,  # noqa: F401  perfbench/tracing.py patches this lookup site
)

__all__ = [
    "holder_floor",
    "minimax_bandwidth",
    "BandwidthGrid",
    "bandwidth_grid",
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
    into (0, 1]; a ValueError where it is not a positive finite number."""
    if beta <= 0 or lipschitz <= 0 or n <= 0 or d < 1:
        raise ValueError("beta, lipschitz, n must be positive and d >= 1")
    try:
        h = (lipschitz**2 * n) ** (-1.0 / (2.0 * beta + d))
    except (OverflowError, ZeroDivisionError):  # L^2 overflows or underflows to 0
        h = math.nan
    if not 0.0 < h < math.inf:
        raise ValueError(
            f"minimax bandwidth (L^2 n)^(-1/(2 beta + d)) is not a positive finite number"
            f" for lipschitz={lipschitz!r}, n={n}, beta={beta!r}, d={d}"
        )
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


def bandwidth_grid(n: int, d: int, b: int) -> BandwidthGrid:
    """Grid with h_min = (ln n)^{2/d} n^{-1/d} and h_max = n^{-1/(2b+d)}."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if b < 1:
        raise ValueError(f"grid degree must be >= 1, got {b}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    h_min = math.log(n) ** (2.0 / d) * float(n) ** (-1.0 / d)
    h_max = float(n) ** (-1.0 / (2.0 * b + d))
    if h_min > h_max:
        raise ValueError(
            f"grid empty: h_min {h_min:.4g} > h_max {h_max:.4g} for n={n}, d={d}, b={b}"
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


def _threshold_scale(l: int, grid: BandwidthGrid) -> float:
    """Comparison scale sqrt((1 + l ln 2) / (n h_l^d)); strictly
    increasing in l."""
    if not 0 <= l <= grid.k_n:
        raise ValueError(f"grid index {l} outside 0..{grid.k_n}")
    h_l = grid.bandwidths[l]
    return math.sqrt((1.0 + l * math.log(2.0)) / (grid.n * h_l**grid.d))


def _threshold_constant(
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
    constant = _threshold_constant(
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
    data: Dataset, levels: Sequence[LocalFitConfig], thresholds: Sequence[float]
) -> SelectionTrace:
    """Run the estimator at every grid level and apply the selection rule.

    ``levels`` holds the fit config of each grid level, finest last: one
    template at x0 with bandwidth h_k (see ``_selection_plan``).  Each level
    is fitted independently on the same data (no warm starts, so results
    do not depend on evaluation order), and the levels are solved as one
    stack.  ``thresholds`` holds each level's threshold C * S_n(l), C from
    ``selection_config``.  An empty dataset is a ValueError, as in
    ``fit_local``.  Where the data's ``_windows`` depth falls short of the
    grid, this raises ``EmptyNeighborhoodError`` for the first empty level,
    carrying its grid index.
    """
    if data.n == 0:
        raise ValueError("dataset is empty")
    windows, (depth,) = _windows(data.x, data.y, data.n, levels, [data.n])
    if depth < len(levels):
        raise EmptyNeighborhoodError(levels[depth].x0, levels[depth].h, grid_index=int(depth))
    estimates = _fit_problems(windows).estimate.tolist()
    chosen, checks = select_index(estimates, thresholds)
    return SelectionTrace(
        estimates=tuple(zip(range(len(levels)), (cfg.h for cfg in levels), estimates)),
        chosen_k=chosen,
        pairwise_checks=checks,
    )


def _selection_plan(
    grid: BandwidthGrid, template: LocalFitConfig, threshold: float
) -> tuple[tuple[LocalFitConfig, ...], tuple[float, ...]]:
    """The arguments of ``select_bandwidth`` on ``grid``: the fit config of
    each level, ``template`` at bandwidth h_k, and its threshold C * S_n(l)
    for threshold constant C = ``threshold``."""
    levels = tuple(replace(template, h=h_k) for h_k in grid.bandwidths)
    thresholds = tuple(threshold * _threshold_scale(l, grid) for l in range(grid.k_n + 1))
    return levels, thresholds

