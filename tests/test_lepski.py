import math
from dataclasses import replace

import numpy as np
import pytest

from roblp.contrast import huber, square
from roblp.kernels import lambda_min, moment_matrix, uniform_kernel
from roblp.basis import multi_index_set
from roblp.lepski import (
    BandwidthGrid,
    bandwidth_grid,
    holder_floor,
    minimax_bandwidth,
    select_bandwidth,
    select_index,
    selection_config,
    _threshold_constant,
    _threshold_scale,
    _selection_plan,
)
from roblp.local_fit import Dataset, EmptyNeighborhoodError, LocalFitConfig


def test_holder_floor():
    assert holder_floor(2.0) == 1
    assert holder_floor(2.5) == 2
    assert holder_floor(1.0) == 0
    assert holder_floor(0.5) == 0
    assert holder_floor(3.0) == 2
    with pytest.raises(ValueError):
        holder_floor(0.0)


def test_minimax_bandwidth_examples():
    assert minimax_bandwidth(2.0, 1.0, 1000, 1) == pytest.approx(1000 ** (-1 / 5))
    # calculator check: beta=1, d=1, L=1, n=1024 -> 2^{-10/3}
    assert minimax_bandwidth(1.0, 1.0, 1024, 1) == pytest.approx(2 ** (-10 / 3), rel=1e-12)
    assert minimax_bandwidth(1.0, 1.0, 1024, 1) == pytest.approx(0.0992, abs=1e-4)
    # clamped into (0, 1]
    assert minimax_bandwidth(2.0, 0.01, 10, 1) == 1.0


def test_minimax_bandwidth_monotonicity():
    hs = [minimax_bandwidth(1.5, 1.0, n, 1) for n in (100, 1000, 10_000)]
    assert hs[0] > hs[1] > hs[2]
    hb = [minimax_bandwidth(b, 1.0, 10_000, 1) for b in (0.5, 1.0, 2.0, 4.0)]
    assert all(h2 > h1 for h1, h2 in zip(hb, hb[1:]))


@pytest.mark.parametrize("lipschitz", [1e-300, 1e300, 1e154], ids=["underflow", "overflow", "infinite-product"])
def test_minimax_bandwidth_rejects_a_non_finite_power(lipschitz):
    with pytest.raises(ValueError, match=r"not a positive finite number for lipschitz=.*, n=4096, beta=2\.0, d=1$"):
        minimax_bandwidth(2.0, lipschitz, 4096, 1)


def test_bandwidth_grid_example():
    # direct arithmetic: n=1e4, d=1, b=2
    grid = bandwidth_grid(10_000, 1, 2)
    assert grid.h_max == pytest.approx(10_000 ** (-1 / 5))
    assert grid.h_max == pytest.approx(0.1585, abs=1e-4)
    assert grid.h_min == pytest.approx(math.log(10_000) ** 2 / 10_000)
    assert grid.h_min == pytest.approx(0.00848, abs=1e-5)
    assert grid.k_n == 4
    assert grid.bandwidths[0] == grid.h_max
    assert all(h >= grid.h_min for h in grid.bandwidths)
    assert 2 ** -5 * grid.h_max < grid.h_min <= 2 ** -4 * grid.h_max
    diffs = np.diff(grid.bandwidths)
    assert np.all(diffs < 0)


def test_bandwidth_grid_errors():
    # for d=1, b=1 the admissible sample sizes are not an interval:
    # h_min > h_max between them, so no single minimal n exists
    for n in (10, 20, 30, 50):
        with pytest.raises(ValueError, match=f"^grid empty: .* for n={n}, d=1, b=1$"):
            bandwidth_grid(n, 1, 1)
    for n in (3, 100):
        assert bandwidth_grid(n, 1, 1).k_n >= 0
    with pytest.raises(ValueError):
        bandwidth_grid(2, 1, 1)
    with pytest.raises(ValueError):
        bandwidth_grid(1000, 1, 0)


def test_threshold_scale_values():
    grid = bandwidth_grid(10_000, 1, 2)
    # l = 0: the log term vanishes
    assert _threshold_scale(0, grid) == pytest.approx(
        math.sqrt(1.0 / (10_000 * grid.h_max))
    )
    # arithmetic oracle at l = 2: sqrt((1 + 2 ln 2) / (n h_max / 4))
    h2 = grid.h_max / 4
    expected = math.sqrt((1 + 2 * math.log(2)) / (10_000 * h2))
    assert _threshold_scale(2, grid) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.07761, abs=1e-5)
    # strictly increasing in l
    scales = [_threshold_scale(l, grid) for l in range(grid.k_n + 1)]
    assert all(s2 > s1 for s1, s2 in zip(scales, scales[1:]))
    with pytest.raises(ValueError):
        _threshold_scale(grid.k_n + 1, grid)


def test_threshold_constant_unit_plugin():
    assert _threshold_constant(1, 1.0, 1.0, 1.0, 1.0, 1.0, 1) == pytest.approx(12.0)
    # doubling the basis size doubles the constant
    assert _threshold_constant(2, 1.0, 1.0, 1.0, 1.0, 1.0, 1) == pytest.approx(24.0)


def test_threshold_constant_rejects_square_contrast():
    with pytest.raises(ValueError):
        _threshold_constant(1, 1.0, 1.0, 1.0, math.inf, 1.0, 1)
    with pytest.raises(ValueError):
        selection_config(square(), uniform_kernel(1), 1, c=0.5)


def test_selection_config_threshold():
    # n_b = 2 basis functions, lambda = 1/12 for the uniform kernel at degree 1
    threshold = selection_config(huber(1.0), uniform_kernel(1), 1, c=0.5, r=2.0)
    expected = (4 * 2 / (0.5 * (1 / 12))) * (1 + 2 * 1.0 * 1.0 * math.sqrt(2.0))
    assert isinstance(threshold, float)
    assert threshold == pytest.approx(expected, rel=1e-14)


def test_selection_config_uses_the_kernel_dimension():
    s = multi_index_set(1, 2)
    lam = lambda_min(moment_matrix(uniform_kernel(2), s))
    k_sup = uniform_kernel(2).sup_norm
    threshold = selection_config(huber(2.0), uniform_kernel(2), 1, c=0.5, r=3.0)
    assert threshold == _threshold_constant(s.size, 0.5, lam, k_sup, 2.0, 3.0, 2)


@pytest.mark.parametrize(
    "c, r", [(0.0, 2.0), (-0.5, 2.0), (math.nan, 2.0), (math.inf, 2.0), (0.5, 0.5), (0.5, math.inf)]
)
def test_selection_config_rejects_bad_inputs(c, r):
    with pytest.raises(ValueError):
        selection_config(huber(1.0), uniform_kernel(1), 1, c=c, r=r)


def test_select_index_rule_walkthrough():
    # hand-walk: estimates (0, 0, 10), thresholds (., 1, 1):
    # k=0 fails against l=2, k=1 fails against l=2, so k_hat = 2
    chosen, checks = select_index([0.0, 0.0, 10.0], [5.0, 1.0, 1.0])
    assert chosen == 2
    rec = {(c.k, c.l): c.passed for c in checks}
    assert rec[(0, 1)] is True
    assert rec[(0, 2)] is False
    assert rec[(1, 2)] is False


def test_select_index_identical_estimates():
    chosen, checks = select_index([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
    assert chosen == 0
    assert all(c.passed for c in checks)


def test_select_index_single_element():
    chosen, checks = select_index([4.2], [0.0])
    assert chosen == 0
    assert checks == ()


def test_select_index_validation():
    with pytest.raises(ValueError):
        select_index([], [])
    with pytest.raises(ValueError):
        select_index([1.0], [1.0, 2.0])


def _selection_inputs(n=240, seed=1, constant=None):
    rng = np.random.default_rng(seed)
    xs = rng.random((n, 1))
    ys = (
        np.full(n, constant)
        if constant is not None
        else np.sin(2 * math.pi * xs[:, 0]) + rng.normal(scale=0.2, size=n)
    )
    data = Dataset(x=xs, y=ys)
    grid = bandwidth_grid(n, 1, 1)
    template = LocalFitConfig(
        x0=(0.5,),
        h=grid.h_max,
        degree=1,
        bound=10.0,
        kernel=uniform_kernel(1),
        contrast=huber(1.0),
    )
    threshold = selection_config(huber(1.0), uniform_kernel(1), 1, c=0.4, r=2.0)
    return data, grid, template, threshold


def _select(data, grid, template, threshold):
    """select_bandwidth on ``grid`` at ``template`` with constant ``threshold``."""
    return select_bandwidth(data, *_selection_plan(grid, template, threshold))


def test_select_bandwidth_constant_data_picks_largest():
    data, grid, template, threshold = _selection_inputs(constant=0.7)
    trace = _select(data, grid, template, threshold)
    assert trace.chosen_k == 0
    assert trace.selected == pytest.approx(0.7, abs=1e-7)
    assert trace.selected_bandwidth == grid.h_max


def test_select_bandwidth_trace_replays():
    data, grid, template, threshold = _selection_inputs()
    trace = _select(data, grid, template, threshold)
    assert len(trace.estimates) == grid.k_n + 1
    assert trace.selected == trace.estimates[trace.chosen_k][2]
    # replay the rule from the recorded estimates and thresholds
    thresholds = [threshold * _threshold_scale(l, grid) for l in range(grid.k_n + 1)]
    chosen, _ = select_index([e for _, _, e in trace.estimates], thresholds)
    assert chosen == trace.chosen_k
    for chk in trace.pairwise_checks:
        assert chk.passed == (chk.difference <= chk.threshold)
    payload = trace.to_dict()
    assert payload["chosen_k"] == trace.chosen_k
    assert len(payload["estimates"]) == grid.k_n + 1


def test_select_bandwidth_deterministic():
    a = _select(*_selection_inputs())
    b = _select(*_selection_inputs())
    assert a == b


def test_select_bandwidth_single_level_grid():
    # n chosen so the dyadic grid collapses to a single bandwidth
    n = 200
    grid = bandwidth_grid(n, 1, 1)
    assert grid.k_n == 0
    rng = np.random.default_rng(3)
    data = Dataset(x=rng.random((n, 1)), y=rng.normal(size=n))
    template = LocalFitConfig(
        x0=(0.5,),
        h=grid.h_max,
        degree=1,
        bound=10.0,
        kernel=uniform_kernel(1),
        contrast=huber(1.0),
    )
    threshold = selection_config(huber(1.0), uniform_kernel(1), 1, c=0.4)
    trace = _select(data, grid, template, threshold)
    assert trace.chosen_k == 0
    assert trace.pairwise_checks == ()


def _clustered_selection_inputs(gap_low, gap_high, n=4096, degree=3):
    # design points avoid (gap_low, gap_high), so windows around 0.5 that
    # fit inside the gap are empty
    rng = np.random.default_rng(11)
    u = rng.random(n)
    width = gap_low + (1.0 - gap_high)
    xs = np.where(u * width < gap_low, u * width, gap_high + (u * width - gap_low))
    data = Dataset(x=xs[:, None], y=rng.normal(size=n))
    grid = bandwidth_grid(n, 1, degree)
    template = LocalFitConfig(
        x0=(0.5,),
        h=1.0,
        degree=degree,
        bound=8.0,
        kernel=uniform_kernel(1),
        contrast=huber(1.0),
    )
    threshold = selection_config(huber(1.0), uniform_kernel(1), degree, c=0.4, r=2.0)
    return data, grid, template, threshold


@pytest.mark.parametrize(
    "gap_low, gap_high, empty_k",
    [
        (0.2, 0.8, 0),  # every window around 0.5 is empty
        (0.45, 0.55, 2),  # h_0 and h_1 reach the data, h_2 = 0.076 does not
    ],
)
def test_select_bandwidth_empty_window_names_grid_index(gap_low, gap_high, empty_k):
    data, grid, template, threshold = _clustered_selection_inputs(gap_low, gap_high)
    with pytest.raises(EmptyNeighborhoodError, match=f"grid index k={empty_k}") as exc:
        _select(data, grid, template, threshold)
    assert exc.value.grid_index == empty_k
    assert exc.value.x0 == (0.5,)
    assert exc.value.h == grid.bandwidths[empty_k]


def test_select_bandwidth_rejects_levels_that_are_not_a_chain_of_windows():
    # the level h = 0.2 lies inside the first window, not inside the h = 0.1
    # one before it
    data, grid, template, threshold = _selection_inputs()
    levels, thresholds = _selection_plan(grid, template, threshold)
    levels = [replace(levels[0], h=h) for h in (0.4, 0.1, 0.2)]
    with pytest.raises(ValueError, match=r"fit config 2 \(.*\) lies outside the window of fit config 1"):
        select_bandwidth(data, levels, thresholds[:3])
