import dataclasses
import json
import math
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from roblp.contrast import huber, square
from roblp.harness import (
    BLOCK_REPLICATIONS,
    ComparisonRow,
    Estimator,
    RiskPoint,
    RiskReport,
    TooManyFailuresError,
    compare_contrasts,
    _deviation_bound,
    deviation_bound_threshold,
    rate_fit,
    risk_curve,
    tail_check,
    _wilson_half_width,
)
from roblp.kernels import procedure_constants, uniform_kernel
from roblp.basis import multi_index_set
from roblp.lepski import select_bandwidth
from roblp.local_fit import Dataset, LocalFitConfig, OptimizerSettings, fit_local
from roblp.simulate import NoiseModel, constant_function, gen_data, gen_window, sinusoid

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def _report_from_risks(n_grid, risks, r=2.0):
    points = tuple(
        RiskPoint(n=n, risk=risk, stderr=0.0, replications=100, failures=0)
        for n, risk in zip(n_grid, risks)
    )
    return RiskReport(points=points, r=r, seed=0, estimator={})


def test_rate_fit_recovers_planted_exponent():
    n_grid = [512, 1024, 2048, 4096, 8192]
    risks = [3.7 * n ** (-0.8) for n in n_grid]  # r=2: slope -0.4
    fit = rate_fit(_report_from_risks(n_grid, risks), target=-0.4)
    assert fit.slope == pytest.approx(-0.4, abs=1e-12)
    assert fit.gap == pytest.approx(0.0, abs=1e-12)
    assert fit.residual_spread < 1e-12


def test_rate_fit_constant_risks():
    fit = rate_fit(_report_from_risks([512, 1024, 2048, 4096], [0.3] * 4), target=-0.4)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_target_value():
    # beta=2, d=1 target exponent
    beta, d = 2.0, 1
    assert -beta / (2 * beta + d) == pytest.approx(-0.4)


def test_rate_fit_validates_grid():
    with pytest.raises(ValueError):
        rate_fit(_report_from_risks([512, 1024, 2048], [1, 1, 1]), target=-0.4)
    with pytest.raises(ValueError):
        rate_fit(_report_from_risks([512, 600, 700, 800], [1, 1, 1, 1]), target=-0.4)


def test_risk_curve_zero_noise_polynomial():
    f = constant_function(0.5)
    model = NoiseModel(family="gaussian", base_scale=1e-300)
    est = Estimator(
        kind="fixed",
        contrast=huber(1.0),
        kernel_kind="uniform",
        bound=2.0,
        h=0.5,
        degree=0,
        optimizer=OptimizerSettings(gradient_tolerance=1e-12),
    )
    pt = risk_curve(est, f, [0.5], model, 2.0, [64], 30, seed=5).points[0]
    assert pt.risk <= 1e-10
    assert pt.failures == 0


def test_risk_curve_bounded_by_radius():
    f = sinusoid(beta=2.0)
    model = NoiseModel(family="cauchy", base_scale=1.0)
    bound = 8.0
    est = Estimator(
        kind="fixed", contrast=huber(1.0), kernel_kind="uniform", bound=bound, h=0.3, degree=1
    )
    pt = risk_curve(est, f, [0.25], model, 2.0, [128], 30, seed=6).points[0]
    assert pt.risk <= (2 * bound) ** 2
    assert math.isfinite(pt.risk)


def test_risk_curve_matches_local_mean_oracle():
    # closed-form oracle: degree 0, uniform kernel, huge huber threshold
    # is the in-window sample mean
    f = sinusoid(beta=2.0)
    model = NoiseModel(family="gaussian", base_scale=0.5)
    x0, h, n, reps, r = [0.25], 0.31, 256, 200, 2.0
    est = Estimator(
        kind="fixed",
        contrast=huber(1e7),
        kernel_kind="uniform",
        bound=10.0,
        h=h,
        degree=0,
        optimizer=OptimizerSettings(gradient_tolerance=1e-12),
    )
    pt = risk_curve(est, f, x0, model, r, [n], reps, seed=10).points[0]
    target = float(f(np.array(x0)))
    oracle_errs = []
    for rep in range(reps):
        data = gen_data(f, model, n, 1, (10, rep))
        inside = np.abs(data.x[:, 0] - x0[0]) <= h / 2
        oracle_errs.append((np.clip(data.y[inside].mean(), -10, 10) - target) ** r)
    oracle_risk = float(np.mean(oracle_errs))
    se = float(np.std(oracle_errs, ddof=1) / math.sqrt(reps))
    assert abs(pt.risk - oracle_risk) <= 2 * se + 1e-12


def test_risk_curve_rejects_low_replications():
    f = constant_function(0.0)
    model = NoiseModel(family="gaussian", base_scale=1.0)
    est = Estimator(
        kind="fixed", contrast=huber(1.0), kernel_kind="uniform", bound=1.0, h=0.5, degree=0
    )
    with pytest.raises(ValueError):
        risk_curve(est, f, [0.5], model, 2.0, [64], 10, seed=1)


def test_risk_curve_aborts_on_frequent_empty_windows():
    f = constant_function(0.0)
    model = NoiseModel(family="gaussian", base_scale=1.0)
    est = Estimator(
        kind="fixed", contrast=huber(1.0), kernel_kind="uniform", bound=1.0, h=0.002, degree=0
    )
    with pytest.raises(RuntimeError, match="empty windows"):
        risk_curve(est, f, [0.5], model, 2.0, [8], 40, seed=2)


def test_risk_monotonicity_soft_guard():
    # soft regression guard: minimax risk decreases in n within 2 SEs
    f = sinusoid(beta=2.0)
    model = NoiseModel(family="gaussian", base_scale=0.5)
    est = Estimator(
        kind="minimax",
        contrast=huber(1.0),
        kernel_kind="uniform",
        bound=8.0,
        beta=2.0,
        lipschitz=f.lipschitz,
    )
    report = risk_curve(est, f, [0.25], model, 2.0, [512, 2048, 8192], 80, seed=3)
    for a, b in zip(report.points, report.points[1:]):
        assert b.risk <= a.risk + 2 * (a.stderr + b.stderr)


def test_wilson_half_width():
    # against the textbook formula at p-hat = 0.5
    hw = _wilson_half_width(50, 100)
    z = 1.96
    denom = 1 + z * z / 100
    expected = (z / denom) * math.sqrt(0.25 / 100 + z * z / 40000)
    assert hw == pytest.approx(expected, rel=1e-12)
    assert _wilson_half_width(0, 100) > 0  # informative even with zero counts
    with pytest.raises(ValueError):
        _wilson_half_width(0, 0)


def test_deviation_bound_shape():
    kwargs = dict(n_b=2, sigma=1e8, lam=1 / 12, c=0.4, k_sup=1.0, rho_prime_sup=1.0, u=1.0, nhd=60.0)
    eps0 = deviation_bound_threshold(2, 0.4, 1 / 12, 1.0)
    # at the validity edge c lam eps / (2 n_b) = 2u, so the exponent
    # numerator is (2u - u)^2 = u^2, not zero
    clam = 0.4 / 12
    assert clam * eps0 / (2 * 2) == pytest.approx(2.0)
    vals = [_deviation_bound(eps, **kwargs) for eps in (eps0, 2 * eps0, 4 * eps0, 8 * eps0)]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))  # decreasing beyond the edge
    assert vals[0] == pytest.approx(
        2 * 1e8 * math.exp(-1.0 / (8 + (4 / 6) * clam * eps0 / math.sqrt(60.0)))
    )


def test_deviation_bound_tends_to_its_limits_where_a_square_overflows():
    kwargs = dict(n_b=2, sigma=3.0, lam=0.1, c=0.5, k_sup=1.0, u=1.0, nhd=50.0)
    # rho'^2 beyond float range: the exponent tends to 0, the bound to n_b sigma
    assert _deviation_bound(100.0, rho_prime_sup=1e308, **kwargs) == 6.0
    # (c lam eps / (2 n_b) - u)^2 beyond float range: the bound tends to 0
    assert _deviation_bound(1e200, rho_prime_sup=1.0, **kwargs) == 0.0
    # c lam eps itself beyond float range: so does it
    assert _deviation_bound(1e308, rho_prime_sup=1.0, **{**kwargs, "c": 1e300}) == 0.0


def test_tail_check_report_structure():
    f = sinusoid(beta=2.0)
    model = NoiseModel(family="gaussian", base_scale=0.5)
    cfg = LocalFitConfig(
        x0=(0.25,),
        h=0.15,
        degree=1,
        bound=8.0,
        kernel=uniform_kernel(1),
        contrast=huber(1.0),
    )
    constants = procedure_constants(cfg.kernel, cfg.index_set, c=0.38)
    n = 256
    bias = f.lipschitz * cfg.h**f.beta
    u = max(1.0, bias * math.sqrt(n * cfg.h))
    eps_min = deviation_bound_threshold(2, 0.38, constants.lam, u)
    grid = [0.5 * eps_min, eps_min, 12 * eps_min]
    report = tail_check(f, model, cfg, constants, grid, n=n, replications=200, seed=4)
    assert report.eps_min == pytest.approx(eps_min, rel=1e-12)
    assert report.points[0].valid is False
    assert report.points[0].bound is None
    assert report.points[1].valid
    assert report.points[1].bound > 1  # edge of validity is uninformative here
    assert len(report.points) == 3
    assert report.failures == 0
    assert 0 <= report.points[1].empirical <= 1
    assert "localization" in report.caveat


def fixed_huber() -> Estimator:
    return Estimator(kind="fixed", contrast=huber(1.0), kernel_kind="uniform", bound=2.0, h=0.4, degree=0)


def test_compare_contrasts_zero_noise_agreement():
    f = constant_function(0.4)
    model = NoiseModel(family="gaussian", base_scale=1e-300)
    rows = compare_contrasts(fixed_huber(), f, [0.5], model, n=128, replications=40, seed=8)
    assert [r.name for r in rows] == ["square", "absolute_proxy", "huber(1)"]
    for row in rows:
        assert row.risk <= 1e-12


def test_estimator_validation_and_description():
    with pytest.raises(ValueError):
        Estimator(kind="fixed", contrast=huber(1.0), kernel_kind="uniform", bound=1.0)
    with pytest.raises(ValueError):
        Estimator(kind="minimax", contrast=huber(1.0), kernel_kind="uniform", bound=1.0)
    with pytest.raises(ValueError):
        Estimator(kind="adaptive", contrast=huber(1.0), kernel_kind="uniform", bound=1.0, degree=2)
    est = Estimator(
        kind="minimax", contrast=huber(1.0), kernel_kind="uniform", bound=8.0, beta=2.0, lipschitz=39.5
    )
    assert est.fit_degree() == 1
    desc = est.describe()
    assert desc["kind"] == "minimax" and desc["beta"] == 2.0
    assert est.fit_config([0.5], 1024).h == pytest.approx((39.5**2 * 1024) ** (-0.2))
    # one plan per (x0, n), whatever the kind or the form of x0
    assert est.plan([0.5], 1024) is est.plan((0.5,), 1024) is est.plan(0.5, 1024)
    with pytest.raises(ValueError, match="selection trace only defined for the adaptive kind"):
        est.selection_trace(Dataset(x=np.full((4, 1), 0.5), y=np.zeros(4)), [0.5])
    adaptive = Estimator(
        kind="adaptive", contrast=huber(1.0), kernel_kind="uniform", bound=8.0, degree=2, curvature=0.1
    )
    assert adaptive.plan([0.5], 1024) is adaptive.plan([0.5], 1024)
    with pytest.raises(ValueError, match="adaptive estimator has no single bandwidth"):
        adaptive.fit_config([0.5], 1024)


@pytest.mark.parametrize("kind", ["fixed", "minimax", "adaptive"])
def test_estimate_is_the_single_fit_or_the_selected_estimate(kind):
    f, model = sinusoid(beta=2.0), NoiseModel(family="gaussian", base_scale=0.5)
    fields = {
        "fixed": dict(h=0.2, degree=1),
        "minimax": dict(beta=2.0, lipschitz=f.lipschitz),
        "adaptive": dict(degree=2, curvature=0.1),
    }[kind]
    est = Estimator(kind=kind, contrast=huber(1.0), kernel_kind="uniform", bound=8.0, **fields)
    data, x0 = gen_data(f, model, 1024, 1, (31, 0)), (0.25,)
    if kind == "adaptive":
        expected = est.selection_trace(data, x0).selected
    else:
        expected = fit_local(data, est.fit_config(x0, data.n)).estimate
    assert est.estimate(data, x0) == expected


def test_risk_curve_parallel_matches_sequential():
    f = sinusoid(beta=2.0)
    model = NoiseModel(family="gaussian", base_scale=0.5)
    est = Estimator(
        kind="fixed", contrast=huber(1.0), kernel_kind="uniform", bound=8.0, h=0.2, degree=1
    )
    seq = risk_curve(est, f, [0.25], model, 2.0, [128], 32, seed=12, workers=1)
    par = risk_curve(est, f, [0.25], model, 2.0, [128], 32, seed=12, workers=2)
    assert par == seq


def _cap_stacks(monkeypatch, cap):
    """Set the solver stacks' working-set budget to that of ``cap`` chunks
    at N_b = 4 (degree 3 in one dimension), which caps a stack at ``cap``
    chunks at degree 3 and more at degree 1; 512 is the shipped budget."""
    import roblp.local_fit as local_fit

    a, b = local_fit._CHUNK_ARRAYS
    monkeypatch.setattr(local_fit, "_STACK_ARRAYS", cap * (4 * a + b))


def _replication_cases():
    """(plan, noise) on the sinusoid, the plan a function of x0 and n that
    returns the fit configs and thresholds of ``Estimator.plan``: of the
    minimax kind under Cauchy noise, of the adaptive kind, and of a
    compare table, a fixed bandwidth under square, Huber(1e-6) and Huber(1)
    loss, under Cauchy noise."""
    f = sinusoid(beta=2.0)
    minimax = Estimator(
        kind="minimax", contrast=huber(1.0), kernel_kind="uniform", bound=8.0, beta=2.0, lipschitz=f.lipschitz
    )
    adaptive = Estimator(
        kind="adaptive", contrast=huber(1.0), kernel_kind="uniform", bound=8.0, degree=2, curvature=0.38
    )
    fixed = Estimator(
        kind="fixed", contrast=huber(1.0), kernel_kind="uniform", bound=8.0, h=0.08, degree=1,
        optimizer=OptimizerSettings(max_iterations=200),
    )

    def compare(x0, n):
        (cfg,), thresholds = fixed.plan(x0, n)
        contrasts = (square(), huber(1e-6), huber(1.0))
        return tuple(dataclasses.replace(cfg, contrast=c) for c in contrasts), thresholds

    cauchy = NoiseModel(family="cauchy", base_scale=1.0)
    return [
        (minimax.plan, cauchy),
        (adaptive.plan, NoiseModel(family="gaussian", base_scale=0.5)),
        (compare, cauchy),
    ]


CASES = dict(argnames="case", argvalues=[0, 1, 2], ids=["minimax-cauchy", "adaptive", "compare"])


def replication_data(f, model, n: int, seed: int, rep: int, configs) -> Dataset:
    """Replication ``rep`` of a run seeded ``seed`` as a sample of size n:
    its rows in the plan's first window, as ``gen_window`` draws them, in
    order, padded with rows at the corner of [0,1]^d farthest from x0,
    outside that window.  A fit on it sees the window a block cuts from
    the same rows, at the same n."""
    x0, h = np.asarray(configs[0].x0), configs[0].h
    x, y, _ = gen_window(f, model, n, len(x0), seed, [rep], (x0, h))
    far = np.where(x0 < 0.5, 1.0, 0.0)
    assert np.abs(far - x0).max() > h / 2.0
    pad = n - len(y)
    return Dataset(x=np.concatenate([x, np.tile(far, (pad, 1))]), y=np.concatenate([y, np.zeros(pad)]))


@pytest.mark.parametrize(**CASES)
def test_replication_errors_do_not_depend_on_the_block_size(monkeypatch, case):
    import roblp.harness as harness

    plan, model = _replication_cases()[case]
    f, x0, n, reps, seed = sinusoid(beta=2.0), [0.25], 600, 23, 14
    configs, thresholds = plan(x0, n)
    draws = [replication_data(f, model, n, seed, rep, configs) for rep in range(reps)]
    single = [[fit_local(data, cfg).estimate for cfg in configs] for data in draws]
    for size, cap in ((1, 512), (7, 1), (reps, 64), (reps, 512)):
        monkeypatch.setattr(harness, "BLOCK_REPLICATIONS", size)
        _cap_stacks(monkeypatch, cap)
        (est,) = harness._replication_estimates([(configs, n)], f, model, reps, seed)
        np.testing.assert_array_equal(est, single)
    if thresholds is not None:  # the rule in the parent picks the selection's estimate
        selected = est[np.arange(reps), harness._choices(est, thresholds)]
        expected = [select_bandwidth(data, configs, thresholds).selected for data in draws]
        np.testing.assert_array_equal(selected, expected)


@pytest.mark.parametrize(**CASES)
def test_replication_errors_mark_empty_windows_nan(monkeypatch, case):
    import roblp.harness as harness
    from roblp.local_fit import _box_rows, _windows

    def holed(f, model, n, d, seed, reps, box):
        # odd replications have no design point within 0.04 of x0: the
        # minimax and the compare window and the finest grid level are empty
        xs, ys = [], []
        for rep in reps:
            x, y, _ = gen_window(f, model, n, d, seed, [rep], box)
            if rep % 2:
                near = np.abs(x[:, 0] - 0.25) <= 0.04
                x[near, 0] += 0.1
            rows = _box_rows(x, *box)
            xs.append(x[rows])
            ys.append(y[rows])
        return np.concatenate(xs), np.concatenate(ys), np.array([len(y) for y in ys])

    monkeypatch.setattr(harness, "gen_window", holed)
    plan, model = _replication_cases()[case]
    f, x0, n, reps, seed = sinusoid(beta=2.0), [0.25], 600, 12, 16
    configs, _ = plan(x0, n)
    (est,) = harness._replication_estimates([(configs, n)], f, model, reps, seed)
    assert np.isnan(est[1::2]).all()
    for rep in range(0, reps, 2):
        data = replication_data(f, model, n, seed, rep, configs)
        assert list(est[rep]) == [fit_local(data, cfg).estimate for cfg in configs]
    x, y, _ = holed(f, model, n, 1, seed, [1], (configs[0].x0, configs[0].h))
    _, [(depth,)] = _windows([(x, y, n, configs, [len(y)])])
    assert depth < len(configs)  # an empty window: replication 1 is a NaN row


def test_a_replication_that_draws_no_row_is_a_counted_nan_row():
    # at n=52 a window of side 0.1 is empty with probability 0.9^52, about
    # 0.42%: the replications whose drawn row count is 0 are the NaN rows,
    # and the risk point counts them as failures. 4000 replications expect
    # about 16.7 empty windows; none, or more than the 1% (40) a risk point
    # allows, each has Poisson probability below 1e-6 under any stream
    import roblp.harness as harness

    f, model, n, reps, seed = constant_function(0.4), NoiseModel(family="gaussian"), 52, 4000, 5
    est = Estimator(kind="fixed", contrast=huber(1.0), kernel_kind="uniform", bound=2.0, h=0.1, degree=0)
    configs, _ = est.plan([0.5], n)
    _, _, counts = gen_window(f, model, n, 1, seed, range(reps), (configs[0].x0, configs[0].h))
    (estimates,) = harness._replication_estimates([(configs, n)], f, model, reps, seed)
    empty = counts == 0
    assert 0 < empty.sum() <= 0.01 * reps
    assert np.isnan(estimates[:, 0]).tolist() == empty.tolist()
    (point,) = risk_curve(est, f, [0.5], model, 2.0, [n], reps, seed).points
    assert point.failures == empty.sum() and math.isfinite(point.risk)


@pytest.mark.parametrize(**CASES)
def test_replication_errors_parallel_match_sequential(case):
    import roblp.harness as harness

    plan, model = _replication_cases()[case]
    jobs = [(plan([0.25], n)[0], n) for n in (600, 700)]
    args = (jobs, sinusoid(beta=2.0), model, 40, 15)
    serial, parallel = (harness._replication_estimates(*args, workers=w) for w in (1, 2))
    assert len(serial) == len(parallel) == 2
    for s, p in zip(serial, parallel):
        np.testing.assert_array_equal(s, p)


def test_a_plan_whose_windows_leave_its_first_window_is_rejected():
    # a block draws only the rows of the plan's first window, so a config
    # around another point, or wider, would be cut from too few rows;
    # _windows rejects each such plan, as one not nested in the window
    # before it
    import roblp.harness as harness

    f, n = sinusoid(beta=2.0), 600
    (plan, model), (grid, _) = _replication_cases()[:2]
    (cfg,) = plan([0.25], n)[0]
    levels = grid([0.25], n)[0]
    for configs in (
        (cfg, dataclasses.replace(cfg, x0=(0.3,))),
        (cfg, dataclasses.replace(cfg, h=cfg.h * 1.5)),
        levels[::-1],
    ):
        with pytest.raises(ValueError, match=r"fit config 1 \(.*\) lies outside the window of fit config 0"):
            harness._replication_estimates([(configs, n)], f, model, 4, 17)


def _shipped_plan(name: str, n: int) -> tuple:
    """The fit configs of one estimate at n samples under the shipped
    config ``name``, its test function and its noise model.  Of a compare
    config, the three contrasts of its table, as ``compare_contrasts``
    builds them, at an iteration cap of 200 to keep the test short."""
    from roblp.experiments import _estimator, _noise_model, _test_function

    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    model = _noise_model(cfg["noise"])
    configs, _ = _estimator(cfg["estimator"], model).plan(cfg["estimator"]["x0"], n)
    if cfg["experiment"] == "compare":
        (fit,) = configs
        fit = dataclasses.replace(fit, optimizer=OptimizerSettings(max_iterations=200))
        configs = tuple(dataclasses.replace(fit, contrast=c) for c in (square(), huber(1e-6), fit.contrast))
    return configs, _test_function(cfg["function"], model), model


def _rates_cauchy_plan(n: int) -> tuple:
    """The fit config of one estimate at n samples in the criterion-2
    Cauchy rates study, as the rates_cauchy benchmark runs it (minimax
    bandwidth, Huber(1) loss, uniform kernel, on the sinusoid at x0 =
    0.25), its test function and its noise model."""
    f = sinusoid(beta=2.0)
    est = Estimator(
        kind="minimax", contrast=huber(1.0), kernel_kind="uniform", bound=8.0, beta=2.0, lipschitz=f.lipschitz
    )
    return est.plan([0.25], n)[0], f, NoiseModel(family="cauchy", base_scale=1.0)


RATES_N = [512, 1024, 2048, 4096, 8192, 16384]


@pytest.mark.parametrize("cap", [512, 8])
@pytest.mark.parametrize(
    "name, n_values, reps, expected",
    [
        ("tails_gaussian", [1024], 64, [(64, 81)]),
        ("tails_gaussian", [1024], BLOCK_REPLICATIONS, [(512, 631)]),
        ("compare_cauchy", [1024], 64, [(64, 81)] * 3),
        ("rates_adaptive", [4096], 60, [(25, 497), (25, 497), (41, 512), (69, 508), (140, 403)]),
        ("rates_cauchy", RATES_N, 30, [(180, 652)]),
    ],
    ids=["tails", "tails_block", "compare", "adaptive", "rates"],
)
def test_a_block_packs_its_plan_into_maximal_runs_of_one_settings_key(
    monkeypatch, name, n_values, reps, expected, cap
):
    # a run of one block makes one solver call, on the windows of every
    # job of the run, job after job; its _fit_stack calls, as (windows,
    # chunks), cover those windows once, in order, a run of one settings
    # key each, and a stack ends only at a key change or where the next
    # window would pass the cap.  At the shipped budget (512 degree-3
    # chunks), the stacks are those listed: a degree-1 block is one stack
    # (a tails block of the shipped size, and the six jobs of a
    # rates_cauchy run of 30 replications, not one stack each), and a
    # degree-3 rates_adaptive block, of up to 512 chunks a stack, spans
    # five.  One _windows call cuts
    # every job's windows, and reads each job as it is drawn, so a job's
    # drawn rows are cut before the next job is drawn
    import roblp.harness as harness
    import roblp.local_fit as local_fit

    _cap_stacks(monkeypatch, cap)
    plans, stacks, events = [], [], []
    fit_problems, fit_stack = local_fit._fit_problems, local_fit._fit_stack

    def recording_draw(*args):
        events.append("draw")
        return gen_window(*args)

    def recording_cut(jobs):
        events.append("cut")

        def reading():
            for job in jobs:
                events.append("read")
                yield job

        return local_fit._windows(reading())

    monkeypatch.setattr(harness, "gen_window", recording_draw)
    monkeypatch.setattr(harness, "_windows", recording_cut)

    def recording_plan(windows):
        plans.append(windows)
        return fit_problems(windows)

    def recording_stack(windows, fits):
        stacks.append(windows)
        return fit_stack(windows, fits)

    monkeypatch.setattr(harness, "_fit_problems", recording_plan)
    monkeypatch.setattr(local_fit, "_fit_stack", recording_stack)
    jobs = []
    for n in n_values:
        configs, f, model = _rates_cauchy_plan(n) if name == "rates_cauchy" else _shipped_plan(name, n)
        jobs.append((configs, n))
    harness._replication_estimates(jobs, f, model, reps, 100)
    assert events == ["cut"] + ["draw", "read"] * len(jobs)
    (plan,) = plans
    assert list(plan.configs) == [cfg for configs, _ in jobs for cfg in configs]
    assert plan.size == reps * len(plan.configs)  # no window is empty
    chunks = local_fit._Stack.chunk_count(plan.n_local).tolist()
    limit = local_fit._stack_chunks(plan.configs[0].index_set.size)
    keys = [(c.x0, c.degree, c.kernel, c.bound, c.contrast, c.optimizer) for c in plan.configs]
    key = [keys[k] for k in plan.config.tolist()]
    first, sizes = 0, []
    for stack in stacks:
        last = first + stack.size
        rows = slice(plan.n_local[:first].sum(), plan.n_local[:last].sum())
        assert stack.first == first and stack.size > 0
        assert stack.n_local.tolist() == plan.n_local[first:last].tolist()
        assert stack.config.tolist() == plan.config[first:last].tolist()
        assert stack.x.tobytes() == plan.x[rows].tobytes() and stack.y.tobytes() == plan.y[rows].tobytes()
        assert len(set(key[first:last])) == 1
        assert sum(chunks[first:last]) <= limit or stack.size == 1
        if last < plan.size:
            assert key[last] != key[first] or sum(chunks[first : last + 1]) > limit
        sizes.append((stack.size, sum(chunks[first:last])))
        first = last
    assert first == plan.size
    if cap == 512:
        assert sizes == expected
    else:
        assert len(sizes) > len(expected)


@pytest.mark.parametrize("replications", [0, -3])
def test_a_replication_count_below_one_is_named(replications):
    import roblp.harness as harness

    plan, model = _replication_cases()[0]
    with pytest.raises(ValueError, match=f"need at least 1 replication, got {replications}$"):
        harness._replication_estimates(
            [(plan([0.25], 600)[0], 600)], sinusoid(beta=2.0), model, replications, 17
        )
    with pytest.raises(ValueError, match=f"need at least 1 replication, got {replications}$"):
        compare_contrasts(
            fixed_huber(), constant_function(0.4), [0.5], model, n=128, replications=replications, seed=8
        )


@pytest.fixture
def pools(monkeypatch):
    """The pools opened while the test runs: ``opened`` holds their sizes
    and ``initializers`` their worker initializers, ``maps`` and
    ``shutdowns`` count the calls made to them.  An in-process stand-in
    replaces the process pool, so none starts a process."""
    import concurrent.futures

    pools = types.SimpleNamespace(opened=[], initializers=[], maps=0, shutdowns=0)

    class Recording:
        """Stands in for the pool: records its size, initializer and calls,
        and maps in process."""

        def __init__(self, max_workers, mp_context=None, initializer=None):
            pools.opened.append(max_workers)
            pools.initializers.append(initializer)

        def map(self, fn, tasks):
            pools.maps += 1
            return map(fn, tasks)

        def shutdown(self, wait=True, cancel_futures=False):
            pools.shutdowns += 1

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return pools


def test_pool_size_is_bounded_by_the_cpus_and_the_blocks(monkeypatch, pools):
    import roblp.harness as harness

    est = Estimator(kind="fixed", contrast=huber(1.0), kernel_kind="uniform", bound=8.0, h=0.2, degree=1)
    jobs = [(est.plan([0.25], 128)[0], 128)]
    args = (jobs, sinusoid(beta=2.0), NoiseModel(family="gaussian", base_scale=0.5))
    (serial,) = harness._replication_estimates(*args, 30, 12, workers=1)
    # the CPUs of the process's affinity mask count, not the machine's.
    # Each pooled case below asks for another size than the case before,
    # so it replaces the live pool: one pool opened and one map per pooled
    # run, none for a one-process run
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
    for cpus, reps, expected in ((4, 30, [4]), (1000, 3, [3]), (1, 30, [])):
        pools.opened.clear()
        maps = pools.maps
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        (est_reps,) = harness._replication_estimates(*args, reps, 12, workers=100000)
        assert pools.opened == expected and pools.maps - maps == len(expected)
        np.testing.assert_array_equal(est_reps, serial[:reps])
    # without an affinity mask, the machine's count; none known, one process
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    for cpus, reps, expected in ((4, 30, [4]), (1000, 3, [3]), (None, 30, []), (1, 30, [])):
        pools.opened.clear()
        maps = pools.maps
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        (est_reps,) = harness._replication_estimates(*args, reps, 12, workers=100000)
        assert pools.opened == expected and pools.maps - maps == len(expected)
        np.testing.assert_array_equal(est_reps, serial[:reps])
    assert pools.shutdowns == 3  # each pool but the live one


def test_a_run_opens_one_pool_for_all_its_jobs(monkeypatch, pools):
    import roblp.harness as harness

    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    f, model = sinusoid(beta=2.0), NoiseModel(family="gaussian", base_scale=0.5)
    est = Estimator(
        kind="minimax", contrast=huber(1.0), kernel_kind="uniform", bound=8.0, beta=2.0, lipschitz=f.lipschitz
    )
    runs = {
        "rates": lambda workers: risk_curve(est, f, [0.25], model, 2.0, [256, 512, 1024], 30, 21, workers),
        "compare": lambda workers: compare_contrasts(fixed_huber(), f, [0.25], model, 128, 30, 22, workers=workers),
    }
    # each pooled run maps its every job in one call, through the one pool
    # the first opened; a serial run calls none
    for name, run in runs.items():
        maps = pools.maps
        serial = run(1)
        assert pools.maps == maps, name
        assert run(2) == serial, name
        assert pools.maps == maps + 1, name
    assert pools.opened == [2] and pools.shutdowns == 0
    # a run of one block calls none
    harness._replication_estimates([(est.plan([0.25], 256)[0], 256)], f, model, 1, 23, workers=2)
    assert pools.opened == [2] and pools.maps == 2


def test_a_run_cuts_each_job_into_contiguous_blocks(monkeypatch, pools):
    # the (sample sizes, reps) of every task handed to _block_estimates, in
    # order: blocks of BLOCK_REPLICATIONS on one worker, or fewer so that
    # each worker gets one; a task is one block across every job of the
    # run, and each job's estimates join up in order
    import roblp.harness as harness

    assert BLOCK_REPLICATIONS == 512
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(2)), raising=False)
    est = Estimator(kind="fixed", contrast=huber(1.0), kernel_kind="uniform", bound=8.0, h=0.25, degree=0)
    f, model = sinusoid(beta=2.0), NoiseModel(family="gaussian", base_scale=0.5)
    blocks, block_estimates = [], harness._block_estimates

    def recording(task):
        jobs, _, _, _, reps = task
        blocks.append(([n for _, n in jobs], reps))
        return block_estimates(task)

    monkeypatch.setattr(harness, "_block_estimates", recording)
    jobs = [(est.plan([0.25], n)[0], n) for n in (64, 96)]
    runs = {}
    for workers, expected in ((1, [range(0, 512), range(512, 1000)]), (2, [range(0, 500), range(500, 1000)])):
        blocks.clear()
        maps = pools.maps
        runs[workers] = harness._replication_estimates(jobs, f, model, 1000, 31, workers)
        assert blocks == [([64, 96], reps) for reps in expected]
        assert pools.maps - maps == (1 if workers == 2 else 0)
    assert pools.opened == [2]
    for serial, parallel in zip(runs[1], runs[2], strict=True):
        assert serial.shape == (1000, 1)
        np.testing.assert_array_equal(serial, parallel)
    blocks.clear()
    (alone,) = harness._replication_estimates(jobs[:1], f, model, 1000, 31)
    assert blocks == [([64], reps) for reps in (range(0, 512), range(512, 1000))]
    np.testing.assert_array_equal(alone, runs[1][0])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cap", [512, 8])
def test_a_job_does_not_depend_on_its_run_mates(monkeypatch, workers, cap):
    # each job's estimates are the bits of the job run alone, whichever
    # jobs share its blocks and stacks: two minimax jobs at different n,
    # whose windows share stacks, and a compare table between them, at one
    # and two workers and at a cap that cuts stacks inside and across jobs
    import roblp.harness as harness

    _cap_stacks(monkeypatch, cap)
    (minimax, model), _, (compare, _) = _replication_cases()
    jobs = [(minimax([0.25], 600)[0], 600), (compare([0.25], 700)[0], 700), (minimax([0.25], 900)[0], 900)]
    args = (sinusoid(beta=2.0), model, 40, 18)
    together = harness._replication_estimates(jobs, *args, workers=workers)
    assert len(together) == len(jobs)
    for job, estimates in zip(jobs, together):
        (alone,) = harness._replication_estimates([job], *args, workers=workers)
        assert estimates.shape == alone.shape and estimates.tobytes() == alone.tobytes()


def _drawing_nothing_at(sizes):
    """A stand-in for ``gen_window`` that draws no row at the sample sizes
    ``sizes`` (every window of those jobs is empty) and the real rows at
    any other."""

    def drawing(f, model, n, d, seed, reps, box):
        if n in sizes:
            return np.zeros((0, d)), np.zeros(0), np.zeros(len(reps), dtype=int)
        return gen_window(f, model, n, d, seed, reps, box)

    return drawing


def test_a_job_of_empty_windows_beside_a_full_one_is_nan_alone(monkeypatch):
    # every replication of the job at n=600 draws no row: its rows are all
    # NaN, the job at n=700 beside it in every block keeps the estimates it
    # has alone, and the 1% abort rule names n=600
    import roblp.harness as harness

    (minimax, model) = _replication_cases()[0]
    f, reps, seed = sinusoid(beta=2.0), 30, 19
    jobs = [(minimax([0.25], n)[0], n) for n in (600, 700)]
    (full,) = harness._replication_estimates(jobs[1:], f, model, reps, seed)
    monkeypatch.setattr(harness, "gen_window", _drawing_nothing_at({600}))
    empty, beside = harness._replication_estimates(jobs, f, model, reps, seed)
    assert np.isnan(empty).all() and empty.shape == (reps, 1)
    assert not np.isnan(beside).any() and beside.tobytes() == full.tobytes()
    est = Estimator(
        kind="minimax", contrast=huber(1.0), kernel_kind="uniform", bound=8.0, beta=2.0, lipschitz=f.lipschitz
    )
    with pytest.raises(TooManyFailuresError, match=r"^30/30 replications had empty windows at n=600,"):
        risk_curve(est, f, [0.25], model, 2.0, [700, 600], reps, seed)


def test_a_block_whose_every_job_is_empty_is_all_nan(monkeypatch):
    # no job of the block has a window: the solver gets none, and every
    # row of every job, of one config or three, is NaN
    import roblp.harness as harness

    (minimax, model), _, (compare, _) = _replication_cases()
    jobs = [(minimax([0.25], 600)[0], 600), (compare([0.25], 700)[0], 700)]
    monkeypatch.setattr(harness, "gen_window", _drawing_nothing_at({600, 700}))
    estimates = harness._replication_estimates(jobs, sinusoid(beta=2.0), model, 12, 20)
    assert [e.shape for e in estimates] == [(12, 1), (12, 3)]
    assert all(np.isnan(e).all() for e in estimates)


def test_selection_constants_built_once_per_plan(monkeypatch):
    import roblp.harness as harness
    import roblp.lepski as lepski

    calls = []
    original = lepski.moment_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    plans = []
    original_plan = harness._selection_plan

    def counting_plan(grid, template, threshold):
        plans.append((template.x0, grid.n))
        return original_plan(grid, template, threshold)

    monkeypatch.setattr(lepski, "moment_matrix", counting)
    monkeypatch.setattr(harness, "_selection_plan", counting_plan)
    est = Estimator(
        kind="adaptive",
        contrast=huber(1.0),
        kernel_kind="uniform",
        bound=8.0,
        degree=1,
        curvature=0.38,
    )
    f, model = sinusoid(beta=2.0), NoiseModel(family="gaussian", base_scale=0.3)
    data = gen_data(f, model, 600, 1, seed=77)
    first = est.selection_trace(data, [0.25])
    second = est.selection_trace(data, [0.25])
    assert len(calls) == 1
    assert first == second
    assert plans == [((0.25,), 600)]
    # the plan, and with it the selection constant, is built once per
    # point and sample size, and the harness shares the selection's
    est.selection_trace(data, [0.3])
    est.selection_trace(gen_data(f, model, 700, 1, seed=78), [0.25])
    harness._replication_estimates([(est.plan([0.25], 600)[0], 600)], f, model, 3, 5)
    assert plans == [((0.25,), 600), ((0.3,), 600), ((0.25,), 700)]
    assert len(calls) == len(plans)


def test_compare_contrasts_aborts_above_one_percent_empty_windows(monkeypatch):
    import roblp.harness as harness

    pools = []

    def two_empty(jobs, f, model, replications, seed, workers=1):
        pools.append((len(jobs), [len(configs) for configs, _ in jobs], workers))
        estimates = [np.full((replications, len(configs)), 0.1) for configs, _ in jobs]
        for est in estimates:
            est[:2] = np.nan
        return estimates

    monkeypatch.setattr(harness, "_replication_estimates", two_empty)
    f = constant_function(0.4)
    model = NoiseModel(family="gaussian", base_scale=1.0)
    est = fixed_huber()
    rows = compare_contrasts(est, f, [0.5], model, n=128, replications=200, seed=8, workers=2)
    assert [row.failures for row in rows] == [2, 2, 2]
    assert pools == [(1, [3], 2)]  # one job holds the three contrasts
    with pytest.raises(RuntimeError, match="2/100 replications had empty windows"):
        compare_contrasts(est, f, [0.5], model, n=128, replications=100, seed=8)


def test_compare_contrasts_varies_only_the_contrast(monkeypatch):
    import roblp.harness as harness

    seen = []

    def record(jobs, f, model, replications, seed, workers=1):
        seen.extend(jobs)
        return [np.full((replications, len(configs)), 0.1) for configs, _ in jobs]

    monkeypatch.setattr(harness, "_replication_estimates", record)
    est = Estimator(
        kind="minimax", contrast=huber(2.0), kernel_kind="triangular", bound=3.0, beta=2.0, lipschitz=5.0
    )
    rows = compare_contrasts(est, constant_function(0.4), [0.5], None, n=64, replications=40, seed=1)
    assert [row.name for row in rows] == ["square", "absolute_proxy", "huber(2)"]
    assert [n for _, n in seen] == [64]
    ((configs, _),) = seen
    assert [cfg.contrast for cfg in configs] == [square(), huber(harness.TINY_GAMMA), huber(2.0)]
    for cfg in configs:
        assert dataclasses.replace(cfg, contrast=est.contrast, optimizer=est.optimizer) == est.fit_config([0.5], 64)
        assert cfg.optimizer.max_iterations == 3000
    with pytest.raises(ValueError, match="single-bandwidth Huber"):
        compare_contrasts(dataclasses.replace(est, contrast=square()), None, [0.5], None, 64, 40, 1)


@pytest.mark.parametrize(
    "settings, expected",
    [
        (OptimizerSettings(max_iterations=500, gradient_tolerance=1e-6), (500, 1e-6)),
        (OptimizerSettings(gradient_tolerance=1e-5), (3000, 1e-5)),
    ],
)
def test_compare_contrasts_keeps_the_estimator_solver_settings(monkeypatch, settings, expected):
    # the iteration cap falls to at most 3000; the tolerance is the estimator's
    import roblp.harness as harness

    seen = []

    def record(jobs, f, model, replications, seed, workers=1):
        seen.extend(jobs)
        return [np.full((replications, len(configs)), 0.1) for configs, _ in jobs]

    monkeypatch.setattr(harness, "_replication_estimates", record)
    est = dataclasses.replace(fixed_huber(), optimizer=settings)
    compare_contrasts(est, constant_function(0.4), [0.5], None, n=64, replications=40, seed=1)
    ((configs, _),) = seen
    assert len(configs) == 3
    for cfg in configs:
        assert (cfg.optimizer.max_iterations, cfg.optimizer.gradient_tolerance) == expected


def test_tail_check_aborts_above_one_percent_empty_windows(monkeypatch):
    import roblp.harness as harness

    def two_empty(jobs, f, model, replications, seed, workers=1):
        assert jobs == [((cfg,), 256)]
        # estimates 0.01 from the target
        est = np.full((replications, 1), float(f(np.asarray(cfg.x0))) + 0.01)
        est[:2] = np.nan
        return [est]

    monkeypatch.setattr(harness, "_replication_estimates", two_empty)
    cfg = LocalFitConfig(
        x0=(0.25,), h=0.15, degree=1, bound=8.0, kernel=uniform_kernel(1), contrast=huber(1.0)
    )
    constants = procedure_constants(cfg.kernel, cfg.index_set, c=0.38)
    args = (sinusoid(beta=2.0), None, cfg, constants, [0.01, 100.0])
    report = tail_check(*args, n=256, replications=200, seed=4)
    assert report.failures == 2
    # shares are over the 198 replications with a fit
    assert report.points[0].exceedances == 198 and report.points[0].empirical == 1.0
    with pytest.raises(RuntimeError, match="2/100 replications had empty windows"):
        tail_check(*args, n=256, replications=100, seed=4)


def test_compare_contrasts_rows_are_risk_points(monkeypatch):
    import roblp.harness as harness

    def planted(jobs, f, model, replications, seed, workers=1):
        estimates = []
        for configs, _ in jobs:
            columns = [
                np.random.default_rng(len(cfg.contrast.kind)).uniform(0, 1, replications)
                for cfg in configs
            ]
            est = np.stack(columns, axis=1)
            est[0] = np.nan
            estimates.append(est)
        return estimates

    monkeypatch.setattr(harness, "_replication_estimates", planted)
    est, f = fixed_huber(), constant_function(0.4)
    rows = compare_contrasts(est, f, [0.5], None, n=64, replications=150, seed=3, r=1.5)
    for row, contrast in zip(rows, (square(), huber(harness.TINY_GAMMA), est.contrast)):
        variant = dataclasses.replace(est, contrast=contrast)
        (point,) = risk_curve(variant, f, [0.5], None, 1.5, [64], 150, seed=3).points
        assert (row.risk, row.stderr, row.failures) == (point.risk, point.stderr, 1)
        assert point.failures == 1 and row.stderr > 0


def test_compare_contrasts_draws_each_replication_once(monkeypatch):
    # one job holds the three contrasts, so each dataset is drawn once, and
    # its rows are the risk points of the three single-contrast fits
    import roblp.harness as harness

    draws = []

    def counting(f, model, n, d, seed, reps, box):
        draws.extend((seed, rep) for rep in reps)
        return gen_window(f, model, n, d, seed, reps, box)

    monkeypatch.setattr(harness, "gen_window", counting)
    f, model = sinusoid(beta=2.0), NoiseModel(family="cauchy", base_scale=1.0)
    est = dataclasses.replace(fixed_huber(), optimizer=OptimizerSettings(max_iterations=200))
    rows = compare_contrasts(est, f, [0.25], model, n=256, replications=30, seed=24)
    assert sorted(draws) == [(24, rep) for rep in range(30)]
    for row, contrast in zip(rows, (square(), huber(harness.TINY_GAMMA), est.contrast)):
        variant = dataclasses.replace(est, contrast=contrast)
        (point,) = risk_curve(variant, f, [0.25], model, 2.0, [256], 30, seed=24).points
        assert (row.risk, row.stderr, row.failures) == (point.risk, point.stderr, point.failures)


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_a_pooled_tails_run_writes_the_serial_bytes_under_each_start_method(tmp_path, monkeypatch, method):
    import roblp.harness as harness
    from roblp.experiments import run_experiment

    configs = Path(__file__).resolve().parents[1] / "scripts" / "configs"
    cfg = json.loads((configs / "tails_gaussian.json").read_text())
    cfg["risk"]["replications"] = 300
    # the pool opens even on a one-CPU host
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "_START_METHOD", method)
    opened = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda m=None: opened.append(m) or get_context(m))
    outputs = {}
    for workers in (1, 2):
        cfg["risk"]["workers"] = workers
        cfg["output"]["directory"] = str(tmp_path / f"w{workers}")
        outputs[workers] = run_experiment(cfg)
    assert opened == [method]
    for key in ("csv", "json"):
        assert outputs[2][key].read_bytes() == outputs[1][key].read_bytes(), key


def _running(pid: int) -> bool:
    """Whether a process of this pid exists, a zombie included."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _pooled_tails(tmp_path, monkeypatch):
    """A run of the tails study at 300 replications on ``workers``, into
    ``tmp_path / name``, returning its CSV bytes; the host counts as three
    CPUs, so that two or three workers open a pool even on a one-CPU host."""
    import roblp.harness as harness
    from roblp.experiments import run_experiment

    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    cfg = json.loads((CONFIGS / "tails_gaussian.json").read_text())
    cfg["risk"]["replications"] = 300

    def run(workers, name):
        cfg["risk"]["workers"] = workers
        cfg["output"]["directory"] = str(tmp_path / name)
        return run_experiment(cfg)["csv"].read_bytes()

    return run


def test_pooled_runs_share_one_pool(tmp_path, monkeypatch):
    # the second pooled run maps through the pool and the workers the
    # first opened, and both write the serial bytes
    import roblp.harness as harness

    run = _pooled_tails(tmp_path, monkeypatch)
    serial = run(1, "serial")
    assert harness._pool is None
    assert run(2, "first") == serial
    count, pool = harness._pool
    workers = _worker_pids()
    assert count == 2 and len(workers) == 2
    assert run(2, "second") == serial
    assert harness._pool == (2, pool) and _worker_pids() == workers


def test_a_new_pool_opens_only_after_the_old_ones_processes_are_gone(tmp_path, monkeypatch):
    # a run with another worker count shuts the live pool down, its
    # processes joined, before it opens its own
    import roblp.harness as harness

    run = _pooled_tails(tmp_path, monkeypatch)
    serial = run(1, "serial")
    assert run(2, "old") == serial
    old = _worker_pids()
    alive_at_open = []
    get_context = multiprocessing.get_context

    def opening(method=None):
        alive_at_open.append([pid for pid in old if _running(pid)])
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", opening)
    assert run(3, "new") == serial
    assert alive_at_open == [[]]
    assert harness._pool[0] == 3
    assert not _worker_pids() & old


def test_a_run_after_a_worker_died_raises_and_the_next_reopens_the_pool(tmp_path, monkeypatch):
    # a worker killed between runs breaks the live pool: the next run
    # raises, and forgets the pool, so the run after it opens a new one
    from concurrent.futures.process import BrokenProcessPool

    import roblp.harness as harness

    run = _pooled_tails(tmp_path, monkeypatch)
    serial = run(1, "serial")
    assert run(2, "before") == serial
    old = _worker_pids()
    os.kill(min(old), signal.SIGKILL)
    # the pool notices, ends its other worker and reaps both
    deadline = time.monotonic() + 30
    while any(_running(pid) for pid in old) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(_running(pid) for pid in old)
    with pytest.raises(BrokenProcessPool):
        run(2, "broken")
    assert harness._pool is None
    assert run(2, "after") == serial
    assert len(_worker_pids() - old) == 2


def test_close_pool_ends_the_workers_and_the_next_run_opens_a_new_pool(tmp_path, monkeypatch):
    import roblp.harness as harness

    run = _pooled_tails(tmp_path, monkeypatch)
    serial = run(1, "serial")
    assert run(2, "before") == serial
    old = _worker_pids()
    harness.close_pool()
    assert harness._pool is None and not _worker_pids()
    assert not any(_running(pid) for pid in old)
    harness.close_pool()  # none open: nothing to do
    assert run(2, "after") == serial
    assert len(_worker_pids() - old) == 2


def test_only_a_pooled_run_hands_its_workers_the_heap_initializer(monkeypatch, pools):
    # _keep_heap runs in the pool's workers as they start, never in the
    # calling process: a serial run, or a one-block run on two workers,
    # opens no pool and calls it never
    import roblp.harness as harness

    calls = []
    monkeypatch.setattr(harness, "_keep_heap", lambda: calls.append(os.getpid()))
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    est = Estimator(kind="fixed", contrast=huber(1.0), kernel_kind="uniform", bound=8.0, h=0.2, degree=1)
    args = ([(est.plan([0.25], 256)[0], 256)], sinusoid(beta=2.0), NoiseModel(family="gaussian", base_scale=0.5))
    harness._replication_estimates(*args, 30, 5, workers=1)
    harness._replication_estimates(*args, 1, 5, workers=2)
    assert pools.opened == [] and calls == []
    harness._replication_estimates(*args, 30, 5, workers=2)
    assert pools.opened == [2] and pools.initializers == [harness._keep_heap] and calls == []


class _FakeLibc:
    """A C library whose ``mallopt`` records its calls and succeeds."""

    def __init__(self):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1

        self.mallopt = mallopt


@pytest.mark.parametrize(
    "libc, confstr",
    [
        ("found", "glibc 2.36"),
        ("no mallopt", "glibc 2.36"),
        ("not loadable", "glibc 2.36"),
        ("found", None),  # a C library that names no version
        ("found", "musl"),
        ("found", ValueError),  # confstr does not know the name
        ("found", AttributeError),  # the platform has no confstr
    ],
)
def test_keep_heap_sets_glibc_thresholds_and_is_a_silent_no_op_elsewhere(monkeypatch, libc, confstr):
    # under glibc it raises mallopt's mmap and trim thresholds; where glibc
    # or its mallopt cannot be found it returns, raising nothing, since an
    # initializer that raises breaks the pool.  Run here with the C library
    # stood in for, so this process's allocator is left as it is
    import ctypes

    import roblp.harness as harness

    fake = _FakeLibc()

    def load(name):
        assert name is None
        if libc == "not loadable":
            raise OSError("cannot load the C library")
        return fake if libc == "found" else types.SimpleNamespace()

    monkeypatch.setattr(ctypes, "CDLL", load)
    if confstr is AttributeError:
        monkeypatch.delattr(harness.os, "confstr", raising=False)
    elif confstr is ValueError:

        def unknown(name):
            raise ValueError(f"unrecognized configuration name {name}")

        monkeypatch.setattr(harness.os, "confstr", unknown)
    else:
        monkeypatch.setattr(harness.os, "confstr", lambda name: confstr)
    assert harness._keep_heap() is None
    if libc == "found" and confstr == "glibc 2.36":
        assert fake.calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
        assert fake.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    else:
        assert fake.calls == []


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError):
        return False


def _block_minor_faults(task) -> int:
    """The minor page faults of ``_block_estimates`` of ``task``, counted
    in the process that runs it."""
    import roblp.harness as harness

    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    harness._block_estimates(task)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(not _glibc(), reason="the worker initializer tunes glibc's malloc only")
def test_a_live_workers_repeated_block_reuses_its_heap():
    # a tails block of 500 replications at n=1024 frees 4-5 MB of
    # temporaries; glibc's default thresholds return them to the kernel,
    # and the next block re-faults about 550 pages.  A worker of the pool
    # keeps them: its second identical block faults fewer than 100
    import roblp.harness as harness
    from roblp.lepski import minimax_bandwidth

    f = sinusoid(beta=2.0)
    h = minimax_bandwidth(2.0, f.lipschitz, 1024, 1)
    est = Estimator(kind="fixed", contrast=huber(1.0), kernel_kind="uniform", bound=8.0, h=h, degree=1)
    task = ([(est.plan([0.25], 1024)[0], 1024)], f, NoiseModel(family="gaussian", base_scale=0.5), 7, range(500))
    harness._pool_map(1, [task])  # opens a pool of one worker and runs the first block
    second = harness._pool[1].submit(_block_minor_faults, task).result(timeout=120)
    assert second < 100


def _run_child(code: str) -> str:
    """The standard output of ``code`` run in a child interpreter whose
    roblp comes from this checkout's ``src``."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    ).stdout


def test_an_interpreter_that_ran_pooled_runs_leaves_no_worker_behind(tmp_path):
    # the pool outlives each run, and the interpreter's exit joins its
    # workers: none of their pids is alive once it has exited
    cfg = json.loads((CONFIGS / "tails_gaussian.json").read_text())
    cfg["risk"].update(replications=300, workers=2)
    code = "\n".join([
        "import json, multiprocessing, sys",
        "import roblp.harness as harness",
        "from roblp.experiments import run_experiment",
        "harness.os.sched_getaffinity = lambda pid: {0, 1}",
        f"cfg = json.loads({json.dumps(cfg)!r})",
        "for name in ('first', 'second'):",
        f"    cfg['output']['directory'] = {str(tmp_path)!r} + '/' + name",
        "    run_experiment(cfg)",
        "print(*sorted(p.pid for p in multiprocessing.active_children()))",
    ])
    pids = [int(pid) for pid in _run_child(code).split()]
    first, second = (tmp_path / name / "tails_gaussian.csv" for name in ("first", "second"))
    assert len(pids) == 2 and first.read_bytes() == second.read_bytes()
    assert not [pid for pid in pids if _running(pid)]


def test_a_forked_child_runs_its_pooled_runs_on_a_pool_of_its_own():
    # a process forked after a pooled run inherits the pool's handle but
    # not its threads: the child drops it and opens its own, where a run
    # on the parent's would wait forever (the alarm ends such a child)
    code = "\n".join([
        "import os, signal",
        "import roblp.harness as harness",
        "from roblp.contrast import huber",
        "from roblp.simulate import NoiseModel, sinusoid",
        "harness.os.sched_getaffinity = lambda pid: {0, 1}",
        "f, model = sinusoid(beta=2.0), NoiseModel(family='gaussian', base_scale=0.5)",
        "est = harness.Estimator(kind='fixed', contrast=huber(1.0), kernel_kind='uniform', bound=8.0, h=0.2, degree=1)",
        "jobs = [(est.plan([0.25], 256)[0], 256)]",
        "(parent,) = harness._replication_estimates(jobs, f, model, 100, 3, workers=2)",
        "pid = os.fork()",
        "if pid == 0:",
        "    signal.alarm(60)",
        "    (child,) = harness._replication_estimates(jobs, f, model, 100, 3, workers=2)",
        "    harness.close_pool()",
        "    os._exit(0 if child.tobytes() == parent.tobytes() else 3)",
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))",
    ])
    assert _run_child(code).split() == ["0"]
