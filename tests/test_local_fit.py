import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from roblp.basis import monomial_matrix, multi_index_set
from roblp.contrast import absolute, huber
from roblp.kernels import KernelSpec, uniform_kernel
from roblp.lepski import bandwidth_grid, minimax_bandwidth, select_bandwidth
from roblp.simulate import NoiseModel, gen_data, product_sinusoid, sinusoid
import roblp.local_fit as local_fit
from roblp.local_fit import (
    Dataset,
    EmptyNeighborhoodError,
    LocalFitConfig,
    OptimizerSettings,
    criterion,
    criterion_gradient,
    fit_local,
    _project_l1_ball,
)

from projected_gradient_oracle import (
    fit_local_projected_gradient,
    minimize_model_projected_gradient,
)


def make_cfg(**kw):
    defaults = dict(
        x0=(0.5,),
        h=0.2,
        degree=1,
        bound=10.0,
        kernel=uniform_kernel(1),
        contrast=huber(1.0),
    )
    defaults.update(kw)
    return LocalFitConfig(**defaults)


def _job(data, cfg):
    """All of ``data``'s rows as a job of one config, a block of one."""
    return data.x, data.y, data.n, [cfg], [data.n]


def _cut(jobs):
    """The windows of the block ``jobs``, cut by one ``_windows`` call; no
    window is empty."""
    jobs = list(jobs)
    windows, depths = local_fit._windows(jobs)
    assert all((depth == len(job[3])).all() for job, depth in zip(jobs, depths, strict=True))
    return windows


def _problem(data, cfg):
    """The window of ``cfg`` cut from all of ``data``'s rows."""
    return _cut([_job(data, cfg)])


def _levels(windows) -> list:
    """The windows of each config of a plan's ``windows``, a view each."""
    per = windows.size // len(windows.configs)
    return [windows.take(k * per, (k + 1) * per) for k in range(len(windows.configs))]


def _results(windows) -> list:
    """The ``FitResult`` of every window of ``windows``, in order."""
    fits = local_fit._fit_problems(windows)
    return [fits.result(i) for i in range(windows.size)]


def fit_results(jobs) -> list:
    """The ``FitResult`` of every window of the block ``jobs``, window
    after window; each run of jobs of one degree is cut by one
    ``_windows`` call and solved as one."""
    runs = itertools.groupby(jobs, key=lambda job: job[3][0].degree)
    return [fit for _, run in runs for fit in _results(_cut(run))]


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(x=np.array([[1.5]]), y=np.array([0.0]))
    with pytest.raises(ValueError):
        Dataset(x=np.array([[0.5]]), y=np.array([np.nan]))
    with pytest.raises(ValueError):
        Dataset(x=np.array([[0.5], [0.6]]), y=np.array([0.0]))
    ds = Dataset(x=np.array([[0.1], [0.9]]), y=np.array([1.0, -1.0]))
    assert ds.n == 2 and ds.d == 1


def test_dataset_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    ds = Dataset(x=rng.random((7, 2)), y=rng.normal(size=7))
    path = tmp_path / "data.csv"
    ds.to_csv(path)
    back = Dataset.from_csv(path)
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.y, ds.y)


def test_dataset_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.1,0.2\n")
    with pytest.raises(ValueError, match="header"):
        Dataset.from_csv(path)


def test_criterion_empty_window_is_zero():
    data = Dataset(x=np.array([[0.9]]), y=np.array([3.0]))
    cfg = make_cfg()
    assert criterion(np.array([0.0, 0.0]), data, cfg) == 0.0


def test_criterion_of_a_dataset_of_no_rows_is_zero():
    # n = 0: no window, so no 1/(n h^d) scale is formed; a fit or a
    # selection on it names the empty dataset, not an empty window
    data = Dataset(x=np.zeros((0, 1)), y=np.zeros(0))
    cfg = make_cfg()
    t = np.array([1.0, 2.0])
    assert criterion(t, data, cfg) == 0.0
    assert criterion_gradient(t, data, cfg).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError, match="^dataset is empty$"):
        fit_local(data, cfg)
    with pytest.raises(ValueError, match="^dataset is empty$"):
        select_bandwidth(data, [cfg], [1.0])


def test_criterion_exact_fit_is_zero():
    data = Dataset(x=np.array([[0.5]]), y=np.array([2.0]))
    cfg = make_cfg()
    assert criterion(np.array([2.0, 0.0]), data, cfg) == 0.0


def test_criterion_hand_computed_three_samples():
    # spreadsheet-style evaluation: uniform kernel, huber gamma=1,
    # x0=0.5, h=0.2, t=(1, 2); one sample falls outside the window
    data = Dataset(
        x=np.array([[0.45], [0.55], [0.70]]), y=np.array([2.0, 0.5, 9.0])
    )
    cfg = make_cfg()
    t = np.array([1.0, 2.0])
    # z495 = -0.25 -> fit 0.5, resid 1.5  -> huber 1.0 * (1.5 - 0.5) = 1.0
    # z55  = +0.25 -> fit 1.5, resid -1.0 -> huber 0.5 * 1.0 = 0.5
    # third sample: kernel weight 0
    expected = (1.0 + 0.5) / (3 * 0.2)
    assert criterion(t, data, cfg) == pytest.approx(expected, rel=1e-14)


def test_gradient_zero_at_noiseless_truth():
    rng = np.random.default_rng(2)
    s = multi_index_set(2, 1)
    theta = np.array([0.4, -0.2, 0.1])
    x0 = np.array([0.5])
    h = 0.3
    xs = rng.uniform(0.35, 0.65, size=(25, 1))
    ys = monomial_matrix((xs - x0) / h, s) @ theta
    data = Dataset(x=xs, y=ys)
    cfg = make_cfg(h=h, degree=2)
    np.testing.assert_allclose(criterion_gradient(theta, data, cfg), 0.0, atol=1e-15)


def test_gradient_cancels_for_symmetric_residuals():
    # residuals +/- a at the same point: odd derivative cancels exactly
    data = Dataset(x=np.array([[0.5], [0.5]]), y=np.array([1.5, -1.5]))
    cfg = make_cfg(degree=0)
    grad = criterion_gradient(np.array([0.0]), data, cfg)
    np.testing.assert_allclose(grad, 0.0, atol=1e-15)


@pytest.mark.parametrize("kernel_kind", ["uniform", "epanechnikov"])
def test_gradient_matches_finite_differences(kernel_kind):
    rng = np.random.default_rng(7)
    kernel = KernelSpec(kind=kernel_kind, d=1)
    for trial in range(20):
        n = 30
        xs = rng.random((n, 1))
        ys = rng.normal(scale=1.5, size=n)
        data = Dataset(x=xs, y=ys)
        cfg = make_cfg(h=0.35, degree=2, kernel=kernel)
        t = rng.normal(scale=0.8, size=3)
        grad = criterion_gradient(t, data, cfg)
        for i in range(t.size):
            step = 1e-6 * (1 + abs(t[i]))
            tp, tm = t.copy(), t.copy()
            tp[i] += step
            tm[i] -= step
            fd = (criterion(tp, data, cfg) - criterion(tm, data, cfg)) / (2 * step)
            assert abs(fd - grad[i]) <= 1e-6 * (1 + abs(fd))


def test_project_l1_ball_examples():
    np.testing.assert_allclose(_project_l1_ball(np.array([0.3, -0.2]), 1.0), [0.3, -0.2])
    np.testing.assert_allclose(_project_l1_ball(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])
    # KKT by hand: soft-threshold at 0.5
    np.testing.assert_allclose(_project_l1_ball(np.array([1.0, 1.0]), 1.0), [0.5, 0.5])
    with pytest.raises(ValueError):
        _project_l1_ball(np.array([1.0]), 0.0)


@pytest.mark.parametrize(
    "t, expected",
    [([1e300, 1e299], [8.0, 0.0]), ([-1e300, 1e300, 3.0], [-4.0, 4.0, 0.0]), ([1e20, 1.0], [8.0, 0.0])],
    ids=str,
)
def test_project_l1_ball_far_beyond_the_radius(t, expected):
    # u_1 - radius rounds to u_1 here, and the projection still lands on the ball
    np.testing.assert_array_equal(_project_l1_ball(np.array(t), 8.0), expected)


@given(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=6),
    st.floats(min_value=0.1, max_value=4.0),
)
@settings(max_examples=150, deadline=None)
def test_project_l1_ball_properties(vals, radius):
    t = np.array(vals)
    p = _project_l1_ball(t, radius)
    assert np.sum(np.abs(p)) <= radius + 1e-9
    np.testing.assert_allclose(_project_l1_ball(p, radius), p, atol=1e-12)
    if np.sum(np.abs(t)) <= radius:
        np.testing.assert_array_equal(p, t)


def test_project_l1_ball_against_qp_oracle():
    # split v = a - b with a, b >= 0 so the l1 constraint becomes linear
    from scipy.optimize import minimize

    rng = np.random.default_rng(9)
    for _ in range(10):
        t = rng.normal(scale=2.0, size=4)
        radius = rng.uniform(0.5, 3.0)

        def objective(w):
            v = w[:4] - w[4:]
            return 0.5 * np.sum((v - t) ** 2)

        res = minimize(
            objective,
            np.zeros(8),
            bounds=[(0, None)] * 8,
            constraints=[{"type": "ineq", "fun": lambda w: radius - np.sum(w)}],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 1000},
        )
        oracle = res.x[:4] - res.x[4:]
        np.testing.assert_allclose(_project_l1_ball(t, radius), oracle, atol=1e-6)


def test_fit_recovers_noiseless_polynomial():
    rng = np.random.default_rng(21)
    s = multi_index_set(2, 2)
    theta = rng.uniform(-0.5, 0.5, size=s.size)
    x0 = np.array([0.5, 0.4])
    h = 0.3
    xs = x0 + rng.uniform(-h / 2, h / 2, size=(5 * s.size, 2))
    ys = monomial_matrix((xs - x0) / h, s) @ theta
    data = Dataset(x=xs, y=ys)
    cfg = LocalFitConfig(
        x0=tuple(x0),
        h=h,
        degree=2,
        bound=5.0,
        kernel=uniform_kernel(2),
        contrast=huber(100.0),
        optimizer=OptimizerSettings(gradient_tolerance=1e-12, max_iterations=50_000),
    )
    res = fit_local(data, cfg)
    assert res.converged
    np.testing.assert_allclose(res.theta_hat.values, theta, atol=1e-6)


def test_fit_degree_zero_matches_mean_and_median():
    rng = np.random.default_rng(33)
    xs = rng.uniform(0.31, 0.69, size=(15, 1))
    ys = rng.normal(size=15)
    data = Dataset(x=xs, y=ys)
    tight = OptimizerSettings(gradient_tolerance=1e-13)
    big = make_cfg(x0=(0.5,), h=0.4, degree=0, bound=20.0, contrast=huber(1e6), optimizer=tight)
    assert fit_local(data, big).estimate == pytest.approx(float(ys.mean()), abs=1e-8)
    tiny = make_cfg(x0=(0.5,), h=0.4, degree=0, bound=20.0, contrast=huber(1e-8), optimizer=tight)
    assert fit_local(data, tiny).estimate == pytest.approx(float(np.median(ys)), abs=1e-4)


def test_fit_empty_window_raises():
    data = Dataset(x=np.array([[0.05]]), y=np.array([1.0]))
    with pytest.raises(EmptyNeighborhoodError):
        fit_local(data, make_cfg())
    with pytest.raises(ValueError):
        fit_local(Dataset(x=np.zeros((0, 1)), y=np.zeros(0)), make_cfg())


def test_fit_constant_data():
    data = Dataset(x=np.array([[0.45], [0.5], [0.55]]), y=np.array([2.0, 2.0, 2.0]))
    assert fit_local(data, make_cfg()).estimate == pytest.approx(2.0, abs=1e-8)


def test_estimate_bounded_by_radius():
    data = Dataset(x=np.array([[0.5], [0.52]]), y=np.array([50.0, 60.0]))
    cfg = make_cfg(degree=0, bound=3.0, contrast=huber(1e6))
    res = fit_local(data, cfg)
    assert abs(res.estimate) <= 3.0 + 1e-12
    assert res.theta_hat.l1_norm <= 3.0 + 1e-12


def test_shift_equivariance():
    rng = np.random.default_rng(44)
    xs = rng.uniform(0.3, 0.7, size=(40, 1))
    ys = rng.normal(size=40)
    shift = 1.7
    tight = OptimizerSettings(gradient_tolerance=1e-12)
    cfg = make_cfg(h=0.4, degree=1, bound=100.0, optimizer=tight)
    base = fit_local(Dataset(x=xs, y=ys), cfg).estimate
    shifted = fit_local(Dataset(x=xs, y=ys + shift), cfg).estimate
    assert shifted - base == pytest.approx(shift, abs=1e-7)


def test_sign_symmetry():
    rng = np.random.default_rng(45)
    xs = rng.uniform(0.3, 0.7, size=(30, 1))
    ys = rng.normal(size=30)
    tight = OptimizerSettings(gradient_tolerance=1e-12)
    cfg = make_cfg(h=0.4, degree=1, bound=50.0, optimizer=tight)
    pos = fit_local(Dataset(x=xs, y=ys), cfg).estimate
    neg = fit_local(Dataset(x=xs, y=-ys), cfg).estimate
    assert neg == pytest.approx(-pos, abs=1e-7)


def test_monotone_descent(monkeypatch):
    # the criterion of every fit in the stack, before and after each step
    steps = []
    advance = local_fit._Stack.advance

    def recording(stack, cand, cand_val):
        before = stack.fval.copy()
        advance(stack, cand, cand_val)
        steps.append((before, stack.fval.copy()))

    monkeypatch.setattr(local_fit._Stack, "advance", recording)
    rng = np.random.default_rng(46)
    xs = rng.uniform(0.3, 0.7, size=(50, 1))
    ys = rng.standard_cauchy(50)
    ys = np.clip(ys, -50, 50)
    cfg = make_cfg(h=0.4, degree=2, bound=30.0)
    res = fit_local(Dataset(x=xs, y=ys), cfg)
    assert len(steps) >= res.iterations > 0
    for before, after in steps:
        assert np.all(after - before <= 1e-15)


def test_bounded_influence_of_outliers():
    rng = np.random.default_rng(47)
    xs = rng.uniform(0.3, 0.7, size=(25, 1))
    ys = rng.normal(size=25)
    tight = OptimizerSettings(gradient_tolerance=1e-12)
    cfg = make_cfg(h=0.4, degree=0, bound=50.0, contrast=huber(1.0), optimizer=tight)
    base = fit_local(Dataset(x=xs, y=ys), cfg).estimate

    def estimate_with_bump(bump):
        y2 = ys.copy()
        y2[0] += bump
        return fit_local(Dataset(x=xs, y=y2), cfg).estimate

    gamma_change = abs(estimate_with_bump(1.0) - base)
    big_change = abs(estimate_with_bump(1e6) - base)
    bigger_change = abs(estimate_with_bump(1e9) - base)
    # once the outlier saturates the contrast, its influence stops growing
    assert big_change <= gamma_change + 1e-6
    assert abs(big_change - bigger_change) < 1e-8


def test_criterion_convexity_sampled():
    rng = np.random.default_rng(48)
    xs = rng.uniform(0.3, 0.7, size=(30, 1))
    ys = rng.normal(size=30)
    data = Dataset(x=xs, y=ys)
    cfg = make_cfg(h=0.4, degree=2)
    for _ in range(50):
        t1 = rng.normal(size=3)
        t2 = rng.normal(size=3)
        lam = rng.uniform()
        lhs = criterion(lam * t1 + (1 - lam) * t2, data, cfg)
        rhs = lam * criterion(t1, data, cfg) + (1 - lam) * criterion(t2, data, cfg)
        assert lhs <= rhs + 1e-12


def test_underdetermined_flag():
    data = Dataset(x=np.array([[0.5], [0.52]]), y=np.array([1.0, 1.1]))
    res = fit_local(data, make_cfg(degree=2, h=0.2))
    assert res.underdetermined
    assert res.n_local == 2


def test_absolute_contrast_fit_runs():
    # flagged contrasts remain usable in plain fitting
    rng = np.random.default_rng(49)
    xs = rng.uniform(0.3, 0.7, size=(21, 1))
    ys = rng.normal(size=21)
    res = fit_local(Dataset(x=xs, y=ys), make_cfg(h=0.4, degree=0, contrast=absolute()))
    assert abs(res.estimate - np.median(ys)) < 0.2


def test_newton_converges_in_few_steps_on_criterion_3_windows():
    # the criterion-3 design: sinusoid beta=2, Gaussian sigma=0.5,
    # n=4096, degree 3, Huber(1), M=8, every grid bandwidth
    f = sinusoid(2.0)
    model = NoiseModel(family="gaussian", base_scale=0.5)
    grid = bandwidth_grid(4096, 1, 3)
    for rep in range(2):
        data = gen_data(f, model, 4096, 1, (2024, rep))
        for h in grid.bandwidths:
            res = fit_local(data, make_cfg(x0=(0.25,), h=h, degree=3, bound=8.0))
            assert res.converged
            assert res.iterations <= 10


def test_newton_point_outside_ball_ends_on_the_ball():
    rng = np.random.default_rng(50)
    s = multi_index_set(2, 1)
    theta = np.array([2.0, -3.0, 1.5])
    xs = rng.uniform(0.3, 0.7, size=(40, 1))
    ys = monomial_matrix((xs - 0.5) / 0.4, s) @ theta + rng.normal(scale=0.1, size=40)
    data = Dataset(x=xs, y=ys)
    tol = 1e-10
    tight = OptimizerSettings(gradient_tolerance=tol)
    free = fit_local(data, make_cfg(h=0.4, degree=2, bound=100.0, optimizer=tight))
    assert free.theta_hat.l1_norm > 6.0  # the unconstrained minimizer is far outside
    cfg = make_cfg(h=0.4, degree=2, bound=2.0, optimizer=tight)
    res = fit_local(data, cfg)
    assert res.converged and res.iterations <= 10
    assert res.theta_hat.l1_norm == pytest.approx(2.0, abs=1e-12)
    assert res.stationarity_gap <= tol
    t = res.theta_hat.values
    grad = criterion_gradient(t, data, cfg)
    assert np.linalg.norm(t - _project_l1_ball(t - grad, cfg.bound)) <= tol


def test_binding_ball_certifies_tight_tolerance():
    # Cauchy windows whose minimizer sits on the ball: the last Newton
    # steps change the criterion by less than its rounding, and a step
    # along the ball's surface cannot be resolved from criterion values
    rng = np.random.default_rng(51)
    s = multi_index_set(3, 1)
    cfg = make_cfg(h=0.4, degree=3, bound=2.0, optimizer=OptimizerSettings(gradient_tolerance=1e-12))
    for _ in range(120):
        xs = rng.uniform(0.3, 0.7, size=(20, 1))
        ys = monomial_matrix((xs - 0.5) / 0.4, s) @ rng.uniform(-3, 3, s.size)
        res = fit_local(Dataset(x=xs, y=ys + rng.standard_cauchy(20)), cfg)
        assert res.converged and res.iterations <= 10


def test_tiny_threshold_takes_gradient_steps_and_converges():
    # with gamma = 1e-6 fewer than N_b residuals sit in the quadratic band,
    # so every step is the projected gradient step: the result matches the
    # projected gradient oracle bit for bit
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.3, 0.7, size=(9, 1))
    ys = rng.normal(size=9)
    data = Dataset(x=xs, y=ys)
    cfg = make_cfg(h=0.4, degree=1, bound=30.0, contrast=huber(1e-6))
    res = fit_local(data, cfg)
    oracle = fit_local_projected_gradient(data, cfg)
    assert res.converged
    assert res.iterations == oracle.iterations
    np.testing.assert_array_equal(res.theta_hat.values, oracle.theta_hat.values)


@st.composite
def _local_problems(draw):
    d = draw(st.sampled_from([1, 2]))
    degree = draw(st.integers(0, 3))
    n_b = multi_index_set(degree, d).size
    # from underdetermined windows up to a few samples per coefficient
    n = draw(st.integers(1, 3 * n_b + 8))
    gamma = 10.0 ** draw(st.floats(-6.0, 6.0))
    bound = draw(st.sampled_from([0.3, 2.0, 8.0, 100.0]))  # small radii bind
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x0 = np.full(d, 0.5)
    h = 0.4
    xs = x0 + rng.uniform(-h / 2, h / 2, size=(n, d))
    coef = rng.uniform(-3.0, 3.0, size=n_b)
    noise = rng.standard_cauchy(n) if draw(st.booleans()) else rng.normal(size=n)
    ys = monomial_matrix((xs - x0) / h, multi_index_set(degree, d)) @ coef + noise
    cfg = LocalFitConfig(
        x0=tuple(x0),
        h=h,
        degree=degree,
        bound=bound,
        kernel=uniform_kernel(d),
        contrast=huber(gamma),
        optimizer=OptimizerSettings(gradient_tolerance=1e-12),
    )
    return Dataset(x=xs, y=ys), cfg


@given(_local_problems())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_newton_criterion_no_worse_than_projected_gradient_oracle(problem):
    data, cfg = problem
    res = fit_local(data, cfg)
    oracle = fit_local_projected_gradient(data, cfg)
    assert res.theta_hat.l1_norm <= cfg.bound * (1 + 1e-12)
    # Two runs that both stop uncertified (small thresholds leave too few
    # samples in the quadratic band, so both creep along by gradient
    # steps) can end anywhere short of the minimum: nothing to compare.
    assume(res.converged or oracle.converged)
    new = criterion(res.theta_hat.values, data, cfg)
    old = criterion(oracle.theta_hat.values, data, cfg)
    assert new <= old + 1e-10 * abs(old)


@st.composite
def _binding_models(draw):
    # a quadratic model over the l1-ball whose Newton point lies outside it
    n_b = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kappa = 10.0 ** rng.uniform(0.0, 7.0)
    radius = 10.0 ** rng.uniform(-1.0, 1.0)
    q, _ = np.linalg.qr(rng.normal(size=(n_b, n_b)))
    eig = np.exp(rng.uniform(-math.log(kappa), 0.0, n_b))
    eig[0], eig[-1] = 1.0 / kappa, 1.0
    hess = (q * eig) @ q.T
    hess = (hess + hess.T) / 2
    t = _project_l1_ball(rng.normal(size=n_b) * radius, radius)
    newton = rng.normal(size=n_b) * radius * 10.0 ** rng.uniform(0.0, 2.0)
    grad = hess @ (t - newton)
    assume(np.abs(t - np.linalg.solve(hess, grad)).sum() > radius)
    return hess, grad, t, radius


def _model(hess, grad, t, u):
    step = u - t
    return float(grad @ step + 0.5 * step @ hess @ step)


@given(_binding_models())
@settings(max_examples=60, deadline=None)
def test_homotopy_model_solve_no_worse_than_projected_gradient_oracle(problem):
    hess, grad, t, radius = problem
    u = local_fit._minimize_model(hess, grad, t, radius)
    assert u is not None
    eig = np.linalg.eigvalsh(hess)
    oracle = minimize_model_projected_gradient(hess, grad, t, radius, eig[0], eig[-1], 1e-12)
    # relative to the size of the model's linear term over the ball
    scale = np.abs(grad).max() * radius
    assert _model(hess, grad, t, u) <= _model(hess, grad, t, oracle) + 1e-12 * scale
    assert np.abs(u).sum() <= radius * (1 + 1e-12)
    model_grad = grad + hess @ (u - t)
    assert np.linalg.norm(u - _project_l1_ball(u - model_grad, radius)) <= 1e-10


def test_failed_model_solve_falls_back_to_gradient_steps(monkeypatch):
    # the problem of test_newton_point_outside_ball_ends_on_the_ball, with
    # every homotopy solve failing: each step is then a gradient step
    rng = np.random.default_rng(50)
    s = multi_index_set(2, 1)
    xs = rng.uniform(0.3, 0.7, size=(40, 1))
    ys = monomial_matrix((xs - 0.5) / 0.4, s) @ np.array([2.0, -3.0, 1.5])
    data = Dataset(x=xs, y=ys + rng.normal(scale=0.1, size=40))
    tol = 1e-10
    cfg = make_cfg(h=0.4, degree=2, bound=2.0, optimizer=OptimizerSettings(gradient_tolerance=tol))
    exact = fit_local(data, cfg)
    calls = []

    def failing(*args):
        calls.append(args)
        return None

    monkeypatch.setattr(local_fit, "_minimize_model", failing)
    res = fit_local(data, cfg)
    assert calls
    assert res.converged and res.stationarity_gap <= tol
    assert res.iterations > exact.iterations
    np.testing.assert_allclose(res.theta_hat.values, exact.theta_hat.values, atol=1e-7)


def test_homotopy_survives_simultaneous_events():
    # three coordinates tie at the start of the path; events are taken one
    # at a time, and one that just happened must not recur at the same lam
    hess = np.array(
        [[8.0, 7.0, 8.0, 2.0], [7.0, 10.0, 8.0, -1.0], [8.0, 8.0, 13.0, 2.0], [2.0, -1.0, 2.0, 7.0]]
    )
    grad = np.array([1.0, 2.0, 2.0, -2.0])
    t = np.zeros(4)
    u = local_fit._minimize_model(hess, grad, t, 0.5)
    assert u is not None
    np.testing.assert_allclose(u, [0.0, 0.0, -0.1875, 0.3125], atol=1e-15)
    model_grad = grad + hess @ u
    assert np.linalg.norm(u - _project_l1_ball(u - model_grad, 0.5)) <= 1e-14


def _stacking_cases():
    """(data, cfg) fits covering each solver path, each kind in a run that
    stacks: plain Newton steps (Huber(1)), Cauchy noise at the minimax
    bandwidth, every grid level of the adaptive kind, projected gradient
    steps (Huber(1e-6)) and the homotopy (a ball that binds)."""
    f = sinusoid(2.0)
    gauss = NoiseModel(family="gaussian", base_scale=0.5)
    cauchy = NoiseModel(family="cauchy", base_scale=1.0)
    small = [gen_data(f, gauss, 512, 1, (31, rep)) for rep in range(9)]
    design = [monomial_matrix((data.x - 0.25) / 0.3, multi_index_set(2, 1)) for data in small]
    steep = [Dataset(x=data.x, y=z @ [2.0, -3.0, 1.5] + 0.1 * data.y) for data, z in zip(small, design)]
    h = minimax_bandwidth(2.0, f.lipschitz, 2048, 1)
    grid = bandwidth_grid(1024, 1, 2)
    tiny = OptimizerSettings(max_iterations=200)
    return (
        [(data, make_cfg(x0=(0.25,), h=0.15, degree=1, bound=8.0)) for data in small]
        + [(data, make_cfg(x0=(0.25,), h=0.2, contrast=huber(1e-6), optimizer=tiny)) for data in small]
        + [(data, make_cfg(x0=(0.25,), h=0.3, degree=2, bound=2.0)) for data in steep]
        + [
            (gen_data(f, cauchy, 2048, 1, (32, rep)), make_cfg(x0=(0.25,), h=h, degree=1, bound=8.0))
            for rep in range(9)
        ]
        + [
            (data, make_cfg(x0=(0.25,), h=h_k, degree=2, bound=8.0))
            for data in (gen_data(f, gauss, 1024, 1, (33, rep)) for rep in range(3))
            for h_k in grid.bandwidths
        ]
    )


def test_stacked_fits_are_bit_identical_to_single_fits(monkeypatch):
    calls = {"_minimize_model": 0, "_gradient_step": 0}
    for name in calls:
        original = getattr(local_fit, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(local_fit, name, counting)
    cases = _stacking_cases()
    singles = [fit_local(data, cfg) for data, cfg in cases]
    assert all(calls.values())  # both fallbacks ran
    jobs = [_job(data, cfg) for data, cfg in cases]
    for size in (1, 7, len(jobs)):
        stacked = [
            fit
            for start in range(0, len(jobs), size)
            for fit in fit_results(jobs[start : start + size])
        ]
        assert len(stacked) == len(singles)
        for fit, single in zip(stacked, singles):
            assert fit.estimate == single.estimate
            np.testing.assert_array_equal(fit.theta_hat.values, single.theta_hat.values)
            assert (fit.iterations, fit.converged, fit.stationarity_gap) == (
                single.iterations, single.converged, single.stationarity_gap
            )


def test_a_plan_of_three_settings_keys_stacks_per_key(monkeypatch):
    # a 6-replication block of three configs of one window, each its own
    # settings key: the plan's windows come config after config, each
    # config's run is one stack, and each fit is the fit of its sample alone
    f, gauss, n = sinusoid(2.0), NoiseModel(family="gaussian", base_scale=0.5), 512
    tiny = OptimizerSettings(max_iterations=200)
    settings = [
        make_cfg(x0=(0.25,), h=0.15, degree=1, bound=8.0),
        make_cfg(x0=(0.25,), h=0.15, degree=1, bound=8.0, contrast=huber(1e-6), optimizer=tiny),
        # the kernel alone sets a key apart: a stack builds one kernel's weights
        make_cfg(x0=(0.25,), h=0.15, degree=1, bound=8.0, kernel=KernelSpec(kind="triangular", d=1)),
    ]
    samples = [gen_data(f, gauss, n, 1, (35, rep)) for rep in range(6)]
    x, y = (np.concatenate([getattr(data, name) for data in samples]) for name in ("x", "y"))
    windows, [depth] = local_fit._windows([(x, y, n, settings, np.full(len(samples), n))])
    assert depth.tolist() == [3] * 6
    alone = [fit_local(data, cfg) for cfg in settings for data in samples]
    stacks = []
    original = local_fit._fit_stack

    def counting(windows, fits):
        stacks.append(windows.size)
        return original(windows, fits)

    monkeypatch.setattr(local_fit, "_fit_stack", counting)
    mixed = _results(windows)
    assert stacks == [6, 6, 6]
    for fit, single in zip(mixed, alone, strict=True):
        _assert_same_fit(fit, single)


def test_joined_plans_of_two_points_stack_apart(monkeypatch):
    # one _windows call over the jobs of a rates-like block: plans of one
    # window at two points, then a plan of two levels at twice the sample
    # size, one of whose replications has no sample in its inner level.
    # The windows come job after job, each job's configs offset by the
    # configs before it, and are the bits of each job cut alone, end to
    # end, with the same depths; they split into a stack per run of one x0,
    # each rescaled by its own x0, and each fit is its sample's alone; a
    # plan of another index set cannot join them
    f, gauss, n = sinusoid(2.0), NoiseModel(family="gaussian", base_scale=0.5), 512

    def block(size, key):
        samples = [gen_data(f, gauss, size, 1, (37, key, rep)) for rep in range(4)]
        return samples, *(np.concatenate([getattr(data, name) for data in samples]) for name in ("x", "y"))

    samples, x, y = block(n, 0)
    counts = np.full(len(samples), n)
    configs = [make_cfg(x0=(x0,), h=0.2, degree=1, bound=8.0) for x0 in (0.3, 0.6)]
    levels = [make_cfg(x0=(0.3,), h=h, degree=1, bound=8.0) for h in (0.2, 0.05)]
    wide, wx, wy = block(2 * n, 1)
    near = np.abs(wide[1].x[:, 0] - 0.3) <= 0.025
    wx[2 * n : 4 * n][near, 0] += 0.07  # inside level 0 (half-width 0.1), outside level 1
    wide[1] = Dataset(x=wx[2 * n : 4 * n], y=wide[1].y)
    jobs = [(x, y, n, [cfg], counts) for cfg in configs] + [(wx, wy, 2 * n, levels, np.full(4, 2 * n))]
    joined, depths = local_fit._windows(iter(jobs))
    parts = [local_fit._windows([job]) for job in jobs]
    assert [depth.tolist() for depth in depths] == [[1] * 4, [1] * 4, [2, 1, 2, 2]]
    assert [depth.tolist() for depth in depths] == [alone.tolist() for _, [alone] in parts]
    assert joined.configs == configs + levels
    assert joined.config.tolist() == [0] * 4 + [1] * 4 + [2] * 3 + [3] * 3
    offsets = np.cumsum([0] + [len(job[3]) for job in jobs[:-1]])
    for name in ("x", "y", "n_local", "config", "scale"):
        want = np.concatenate([getattr(part, name) for part, _ in parts])
        if name == "config":
            want += np.repeat(offsets, [part.size for part, _ in parts])
        got = getattr(joined, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
    assert joined.scale.tolist() == [1.0 / (n * 0.2)] * 8 + [1.0 / (2 * n * 0.2)] * 3 + [1.0 / (2 * n * 0.05)] * 3
    stacks = []
    original = local_fit._fit_stack

    def recording(windows, fits):
        stacks.append(sorted({windows.configs[k].x0 for k in windows.config.tolist()}))
        return original(windows, fits)

    monkeypatch.setattr(local_fit, "_fit_stack", recording)
    fits = local_fit._fit_problems(joined)
    assert stacks == [[(0.3,)], [(0.6,)], [(0.3,)]]
    kept = [wide[rep] for rep in (0, 2, 3)]
    alone = [fit_local(data, cfg) for cfg in configs for data in samples]
    alone += [fit_local(data, cfg) for cfg in levels for data in kept]
    for i, single in enumerate(alone):
        _assert_same_fit(fits.result(i), single)
    quadratic = (x, y, n, [make_cfg(x0=(0.3,), h=0.2, degree=2)], counts)
    with pytest.raises(ValueError, match=r"^cannot join a plan of degree 2 in dimension 1 to one of degree 1 in dimension 1$"):
        local_fit._windows([jobs[0], quadratic])


def _weighted_median_by_sort(values, weights):
    """The weighted median by a stable sort: the first sorted value at
    which the cumulative weight reaches half the total."""
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    idx = int(np.searchsorted(cum, 0.5 * cum[-1]))
    return float(values[order][min(idx, values.size - 1)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=40,
    )
)
@example([0.3])
@example([2.0, 1.0])
@example([0.0, -0.0])
@example([-0.0, 0.0])
@example([-0.0, 0.0, -0.0, 0.0, 1.0])
@example([0.0, -1.0, -0.0, 0.0, -0.0, 2.0])
def test_unit_weight_median_matches_the_stable_sort_bit_for_bit(values):
    values = np.asarray(values, dtype=float)
    got = local_fit._weighted_median(values)  # unit weights
    want = _weighted_median_by_sort(values, np.ones(values.size))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()  # -0.0 != 0.0 here


_RESPONSES = {
    "normal": lambda rng, m: rng.standard_normal(m),
    "ties": lambda rng, m: rng.choice([-1.0, -0.0, 0.0, 1.0, 2.5], m),
    "zeros": lambda rng, m: rng.choice([-0.0, 0.0], m),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from([1, 63, 64, 65]), st.integers(1, 9 * local_fit._CHUNK)),
            st.sampled_from(sorted(_RESPONSES)),
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(0, 2**32 - 1),
)
# every chunk count 1..9, each held by two fits, then by one
@example([(64 * c - 1 - 7 * k, "ties") for c in range(1, 10) for k in range(2)], 0)
@example([(64 * c - 30, "normal") for c in range(1, 10)], 1)
@example([(1, "zeros"), (63, "zeros"), (64, "zeros"), (65, "zeros"), (65, "ties"), (1, "normal")], 2)
def test_uniform_stack_starts_at_each_windows_unit_median_bit_for_bit(windows, seed):
    # a uniform-kernel stack's starting constant coefficient is the
    # unit-weight median of its window's responses, bits and zero sign too,
    # whichever chunk counts its stack-mates have
    rng = np.random.default_rng(seed)
    responses = [_RESPONSES[kind](rng, m) for m, kind in windows]
    cfg = make_cfg(x0=(0.5,), bound=1e9)
    y = np.concatenate(responses)
    stack = local_fit._Stack(
        local_fit._Windows(
            np.full((y.size, 1), 0.5), y, np.array([m for m, _ in windows]),
            np.zeros(len(windows), dtype=int), np.ones(len(windows)), [cfg],
        )
    )
    want = np.array([local_fit._weighted_median(values) for values in responses])
    assert stack.t[:, 0].tobytes() == want.tobytes()
    assert not stack.t[:, 1:].any()


@pytest.mark.parametrize("kernel", ["uniform", "triangular", "epanechnikov"])
@pytest.mark.parametrize("d", [1, 2])
def test_nested_grid_windows_equal_windows_cut_from_the_full_sample(kernel, d):
    data = gen_data(sinusoid(beta=2.0), NoiseModel(family="gaussian", base_scale=0.5), 8192, d, seed=(31, d))
    spec = KernelSpec(kind=kernel, d=d)
    configs = [make_cfg(x0=(0.3,) * d, h=0.4 * 2.0**-k, kernel=spec) for k in range(4)]
    nested, [depth] = local_fit._windows([(data.x, data.y, data.n, configs, [data.n])])
    assert depth.tolist() == [4]
    alone = [_problem(data, cfg) for cfg in configs]
    for window, single in zip(_levels(nested), alone, strict=True):
        assert window.n_local.tolist() == single.n_local.tolist() and single.n_local[0] > 0
        assert window.scale.tolist() == single.scale.tolist()
        for name in ("x", "y"):
            a, b = getattr(window, name), getattr(single, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    stack, cut = local_fit._Stack(nested), local_fit._Stack(_cut(_job(data, cfg) for cfg in configs))
    for name in ("design_t", "weights", "y"):
        a, b = getattr(stack, name), getattr(cut, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    # a window's rows hold its responses and the monomials and kernel values
    # of its rescaled points, as calls on that window alone give them; its
    # padding rows hold +0.0
    chunk, index_set = local_fit._CHUNK, configs[0].index_set
    design = cut.design_t.transpose(0, 2, 1).reshape(-1, index_set.size)
    weights, y = cut.weights.reshape(-1), cut.y.reshape(-1)
    for window, first, rows in zip(alone, cut.starts * chunk, cut.chunks * chunk):
        n_local = int(window.n_local[0])
        cfg, live = window.configs[0], slice(first, first + n_local)
        z = (window.x - np.asarray(cfg.x0)) / cfg.h
        assert design[live].tobytes() == monomial_matrix(z, index_set).tobytes()
        assert weights[live].tobytes() == spec.value(z).tobytes()
        assert y[live].tobytes() == window.y.tobytes()
        pad = slice(first + n_local, first + rows)
        for padding in (design[pad], weights[pad], y[pad]):
            assert padding.tobytes() == np.zeros_like(padding).tobytes()


def _assert_same_fit(fit, single):
    assert fit.estimate == single.estimate and fit.n_local == single.n_local
    np.testing.assert_array_equal(fit.theta_hat.values, single.theta_hat.values)
    assert (fit.iterations, fit.converged, fit.stationarity_gap) == (
        single.iterations, single.converged, single.stationarity_gap
    )


@pytest.mark.parametrize("d", [1, 2])
def test_a_block_cut_leaves_the_other_replications_unshifted(d):
    # replication 2 keeps samples in grid levels 0 and 1 only: it is dropped
    # from every level, and each other replication's windows are the bits of
    # its own cut, in order, whichever level the hole is at
    configs = [make_cfg(x0=(0.3,) * d, h=0.4 * 2.0**-k, kernel=KernelSpec(kind="uniform", d=d)) for k in range(4)]
    f = sinusoid(beta=2.0) if d == 1 else product_sinusoid(beta=2.0)
    model, n = NoiseModel(family="gaussian", base_scale=0.5), 2048
    samples = [gen_data(f, model, n, d, (36, d, rep)) for rep in range(5)]
    x = [data.x.copy() for data in samples]
    near = (np.abs(x[2] - 0.3) <= configs[2].h / 2.0).all(axis=1)
    x[2][near, 0] = 0.3 + 0.07  # inside level 1 (half-width 0.1), outside level 2
    y = [data.y for data in samples]
    windows, [depth] = local_fit._windows(
        [(np.concatenate(x), np.concatenate(y), n, configs, np.array([len(v) for v in y]))]
    )
    assert depth.tolist() == [4, 4, 2, 4, 4]
    with pytest.raises(EmptyNeighborhoodError) as exc:
        select_bandwidth(Dataset(x=x[2], y=y[2]), configs, [1.0] * len(configs))
    assert exc.value.grid_index == 2
    assert windows.configs == configs
    for k, level in enumerate(_levels(windows)):
        assert level.config.tolist() == [k] * 4
        assert level.scale.tolist() == [1.0 / (n * configs[k].h ** d)] * 4
        ends = level.n_local.cumsum()
        for rep, first, last in zip((0, 1, 3, 4), ends - level.n_local, ends):
            alone = _cut([(x[rep], y[rep], n, configs, [n])])
            assert level.x[first:last].tobytes() == _levels(alone)[k].x.tobytes()
            assert level.y[first:last].tobytes() == _levels(alone)[k].y.tobytes()
    # the fits of the block are those of each replication on its own
    fits = _results(windows)
    singles = [fit_local(Dataset(x=x[rep], y=y[rep]), cfg) for cfg in configs for rep in (0, 1, 3, 4)]
    for fit, single in zip(fits, singles, strict=True):
        _assert_same_fit(fit, single)


@pytest.mark.parametrize("kernel", ["triangular", "epanechnikov"])
@pytest.mark.parametrize("d", [1, 2])
def test_stacks_of_weighted_kernels_give_each_fit_its_bits_alone(monkeypatch, kernel, d):
    # block windows of three nested levels, stacked whole and split by a
    # small stack cap: each fit is the fit of its stack of one
    spec = KernelSpec(kind=kernel, d=d)
    configs = [make_cfg(x0=(0.25,) * d, h=h, degree=1, bound=8.0, kernel=spec) for h in (0.4, 0.2, 0.1)]
    f = sinusoid(beta=2.0) if d == 1 else product_sinusoid(beta=2.0)
    model, n = NoiseModel(family="cauchy", base_scale=1.0), 1024
    samples = [gen_data(f, model, n, d, (37, d, rep)) for rep in range(6)]
    x, y = (np.concatenate([getattr(data, name) for data in samples]) for name in ("x", "y"))
    windows, [depth] = local_fit._windows([(x, y, n, configs, np.full(len(samples), n))])
    assert depth.tolist() == [3] * 6
    # each fit starts at the weighted median of its window's responses,
    # under the kernel weights of its own rescaled points
    starts = local_fit._Stack(windows).t[:, 0]
    medians = [
        _weighted_median_by_sort(part.y[first:last], spec.value((part.x[first:last] - cfg.x0) / cfg.h))
        for part, cfg in zip(_levels(windows), configs, strict=True)
        for first, last in zip(part.n_local.cumsum() - part.n_local, part.n_local.cumsum())
    ]
    assert max(map(abs, medians)) < 8.0  # inside the ball: the start is not projected
    assert starts.tolist() == medians
    singles = [fit_local(data, cfg) for cfg in configs for data in samples]
    for cap in (local_fit._STACK_CHUNKS, 8):
        monkeypatch.setattr(local_fit, "_STACK_CHUNKS", cap)
        stacked = _results(windows)
        for fit, single in zip(stacked, singles, strict=True):
            _assert_same_fit(fit, single)


@pytest.mark.parametrize("grid, index", [(True, 1), (False, None)])
def test_an_empty_inner_grid_level_raises_with_its_index(grid, index):
    # the samples lie 0.2 or more from x0: in the level of side 1, not of
    # side 0.25, so the depth is 1; a selection over the levels names that
    # grid index, a fit at that level none
    x = np.array([[0.3], [0.7], [0.05], [0.95]])
    data = Dataset(x=x, y=np.arange(4.0))
    configs = [make_cfg(x0=(0.5,), h=h) for h in (1.0, 0.25, 0.125)]
    _, [depth] = local_fit._windows([(data.x, data.y, data.n, configs, [data.n])])
    assert depth.tolist() == [1]
    with pytest.raises(EmptyNeighborhoodError, match="side 0.25") as exc:
        if grid:
            select_bandwidth(data, configs, [1.0] * len(configs))
        else:
            fit_local(data, configs[1])
    assert exc.value.grid_index == index


@pytest.mark.parametrize(
    "x0, hs, k",
    [
        ((0.5,), (0.1, 0.2), 1),  # wider than the window before it
        ((0.5,), (0.4, 0.1, 0.2), 2),  # inside the first window, not the one before
        ((0.6,), (0.1, 0.1), 1),  # around another point
    ],
)
def test_a_plan_that_is_not_a_chain_of_windows_raises_before_any_cut(x0, hs, k):
    # no sample lies within 0.25 of 0.5: window 0 is empty, yet the chain is
    # checked first
    data = Dataset(x=np.array([[0.05], [0.95]]), y=np.zeros(2))
    configs = [make_cfg(x0=(0.5,), h=hs[0])] + [make_cfg(x0=x0, h=h) for h in hs[1:]]
    prev, cfg = configs[k - 1], configs[k]
    message = (
        f"fit config {k} (x0={cfg.x0}, h={cfg.h}) lies outside the window of"
        f" fit config {k - 1} (x0={prev.x0}, h={prev.h})"
    )
    for counts in ([data.n], [1, 1]):  # a block of one, and of two
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            local_fit._windows([(data.x, data.y, data.n, configs, counts)])
