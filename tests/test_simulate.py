import inspect
import math
import statistics
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from roblp.basis import multi_index_set
from roblp.lepski import holder_floor, minimax_bandwidth
from roblp.local_fit import _box_rows, _in_window
from roblp.simulate import (
    DESIGN_STREAM,
    HETEROSCEDASTIC_KINDS,
    NOISE_FAMILIES,
    NOISE_STREAM,
    TEST_FUNCTIONS,
    HeteroscedasticRule,
    NoiseFamily,
    NoiseModel,
    constant_function,
    cusp,
    gen_data,
    _ONE,
    _bits,
    _box_edges,
    _float,
    _gauss_upper_quantile,
    _last_inside,
    _gen_noise,
    gen_window,
    make_test_function,
    product_sinusoid,
    sinusoid,
    substream,
)

# asymptotic sd of the sample median is 1 / (2 g(0) sqrt(n)); per-family g(0)
MEDIAN_BAND_CONSTANT = {
    "gaussian": math.sqrt(math.pi / 2),
    "laplace": 1.0,
    "cauchy": math.pi / 2,
}


# Certificates of the declared constants: the oracles of the tests below.
def function_library() -> list:
    """Named test functions with certified constants."""
    return [
        sinusoid(beta=2.0),
        sinusoid(beta=3.0),
        cusp(beta=0.5, amplitude=1.0, center=0.5),
        cusp(beta=1.0, amplitude=1.0, center=0.3),
        product_sinusoid(beta=2.0),
        constant_function(0.5),
    ]


@dataclass(frozen=True)
class HolderCertificate:
    """Sampled check of the declared smoothness constants."""

    max_holder_ratio: float
    derivative_sum: float
    ok: bool


def certify_holder(f, n_pairs: int = 10_000, seed: int = 0) -> HolderCertificate:
    """Check the two class inequalities on sampled point pairs: top-order
    increments against L ||x - y||_1^{beta - floor}, and the grid sup of
    the derivative sum against the bound M."""
    floor = holder_floor(f.beta)
    rng = substream(seed, 7)
    xs = rng.random((n_pairs, f.d))
    ys = rng.random((n_pairs, f.d))
    exponent = f.beta - floor

    top = [p for p in multi_index_set(floor, f.d).indices if sum(p) == floor]
    max_ratio = 0.0
    for p in top:
        for xi, yi in zip(xs, ys):
            fx = f.partial(p, xi) if floor > 0 else float(f(xi))
            fy = f.partial(p, yi) if floor > 0 else float(f(yi))
            if fx is None or fy is None:
                return HolderCertificate(math.inf, math.inf, False)
            gap = np.abs(xi - yi).sum()
            if gap > 0:
                max_ratio = max(max_ratio, abs(fx - fy) / gap**exponent)

    grid = rng.random((512, f.d))
    der_sum = 0.0
    for p in multi_index_set(floor, f.d).indices:
        if sum(p) == 0:
            der_sum += float(np.max(np.abs(f(grid))))
        else:
            der_sum += max(abs(f.partial(p, xi)) for xi in grid)
    ok = max_ratio <= f.lipschitz * (1 + 1e-9) and der_sum <= f.bound * (1 + 1e-9)
    return HolderCertificate(max_holder_ratio=max_ratio, derivative_sum=der_sum, ok=ok)


def certify_noise_family(family: NoiseFamily) -> bool:
    """Symmetry and monotone decay of the density on the positive axis, on
    a grid, read off the shipped cdf: cdf(z) + cdf(-z) == 1, the cdf does
    not decrease, and it is concave on [0, 20], as a density that does not
    increase there makes it."""
    grid = np.linspace(0.0, 20.0, 2001)
    upper = np.array([family.cdf(float(z)) for z in grid])
    lower = np.array([family.cdf(float(-z)) for z in grid])
    symmetric = bool(np.all(upper + lower == 1.0))
    increasing = bool(np.all(np.diff(upper) >= 0.0)) and upper[0] == 0.5 and upper[-1] <= 1.0
    concave = bool(np.all(np.diff(upper, 2) <= 1e-15))
    return symmetric and increasing and concave


def noise_stream(model: NoiseModel, n: int, seed) -> np.ndarray:
    """The noise of a seed's whole sample of size n: its noise sub-stream
    through ``_gen_noise``."""
    return _gen_noise(model, substream(seed, NOISE_STREAM).random(n), np.arange(n))


def design(n: int, d: int, seed) -> np.ndarray:
    """The design of a seed's whole sample of size n, as ``gen_data``
    draws it."""
    return gen_data(constant_function(0.0, d=d), NoiseModel(family="gaussian"), n, d, seed).x


def test_design_determinism_and_range():
    a = design(1000, 2, seed=42)
    b = design(1000, 2, seed=42)
    np.testing.assert_array_equal(a, b)
    c = design(1000, 2, seed=43)
    assert not np.array_equal(a, c)
    assert np.all((a >= 0) & (a < 1))


def test_design_mean_band():
    n = 100_000
    x = design(n, 2, seed=7)
    for j in range(2):
        assert abs(x[:, j].mean() - 0.5) < 4 / math.sqrt(n)


def test_substream_isolation():
    # design and noise streams of the same seed do not overlap
    x = design(100, 1, seed=5)
    model = NoiseModel(family="gaussian", base_scale=1.0)
    noise = noise_stream(model, 100, 5)
    assert not np.allclose(x[:, 0], noise)
    # tuple seeds address replications
    n1 = noise_stream(model, 50, (5, 0))
    n2 = noise_stream(model, 50, (5, 1))
    assert not np.allclose(n1, n2)


def test_a_sample_needs_a_row():
    model = NoiseModel(family="gaussian")
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
            gen_window(constant_function(0.0), model, n, 1, 1, [0], ((0.5,), 0.2))
        with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
            gen_data(constant_function(0.0), model, n, 1, 1)


def test_negative_seeds_are_rejected():
    model = NoiseModel(family="gaussian")
    for seed in (-1, (3, -2), [0, -(2**40)]):
        with pytest.raises(ValueError, match="non-negative"):
            substream(seed, 0)
        with pytest.raises(ValueError, match="non-negative"):
            gen_data(constant_function(0.0), model, 8, 1, seed)
        with pytest.raises(ValueError, match="non-negative"):
            gen_window(constant_function(0.0), model, 8, 1, seed, [0], ((0.5,), 0.2))
    # so is a negative stream id
    with pytest.raises(ValueError, match="non-negative"):
        substream(1, -1)


@pytest.mark.parametrize("stream", [DESIGN_STREAM, NOISE_STREAM, 7])
@pytest.mark.parametrize("seed", [0, 2**32, (5, 3), (1, 2, 3, 4, 5)], ids=str)
def test_substream_is_the_seed_sequence_stream(seed, stream):
    entropy = seed if isinstance(seed, tuple) else (seed,)
    oracle = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy, spawn_key=(stream,)))
    )
    assert substream(seed, stream).random(2000).tobytes() == oracle.random(2000).tobytes()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("size", [1, 2, 64])
def test_block_rows_are_the_substream_draws_bit_for_bit(size, d):
    # a whole sample's rows are its seed's two sub-streams; the seeds mix
    # pairs, ints of two words and seeds of five words
    seeds = [((11, rep), 2**33 + rep, (rep, 2**40, 1, 2, 3))[rep % 3] for rep in range(size)]
    model = NoiseModel(family="laplace", base_scale=0.5)
    n = 37
    for seed in seeds:
        data = gen_data(constant_function(0.0, d=d), model, n, d, seed)
        assert data.x.tobytes() == substream(seed, DESIGN_STREAM).random((n, d)).tobytes()
        assert data.y.tobytes() == noise_stream(model, n, seed).tobytes()


@pytest.mark.parametrize("family", sorted(NOISE_FAMILIES))
def test_noise_flip_symmetry_exact(family):
    fam = NOISE_FAMILIES[family]
    u = np.linspace(0.01, 0.99, 199)
    plus = fam.quantile(u)
    minus = fam.quantile(1.0 - u)
    np.testing.assert_array_equal(plus, -minus)


@pytest.mark.parametrize("family", sorted(NOISE_FAMILIES))
def test_noise_median_band(family):
    n = 100_000
    scale = 1.7
    model = NoiseModel(family=family, base_scale=scale)
    draws = noise_stream(model, n, 11)
    band = 4 * MEDIAN_BAND_CONSTANT[family] / math.sqrt(n) * scale
    assert abs(np.median(draws)) < band


def test_cauchy_interquartile_range():
    n = 100_000
    model = NoiseModel(family="cauchy", base_scale=2.0)
    draws = noise_stream(model, n, 13)
    q75, q25 = np.percentile(draws, [75, 25])
    # quartiles of the unit cauchy sit at +/- 1
    assert q75 - q25 == pytest.approx(2 * 2.0, rel=0.05)


@pytest.mark.parametrize("family", sorted(NOISE_FAMILIES))
def test_noise_family_certificates(family):
    assert certify_noise_family(NOISE_FAMILIES[family])


def test_the_noise_families_cannot_be_changed():
    # the models, the config schema and a forked pool worker all read this
    # one registry, so no family can be registered, replaced or removed
    with pytest.raises(TypeError):
        NOISE_FAMILIES["doubled_gaussian"] = NOISE_FAMILIES["gaussian"]
    with pytest.raises(TypeError):
        del NOISE_FAMILIES["gaussian"]
    assert sorted(NOISE_FAMILIES) == ["cauchy", "gaussian", "laplace"]


def test_noise_quantile_cdf_consistency():
    for fam in NOISE_FAMILIES.values():
        for u in (0.5, 0.62, 0.9, 0.99):
            z = float(fam.quantile(np.array([u]))[0])
            assert fam.cdf(z) == pytest.approx(u, abs=1e-12)


# The Gaussian quantile (AS241) against the stdlib's, which runs the same
# algorithm, and against scipy's ndtri.
STDLIB_QUANTILE = statistics.NormalDist().inv_cdf
CENTRAL_EDGE = 0.925  # q = u - 1/2 = 0.425
TAIL_EDGE = 1.0 - math.exp(-25.0)  # r = sqrt(-log(1 - u)) = 5


def _ulps(a, b) -> np.ndarray:
    """Ulps between non-negative floats, the upper quantile's values."""
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


def _neighbours(u: float, k: int = 8) -> list:
    """u and its k nearest floats on each side."""
    below, above = [u], [u]
    for _ in range(k):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], 2.0))
    return below[:0:-1] + above


def _upper_probes() -> np.ndarray:
    """Uniforms of [1/2, 1): spread over the range, spread over the tails by
    log(1 - u) down to 1 - u = 2^-53, and on both sides of each region
    edge."""
    rng = np.random.default_rng(31)
    u = np.concatenate([
        rng.uniform(0.5, 1.0, 20_000),
        1.0 - np.exp(-rng.uniform(-math.log(0.075), 36.0, 20_000)),
        _neighbours(CENTRAL_EDGE),
        _neighbours(TAIL_EDGE),
        [0.5, 1.0 - 2.0**-53],
    ])
    assert np.all((u >= 0.5) & (u < 1.0))
    return u


def test_gaussian_quantile_central_region_is_the_stdlibs_bit_for_bit():
    u = _upper_probes()
    u = u[u - 0.5 <= 0.425]
    assert np.isin(_neighbours(CENTRAL_EDGE), u).any()  # its other side is a tail's
    expected = np.array([STDLIB_QUANTILE(v) for v in u])
    assert _gauss_upper_quantile(u).tobytes() == expected.tobytes()


def test_gaussian_quantile_tails_are_the_stdlibs_where_the_logs_agree():
    u = _upper_probes()
    u = u[u - 0.5 > 0.425]
    assert np.isin(_neighbours(CENTRAL_EDGE), u).any()
    r = np.sqrt(-np.log(1.0 - u))
    assert (r <= 5.0).sum() > 1_000 and (r > 5.0).sum() > 1_000
    edge = np.sqrt(-np.log(1.0 - np.array(_neighbours(TAIL_EDGE))))
    assert (edge <= 5.0).any() and (edge > 5.0).any()
    expected = np.array([STDLIB_QUANTILE(v) for v in u])
    ulps = _ulps(_gauss_upper_quantile(u), expected)
    # np.log and math.log differ by an ulp at a few arguments; the rest of
    # the arithmetic is the stdlib's, so only there may the values differ,
    # and an ulp of the log moves the quantile by up to 4
    log_ulps = _ulps(-np.log(1.0 - u), [-math.log(1.0 - v) for v in u])
    assert log_ulps.max() <= 1
    assert np.all(ulps[log_ulps == 0] == 0)
    assert ulps.max() <= 4
    assert np.mean(ulps == 0) > 0.999


def test_gaussian_quantile_is_within_8_ulps_of_ndtri():
    from scipy.special import ndtri

    u = _upper_probes()
    assert _ulps(_gauss_upper_quantile(u), ndtri(u)).max() <= 8


def test_gaussian_quantile_edge_values():
    gaussian = NOISE_FAMILIES["gaussian"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _gauss_upper_quantile(np.array([0.5, 1.0])).tolist() == [0.0, math.inf]
        assert np.isfinite(_gauss_upper_quantile(1.0 - 2.0**-53))
        assert gaussian.quantile([0.0, 0.5, 1.0]).tolist() == [-math.inf, 0.0, math.inf]
    # NoiseModel passes a 0-d array
    value = _gauss_upper_quantile(np.float64(0.975))
    assert value.shape == () and float(value) == STDLIB_QUANTILE(0.975)
    assert gaussian.quantile(0.975).shape == ()


@pytest.mark.parametrize("family", sorted(NOISE_FAMILIES))
def test_the_quantiles_arithmetic_fold_keeps_the_bits_of_the_select(family):
    # quantile folds u to max(u, 1 - u) and flips the lower half by the sign
    # of u - 1/2, where it used to select by u >= 1/2: the same bits, -0.0
    # (Laplace at 1/2) and both ends included, and a scalar stays 0-d
    fam = NOISE_FAMILIES[family]
    edges = [0.0, 2.0**-53, 0.25, 0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53, 0.75, 1.0 - 2.0**-53, 1.0]
    u = np.concatenate([edges, np.random.default_rng(3).random(100_000)])
    with np.errstate(divide="ignore"):  # log(0) at u = 0 and 1 (Laplace)
        vals = fam._upper_quantile(np.where(u >= 0.5, u, 1.0 - u))
        selected = np.where(u >= 0.5, vals, -vals)
        assert fam.quantile(u).tobytes() == selected.tobytes()
    assert fam.quantile(0.975).shape == ()
    assert float(fam.quantile(0.975)) == fam.quantile(np.array([0.975]))[0]


def test_heteroscedastic_rules():
    rule = HeteroscedasticRule(kind="alternating", factor=3.0)
    model = NoiseModel(family="gaussian", base_scale=0.5, heteroscedastic=rule)
    s = model.scales(np.arange(6))
    np.testing.assert_allclose(s, [0.5, 1.5, 0.5, 1.5, 0.5, 1.5])
    assert model.sigma_min == 0.5

    rule = HeteroscedasticRule(kind="sinusoidal", amplitude=0.5, period=8)
    model = NoiseModel(family="laplace", base_scale=1.0, heteroscedastic=rule)
    s = model.scales(np.arange(64))
    assert np.all(s >= model.sigma_min - 1e-15)
    assert model.sigma_min == pytest.approx(0.5)
    assert s.min() == pytest.approx(0.5, abs=1e-12)

    with pytest.raises(ValueError):
        HeteroscedasticRule(kind="sinusoidal", amplitude=1.5)
    with pytest.raises(ValueError):
        NoiseModel(family="gaussian", base_scale=1.0, sigma_min=2.0)


@pytest.mark.parametrize("kind", HETEROSCEDASTIC_KINDS)
def test_no_multiplier_falls_below_min_multiplier(kind):
    # NoiseModel checks sigma_min once, against base_scale * min_multiplier,
    # and scales() checks nothing; both rely on this invariant
    rng = np.random.default_rng(11)
    amplitudes = [0.0, 0.1, 0.5, 0.9, 0.999, 1.0 - 2.0**-52, *rng.uniform(0.0, 1.0, 20)]
    factors = [1.0, 1.0 + 2.0**-52, 1.5, 3.0, 1e300, *rng.uniform(1.0, 10.0, 5)]
    for amplitude in amplitudes:
        for factor in factors:
            for period in (1, 2, 3, 4, 7, 8, 16, 100, 1023):
                rule = HeteroscedasticRule(kind=kind, factor=factor, amplitude=amplitude, period=period)
                for n in (1, 2, 5, 64, 2049):
                    assert rule.multipliers(np.arange(n)).min() >= rule.min_multiplier, (rule, n)


def test_sigma_min_slack_is_relative_to_the_smallest_scale():
    for scale in (1.877556829253587e-17, 0.5, 3e5):
        ulp_above = np.nextafter(scale, math.inf)
        assert NoiseModel(family="laplace", base_scale=scale, sigma_min=ulp_above).sigma_min == ulp_above
        with pytest.raises(ValueError, match="exceeds the smallest emitted scale"):
            NoiseModel(family="laplace", base_scale=scale, sigma_min=scale * (1 + 1e-12))


@pytest.mark.parametrize("family", sorted(NOISE_FAMILIES))
def test_noise_model_rejects_a_non_finite_largest_draw(family):
    quantile = abs(float(NOISE_FAMILIES[family].quantile(1.0 - 2.0**-53)))
    scale = np.finfo(float).max / quantile / 2.0
    assert np.all(np.isfinite(noise_stream(NoiseModel(family=family, base_scale=scale), 2000, 3)))
    with pytest.raises(ValueError, match=r"the largest noise draw, .* is not finite"):
        NoiseModel(family=family, base_scale=4.0 * scale)
    rule = HeteroscedasticRule(kind="alternating", factor=4.0)
    with pytest.raises(ValueError, match=r"largest multiplier 4\.0"):
        NoiseModel(family=family, base_scale=scale, heteroscedastic=rule)


def test_noise_model_rejects_nan_scales():
    with pytest.raises(ValueError, match="base scale must be positive, got nan"):
        NoiseModel(family="gaussian", base_scale=math.nan)
    with pytest.raises(ValueError, match="sigma_min must be positive, got nan"):
        NoiseModel(family="gaussian", base_scale=1.0, sigma_min=math.nan)


def test_noise_model_serialization():
    rule = HeteroscedasticRule(kind="alternating", factor=2.0)
    model = NoiseModel(family="cauchy", base_scale=0.7, heteroscedastic=rule)
    back = NoiseModel.from_config(model.to_config())
    assert back == model


def test_gen_data_zero_noise_limit():
    f = sinusoid(beta=2.0)
    tiny = NoiseModel(family="gaussian", base_scale=1e-300)
    data = gen_data(f, tiny, 50, 1, seed=3)
    np.testing.assert_allclose(data.y, f(data.x), atol=1e-290)


def test_gen_data_zero_function_gives_noise_stream():
    f = constant_function(0.0)
    model = NoiseModel(family="laplace", base_scale=1.0)
    data = gen_data(f, model, 80, 1, seed=9)
    np.testing.assert_array_equal(data.y, noise_stream(model, 80, 9))
    np.testing.assert_array_equal(data.x, substream(9, DESIGN_STREAM).random((80, 1)))


# (x0, h) boxes: interior, clipped at 0, clipped at 1, holding all of
# [0,1]^d, and holding none
WINDOW_BOXES = {
    "interior": (0.4, 0.3),
    "clipped-0": (0.02, 0.2),
    "clipped-1": (0.97, 0.25),
    "all": (0.5, 1.0),
    "empty": (2.0, 0.5),
}


def window_model(rule: str, family: str = "gaussian") -> NoiseModel:
    rule = HeteroscedasticRule(kind=rule, factor=2.5, amplitude=0.7, period=5)
    return NoiseModel(family=family, base_scale=0.8, heteroscedastic=rule)


def window_rows(monkeypatch, f, model, n, d, seed, reps, box):
    """``gen_window``'s rows and counts, and the sample indices it passed to
    the noise transform (None under a constant scale rule)."""
    import roblp.simulate as simulate

    seen = []

    def recording(model, u, rows):
        seen.append(rows)
        return _gen_noise(model, u, rows)

    monkeypatch.setattr(simulate, "_gen_noise", recording)
    x, y, counts = gen_window(f, model, n, d, seed, reps, box)
    (rows,) = seen
    return x, y, counts, rows


@pytest.mark.parametrize("box", WINDOW_BOXES, ids=str)
@pytest.mark.parametrize("rule", HETEROSCEDASTIC_KINDS)
@pytest.mark.parametrize("family", sorted(NOISE_FAMILIES))
@pytest.mark.parametrize("d", [1, 2])
def test_every_drawn_row_lies_in_its_window(monkeypatch, d, family, rule, box):
    # every row passes the window cut's own test, so none is dropped, the
    # sample indices of a non-constant rule are a sorted subset of
    # range(n), one per row, and each response is f at its point plus the
    # family's noise at its index's scale (a Kolmogorov-Smirnov test of
    # the standardized residuals against the family's cdf)
    from scipy.stats import kstest

    f = sinusoid(beta=2.0, amplitude=3.0) if d == 1 else product_sinusoid(beta=2.0, amplitude=3.0)
    x0, h = WINDOW_BOXES[box]
    n, reps, model = 300, range(40), window_model(rule, family)
    x, y, counts, rows = window_rows(monkeypatch, f, model, n, d, 61, reps, ((x0,) * d, h))
    assert x.shape == (counts.sum(), d) and y.shape == x.shape[:1] and counts.shape == (len(reps),)
    assert _box_rows(x, (x0,) * d, h).tolist() == list(range(len(y)))
    assert np.all((x >= 0.0) & (x <= 1.0))
    if box == "all":
        assert counts.tolist() == [n] * len(reps)
    if box == "empty":
        assert counts.tolist() == [0] * len(reps)
    else:
        assert counts.min() > 0
    assert (rows is None) == (rule == "constant")
    if rows is not None:
        ends = counts.cumsum()
        for first, last in zip(ends - counts, ends):
            own = rows[first:last]
            assert np.all(np.diff(own) > 0) and (own.size == 0 or 0 <= own[0] <= own[-1] < n)
    if len(y):
        scale = model.base_scale if rows is None else model.scales(rows)
        z = (y - f(x)) / scale
        assert kstest(z, np.vectorize(model.unit_family.cdf)).pvalue > 1e-3


def test_box_edges_are_the_outermost_floats_a_window_cut_keeps():
    # x0 -/+ h/2 rounds to a float that the cut's test may keep or drop;
    # the corners are the last kept floats, unless [0, 1] ends first
    rng = np.random.default_rng(5)
    boxes = [(float(c), float(h)) for c, h in rng.random((300, 2))]
    boxes += [(0.3, 0.59998), (0.25, 0.5), (0.5, 1e-20), (1.2, 0.5), (-0.5, 1.0), (2.0, 0.5)]
    for c, h in boxes:
        (lo,), (hi,) = _box_edges((c,), h)

        def kept(v):
            return _box_rows(np.array([[v]]), (c,), h).size == 1

        if lo > hi:  # the box misses [0, 1]
            assert not kept(min(max(c, 0.0), 1.0))
            continue
        assert 0.0 <= lo <= hi <= 1.0 and kept(lo) and kept(hi)
        assert lo == 0.0 or not kept(math.nextafter(lo, -math.inf))
        assert hi == 1.0 or not kept(math.nextafter(hi, math.inf))


def _box_edges_by_full_bisection(x0, h):
    """The corners of the window box by bisecting the bit patterns from
    the clipped x0 all the way to 0 and to 1: the oracle of _box_edges."""

    def last_inside(inside, start, stop):
        if inside(stop):
            return stop
        while abs(stop - start) > 1:
            mid = (start + stop) // 2
            start, stop = (mid, stop) if inside(mid) else (start, mid)
        return start

    corners = []
    for c in map(float, x0):
        def inside(i, c=c):
            return _in_window(_float(i), c, h)

        anchor = _bits(min(max(c, 0.0), 1.0) + 0.0)
        if not inside(anchor):
            corners.append((1.0, 0.0))
            continue
        corners.append((_float(last_inside(inside, anchor, 0)), _float(last_inside(inside, anchor, _ONE))))
    return tuple(np.array(corners).T)


def test_the_edge_search_leaves_a_bracket_that_misses_the_edge():
    # a guess whose bracket lies wholly inside or wholly outside the kept
    # floats still finds the edge, searching outward or from the start
    for edge in (0, _bits(0.3), _ONE):
        for start, stop, inside in ((0, _ONE, lambda i: i <= edge), (_ONE, 0, lambda i: i >= edge)):
            for guess in (0.1, 0.3, 0.7):
                assert _last_inside(inside, start, stop, guess, 1e-3) == edge, (edge, start, guess)


def test_box_edges_equal_a_full_bisection():
    rng = np.random.default_rng(11)
    boxes = [((float(c),), float(h)) for c, h in rng.random((2000, 2))]
    # x0 anywhere near [0, 1], h from subnormal to beyond the unit interval
    boxes += [((float(c),), float(10.0**e)) for c, e in zip(rng.uniform(-1.0, 2.0, 2000), rng.uniform(-320, 1, 2000))]
    specials = [0.0, -0.0, 1.0, 0.5, 0.25, -0.5, 1.5, 2.0, 5e-324, math.nextafter(1.0, 0.0), math.nextafter(0.0, 1.0)]
    widths = [5e-324, 1e-310, 1e-300, 1e-20, 1e-16, 0.5, 0.59998, 1.0, 2.0, 3.0, 1e300]
    boxes += [((c,), h) for c in specials for h in widths]
    # the d = 2 windows of a study at its minimax bandwidths
    boxes += [((0.25, 0.75), minimax_bandwidth(2.0, 39.478417604357434, n, 2)) for n in (128, 1024, 4096, 16384)]
    for x0, h in boxes:
        lo, hi = _box_edges(x0, h)
        expected_lo, expected_hi = _box_edges_by_full_bisection(x0, h)
        # bit for bit: -0.0 and 0.0 differ
        assert lo.tobytes() == expected_lo.tobytes() and hi.tobytes() == expected_hi.tobytes(), (x0, h)


@pytest.mark.parametrize("d, x0, h", [(1, 0.4, 0.3), (1, 0.02, 0.2), (2, 0.97, 0.25)])
def test_window_counts_are_binomial(d, x0, h):
    # over 4000 replications, the mean and variance of the row count are
    # those of Binomial(n, p), p the clipped box's volume, within 4.5
    # standard errors (the variance's from the binomial's fourth moment)
    n, reps = 60, 4000
    p = np.prod([min(x0 + h / 2, 1.0) - max(x0 - h / 2, 0.0)] * d)
    _, _, counts = gen_window(constant_function(0.0, d=d), NoiseModel(family="gaussian"), n, d, 7, range(reps), ((x0,) * d, h))
    mean, var = n * p, n * p * (1 - p)
    fourth = mean * (1 - p) * (1 + 3 * (n - 2) * p * (1 - p))  # central fourth moment
    assert abs(counts.mean() - mean) <= 4.5 * math.sqrt(var / reps)
    assert abs(counts.var(ddof=1) - var) <= 4.5 * math.sqrt((fourth - var**2) / reps)


@pytest.mark.parametrize("d", [1, 2])
def test_window_points_are_uniform_and_the_noise_independent_of_them(d):
    # each coordinate of the rows, rescaled to the clipped box, passes a
    # Kolmogorov-Smirnov test of uniformity, and the noise (f = 0) is
    # uncorrelated with every coordinate, within 4 standard errors
    from scipy.stats import kstest

    x0, h = (0.05, 0.6)[:d], 0.3
    model = NoiseModel(family="laplace")
    x, y, _ = gen_window(constant_function(0.0, d=d), model, 500, d, 8, range(100), (x0, h))
    lo, hi = np.maximum(np.array(x0) - h / 2, 0.0), np.array(x0) + h / 2
    for j in range(d):
        assert kstest((x[:, j] - lo[j]) / (hi[j] - lo[j]), "uniform").pvalue > 1e-3
        assert abs(np.corrcoef(x[:, j], y)[0, 1]) <= 4 / math.sqrt(len(y))


@pytest.mark.parametrize("rule", ["alternating", "sinusoidal"])
def test_window_sample_indices_are_uniform(monkeypatch, rule):
    # the indices of a non-constant rule are uniform on range(n): their mean
    # is (n - 1)/2 and half are even, within 4 standard errors
    n, reps = 64, 400
    _, _, _, rows = window_rows(
        monkeypatch, constant_function(0.0), window_model(rule), n, 1, 9, range(reps), ((0.5,), 0.2)
    )
    sd = math.sqrt((n * n - 1) / 12 / rows.size)
    assert abs(rows.mean() - (n - 1) / 2) <= 4 * sd
    assert abs(np.mean(rows % 2 == 0) - 0.5) <= 4 * 0.5 / math.sqrt(rows.size)


def test_window_draw_rejects_responses_that_are_not_finite():
    model = NoiseModel(family="gaussian", base_scale=1.0)
    with pytest.raises(ValueError, match="responses must be finite"):
        gen_window(lambda x: np.where(x[:, 0] < 0.25, np.inf, 0.0), model, 64, 1, 3, [0], ((0.25,), 0.2))
    # in a block, one replication's response is enough
    with pytest.raises(ValueError, match="responses must be finite"):
        gen_window(lambda x: np.where(x[:, 0] < 0.16, np.inf, 0.0), model, 64, 1, 3, range(3), ((0.25,), 0.2))


@pytest.mark.parametrize("rule", HETEROSCEDASTIC_KINDS)
@pytest.mark.parametrize("family", sorted(NOISE_FAMILIES))
@pytest.mark.parametrize("d", [1, 2])
def test_a_block_draw_gives_each_seed_the_rows_of_its_own_draw(d, family, rule):
    # f, the scale rule and the quantile run once on the block's rows; each
    # replication's rows keep the bits of a draw of that replication alone,
    # also after one whose box holds no row
    f = sinusoid(beta=2.0, amplitude=3.0) if d == 1 else product_sinusoid(beta=2.0, amplitude=3.0)
    model = window_model(rule, family)
    n, seed, reps = 40, 60 + d, range(3, 11)
    box = ((0.3,) * d, 0.05 if d == 1 else 0.2)
    x, y, counts = gen_window(f, model, n, d, seed, reps, box)
    assert 0 in counts[1:-2].tolist() and 0 not in counts[-2:].tolist()
    assert x.shape == (counts.sum(), d) and y.shape == x.shape[:1]
    ends = counts.cumsum()
    for rep, first, last in zip(reps, ends - counts, ends):
        one_x, one_y, one = gen_window(f, model, n, d, seed, [rep], box)
        assert one.tolist() == [last - first]
        assert x[first:last].tobytes() == one_x.tobytes()
        assert y[first:last].tobytes() == one_y.tobytes()
    # another run seed draws other rows
    assert gen_window(f, model, n, d, seed + 100, reps, box)[2].tolist() != counts.tolist()


def test_gen_data_regression_slope():
    f = sinusoid(beta=2.0)
    model = NoiseModel(family="gaussian", base_scale=0.5)
    data = gen_data(f, model, 100_000, 1, seed=17)
    fx = f(data.x)
    slope = np.cov(data.y, fx)[0, 1] / np.var(fx)
    assert slope == pytest.approx(1.0, abs=0.02)


def test_gen_data_determinism():
    f = sinusoid(beta=2.0)
    model = NoiseModel(family="cauchy", base_scale=1.0)
    d1 = gen_data(f, model, 64, 1, seed=21)
    d2 = gen_data(f, model, 64, 1, seed=21)
    np.testing.assert_array_equal(d1.y, d2.y)
    np.testing.assert_array_equal(d1.x, d2.x)


def test_sinusoid_constants():
    f = sinusoid(beta=3.0)
    # sup-norm calculus: |f| + |f'| + |f''| <= 1 + 2pi + 4pi^2
    assert f.bound == pytest.approx(1 + 2 * math.pi + 4 * math.pi**2)
    assert f.lipschitz == pytest.approx((2 * math.pi) ** 3)
    assert f(np.array([0.25])) == pytest.approx(1.0)
    assert f.partial((1,), np.array([0.25])) == pytest.approx(0.0, abs=1e-12)
    assert f.partial((2,), np.array([0.25])) == pytest.approx(-((2 * math.pi) ** 2))


def test_library_certificates():
    for f in function_library():
        cert = certify_holder(f, n_pairs=2000, seed=1)
        assert cert.ok, (f.name, f.beta, cert)


@pytest.mark.parametrize(
    "f",
    [
        sinusoid(beta=2.0, amplitude=-1.0),
        sinusoid(beta=3.0, amplitude=-0.5),
        cusp(beta=0.5, amplitude=-1.0, center=0.5),
        cusp(beta=1.0, amplitude=-2.0, center=0.3),
        product_sinusoid(beta=2.0, amplitude=-1.0),
    ],
    ids=lambda f: f"{f.name}-{f.beta}",
)
def test_negative_amplitudes_declare_the_constants_of_their_mirror(f):
    # -f lies in the Hoelder class of f: same constants, both certified
    mirror = make_test_function({**f.to_config(), "amplitude": -f.params["amplitude"]})
    assert (f.lipschitz, f.bound) == (mirror.lipschitz, mirror.bound)
    assert f.lipschitz > 0 and f.bound > 0
    cert = certify_holder(f, n_pairs=2000, seed=1)
    assert cert.ok, cert


def test_cusp_certificate_with_unit_constant():
    # grid certificate over sampled pairs: ratio stays below L = amplitude
    f = cusp(beta=0.5, amplitude=1.0, center=0.5)
    cert = certify_holder(f, n_pairs=10_000, seed=2)
    assert cert.ok
    assert cert.max_holder_ratio <= 1.0 + 1e-9


def test_constant_function_in_every_class():
    f = constant_function(0.5, beta=2.5)
    cert = certify_holder(f, n_pairs=500, seed=3)
    assert cert.ok
    assert f.lipschitz == 0.0
    assert f.bound >= 0.5


def test_product_sinusoid_partials():
    f = product_sinusoid(beta=2.0)
    x = np.array([0.3, 0.7])
    got = f.partial((1, 1), x)
    expected = (2 * math.pi) ** 2 * math.cos(2 * math.pi * 0.3) * math.cos(2 * math.pi * 0.7)
    assert got == pytest.approx(expected, rel=1e-12)


def test_make_test_function_roundtrip():
    for f in function_library():
        back = make_test_function(f.to_config())
        assert back.name == f.name
        assert back.beta == f.beta
        x = np.full((3, f.d), 0.37)
        np.testing.assert_allclose(back(x), f(x))
    with pytest.raises(ValueError):
        make_test_function({"name": "nope"})



@pytest.mark.parametrize("name", sorted(TEST_FUNCTIONS))
def test_test_function_table_lists_its_factory_parameters(name):
    factory, params = TEST_FUNCTIONS[name]
    assert list(params) == list(inspect.signature(factory).parameters)
    built = make_test_function({"name": name, "beta": 0.5, "value": 0.5})
    assert built.name == name


def test_make_test_function_names_a_missing_required_parameter():
    with pytest.raises(KeyError, match="beta"):
        make_test_function({"name": "cusp", "amplitude": 2.0})
    with pytest.raises(KeyError, match="value"):
        make_test_function({"name": "constant", "beta": 2.0})


@pytest.mark.parametrize("factory", [sinusoid, product_sinusoid])
def test_declared_constants_must_be_finite(factory):
    # L = a (2 pi)^2 overflows for amplitude 1e308
    with pytest.raises(ValueError, match=r"Lipschitz constant inf and bound inf must be finite"):
        factory(beta=2.0, amplitude=1e308)
