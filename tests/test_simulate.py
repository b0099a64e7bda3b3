import inspect
import math
from dataclasses import dataclass

import numpy as np
import pytest

from roblp.basis import multi_index_set
from roblp.lepski import holder_floor
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
    _gen_noise,
    _philox_keys,
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
    """The design of a seed's whole sample of size n, as ``gen_window``
    draws it."""
    x, _, _ = gen_window(constant_function(0.0, d=d), NoiseModel(family="gaussian"), n, d, [seed])
    return x


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
            gen_window(constant_function(0.0), model, n, 1, [1])


def seed_sequence_key(seed, stream: int) -> list:
    """The oracle: numpy's own key for sub-stream ``stream`` of ``seed``."""
    entropy = seed if isinstance(seed, tuple) else (seed,)
    return np.random.SeedSequence(entropy, spawn_key=(stream,)).generate_state(2, np.uint64).tolist()


# int and tuple seeds across the 32-bit word boundaries, beyond 2^64, and
# with more than the pool's four words of entropy
KEY_SEEDS = [
    0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 7, 3**90,
    (0,), (5, 0), (5, 1), (0, 0, 0, 0), (2**32 - 1, 2**32), (1, 2, 3, 4, 5),
    (7, 2**70, 9), tuple(range(11)), (2**200, 3),
]


@pytest.mark.parametrize("streams", [(0, 1), (1, 0), (7,), (2**32 - 1, 0, 5)])
def test_block_keys_are_numpys_seed_sequence_keys(streams):
    # one block mixes every word count, so the hash runs once per count
    keys = _philox_keys(KEY_SEEDS, streams)
    assert len(keys) == len(KEY_SEEDS)
    for seed, seed_keys in zip(KEY_SEEDS, keys):
        assert seed_keys == [seed_sequence_key(seed, s) for s in streams]
    # each seed's keys do not depend on the seeds beside it
    for seed, seed_keys in zip(KEY_SEEDS, keys):
        assert _philox_keys([seed], streams) == [seed_keys]


def test_keys_reject_negative_seeds_and_stream_ids_past_one_word():
    for seed in (-1, (3, -2), [0, -(2**40)]):
        with pytest.raises(ValueError, match="non-negative"):
            _philox_keys([1, seed], (0, 1))
        with pytest.raises(ValueError, match="non-negative"):
            substream(seed, 0)
        with pytest.raises(ValueError, match="non-negative"):
            gen_window(constant_function(0.0), NoiseModel(family="gaussian"), 8, 1, [1, seed])
    for stream in (-1, 2**32):
        with pytest.raises(ValueError, match="one 32-bit word"):
            substream(1, stream)


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
    # whole samples (no box), so every row is compared; the block mixes
    # pairs, ints of two words and seeds of five words
    seeds = [((11, rep), 2**33 + rep, (rep, 2**40, 1, 2, 3))[rep % 3] for rep in range(size)]
    model = NoiseModel(family="laplace", base_scale=0.5)
    n = 37
    x, y, counts = gen_window(constant_function(0.0, d=d), model, n, d, seeds)
    assert counts.tolist() == [n] * size
    for rep, seed in enumerate(seeds):
        rows = slice(rep * n, (rep + 1) * n)
        assert x[rows].tobytes() == substream(seed, DESIGN_STREAM).random((n, d)).tobytes()
        assert y[rows].tobytes() == noise_stream(model, n, seed).tobytes()


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


def test_noise_quantile_cdf_consistency():
    for fam in NOISE_FAMILIES.values():
        for u in (0.5, 0.62, 0.9, 0.99):
            z = float(fam.quantile(np.array([u]))[0])
            assert fam.cdf(z) == pytest.approx(u, abs=1e-12)


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


# (x0, h) boxes: interior, clipped at 0, clipped at 1, holding every row
# (the design lies in [0,1)), and holding none
WINDOW_BOXES = {
    "interior": (0.4, 0.3),
    "clipped-0": (0.02, 0.2),
    "clipped-1": (0.97, 0.25),
    "all": (0.5, 1.0),
    "empty": (2.0, 0.5),
}


@pytest.mark.parametrize("box", WINDOW_BOXES, ids=str)
@pytest.mark.parametrize("rule", HETEROSCEDASTIC_KINDS)
@pytest.mark.parametrize("family", sorted(NOISE_FAMILIES))
@pytest.mark.parametrize("d", [1, 2])
def test_window_draw_is_the_full_samples_rows_bit_for_bit(d, family, rule, box):
    # f, the scale rule and the quantile evaluated on the window's rows give
    # the bits they give on the whole sample
    f = sinusoid(beta=2.0, amplitude=3.0) if d == 1 else product_sinusoid(beta=2.0, amplitude=3.0)
    rule = HeteroscedasticRule(kind=rule, factor=2.5, amplitude=0.7, period=5)
    model = NoiseModel(family=family, base_scale=0.8, heteroscedastic=rule)
    x0, h = WINDOW_BOXES[box]
    n, seed = 3000, (61, d)
    data = gen_data(f, model, n, d, seed)
    inside = (np.abs(data.x - (x0,) * d) <= h / 2.0).all(axis=1)
    x, y, counts = gen_window(f, model, n, d, [seed], ((x0,) * d, h))
    assert x.shape == (np.count_nonzero(inside), d) and y.shape == x.shape[:1]
    assert counts.tolist() == [x.shape[0]]
    assert x.tobytes() == data.x[inside].tobytes()
    assert y.tobytes() == data.y[inside].tobytes()
    assert (x.shape[0] == n) == (box == "all") and (x.shape[0] == 0) == (box == "empty")


def test_window_draw_rejects_responses_that_are_not_finite():
    model = NoiseModel(family="gaussian", base_scale=1.0)
    with pytest.raises(ValueError, match="responses must be finite"):
        gen_window(lambda x: np.where(x[:, 0] < 0.5, np.inf, 0.0), model, 64, 1, [3], ((0.25,), 0.2))
    # in a block, one seed's response is enough
    with pytest.raises(ValueError, match="responses must be finite"):
        gen_window(lambda x: np.where(x[:, 0] < 0.01, np.inf, 0.0), model, 64, 1, [3, 4, 5])


@pytest.mark.parametrize("rule", HETEROSCEDASTIC_KINDS)
@pytest.mark.parametrize("family", sorted(NOISE_FAMILIES))
@pytest.mark.parametrize("d", [1, 2])
def test_a_block_draw_gives_each_seed_the_rows_of_its_own_draw(d, family, rule):
    # f, the scale rule and the quantile run once on the block's rows; each
    # seed's rows keep the bits of a draw of that seed alone, also after a
    # seed whose box holds no row
    f = sinusoid(beta=2.0, amplitude=3.0) if d == 1 else product_sinusoid(beta=2.0, amplitude=3.0)
    rule = HeteroscedasticRule(kind=rule, factor=2.5, amplitude=0.7, period=5)
    model = NoiseModel(family=family, base_scale=0.8, heteroscedastic=rule)
    n, seeds = 40, [(60, d, rep) for rep in range(6)]
    box = ((0.3,) * d, 0.05 if d == 1 else 0.2)
    for window in (box, None):
        x, y, counts = gen_window(f, model, n, d, seeds, window)
        if window is None:
            assert counts.tolist() == [n] * len(seeds)
        else:
            assert 0 in counts[1:-1].tolist() and 0 not in counts[-2:].tolist()
        assert x.shape == (counts.sum(), d) and y.shape == x.shape[:1]
        ends = counts.cumsum()
        for seed, first, last in zip(seeds, ends - counts, ends):
            one_x, one_y, one = gen_window(f, model, n, d, [seed], window)
            assert one.tolist() == [last - first]
            assert x[first:last].tobytes() == one_x.tobytes()
            assert y[first:last].tobytes() == one_y.tobytes()


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
