"""Synthetic regression data: uniform designs, symmetric heavy-tailed
noise, and test functions with declared smoothness constants.

Randomness comes from the counter-based Philox generator with explicit
sub-streams: stream 0 of a seed drives the design, stream 1 the noise, so
the two are independent by construction and every draw is a pure
function of (seed, stream).  A sub-stream is Philox at counter 0 under
the key numpy's ``SeedSequence(seed, spawn_key=(stream,))`` derives, by
its entropy-pool hash, which ``_philox_keys`` evaluates as array
operations over a whole block of seeds.  All noise families are sampled
by inverse transform from the same uniform stream; the quantile
transforms are folded around 1/2 so that flipping a uniform u -> 1 - u
negates the draw exactly.

One routine, ``gen_window``, draws every sample, for a block of seeds at
once.  A fit sees only the samples in its window, so the Monte Carlo
harness takes just a window's rows: the keys of the block's streams are
derived in one pass; then, one seed at a time, a reused Philox is set to
each of the seed's keys, and both uniform streams are drawn in full and
cut to the window's rows; then f, the scale rule and the noise quantile
run once, on the block's window rows.  Each of them is elementwise, so every row has the
same bits as in its seed's whole sample, which ``gen_data`` returns as a
validated ``Dataset`` (for the CLI and direct fits), a block of one.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .lepski import holder_floor
from .local_fit import Dataset, _box_rows, _check_responses

__all__ = [
    "NoiseFamily",
    "NOISE_FAMILIES",
    "HeteroscedasticRule",
    "NoiseModel",
    "TestFunction",
    "substream",
    "gen_window",
    "gen_data",
    "make_test_function",
    "sinusoid",
    "cusp",
    "product_sinusoid",
    "constant_function",
    "polynomial_function",
]

DESIGN_STREAM = 0
NOISE_STREAM = 1

# Keep inverse-CDF arguments strictly inside (0, 1).
_U_MARGIN = 2.0**-53


# numpy's SeedSequence hash: a pool of four 32-bit words, the multiplier
# sequences of its entropy hash (A) and its output hash (B), and the mixing
# multipliers; all arithmetic wraps modulo 2^32.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _XSHIFT = (np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


def _hash_columns(init: int, mult: int, first: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of ``calls`` hash steps from step ``first`` on, as
    columns: a step xors the value with the running constant (``xor``),
    advances the constant by ``mult`` and multiplies the value by the new
    one (``times``)."""
    c = init * pow(mult, first, 1 << 32) & _MASK32
    xor, times = [], []
    for _ in range(calls):
        xor.append(c)
        c = c * mult & _MASK32
        times.append(c)
    return np.array(xor, dtype=np.uint32)[:, None], np.array(times, dtype=np.uint32)[:, None]


@lru_cache(maxsize=64)
def _entropy_steps(first: int) -> tuple[np.ndarray, np.ndarray]:
    """Constants of the four entropy-hash steps from step ``first`` on."""
    return _hash_columns(_INIT_A, _MULT_A, first, _POOL)


@lru_cache(maxsize=None)
def _spread_steps(src: int) -> tuple[np.ndarray, np.ndarray]:
    """Constants of the steps that mix pool word ``src`` into the other
    three, on their rows; zeros on row ``src``, whose result is dropped."""
    xor, times = (np.zeros((_POOL, 1), dtype=np.uint32) for _ in range(2))
    dst = [i for i in range(_POOL) if i != src]
    xor[dst], times[dst] = (c[:3] for c in _entropy_steps(_POOL + 3 * src))
    return xor, times


@lru_cache(maxsize=None)
def _output_steps() -> tuple[np.ndarray, np.ndarray]:
    """Constants of the output hash, one step per pool word."""
    return _hash_columns(_INIT_B, _MULT_B, 0, _POOL)


def _hashmix(values: np.ndarray, steps: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """One hash step of ``values`` per row of the constant columns."""
    xor, times = steps
    values = (values ^ xor) * times
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pool words ``x`` with hashed words ``y`` mixed in."""
    x = _MIX_L * x - _MIX_R * y
    return x ^ (x >> _XSHIFT)


@lru_cache(maxsize=64)
def _spawn_words(position: int, streams: tuple) -> np.ndarray:
    """Each stream id, the one word of its spawn key at entropy word
    ``position``, hashed against the four pool words: (streams, 4, 1)."""
    for stream in streams:
        if not 0 <= stream <= _MASK32:
            raise ValueError(f"a stream id is one 32-bit word, got {stream}")
    words = np.array(streams, dtype=np.uint32)[:, None, None]
    return _hashmix(words, _entropy_steps(_POOL * position))


def _entropy_words(seed) -> list[int]:
    """The 32-bit words numpy's SeedSequence reads from ``seed``, an int or
    a tuple (or list) of ints, each least significant word first, padded
    with zeros to the pool size as it is under a spawn key.  A negative
    value is a ValueError."""
    words = []
    for value in seed if isinstance(seed, (tuple, list)) else (seed,):
        value = int(value)
        if value < 0:
            raise ValueError(f"a seed must be non-negative, got {value}")
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
    return words + [0] * (_POOL - len(words))


def _philox_keys(seeds, streams: tuple) -> list:
    """The Philox key of each stream id of ``streams`` for each seed of
    ``seeds`` (an int or a tuple of ints), as lists of two ints: key s of
    seed i is ``keys[i][s]``, numpy's ``SeedSequence(seed,
    spawn_key=(s,)).generate_state(2, np.uint64)``.

    The hash runs once per entropy word count, on all the seeds with that
    many words (a column each): the pool is filled from the first four
    words, each pool word is mixed into the other three (one step on the
    pool's rows), the further words are mixed in, and the spawn word last,
    for every stream at once; the output hash turns each pool into four
    words, read as two little-endian uint64s."""
    groups: dict = {}
    for i, seed in enumerate(seeds):
        words = _entropy_words(seed)
        index, rows = groups.setdefault(len(words), ([], []))
        index.append(i)
        rows.append(words)
    keys: list = [None] * len(seeds)
    for count, (index, rows) in groups.items():
        entropy = np.array(rows, dtype=np.uint32).T
        pool = _hashmix(entropy[:_POOL], _entropy_steps(0))
        for src in range(_POOL):
            mixed = _mix(pool, _hashmix(pool[src], _spread_steps(src)))
            mixed[src] = pool[src]
            pool = mixed
        for j in range(_POOL, count):
            pool = _mix(pool, _hashmix(entropy[j], _entropy_steps(_POOL * j)))
        pool = _mix(pool, _spawn_words(count, streams))  # (streams, 4, seeds)
        state = _hashmix(pool, _output_steps()).transpose(2, 0, 1)
        words = np.ascontiguousarray(state, dtype="<u4").view("<u8").tolist()
        for i, seed_keys in zip(index, words):
            keys[i] = seed_keys
    return keys


def _set_key(bits: np.random.Philox, key: list) -> None:
    """Put ``bits`` at counter 0 of ``key`` with an empty buffer: the state
    of a Philox built with that key."""
    bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def substream(seed, stream: int) -> np.random.Generator:
    """Philox generator for sub-stream ``stream`` of a seed.

    ``seed`` may be an int or a tuple of ints (e.g. (base_seed, rep)).
    """
    rng = np.random.Generator(np.random.Philox(key=0))
    _set_key(rng.bit_generator, _philox_keys([seed], (stream,))[0][0])
    return rng


# ---------------------------------------------------------------------------
# Noise families (unit scale)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class NoiseFamily:
    """A symmetric unit-scale distribution with closed-form cdf and
    quantile."""

    name: str
    cdf: Callable[[float], float]
    _upper_quantile: Callable[[np.ndarray], np.ndarray]  # for u in [1/2, 1)

    def quantile(self, u):
        """Inverse cdf, folded so quantile(1 - u) == -quantile(u) exactly."""
        u = np.asarray(u, dtype=float)
        upper = np.where(u >= 0.5, u, 1.0 - u)
        vals = self._upper_quantile(upper)
        return np.where(u >= 0.5, vals, -vals)


def _gauss_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _gauss_upper_quantile(u):
    from scipy.special import ndtri

    return ndtri(u)


def _laplace_cdf(z):
    return 0.5 * math.exp(z) if z < 0 else 1.0 - 0.5 * math.exp(-z)


def _cauchy_cdf(z):
    return 0.5 + math.atan(z) / math.pi


NOISE_FAMILIES = {
    "gaussian": NoiseFamily(
        name="gaussian",
        cdf=_gauss_cdf,
        _upper_quantile=_gauss_upper_quantile,
    ),
    "laplace": NoiseFamily(
        name="laplace",
        cdf=_laplace_cdf,
        _upper_quantile=lambda u: -np.log(2.0 * (1.0 - u)),
    ),
    "cauchy": NoiseFamily(
        name="cauchy",
        cdf=_cauchy_cdf,
        _upper_quantile=lambda u: np.tan(math.pi * (u - 0.5)),
    ),
}


# ---------------------------------------------------------------------------
# Heteroscedastic scale rules
# ---------------------------------------------------------------------------
HETEROSCEDASTIC_KINDS = ("constant", "alternating", "sinusoidal")


@dataclass(frozen=True)
class HeteroscedasticRule:
    """Per-observation scale multipliers: constant, alternating between 1
    and ``factor``, or sinusoidal 1 + amplitude * sin(2 pi i / period)."""

    kind: str = "constant"
    factor: float = 1.0
    amplitude: float = 0.0
    period: int = 16

    def __post_init__(self):
        if self.kind not in HETEROSCEDASTIC_KINDS:
            raise ValueError(f"unknown heteroscedastic rule {self.kind!r}")
        if self.kind == "alternating" and self.factor < 1.0:
            raise ValueError("alternating factor must be >= 1")
        if self.kind == "sinusoidal" and not 0.0 <= self.amplitude < 1.0:
            raise ValueError("sinusoidal amplitude must be in [0, 1)")
        if self.period < 1:
            raise ValueError("period must be >= 1")

    def multipliers(self, rows: np.ndarray) -> np.ndarray:
        """The multiplier of each sample index in ``rows``."""
        if self.kind == "constant":
            return np.ones(len(rows))
        if self.kind == "alternating":
            return np.where(rows % 2 == 0, 1.0, self.factor)
        return 1.0 + self.amplitude * np.sin(2.0 * math.pi * rows / self.period)

    @property
    def min_multiplier(self) -> float:
        if self.kind == "sinusoidal":
            return 1.0 - self.amplitude
        return 1.0

    @property
    def max_multiplier(self) -> float:
        if self.kind == "sinusoidal":
            return 1.0 + self.amplitude
        return self.factor if self.kind == "alternating" else 1.0

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "factor": self.factor,
            "amplitude": self.amplitude,
            "period": self.period,
        }


@dataclass(frozen=True)
class NoiseModel:
    """Noise specification: family, base scale, optional per-index scale
    rule, and the known lower scale bound sigma_min, checked once on build
    against the smallest scale the rule emits."""

    family: str
    base_scale: float = 1.0
    heteroscedastic: HeteroscedasticRule | None = None
    sigma_min: float | None = None
    # derived: the scale rule, and the largest |draw| _gen_noise can emit
    _rule: HeteroscedasticRule = field(init=False, repr=False, compare=False)
    _largest_draw: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if not self.base_scale > 0:  # NaN too
            raise ValueError(f"base scale must be positive, got {self.base_scale}")
        rule = self.heteroscedastic or HeteroscedasticRule()
        object.__setattr__(self, "_rule", rule)
        # the draw at the largest uniform _gen_noise feeds the quantile
        quantile = abs(float(self.unit_family.quantile(1.0 - _U_MARGIN)))
        largest = float(self.base_scale) * float(rule.max_multiplier) * quantile
        if not math.isfinite(largest):
            raise ValueError(
                f"the largest noise draw, scale {self.base_scale!r} x largest multiplier"
                f" {rule.max_multiplier!r} x |quantile(1 - 2^-53)| {quantile!r}, is not finite"
            )
        object.__setattr__(self, "_largest_draw", largest)
        # no multiplier falls below min_multiplier, so no scale below this
        implied = self.base_scale * rule.min_multiplier
        sigma_min = implied if self.sigma_min is None else float(self.sigma_min)
        if not sigma_min > 0:  # NaN too
            raise ValueError(f"sigma_min must be positive, got {sigma_min}")
        if sigma_min > implied + 4 * math.ulp(implied):
            raise ValueError(
                f"sigma_min {sigma_min} exceeds the smallest emitted scale {implied}"
            )
        object.__setattr__(self, "sigma_min", sigma_min)

    @property
    def unit_family(self) -> NoiseFamily:
        return NOISE_FAMILIES[self.family]

    def scales(self, rows: np.ndarray) -> np.ndarray:
        """The scale of the draw at each sample index in ``rows``; the build
        checked sigma_min."""
        return self.base_scale * self._rule.multipliers(rows)

    def to_config(self) -> dict:
        cfg = {
            "family": self.family,
            "scale": self.base_scale,
            "sigma_min": self.sigma_min,
        }
        if self.heteroscedastic is not None:
            cfg["heteroscedastic"] = self.heteroscedastic.to_config()
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "NoiseModel":
        rule = cfg.get("heteroscedastic")
        return cls(
            family=cfg["family"],
            base_scale=cfg.get("scale", 1.0),
            heteroscedastic=HeteroscedasticRule(**rule) if rule else None,
            sigma_min=cfg.get("sigma_min"),
        )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------
def _gen_noise(model: NoiseModel, u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Heteroscedastic noise draws sigma_i * xi_i at the sample indices
    ``rows`` from their uniforms ``u`` of the noise sub-stream."""
    u = _U_MARGIN + u * (1.0 - 2.0 * _U_MARGIN)
    return model.scales(rows) * model.unit_family.quantile(u)


def gen_window(
    f, model: NoiseModel, n: int, d: int, seeds, box=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each seed of ``seeds``, the sample Y_i = f(X_i) + sigma_i xi_i of
    size n, with independent design and noise sub-streams, as rows (x, y):
    those in ``box``, an (x0, h) pair naming a fit's window, the sup-norm
    box of side h centered at x0; all n rows without one.  Returns the rows
    of every seed, seed after seed, and each seed's row count.

    The keys of every seed's sub-streams are derived in one pass
    (``_philox_keys``), and one Philox, set to each key in turn, draws
    them.  Both sub-streams of a seed are drawn in full and cut to the box
    before the next seed's are drawn, so a row's bits depend neither on
    the box nor on the other seeds: f, the scale rule and the noise
    quantile are elementwise, and are evaluated once, on the block's rows.
    The design lies in [0,1)^d by construction; n < 1, a negative seed and
    a response that is not finite (as in ``Dataset``) are ValueErrors."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    keys = _philox_keys(seeds, (DESIGN_STREAM, NOISE_STREAM))
    rng = np.random.Generator(np.random.Philox(key=0))  # each stream sets its key
    xs, us, rows = [], [], []
    for design_key, noise_key in keys:
        _set_key(rng.bit_generator, design_key)
        x = rng.random((n, d))
        _set_key(rng.bit_generator, noise_key)
        u = rng.random(n)
        if box is None:
            inside = np.arange(n)
        else:
            inside = _box_rows(x, *box)
            x, u = x.take(inside, axis=0), u.take(inside)
        xs.append(x)
        us.append(u)
        rows.append(inside)
    counts = np.array([inside.size for inside in rows])
    x, u, rows = (parts[0] if len(parts) == 1 else np.concatenate(parts) for parts in (xs, us, rows))
    y = np.asarray(f(x), dtype=float) + _gen_noise(model, u, rows)
    _check_responses(y)
    return x, y, counts


def gen_data(f, model: NoiseModel, n: int, d: int, seed) -> Dataset:
    """The whole sample of ``gen_window`` for one seed as a validated
    ``Dataset``."""
    x, y, _ = gen_window(f, model, n, d, [seed])
    return Dataset(x=x, y=y)


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TestFunction:
    """A regression function with declared smoothness (beta), Lipschitz
    constant and derivative-sum bound, plus analytic partial derivatives
    up to the integer part of beta (None when a derivative is absent)."""

    name: str
    d: int
    beta: float
    lipschitz: float
    bound: float
    fn: Callable
    partial_fn: Callable
    params: dict

    def __post_init__(self):
        if not (math.isfinite(self.lipschitz) and math.isfinite(self.bound)):
            raise ValueError(
                f"{self.name}: the declared Lipschitz constant {self.lipschitz!r} and"
                f" bound {self.bound!r} must be finite"
            )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(self.fn(x[None, :])[0])
        return self.fn(x)

    def partial(self, p, x):
        x = np.asarray(x, dtype=float)
        return self.partial_fn(tuple(int(q) for q in p), x)

    def to_config(self) -> dict:
        return {"name": self.name, **self.params}


def _sin_eval(freq, amplitude, x):
    return amplitude * np.sin(freq * x[:, 0])


def _sin_partial(freq, amplitude, p, x):
    k = p[0]
    return float(amplitude * freq**k * math.sin(freq * x[0] + k * math.pi / 2.0))


def sinusoid(beta: float, amplitude: float = 1.0) -> TestFunction:
    """a sin(2 pi x) on [0,1], declared at smoothness beta.

    All derivatives exist; the constants follow from |f^(m)| <= |a| (2 pi)^m:
    L = |a| (2 pi)^{floor+1} and M = |a| sum_{m<=floor} (2 pi)^m.
    """
    floor = holder_floor(beta)
    freq = 2.0 * math.pi
    lipschitz = abs(amplitude) * freq ** (floor + 1)
    bound = abs(amplitude) * sum(freq**m for m in range(floor + 1))
    return TestFunction(
        name="sinusoid",
        d=1,
        beta=beta,
        lipschitz=lipschitz,
        bound=bound,
        fn=partial(_sin_eval, freq, amplitude),
        partial_fn=partial(_sin_partial, freq, amplitude),
        params={"beta": beta, "amplitude": amplitude},
    )


def _cusp_eval(amplitude, center, beta, x):
    return amplitude * np.abs(x[:, 0] - center) ** beta


def _cusp_partial(amplitude, center, beta, p, x):
    if sum(p) > 0:
        return None  # derivative absent: feeds the zero-coefficient rule
    return float(amplitude * abs(x[0] - center) ** beta)


def cusp(beta: float, amplitude: float = 1.0, center: float = 0.5) -> TestFunction:
    """a |x - c|^beta for beta in (0, 1]: Hoelder with L = |a|, no first
    derivative at the cusp (reported absent everywhere)."""
    if not 0 < beta <= 1:
        raise ValueError(f"cusp smoothness must be in (0, 1], got {beta}")
    if not 0 <= center <= 1:
        raise ValueError(f"cusp center must be in [0, 1], got {center}")
    bound = abs(amplitude) * max(center, 1.0 - center) ** beta
    return TestFunction(
        name="cusp",
        d=1,
        beta=beta,
        lipschitz=abs(amplitude),
        bound=bound,
        fn=partial(_cusp_eval, amplitude, center, beta),
        partial_fn=partial(_cusp_partial, amplitude, center, beta),
        params={"beta": beta, "amplitude": amplitude, "center": center},
    )


def _prod_sin_eval(freq, amplitude, x):
    return amplitude * np.sin(freq * x[:, 0]) * np.sin(freq * x[:, 1])


def _prod_sin_partial(freq, amplitude, p, x):
    k1, k2 = p
    return float(
        amplitude
        * freq ** (k1 + k2)
        * math.sin(freq * x[0] + k1 * math.pi / 2.0)
        * math.sin(freq * x[1] + k2 * math.pi / 2.0)
    )


def product_sinusoid(beta: float, amplitude: float = 1.0) -> TestFunction:
    """a sin(2 pi x_1) sin(2 pi x_2) on [0,1]^2 at declared smoothness beta."""
    floor = holder_floor(beta)
    freq = 2.0 * math.pi
    lipschitz = abs(amplitude) * freq ** (floor + 1)
    # d=2 has m+1 indices of total order m, each with sup |partial| <= |a| (2pi)^m
    bound = abs(amplitude) * sum(freq**m * (m + 1) for m in range(floor + 1))
    return TestFunction(
        name="product_sinusoid",
        d=2,
        beta=beta,
        lipschitz=lipschitz,
        bound=bound,
        fn=partial(_prod_sin_eval, freq, amplitude),
        partial_fn=partial(_prod_sin_partial, freq, amplitude),
        params={"beta": beta, "amplitude": amplitude},
    )


def _const_eval(value, x):
    return np.full(x.shape[0], value)


def _const_partial(value, p, x):
    return float(value) if sum(p) == 0 else 0.0


def constant_function(value: float, d: int = 1, beta: float = 1.0) -> TestFunction:
    """Constant function: in every smoothness class with L = 0."""
    return TestFunction(
        name="constant",
        d=d,
        beta=beta,
        lipschitz=0.0,
        bound=abs(value),
        fn=partial(_const_eval, value),
        partial_fn=partial(_const_partial, value),
        params={"value": value, "d": d, "beta": beta},
    )


def _poly_eval(coeffs, x):
    out = np.zeros(x.shape[0])
    for p, a in coeffs:
        out += a * np.prod(x ** np.asarray(p, dtype=float), axis=1)
    return out


def _poly_partial(coeffs, q, x):
    total = 0.0
    for p, a in coeffs:
        if any(pj < qj for pj, qj in zip(p, q)):
            continue
        term = a
        for pj, qj, xj in zip(p, q, x):
            term *= math.factorial(pj) / math.factorial(pj - qj) * xj ** (pj - qj)
        total += term
    return float(total)


def polynomial_function(coeffs: dict, d: int, beta: float | None = None) -> TestFunction:
    """Global polynomial sum_p a_p x^p with exact partial derivatives.

    ``coeffs`` maps exponent tuples to coefficients.  Used for exactness
    oracles; the declared constants are crude sup-norm bounds on [0,1]^d.
    """
    items = tuple(sorted((tuple(int(v) for v in p), float(a)) for p, a in coeffs.items()))
    degree = max((sum(p) for p, _ in items), default=0)
    bound = sum(abs(a) for _, a in items)
    return TestFunction(
        name="polynomial",
        d=d,
        beta=float(degree + 1) if beta is None else beta,
        lipschitz=max(bound, 1.0),
        bound=max(bound, 1.0),
        fn=partial(_poly_eval, items),
        partial_fn=partial(_poly_partial, items),
        params={"coeffs": {str(p): a for p, a in items}, "d": d},
    )


_NUMBER = {"type": "number"}

# Config name -> (factory, JSON Schema of each of its keyword parameters).
# Defaults live in the factory signatures; the experiment schema and
# make_test_function both read this table.
TEST_FUNCTIONS = {
    "sinusoid": (sinusoid, {"beta": _NUMBER, "amplitude": _NUMBER}),
    "cusp": (cusp, {"beta": _NUMBER, "amplitude": _NUMBER, "center": _NUMBER}),
    "product_sinusoid": (product_sinusoid, {"beta": _NUMBER, "amplitude": _NUMBER}),
    "constant": (
        constant_function,
        {"value": _NUMBER, "d": {"type": "integer", "minimum": 1}, "beta": _NUMBER},
    ),
}


class _MissingParameter(KeyError, ValueError):
    """A required parameter absent from a test-function config: a KeyError,
    and a ValueError with a plain message, like any other bad value."""

    __str__ = ValueError.__str__


def make_test_function(cfg: dict) -> TestFunction:
    """Build a test function from its config dict {'name': ..., params};
    a missing required parameter is a KeyError naming it."""
    name = cfg["name"]
    if name not in TEST_FUNCTIONS:
        raise ValueError(f"unknown test function {name!r}")
    factory, params = TEST_FUNCTIONS[name]
    for p in inspect.signature(factory).parameters.values():
        if p.default is p.empty and p.name not in cfg:
            raise _MissingParameter(f"{p.name!r} is a required property of {name!r}")
    return factory(**{k: cfg[k] for k in params if k in cfg})
