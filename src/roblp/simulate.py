"""Synthetic regression data: uniform designs, symmetric heavy-tailed
noise, and test functions with declared smoothness constants.

Randomness comes from the counter-based Philox generator.  A whole
sample (``gen_data``, behind the CLI, direct fits and the adaptive
checks) reads two sub-streams of its seed: stream 0 drives the design,
stream 1 the noise, so the two are independent by construction and every
draw is a pure function of (seed, stream).  A sub-stream is Philox at
counter 0 under the key of numpy's ``SeedSequence(seed,
spawn_key=(stream,))``.  All noise families are sampled by inverse
transform from a uniform stream; the quantile transforms are folded
around 1/2 so that flipping a uniform u -> 1 - u negates the draw
exactly.

A fit sees only the samples in its window, so the Monte Carlo studies
draw only a window's rows (``gen_window``), in distribution: the rows of
a uniform sample in a box have a binomial count, and given the count are
uniform in the box, so each replication draws its count, then its
points and noise uniforms, from a stream keyed by its run and its
replication number.  A study's rows thus have the law of the whole
sample's rows, not their bits, at a cost in the window's size rather
than n; f, the scale rule and the noise quantile run once, on a block's
rows.
"""

from __future__ import annotations

import inspect
import math
import struct
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType
from typing import Callable

import numpy as np
# loaded with the module, not on first use: a forked pool worker then
# inherits numpy.random rather than importing it (about 9 ms) per run
from numpy.random import Generator, Philox, SeedSequence

from .lepski import holder_floor
from .local_fit import Dataset, _check_responses, _in_window

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


def substream(seed, stream: int) -> Generator:
    """Philox generator for sub-stream ``stream`` of a seed: counter 0 under
    the key of numpy's ``SeedSequence(seed, spawn_key=(stream,))``.

    ``seed`` may be an int or a tuple of ints (e.g. (base_seed, rep)); a
    negative one is a ValueError.
    """
    return Generator(Philox(SeedSequence(seed, spawn_key=(stream,))))


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
        """Inverse cdf, folded so quantile(1 - u) == -quantile(u) exactly.
        The fold is arithmetic, with no data-dependent select: 1 - u is
        exact for u >= 1/2, so max(u, 1 - u) is u there and 1 - u below,
        and the sign of u - 1/2 (+0.0 at u = 1/2) flips the lower half;
        a product by 1.0 keeps each bit, Laplace's -0.0 at 1/2 too."""
        u = np.asarray(u, dtype=float)
        vals = self._upper_quantile(np.maximum(u, 1.0 - u))
        return vals * np.copysign(1.0, u - 0.5)


def _gauss_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


# Wichura's AS241 rationals as the stdlib's statistics module writes them,
# (numerator, denominator), highest power first.
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_AS241_NEAR_TAIL = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0),
)
_AS241_FAR_TAIL = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


def _horner(coefficients, t: np.ndarray) -> np.ndarray:
    """The polynomial at t by Horner's rule, in place: ``np.polyval``'s
    arithmetic without its temporaries."""
    y = np.full_like(t, coefficients[0])
    for c in coefficients[1:]:
        y *= t
        y += c
    return y


def _rational(coefficients, t: np.ndarray, factor=1.0) -> np.ndarray:
    """num(t) * factor / den(t), in that order."""
    num, den = (_horner(c, t) for c in coefficients)
    num *= factor
    num /= den
    return num


def _gauss_upper_quantile(u):
    """The standard Gaussian quantile on u in [1/2, 1]: Wichura's AS241
    (1988, Appl. Statist. 37(3)), the algorithm, coefficients and operation
    order of the stdlib's ``statistics.NormalDist.inv_cdf``.

    One rational in r = 0.180625 - q^2 serves q = u - 1/2 <= 0.425; past
    it, r = sqrt(-log(1 - u)), and one rational in r - 1.6 serves r <= 5,
    another in r - 5 the rest; only the tail values pay for the tail
    rationals.  The central region is pure arithmetic and matches the
    stdlib bit for bit.  The tails match it wherever np.log and math.log
    agree; where they differ by an ulp (at 1 tail argument in 4,000 to
    20,000 on an AVX-512 host), the quantile moves by up to 4.  All values
    lie within 8 ulps of scipy's ``ndtri``.  quantile(1) = inf.
    """
    u = np.asarray(u, dtype=float)
    shape, u = u.shape, u.ravel()
    q = u - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    x = _rational(_AS241_CENTRAL, r, q)
    tail = np.flatnonzero(q > 0.425)
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) at u = 1
        r = np.sqrt(-np.log(1.0 - u[tail]))
        x[tail] = _rational(_AS241_NEAR_TAIL, r - 1.6)
        far = r > 5.0
        if far.any():  # 1 - u < e^-25 is rare; an empty call costs 15 us (Xeon)
            x[tail[far]] = _rational(_AS241_FAR_TAIL, r[far] - 5.0)
    x[tail[r == np.inf]] = np.inf
    return x.reshape(shape)


def _laplace_cdf(z):
    return 0.5 * math.exp(z) if z < 0 else 1.0 - 0.5 * math.exp(-z)


def _cauchy_cdf(z):
    return 0.5 + math.atan(z) / math.pi


# A NoiseModel names its family here.  The estimator never sees g, so the
# families are a fixed test vocabulary: the mapping is read-only, and the
# models, the config schema and a forked pool worker all see this one set.
NOISE_FAMILIES = MappingProxyType({
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
})


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
def _gen_noise(model: NoiseModel, u: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """Heteroscedastic noise draws sigma_i * xi_i at the sample indices
    ``rows`` from their uniforms ``u`` (``rows`` is None under a constant
    scale rule, whose scale is the base scale at every index)."""
    u = _U_MARGIN + u * (1.0 - 2.0 * _U_MARGIN)
    scale = model.base_scale if rows is None else model.scales(rows)
    return scale * model.unit_family.quantile(u)


# A float of [0, 1] and its bit pattern, which orders such floats as ints.
_DOUBLE, _INT = struct.Struct("<d"), struct.Struct("<q")
_ONE = _INT.unpack(_DOUBLE.pack(1.0))[0]


def _bits(v: float) -> int:
    return _INT.unpack(_DOUBLE.pack(v))[0]


def _float(i: int) -> float:
    return _DOUBLE.unpack(_INT.pack(i))[0]


def _last_inside(inside, start: int, stop: int, guess: float, spread: float) -> int:
    """The last int from ``start``, where ``inside`` holds, toward ``stop``
    before ``inside`` turns false, which it does at most once on the way:
    a bisection, first of the bit patterns of [0, 1] within ``spread`` of
    ``guess``, and from ``start`` when the edge is not among them."""
    lo, hi = sorted((_float(start), _float(stop)))
    near, far = (_bits(min(max(v, lo), hi) + 0.0) for v in (guess - spread, guess + spread))
    if stop < start:
        near, far = far, near
    if inside(far):
        near, far = far, stop
        if inside(far):
            return far
    elif not inside(near):
        near = start
    while abs(far - near) > 1:
        mid = (near + far) // 2
        near, far = (mid, far) if inside(mid) else (near, mid)
    return near


def _box_edges(x0, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The corners of the window box of side ``h`` centered at ``x0``,
    clipped to [0,1]^d: per coordinate, the outermost floats of [0, 1] that
    a window cut keeps (``local_fit._in_window``) after rounding.  As
    rounding is monotone, the kept floats form an interval around x0
    clipped to [0, 1], found by bisecting the bit patterns outward from
    it.  Rounding moves an edge only a few ulps of x0 -/+ h/2 or of h
    from x0 -/+ h/2, so the bisection starts there.  A box that misses
    [0,1]^d has a corner coordinate above the opposite one."""
    corners = []
    for c in map(float, x0):
        def inside(i: int, c=c) -> bool:
            return _in_window(_float(i), c, h)

        anchor = _bits(min(max(c, 0.0), 1.0) + 0.0)  # + 0.0 turns -0.0 into 0.0
        if not inside(anchor):
            corners.append((1.0, 0.0))
            continue
        corners.append([
            _float(_last_inside(inside, anchor, stop, guess, 4.0 * (math.ulp(guess) + math.ulp(h))))
            for stop, guess in ((0, c - h / 2.0), (_ONE, c + h / 2.0))
        ])
    lo, hi = np.array(corners).T
    return lo, hi


def gen_window(
    f, model: NoiseModel, n: int, d: int, seed, reps, box
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each replication number of ``reps`` under the run seed ``seed``,
    the rows (x, y) of a sample Y_i = f(X_i) + sigma_i xi_i of size n with a
    uniform design that lie in ``box``, an (x0, h) pair naming a fit's
    window: the sup-norm box of side h centered at x0.  Returns the rows of
    every replication, replication after replication, and each one's row
    count.

    The rows are drawn in distribution, not cut from a whole sample: with
    p the volume of the box clipped to [0,1]^d, a replication's row count K
    is Binomial(n, p), its K design points are uniform in the clipped box
    and its K noise uniforms are independent of them, and (only under a
    scale rule that is not constant) its rows' sample indices are a sorted
    uniform K-subset of range(n).  This is the joint law of the rows of a
    whole sample in the box (the binomial point process), at a cost in K
    rather than n.  The box's corners are the outermost floats a window
    cut keeps, so every drawn point lies in the fit's window.

    A replication's draws come from Philox under the key [run word,
    replication number], at counter 0, the run word being one numpy
    ``SeedSequence(seed)`` word: K, then each point's d design uniforms and
    its noise uniform, then the sample indices.  One generator is set to
    each key in turn, so a replication's rows depend neither on the other
    replications nor on how a run splits them into blocks; f, the scale
    rule and the noise quantile run once, on the block's rows.  n < 1, a
    negative seed and a response that is not finite (as in ``Dataset``)
    are ValueErrors."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    lo, hi = _box_edges(*box)
    p = float(np.prod(np.maximum(hi - lo, 0.0)))
    indexed = model._rule.kind != "constant"
    entropy = SeedSequence(seed)
    run = int(entropy.generate_state(1, np.uint64)[0])
    rng = Generator(Philox(entropy))  # each replication sets its key
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [run, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    counts, draws, rows = [], [], []
    for rep in reps:
        state["state"]["key"][1] = rep
        rng.bit_generator.state = state
        k = int(rng.binomial(n, p))
        counts.append(k)
        draws.append(rng.random((k, d + 1)))
        if indexed:
            rows.append(np.sort(rng.choice(n, k, replace=False, shuffle=False)))
    u = np.concatenate(draws)
    x = np.minimum(lo + (hi - lo) * u[:, :d], hi)
    rows = np.concatenate(rows) if indexed else None
    y = np.asarray(f(x), dtype=float) + _gen_noise(model, u[:, d], rows)
    _check_responses(y)
    return x, y, np.array(counts)


def gen_data(f, model: NoiseModel, n: int, d: int, seed) -> Dataset:
    """The whole sample Y_i = f(X_i) + sigma_i xi_i, i < n, of one seed (an
    int or a tuple of ints) as a validated ``Dataset``: the design is the
    first n*d uniforms of ``substream(seed, DESIGN_STREAM)``, row after row,
    and the noise is drawn from the first n of ``substream(seed,
    NOISE_STREAM)``, so the two are independent.  n < 1 and a negative
    seed are ValueErrors."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    x = substream(seed, DESIGN_STREAM).random((n, d))
    u = substream(seed, NOISE_STREAM).random(n)
    rows = np.arange(n) if model._rule.kind != "constant" else None
    return Dataset(x=x, y=np.asarray(f(x), dtype=float) + _gen_noise(model, u, rows))


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
