import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roblp.contrast import (
    absolute,
    curvature_constant,
    huber,
    square,
)
from roblp.simulate import NOISE_FAMILIES


def test_huber_value_examples():
    assert huber(1.0).value(0.0) == 0.0
    assert huber(7.3).value(0.0) == 0.0
    # branch continuity at |z| = gamma
    g = 1.7
    assert huber(g).value(g) == pytest.approx(0.5 * g * g, rel=1e-15)
    assert 0.5 * g * g == g * (g - 0.5 * g)
    # direct formula on the tail
    assert huber(1.0).value(3.0) == pytest.approx(2.5)
    # symmetric tail (negative arguments stay nonnegative)
    assert huber(1.0).value(-3.0) == pytest.approx(2.5)


def test_huber_prime_and_second():
    c = huber(1.0)
    assert c.first_derivative(0.3) == pytest.approx(0.3)
    assert c.first_derivative(-5.0) == -1.0
    assert c.first_derivative(5.0) == 1.0
    assert c.second_derivative(2.0) == 0.0
    assert c.second_derivative(0.2) == 1.0
    assert c.second_derivative(1.0) == 1.0  # closed band at the kink


def test_huber_rejects_bad_threshold():
    with pytest.raises(ValueError):
        huber(0.0)
    with pytest.raises(ValueError):
        huber(-1.0)


def test_huber_prime_matches_finite_differences():
    rng = np.random.default_rng(11)
    gamma = 1.3
    step = 1e-7
    zs = rng.uniform(-4, 4, size=1000)
    # keep sample points away from the kink by more than the step
    zs = zs[np.abs(np.abs(zs) - gamma) > 10 * step]
    c = huber(gamma)
    fd = (c.value(zs + step) - c.value(zs - step)) / (2 * step)
    an = c.first_derivative(zs)
    assert np.max(np.abs(fd - an) / (1.0 + np.abs(an))) < 1e-6


def test_huber_tail_linearity():
    gamma = 0.7
    zs = np.array([1.2, -3.4, 10.0, -50.0])
    np.testing.assert_allclose(
        huber(gamma).value(zs) / gamma, np.abs(zs) - gamma / 2, rtol=1e-14
    )


@given(st.floats(min_value=-50, max_value=50), st.floats(min_value=0.01, max_value=10))
@settings(max_examples=200, deadline=None)
def test_huber_nonnegative_and_even(z, gamma):
    c = huber(gamma)
    v = float(c.value(z))
    assert v >= 0.0
    assert v == float(c.value(-z))


def test_contrast_specs():
    h = huber(2.0)
    assert h.derivative_bound == 2.0
    s = square()
    assert math.isinf(s.derivative_bound)
    assert s.value(3.0) == pytest.approx(4.5)
    assert s.first_derivative(3.0) == pytest.approx(3.0)
    a = absolute()
    assert a.derivative_bound == 1.0
    assert a.value(-2.0) == 2.0


def test_contrast_serialization_roundtrip():
    from roblp.contrast import ContrastSpec

    for spec in (huber(1.5), square(), absolute()):
        assert ContrastSpec.from_config(spec.to_config()) == spec


def test_curvature_constant_gaussian():
    # oracle: 2 Phi(1) - 1 = erf(1 / sqrt(2))
    got = curvature_constant(NOISE_FAMILIES["gaussian"], 1.0, 1.0)
    assert got == pytest.approx(math.erf(1 / math.sqrt(2)), abs=1e-15)
    assert got == pytest.approx(0.682689, abs=1e-6)


def test_curvature_constant_cauchy():
    # oracle: 2 atan(1) / pi = 1/2
    got = curvature_constant(NOISE_FAMILIES["cauchy"], 1.0, 1.0)
    assert got == pytest.approx(0.5, abs=1e-15)


def test_curvature_constant_total_mass_limit():
    got = curvature_constant(NOISE_FAMILIES["gaussian"], 50.0, 1.0)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_curvature_constant_monotone_and_bounded():
    fam = NOISE_FAMILIES["laplace"]
    vals = [curvature_constant(fam, g, 1.0) for g in (0.2, 0.5, 1.0, 2.0, 5.0)]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    assert all(0 < v < 1 for v in vals)
    sig = [curvature_constant(fam, 1.0, s) for s in (0.2, 0.5, 1.0, 2.0)]
    assert all(v2 > v1 for v1, v2 in zip(sig, sig[1:]))


def test_curvature_constant_rejects_nonpositive():
    with pytest.raises(ValueError):
        curvature_constant(NOISE_FAMILIES["gaussian"], -1.0, 1.0)


@pytest.mark.parametrize("contrast", [huber(1.0), square(), absolute()])
def test_increment_matches_value_difference(contrast):
    rng = np.random.default_rng(8)
    z = rng.normal(scale=2.0, size=500)
    dz = rng.normal(scale=2.0, size=500)
    np.testing.assert_allclose(
        contrast.increment(z, dz),
        contrast.value(z + dz) - contrast.value(z),
        rtol=1e-12,
        atol=1e-12,
    )


def test_increment_keeps_digits_for_tiny_steps():
    from fractions import Fraction

    c = huber(1.0)
    # (quadratic piece, tail piece) with steps below one ulp of rho(z)
    for z, dz in ((0.3, 1e-17), (-4.0, 3e-16)):
        z1 = Fraction(z) + Fraction(dz)
        if abs(z1) <= 1:
            exact = float((z1 * z1 - Fraction(z) ** 2) / 2)
        else:
            exact = float(abs(z1) - abs(Fraction(z)))
        got = float(c.increment(np.array([z]), np.array([dz]))[0])
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)
        plain = float(c.value(z + dz) - c.value(z))
        assert abs(plain - exact) > 0.1 * abs(exact)
