import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roblp.basis import (
    CoefficientVector,
    MultiIndexSet,
    monomial_matrix,
    multi_index_set,
    taylor_coefficients,
)
from roblp.simulate import polynomial_function


def monomial_vector(z, s: MultiIndexSet) -> np.ndarray:
    """Evaluate all monomials z^p, p in s, at a point z in R^d, by float
    pow: the reference for ``monomial_matrix``.

    Uses the convention 0^0 = 1 so the constant monomial is always 1 and
    the vector at z = 0 is the first standard basis vector.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (s.d,):
        raise ValueError(f"expected point in R^{s.d}, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("point must be finite")
    return np.prod(z[None, :] ** s.exponents, axis=1)


def brute_force_indices(b, d):
    return [p for p in itertools.product(range(b + 1), repeat=d) if sum(p) <= b]


def test_index_set_examples():
    assert multi_index_set(2, 1).indices == ((0,), (1,), (2,))
    assert multi_index_set(1, 2).indices == ((0, 0), (1, 0), (0, 1))
    # cardinality oracle: brute-force enumeration, cross-checked against binomial
    s = multi_index_set(3, 2)
    assert s.size == len(brute_force_indices(3, 2)) == math.comb(5, 2) == 10


def test_index_set_cardinality_all_small_cases():
    for d in range(1, 8):
        for b in range(0, 9 - d):
            s = multi_index_set(b, d)
            assert s.size == math.comb(b + d, d)
            assert s.size == len(brute_force_indices(b, d))
            assert len(set(s.indices)) == s.size
            assert s.indices[0] == (0,) * d
            degrees = [sum(p) for p in s.indices]
            assert degrees == sorted(degrees)
            assert all(0 <= sum(p) <= b for p in s.indices)


def test_index_set_rejects_bad_arguments():
    with pytest.raises(ValueError):
        multi_index_set(2, 0)
    with pytest.raises(ValueError):
        multi_index_set(-1, 1)


def test_monomial_vector_examples():
    s = multi_index_set(2, 1)
    np.testing.assert_allclose(monomial_vector([0.0], s), [1.0, 0.0, 0.0])
    np.testing.assert_allclose(monomial_vector([0.5], s), [1.0, 0.5, 0.25])
    s2 = multi_index_set(2, 3)
    vec = monomial_vector([0.0, 0.0, 0.0], s2)
    expected = np.zeros(s2.size)
    expected[0] = 1.0
    np.testing.assert_allclose(vec, expected)


def test_monomial_vector_matches_nested_loop_oracle():
    s = multi_index_set(2, 2)
    z = np.array([0.5, -0.5])
    vec = monomial_vector(z, s)
    for i, p in enumerate(s.indices):
        prod = 1.0
        for j in range(2):
            for _ in range(p[j]):
                prod *= z[j]
        assert vec[i] == pytest.approx(prod, rel=1e-15)


@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_monomial_vector_multiplicative_property(b, d, data):
    s = multi_index_set(b, d)
    z = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=-2, max_value=2, allow_nan=False),
                min_size=d,
                max_size=d,
            )
        )
    )
    vec = monomial_vector(z, s)
    for i, p in enumerate(s.indices):
        expect = math.prod(z[j] ** p[j] if p[j] else 1.0 for j in range(d))
        assert vec[i] == pytest.approx(expect, rel=1e-12, abs=1e-300)


def test_coefficient_vector_validation():
    s = multi_index_set(1, 1)
    with pytest.raises(ValueError):
        CoefficientVector(values=np.array([1.0]), index_set=s)
    with pytest.raises(ValueError):
        CoefficientVector(values=np.array([1.0, np.inf]), index_set=s)


def test_taylor_coefficients_constant():
    f = polynomial_function({(0,): 2.5}, d=1)
    theta = taylor_coefficients(f, [0.3], 0.2, 2)
    np.testing.assert_allclose(theta.values, [2.5, 0.0, 0.0])


def test_taylor_coefficients_square_example():
    # f(x) = x^2 at x0 = 0.5, h = 0.2: f=0.25, f'=1, f''=2
    # theta = (0.25, 1 * 0.2, 2 * 0.04 / 2!) = (0.25, 0.2, 0.04)
    f = polynomial_function({(2,): 1.0}, d=1)
    theta = taylor_coefficients(f, [0.5], 0.2, 2)
    np.testing.assert_allclose(theta.values, [0.25, 0.2, 0.04], rtol=1e-14)


def test_taylor_coefficients_absent_derivatives_are_zero():
    from roblp.simulate import cusp

    f = cusp(beta=0.5, amplitude=1.0, center=0.3)
    theta = taylor_coefficients(f, [0.6], 0.2, 2)
    assert theta.values[0] == pytest.approx(math.sqrt(0.3))
    np.testing.assert_allclose(theta.values[1:], 0.0)


@pytest.mark.parametrize("b,d", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
def test_taylor_roundtrip_reproduces_polynomials(b, d):
    # any polynomial of total degree <= b is reproduced exactly on the window
    rng = np.random.default_rng(100 * b + d)
    s = multi_index_set(b, d)
    coeffs = {p: rng.uniform(-1, 1) for p in s.indices}
    f = polynomial_function(coeffs, d=d)
    x0 = rng.uniform(0.3, 0.7, size=d)
    h = 0.25
    theta = taylor_coefficients(f, x0, h, b)
    for _ in range(30):
        x = x0 + rng.uniform(-h / 2, h / 2, size=d)
        lp = theta.values @ monomial_vector((x - x0) / h, s)
        assert lp == pytest.approx(float(f(x)), rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("b", [0, 1, 2, 3, 4])
def test_monomial_matrix_matches_monomial_vector(d, b):
    # the matrix builds powers by repeated multiplication, the vector by pow
    s = multi_index_set(b, d)
    rng = np.random.default_rng(10 * d + b)
    points = rng.uniform(-1.0, 1.0, size=(40, d))
    points[0] = 0.0
    points[1] = -1.0
    points[2, 0] = 0.0
    points[3] = -0.5
    mat = monomial_matrix(points, s)
    assert mat.shape == (40, s.size)
    for z, row in zip(points, mat):
        np.testing.assert_allclose(row, monomial_vector(z, s), rtol=8 * np.finfo(float).eps, atol=0)
    np.testing.assert_array_equal(mat[0], np.eye(s.size)[0])
