import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from roblp.basis import multi_index_set
from roblp.kernels import (
    KernelSpec,
    NotPositiveDefiniteError,
    ProcedureConstants,
    lambda_min,
    moment_matrix,
    procedure_constants,
    series_constant,
    uniform_kernel,
)

ALL_KINDS = ("uniform", "triangular", "epanechnikov")


def uniform_axis_moment(r: int) -> float:
    # int_{-1/2}^{1/2} u^r du, by hand
    return 0.0 if r % 2 else (0.5**r) / (r + 1)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("d", [1, 2])
def test_kernel_normalization_by_quadrature(kind, d):
    # product kernels: per-axis mass via scipy quadrature, then power d
    one_d = KernelSpec(kind=kind, d=1)
    mass, _ = integrate.quad(lambda u: one_d.value(np.array([[u]]))[0], -0.5, 0.5)
    assert mass**d == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_kernel_support_and_sup_norm(kind):
    k = KernelSpec(kind=kind, d=2)
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, size=(4000, 2))
    vals = k.value(pts)
    assert np.all(vals >= 0)
    assert np.max(vals) <= k.sup_norm + 1e-12
    assert np.max(vals) == pytest.approx(k.sup_norm, rel=5e-2)  # dense sampling
    outside = np.array([[0.51, 0.0], [0.0, -0.7], [2.0, 2.0]])
    np.testing.assert_array_equal(k.value(outside), 0.0)


def test_kernel_rejects_unknown_kind():
    with pytest.raises(ValueError):
        KernelSpec(kind="gaussian", d=1)


@pytest.mark.parametrize("shape", [(2,), (3, 1), (1, 3, 2)])
def test_kernel_values_take_an_m_by_d_array(shape):
    with pytest.raises(ValueError, match=r"expected \(m, 2\) points"):
        KernelSpec(kind="uniform", d=2).value(np.zeros(shape))


def test_moment_matrix_uniform_examples():
    s0 = multi_index_set(0, 1)
    np.testing.assert_allclose(moment_matrix(uniform_kernel(1), s0), [[1.0]], atol=1e-15)
    s1 = multi_index_set(1, 1)
    np.testing.assert_allclose(
        moment_matrix(uniform_kernel(1), s1), [[1.0, 0.0], [0.0, 1 / 12]], atol=1e-15
    )
    s2 = multi_index_set(2, 1)
    expected = np.array([[1, 0, 1 / 12], [0, 1 / 12, 0], [1 / 12, 0, 1 / 80]])
    np.testing.assert_allclose(moment_matrix(uniform_kernel(1), s2), expected, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_moment_matrix_matches_closed_form_uniform(d):
    # all |p + q| <= 8: entries are products of hand-integrated axis moments
    b = 4 if d < 3 else 2
    s = multi_index_set(b, d)
    m = moment_matrix(uniform_kernel(d), s)
    for i, p in enumerate(s.indices):
        for j, q in enumerate(s.indices):
            expected = math.prod(uniform_axis_moment(p[a] + q[a]) for a in range(d))
            assert m[i, j] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_moment_matrix_odd_entries_vanish(kind):
    s = multi_index_set(3, 1)
    m = moment_matrix(KernelSpec(kind=kind, d=1), s)
    for i, p in enumerate(s.indices):
        for j, q in enumerate(s.indices):
            if (p[0] + q[0]) % 2 == 1:
                assert abs(m[i, j]) < 1e-14


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("d", [1, 2])
def test_moment_matrix_node_doubling_certificate(kind, d):
    s = multi_index_set(3, d)
    k = KernelSpec(kind=kind, d=d)
    base_nodes = s.b + k.axis_degree + 2
    m1 = moment_matrix(k, s, nodes_per_panel=base_nodes)
    m2 = moment_matrix(k, s, nodes_per_panel=2 * base_nodes)
    assert np.max(np.abs(m1 - m2)) < 1e-12


def test_lambda_min_examples():
    assert lambda_min(np.diag([1.0, 1 / 12])) == pytest.approx(1 / 12)
    assert lambda_min(np.eye(4)) == pytest.approx(1.0)
    # characteristic polynomial oracle for the b=2 uniform matrix: the
    # even/odd blocks decouple, so the spectrum is 1/12 plus the roots of
    # x^2 - (1 + 1/80) x + (1/80 - 1/144)
    m = moment_matrix(uniform_kernel(1), multi_index_set(2, 1))
    disc = math.sqrt((1 + 1 / 80) ** 2 - 4 * (1 / 80 - 1 / 144))
    root = ((1 + 1 / 80) - disc) / 2
    assert lambda_min(m) == pytest.approx(root, abs=1e-12)


def test_lambda_min_rejects_non_positive_definite():
    with pytest.raises(NotPositiveDefiniteError):
        lambda_min(np.diag([1.0, -0.5]))
    with pytest.raises(NotPositiveDefiniteError):
        lambda_min(np.diag([1.0, 1e-14]))
    with pytest.raises(ValueError):
        lambda_min(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("d", [1, 2])
def test_lambda_nonincreasing_in_degree(d):
    vals = [
        lambda_min(moment_matrix(uniform_kernel(d), multi_index_set(b, d)))
        for b in range(0, 5 if d == 1 else 4)
    ]
    assert all(v2 <= v1 + 1e-15 for v1, v2 in zip(vals, vals[1:]))


def test_series_constant_limits():
    # vanishing kernel sup-norm freezes every term: the sum is its seed 2
    val, terms = series_constant(1e-8, 1)
    assert val == pytest.approx(2.0)
    assert terms == 1
    for k_sup in (0.5, 1.0, 2.0):
        val, _ = series_constant(k_sup, 1)
        assert val >= 2.0


def test_series_constant_against_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 128

    def oracle(k_sup, d, terms=60):
        total = mpmath.mpf(2)
        damping = 1 / (8 * mpmath.mpf(k_sup) * (mpmath.mpf(k_sup) + mpmath.mpf(1) / 3))
        for l in range(1, terms + 1):
            expo = -(18 * mpmath.mpf(10) ** l) / (mpmath.pi**4 * l**4) * damping
            total += 2 * d * d * mpmath.mpf(10) ** (2 * l - 1) * mpmath.e**expo
        return float(total)

    for k_sup, d in ((1.0, 1), (1.5, 2), (2.0, 1)):
        val, _ = series_constant(k_sup, d)
        assert val == pytest.approx(oracle(k_sup, d), rel=1e-12)


def test_series_constant_convergence_guard():
    with pytest.raises(RuntimeError):
        series_constant(1e6, 1, max_terms=20)


def test_procedure_constants_validation():
    s = multi_index_set(1, 1)
    consts = procedure_constants(uniform_kernel(1), s, c=0.5)
    assert consts.lam == pytest.approx(1 / 12)
    assert consts.sigma >= 2.0
    with pytest.raises(ValueError):
        ProcedureConstants(lam=-1.0, sigma=3.0, c=0.5, moment_matrix=np.eye(2))
    with pytest.raises(ValueError):
        ProcedureConstants(lam=1.0, sigma=1.0, c=0.5, moment_matrix=np.eye(2))
