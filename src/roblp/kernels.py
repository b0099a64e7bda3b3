"""Kernels on the centered unit box and the constants built from them.

Kernels are nonnegative product kernels supported exactly on
[-1/2, 1/2]^d integrating to one.  Kernels with unbounded support
(e.g. Gaussian) are excluded by construction.  From a kernel and a
multi-index set we build the moment matrix

    M[p, q] = int_{[-1/2,1/2]^d} x^{p+q} K(x) dx,

whose smallest eigenvalue calibrates both the deviation bound and the
adaptive threshold.  The module also evaluates the convergent series
constant entering the deviation bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import MultiIndexSet, monomial_matrix

__all__ = [
    "KernelSpec",
    "ProcedureConstants",
    "NotPositiveDefiniteError",
    "uniform_kernel",
    "moment_matrix",
    "lambda_min",
    "series_constant",
    "procedure_constants",
]

# Per-axis profiles: value on [-1/2, 1/2], peak, polynomial degree, and the
# panels on which the profile is a single polynomial (the triangular kernel
# has a kink at 0).
_AXIS_PROFILES = {
    "uniform": {"peak": 1.0, "degree": 0, "panels": ((-0.5, 0.5),)},
    "triangular": {"peak": 2.0, "degree": 1, "panels": ((-0.5, 0.0), (0.0, 0.5))},
    "epanechnikov": {"peak": 1.5, "degree": 2, "panels": ((-0.5, 0.5),)},
}


def _axis_value(kind: str, u: np.ndarray) -> np.ndarray:
    inside = np.abs(u) <= 0.5
    if kind == "uniform":
        return inside.astype(float)
    if kind == "triangular":
        return np.where(inside, 2.0 * (1.0 - 2.0 * np.abs(u)), 0.0)
    return np.where(inside, 1.5 * (1.0 - 4.0 * u * u), 0.0)


@dataclass(frozen=True)
class KernelSpec:
    """A product kernel on [-1/2, 1/2]^d with known sup-norm."""

    kind: str
    d: int

    def __post_init__(self):
        if self.kind not in _AXIS_PROFILES:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")

    def value(self, z):
        """Kernel values at the rows of z, an (m, d) array."""
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[1] != self.d:
            raise ValueError(f"expected (m, {self.d}) points, got shape {z.shape}")
        return np.prod(_axis_value(self.kind, z), axis=1)

    @property
    def sup_norm(self) -> float:
        return _AXIS_PROFILES[self.kind]["peak"] ** self.d

    @property
    def axis_degree(self) -> int:
        return _AXIS_PROFILES[self.kind]["degree"]


def uniform_kernel(d: int = 1) -> KernelSpec:
    return KernelSpec(kind="uniform", d=d)


class NotPositiveDefiniteError(ValueError):
    """Raised when a moment matrix fails to be positive definite."""


def _axis_rule(kernel: KernelSpec, nodes_per_panel: int):
    """Gauss-Legendre nodes and weights covering [-1/2, 1/2] panel-wise."""
    base_x, base_w = np.polynomial.legendre.leggauss(nodes_per_panel)
    xs, ws = [], []
    for a, b in _AXIS_PROFILES[kernel.kind]["panels"]:
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        xs.append(mid + half * base_x)
        ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def moment_matrix(
    kernel: KernelSpec, s: MultiIndexSet, nodes_per_panel: int | None = None
) -> np.ndarray:
    """Moment matrix of the rescaled monomial basis under the kernel.

    Tensor-product Gauss-Legendre quadrature, exact for the polynomial
    integrand: per axis the integrand has degree at most 2b plus the
    kernel's axis degree, and the node count is chosen above the exactness
    threshold (panel-wise for the kinked triangular kernel).
    """
    if kernel.d != s.d:
        raise ValueError(f"kernel dimension {kernel.d} != index set dimension {s.d}")
    if nodes_per_panel is None:
        nodes_per_panel = s.b + kernel.axis_degree + 2
    ax_x, ax_w = _axis_rule(kernel, nodes_per_panel)
    grids = np.meshgrid(*([ax_x] * s.d), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([ax_w] * s.d), indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)

    kvals = kernel.value(points)
    mono = monomial_matrix(points, s)
    m = mono.T @ (mono * (weights * kvals)[:, None])
    return 0.5 * (m + m.T)


# Smallest eigenvalue lambda_min accepts as positive definite.
EIGENVALUE_FLOOR = 1e-12
# series_constant stops once a term drops below this share of the sum.
SERIES_REL_TOL = 1e-16


def lambda_min(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix via a symmetric solver."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.allclose(m, m.T, atol=1e-10):
        raise ValueError("matrix must be symmetric")
    smallest = float(np.linalg.eigvalsh(m)[0])
    if smallest <= EIGENVALUE_FLOOR:
        raise NotPositiveDefiniteError(
            f"moment matrix not positive definite (smallest eigenvalue {smallest:.3e})"
        )
    return smallest


def series_constant(k_sup: float, d: int, max_terms: int = 10_000) -> tuple[float, int]:
    """Series constant multiplying the deviation bound.

    Sums  2 + 2 * sum_{l>=1} d^2 10^{2l-1} exp{-(18 * 10^l / (pi^4 l^4))
    / (8 k_sup (k_sup + 1/3))}  until the current term drops below
    SERIES_REL_TOL times the partial sum.  Returns the value and the number
    of terms summed; raises if the cap is hit first (pathological k_sup).

    The d^2 factor is the design dimension squared, coming from the
    covering numbers of the coefficient ball, so the constant is computed
    per dimension.
    """
    if k_sup <= 0:
        raise ValueError(f"kernel sup-norm must be positive, got {k_sup}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    damping = 1.0 / (8.0 * k_sup * (k_sup + 1.0 / 3.0))
    total = 2.0
    for l in range(1, max_terms + 1):
        exponent = -(18.0 * 10.0**l) / (math.pi**4 * l**4) * damping
        term = 2.0 * d * d * 10.0 ** (2 * l - 1) * math.exp(exponent)
        total += term
        if term < SERIES_REL_TOL * total:
            return total, l
    raise RuntimeError(
        f"series constant did not converge within {max_terms} terms (k_sup={k_sup})"
    )


@dataclass(frozen=True)
class ProcedureConstants:
    """Numeric constants the selection rule and the bounds are built from:
    the moment matrix, its smallest eigenvalue, the series constant and
    the noise curvature lower bound."""

    lam: float
    sigma: float
    c: float
    moment_matrix: np.ndarray

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"eigenvalue constant must be positive, got {self.lam}")
        if not (math.isfinite(self.sigma) and self.sigma >= 2.0):
            raise ValueError(f"series constant must be finite and >= 2, got {self.sigma}")
        if self.c <= 0:
            raise ValueError(f"curvature constant must be positive, got {self.c}")
        m = np.asarray(self.moment_matrix, dtype=float)
        lambda_min(m)  # raises if not symmetric positive definite
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "moment_matrix", m)

    def to_dict(self) -> dict:
        return {
            "lam": self.lam,
            "sigma": self.sigma,
            "c": self.c,
            "moment_matrix": self.moment_matrix.tolist(),
        }


def procedure_constants(
    kernel: KernelSpec, s: MultiIndexSet, c: float
) -> ProcedureConstants:
    """Assemble the constants for a kernel / basis / curvature triple."""
    m = moment_matrix(kernel, s)
    sigma, _ = series_constant(kernel.sup_norm, s.d)
    return ProcedureConstants(lam=lambda_min(m), sigma=sigma, c=c, moment_matrix=m)

