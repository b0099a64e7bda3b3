"""Contrast functions for robust local fitting.

The estimator minimizes a kernel-weighted sum of a symmetric convex loss
rho applied to residuals.  The workhorse is the Huber loss

    rho_gamma(z) = z^2 / 2            for |z| <= gamma,
                   gamma (|z| - gamma/2)   otherwise,

whose derivative is bounded by gamma and 1-Lipschitz, the two properties
the deviation theory needs.  Squared loss (gamma -> infinity) and absolute
loss (gamma -> 0) are shipped as baselines for comparison experiments;
both violate one of those properties and are flagged accordingly, and the
adaptive threshold computation refuses the squared loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

__all__ = [
    "ContrastSpec",
    "huber",
    "square",
    "absolute",
    "huber_value",
    "huber_prime",
    "huber_second",
    "check_contrast_assumptions",
    "curvature_constant",
]


def huber_value(z, gamma: float):
    """Huber loss: quadratic inside [-gamma, gamma], linear tails."""
    if gamma <= 0:
        raise ValueError(f"huber threshold must be positive, got {gamma}")
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    return np.where(a <= gamma, 0.5 * z * z, gamma * (a - 0.5 * gamma))


def huber_prime(z, gamma: float):
    """Derivative of the Huber loss: z clipped to [-gamma, gamma]."""
    if gamma <= 0:
        raise ValueError(f"huber threshold must be positive, got {gamma}")
    return np.clip(np.asarray(z, dtype=float), -gamma, gamma)


def huber_second(z, gamma: float):
    """A.e. second derivative: indicator of the closed band |z| <= gamma."""
    if gamma <= 0:
        raise ValueError(f"huber threshold must be positive, got {gamma}")
    z = np.asarray(z, dtype=float)
    return (np.abs(z) <= gamma).astype(float)


@dataclass(frozen=True)
class ContrastSpec:
    """A contrast function with its derivatives and constants.

    ``derivative_bound`` is sup |rho'| (gamma for Huber, 1 for absolute,
    infinite for square).  ``assumption_violation`` is None when the loss
    has a bounded 1-Lipschitz derivative, else a short reason string;
    flagged contrasts stay usable in experiments but are rejected where
    the theory requires the bound.
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("huber", "square", "absolute"):
            raise ValueError(f"unknown contrast kind {self.kind!r}")
        if self.kind == "huber":
            if self.gamma is None or self.gamma <= 0:
                raise ValueError(f"huber threshold must be positive, got {self.gamma}")
        elif self.gamma is not None:
            raise ValueError(f"{self.kind} contrast takes no threshold")

    def value(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "huber":
            return huber_value(z, self.gamma)
        if self.kind == "square":
            return 0.5 * z * z
        return np.abs(z)

    def first_derivative(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "huber":
            return huber_prime(z, self.gamma)
        if self.kind == "square":
            return z
        return np.sign(z)

    def second_derivative(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "huber":
            return huber_second(z, self.gamma)
        if self.kind == "square":
            return np.ones_like(z)
        return np.zeros_like(z)

    def increment(self, z, dz):
        """rho(z + dz) - rho(z).  Where z and z + dz lie on the same piece
        of rho it is computed from the piece's closed form, which keeps
        its relative accuracy when dz is tiny; the plain difference of two
        values loses every digit there."""
        z = np.asarray(z, dtype=float)
        dz = np.asarray(dz, dtype=float)
        quadratic = dz * (z + 0.5 * dz)
        if self.kind == "square":
            return quadratic
        z1 = z + dz
        knot = self.gamma if self.kind == "huber" else 0.0
        a, a1 = np.abs(z), np.abs(z1)
        same_tail = (a > knot) & (a1 > knot) & (np.sign(z) == np.sign(z1))
        inc = np.where(
            same_tail,
            self.derivative_bound * np.sign(z) * dz,
            self.value(z1) - self.value(z),
        )
        if self.kind == "huber":
            inc = np.where((a <= knot) & (a1 <= knot), quadratic, inc)
        return inc

    @property
    def derivative_bound(self) -> float:
        if self.kind == "huber":
            return float(self.gamma)
        if self.kind == "square":
            return math.inf
        return 1.0

    @property
    def assumption_violation(self) -> str | None:
        if self.kind == "square":
            return "unbounded derivative"
        if self.kind == "absolute":
            return "derivative not Lipschitz at 0"
        return None

    def to_config(self) -> dict:
        cfg = {"kind": self.kind}
        if self.gamma is not None:
            cfg["gamma"] = self.gamma
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "ContrastSpec":
        return cls(kind=cfg["kind"], gamma=cfg.get("gamma"))


def huber(gamma: float) -> ContrastSpec:
    return ContrastSpec(kind="huber", gamma=gamma)


def square() -> ContrastSpec:
    return ContrastSpec(kind="square")


def absolute() -> ContrastSpec:
    return ContrastSpec(kind="absolute")


@dataclass(frozen=True)
class AssumptionReport:
    """Pass/fail record of the contrast checks on a sample grid."""

    zero_at_zero: bool
    symmetric: bool
    convex: bool
    derivative_bounded: bool
    derivative_lipschitz: bool

    @property
    def passed(self) -> bool:
        return (
            self.zero_at_zero
            and self.symmetric
            and self.convex
            and self.derivative_bounded
            and self.derivative_lipschitz
        )


def check_contrast_assumptions(
    c: ContrastSpec, grid, tol: float = 1e-12
) -> AssumptionReport:
    """Check the contrast properties on a finite grid symmetric about 0.

    Convexity is sampled through the midpoint inequality over all grid
    pairs; the Lipschitz check compares derivative increments over the
    same pairs.  Returns a report, never raises on failed checks.
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValueError("sample grid must be non-empty")
    if not np.allclose(grid, -grid[::-1], atol=1e-12):
        raise ValueError("sample grid must be symmetric about 0")

    vals = np.asarray(c.value(grid), dtype=float)
    ders = np.asarray(c.first_derivative(grid), dtype=float)

    zero_at_zero = abs(float(c.value(0.0))) <= tol
    symmetric = bool(np.all(np.abs(vals - c.value(-grid)) <= tol))

    u = grid[:, None]
    v = grid[None, :]
    mid_vals = np.asarray(c.value(0.5 * (u + v)), dtype=float)
    convex = bool(np.all(mid_vals <= 0.5 * (vals[:, None] + vals[None, :]) + tol))

    bound = c.derivative_bound
    derivative_bounded = math.isfinite(bound) and bool(
        np.all(np.abs(ders) <= bound + tol)
    )

    der_gaps = np.abs(ders[:, None] - ders[None, :])
    derivative_lipschitz = bool(np.all(der_gaps <= np.abs(u - v) + tol))

    return AssumptionReport(
        zero_at_zero=zero_at_zero,
        symmetric=symmetric,
        convex=convex,
        derivative_bounded=derivative_bounded,
        derivative_lipschitz=derivative_lipschitz,
    )


def curvature_constant(g, gamma: float, sigma_min: float) -> float:
    """Lower bound on the expected Huber curvature: twice the mass of the
    unit noise density on [0, gamma * sigma_min].

    ``g`` is a symmetric unit-scale density, either an object with a
    ``cdf`` method (closed form, preferred) or a plain density callable
    integrated by adaptive quadrature to 1e-10 relative accuracy.
    """
    upper = gamma * sigma_min
    if upper <= 0:
        raise ValueError(f"gamma * sigma_min must be positive, got {upper}")
    cdf = getattr(g, "cdf", None)
    if cdf is not None:
        return 2.0 * (float(cdf(upper)) - 0.5)
    density = getattr(g, "density", g)
    mass, _ = integrate.quad(density, 0.0, upper, epsabs=1e-300, epsrel=1e-12)
    return 2.0 * mass
