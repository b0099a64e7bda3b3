"""Contrast functions for robust local fitting.

The estimator minimizes a kernel-weighted sum of a symmetric convex loss
rho applied to residuals.  The workhorse is the Huber loss

    rho_gamma(z) = z^2 / 2            for |z| <= gamma,
                   gamma (|z| - gamma/2)   otherwise,

whose derivative is bounded by gamma and 1-Lipschitz, the two properties
the deviation theory needs.  Squared loss (gamma -> infinity) and absolute
loss (gamma -> 0) are shipped as baselines for comparison experiments;
each violates one of those properties, and the adaptive threshold
computation refuses the squared loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ContrastSpec",
    "huber",
    "square",
    "absolute",
    "curvature_constant",
]


CONTRAST_KINDS = ("huber", "square", "absolute")


@dataclass(frozen=True)
class ContrastSpec:
    """A contrast function with its derivatives and constants.

    ``derivative_bound`` is sup |rho'| (gamma for Huber, 1 for absolute,
    infinite for square).
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in CONTRAST_KINDS:
            raise ValueError(f"unknown contrast kind {self.kind!r}")
        if self.kind == "huber":
            if self.gamma is None or self.gamma <= 0:
                raise ValueError(f"huber threshold must be positive, got {self.gamma}")
        elif self.gamma is not None:
            raise ValueError(f"{self.kind} contrast takes no threshold")

    def value(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "huber":
            a, g = np.abs(z), self.gamma
            return np.where(a <= g, 0.5 * z * z, g * (a - 0.5 * g))
        if self.kind == "square":
            return 0.5 * z * z
        return np.abs(z)

    def first_derivative(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "huber":
            return np.clip(z, -self.gamma, self.gamma)
        if self.kind == "square":
            return z
        return np.sign(z)

    def second_derivative(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "huber":
            # a.e. second derivative: indicator of the closed band |z| <= gamma
            return (np.abs(z) <= self.gamma).astype(float)
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
        sign = np.sign(z)
        inc = np.asarray(self.derivative_bound * sign * dz)
        same_piece = (a > knot) & (a1 > knot) & (sign == np.sign(z1))
        if self.kind == "huber":
            inner = (a <= knot) & (a1 <= knot)
            np.copyto(inc, quadratic, where=inner)
            same_piece |= inner
        crossing = ~same_piece
        if crossing.any():
            inc[crossing] = self.value(z1[crossing]) - self.value(z[crossing])
        return inc

    @property
    def derivative_bound(self) -> float:
        if self.kind == "huber":
            return float(self.gamma)
        if self.kind == "square":
            return math.inf
        return 1.0

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


def curvature_constant(g, gamma: float, sigma_min: float) -> float:
    """Lower bound on the expected Huber curvature: twice the mass of the
    unit noise density on [0, gamma * sigma_min].

    ``g`` is a symmetric unit-scale noise family with a closed-form
    ``cdf`` (an entry of ``roblp.simulate.NOISE_FAMILIES``).
    """
    upper = gamma * sigma_min
    if upper <= 0:
        raise ValueError(f"gamma * sigma_min must be positive, got {upper}")
    return 2.0 * (float(g.cdf(upper)) - 0.5)
