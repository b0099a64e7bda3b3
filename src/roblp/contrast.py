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
            # g (|z| - g/2), then z^2 / 2 where |z| <= g, each formed in
            # place: the plain expressions' products, in their order
            g = self.gamma
            out = np.abs(z, out=np.empty_like(z))
            inner = out <= g
            out -= 0.5 * g
            out *= g
            quadratic = 0.5 * z
            quadratic *= z
            np.copyto(out, quadratic, where=inner)
            return out
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
        values loses every digit there.  z and dz have one shape."""
        z, dz = np.asarray(z, dtype=float), np.asarray(dz, dtype=float)
        # The arrays below are formed in place, each product and sum the
        # plain expression's, in its order: dz (z + dz/2), then one buffer
        # holding in turn |z|, z + dz, |z + dz| and the outer piece's slope
        # times dz.  These two are the only float arrays of z's size made.
        quadratic = 0.5 * dz
        quadratic += z
        quadratic *= dz
        if self.kind == "square":
            return quadratic
        knot = self.gamma if self.kind == "huber" else 0.0
        buffer = np.abs(z, out=np.empty_like(z))
        inner, same_piece = buffer <= knot, buffer > knot
        np.add(z, dz, out=buffer)
        # beyond the knot at both ends, so nonzero: one outer piece when
        # z and z + dz share a sign
        same_piece &= (z > 0) == (buffer > 0)
        np.abs(buffer, out=buffer)
        inner &= buffer <= knot
        same_piece &= buffer > knot
        inc = np.sign(z, out=buffer)
        inc *= self.derivative_bound
        inc *= dz
        if self.kind == "huber":
            np.copyto(inc, quadratic, where=inner)
            same_piece |= inner
        crossing = ~same_piece
        if crossing.any():
            start = z[crossing]
            inc[crossing] = self.value(start + dz[crossing]) - self.value(start)
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
