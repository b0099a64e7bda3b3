"""Multi-index sets, monomial vectors and local polynomials.

A local polynomial fit of total degree ``b`` in dimension ``d`` is
parameterized by one coefficient per multi-index ``p`` with
``|p| = p_1 + ... + p_d <= b``.  The coefficient vector is laid out in
graded lexicographic order with the all-zeros index first, so that the
coordinate at position 0 is always the fitted function value at the
window center.  The rescaled monomial basis is

    U_p(z) = prod_j z_j^{p_j},   z = (x - x0) / h,

and the local polynomial ``f_t(x) = t . U((x - x0)/h)`` vanishes outside
the cubic window ``V_{x0}(h)`` of side ``h`` centered at ``x0``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MultiIndexSet",
    "CoefficientVector",
    "multi_index_set",
    "monomial_matrix",
    "taylor_coefficients",
]


@dataclass(frozen=True)
class MultiIndexSet:
    """All multi-indices of total degree at most ``b`` in dimension ``d``.

    ``indices`` is graded lexicographic (total degree first, then earlier
    coordinates dominate) with the all-zeros index in position 0, so
    coefficient vectors serialize reproducibly.
    """

    d: int
    b: int
    indices: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.indices)

    @cached_property
    def exponents(self) -> np.ndarray:
        """Exponent matrix of shape (size, d), row i is indices[i]."""
        arr = np.array(self.indices, dtype=np.int64).reshape(self.size, self.d)
        arr.setflags(write=False)
        return arr

    @cached_property
    def factorials(self) -> np.ndarray:
        """prod_j p_j! for each index, used by Taylor rescaling."""
        facs = np.array(
            [math.prod(math.factorial(q) for q in p) for p in self.indices],
            dtype=float,
        )
        facs.setflags(write=False)
        return facs


@functools.lru_cache(maxsize=None)
def multi_index_set(b: int, d: int) -> MultiIndexSet:
    """Build the multi-index set for degree ``b`` in dimension ``d``.

    The cardinality is binomial(b + d, d).  Sets are immutable, so one
    instance per (b, d) is shared, with its exponent matrix.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if b < 0:
        raise ValueError(f"degree must be >= 0, got {b}")
    indices = [
        p for p in itertools.product(range(b + 1), repeat=d) if sum(p) <= b
    ]
    # Graded lexicographic: sort by total degree, then earlier coordinates
    # carry higher powers first, e.g. (1,0) before (0,1).
    indices.sort(key=lambda p: (sum(p), tuple(-q for q in p)))
    return MultiIndexSet(d=d, b=b, indices=tuple(indices))


@dataclass(frozen=True)
class CoefficientVector:
    """Coefficients of a local polynomial, aligned with a MultiIndexSet.

    The coordinate at the all-zeros index (position 0) is the function
    value at the window center.
    """

    values: np.ndarray
    index_set: MultiIndexSet

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.index_set.size,):
            raise ValueError(
                f"expected {self.index_set.size} coefficients, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("coefficients must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def center_value(self) -> float:
        """Coefficient of the constant monomial: the fitted value at x0."""
        return float(self.values[0])

    @property
    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.values)))


def monomial_matrix(points: np.ndarray, s: MultiIndexSet) -> np.ndarray:
    """All monomials z^p, p in s, at each row z of ``points`` (m, d):
    an (m, size) matrix.  The constant monomial is 1, also at z = 0.

    The powers z_j^e, e <= b, come from repeated multiplication rather
    than float pow; they agree with a pow-based evaluation to a few ulp."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != s.d:
        raise ValueError(f"expected (m, {s.d}) points, got shape {points.shape}")
    out = np.empty((s.size, points.shape[0]))
    _write_monomials(points.T, s, out)
    return out.T


def _write_monomials(coords: np.ndarray, s: MultiIndexSet, out: np.ndarray) -> None:
    """Write z^p, for the k-th index p of s, into ``out[k]``, at the points
    whose coordinates z_j are ``coords[j]`` (any shape after the first
    axis, the same as ``out[k]``'s, which may be a strided view).  Each
    power z_j^e is a product of e factors z_j, left to right, and each
    monomial the product of its powers in coordinate order; a power z_j^0
    is left out, as a product with 1.0 is exact."""
    powers = [None, coords]
    for _ in range(2, s.b + 1):
        powers.append(powers[-1] * coords)
    for row, p in zip(out, s.indices):
        factors = [powers[e][j] for j, e in enumerate(p) if e]
        if not factors:
            row[...] = 1.0
            continue
        np.copyto(row, factors[0])
        for factor in factors[1:]:
            row *= factor


def taylor_coefficients(f, x0, h: float, b: int) -> CoefficientVector:
    """Coefficients putting the Taylor expansion of ``f`` at ``x0`` into the
    rescaled monomial basis of bandwidth ``h``.

    Coordinate 0 is f(x0); the coordinate at index p is the partial
    derivative of order p at x0 times h^|p| / (p_1! ... p_d!).  ``f`` must
    expose ``partial(p, x)`` returning the derivative value or ``None``
    when the derivative does not exist; missing derivatives map to 0.
    """
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = x0.shape[0]
    s = multi_index_set(b, d)
    values = np.zeros(s.size)
    values[0] = float(f(x0))
    for i, p in enumerate(s.indices[1:], start=1):
        der = f.partial(p, x0)
        if der is None:
            continue
        order = sum(p)
        values[i] = float(der) * h**order / s.factorials[i]
    return CoefficientVector(values=values, index_set=s)
