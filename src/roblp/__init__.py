"""Robust local polynomial regression at a point.

Fits a local polynomial by minimizing a kernel-weighted Huber criterion
over an l1-ball of coefficients, with either the bias/variance-optimal
bandwidth for known smoothness or Lepski's data-driven selection over a
dyadic grid.  Ships a simulation harness that verifies convergence rates
and deviation bounds by seeded Monte Carlo.

The package root holds the quick-start names only; everything else is
imported from its module (``roblp.experiments``, ``roblp.simulate``, ...).
"""

__version__ = "0.1.0"

from .contrast import huber
from .harness import Estimator
from .local_fit import Dataset, fit_local
