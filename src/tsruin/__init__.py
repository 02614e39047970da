"""Ruin probabilities for tempered stable insurance risk processes.

Finite-time and infinite-horizon ruin estimates via numerical Laplace
inversion of the asymptotic ruin-time profile, cross-checked by
importance-sampled Monte Carlo simulation under an exponential change of
measure to a stable process.

The package's API is the union of its modules' ``__all__``.
"""
from . import laplace, model, ruin, sim
from .laplace import *  # noqa: F403
from .model import *  # noqa: F403
from .ruin import *  # noqa: F403
from .sim import *  # noqa: F403

__all__ = [*laplace.__all__, *model.__all__, *ruin.__all__, *sim.__all__]
__version__ = "0.1.0"
