"""Ruin probabilities for tempered stable insurance risk processes.

Finite-time and infinite-horizon ruin estimates via numerical Laplace
inversion of the asymptotic ruin-time profile, cross-checked by
importance-sampled Monte Carlo simulation under an exponential change of
measure to a stable process.
"""
from .laplace import (
    InversionError,
    levin_invert,
    talbot_grid,
    talbot_invert,
)
from .model import (
    ClaimsModel,
    PhiConvergenceError,
    RegimeTag,
    ScaleChange,
    cumulant_x,
    cumulant_y,
    levy_tail,
    levy_tail_asymptotic,
    min_loading_for_subcritical,
    phi,
    premium_from_loading,
    rescale,
)
from .ruin import (
    BFunction,
    RegimeError,
    b_infinity,
    b_tilde,
    estimate_infinite_horizon,
    estimate_rft,
    estimate_tulta,
    growth_diagnostic,
    prob_eventual_ruin,
    scale_function,
)
from .sim import (
    BatchResult,
    SimPlan,
    StableLawParams,
    run_batches,
    sample_stable,
    simulate_ruin_mc,
    simulate_ruin_naive,
    stable_increment_params,
)

__version__ = "0.1.0"
