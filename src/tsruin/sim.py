"""Monte Carlo estimation of finite-time ruin probabilities.

Two estimators of P(first passage above u by time t):

* ``simulate_ruin_mc`` -- simulate the *stable* process obtained from the
  claims surplus by an exponential change of measure, flag paths that
  cross u, and reweight crossing paths by exp(-alpha * Z_t) times the
  constant exp(psi_X(alpha) * t).  Stable increments are cheap and exact.
* ``simulate_ruin_naive`` -- simulate the tempered stable surplus itself;
  increments are drawn exactly by exponential-tilting rejection from
  stable proposals, and the estimate is the plain hit fraction.

Both take a u-vector and a t-vector and estimate every (u, t) cell from
one path set per batch, simulated to the largest horizon: the hit flag
and weight of horizon t are read off at step t/h.  The cells therefore
share common random numbers; each keeps the same estimator in law, only
their correlation changes.  A scalar (u, t) is the one-cell grid, and the
largest-horizon column of any grid equals the one-cell run at that t
bit for bit.

Batches are deterministic: batch k draws from a generator seeded by
``SeedSequence((seed, k))``, so results are bit-identical for a fixed plan
regardless of thread count or scheduling.
"""
from __future__ import annotations

import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .model import ClaimsModel

__all__ = [
    "StableLawParams",
    "SimPlan",
    "BatchResult",
    "sample_stable",
    "stable_increment_params",
    "simulate_ruin_mc",
    "simulate_ruin_naive",
    "run_batches",
]

logger = logging.getLogger(__name__)

# elements per random-draw block; fixed so the stream layout (and hence
# every result) is independent of memory pressure and thread count
_CHUNK_ELEMENTS = 1 << 22

# safety cap on exponential-tilting rejection sweeps
_MAX_REJECTION_ROUNDS = 1_000_000


@dataclass(frozen=True)
class StableLawParams:
    """Stable law with characteristic exponent

        -nu**rho |theta|**rho (1 - i beta sgn(theta) tan(pi rho/2)) + i mu theta.

    ``nu`` is the sampler's *scale*: the coefficient in the exponent is
    ``nu**rho``.  This matches the increment rule of the measure-change
    algorithm, and the convention is pinned empirically by the
    Laplace-transform tests.
    """

    rho: float
    beta: float
    mu: float
    nu: float

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0 or 1.0 < self.rho < 2.0):
            raise ValueError(f"rho must be in (0,1) or (1,2), got {self.rho}")
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [-1,1], got {self.beta}")
        if self.nu <= 0.0:
            raise ValueError(f"scale nu must be positive, got {self.nu}")


def sample_stable(params: StableLawParams, rng: np.random.Generator, size=None):
    """Draw from the stable law by the Chambers-Mallows-Stuck transform.

    Exact and loop-free: one uniform angle and one exponential variate per
    sample.  Returns a scalar for ``size=None``, otherwise an array.
    """
    theta0, scale0 = _kernels.cms_constants(params.rho, params.beta)
    shape = (1,) if size is None else size
    u_ang = np.pi * (rng.random(shape) - 0.5)
    w_exp = rng.standard_exponential(shape)
    std = _kernels.stable_standard(u_ang, w_exp, params.rho, theta0, scale0)
    out = params.nu * std + params.mu
    return float(out[0]) if size is None else out


def stable_increment_params(m: ClaimsModel, h: float) -> StableLawParams:
    """Law of one h-increment of the measure-changed (stable) surplus:
    beta = 1, mu = -p h, nu = (-h c cos(pi rho/2) Gamma(-rho))**(1/rho)."""
    if h <= 0.0:
        raise ValueError(f"h must be positive, got {h}")
    nu = (-h * m.c * math.cos(math.pi * m.rho / 2.0) * m.gamma_neg_rho) ** (1.0 / m.rho)
    return StableLawParams(rho=m.rho, beta=1.0, mu=-m.p * h, nu=nu)


@dataclass(frozen=True)
class SimPlan:
    """One simulation run: step h, n paths per batch, N batches, RNG seed,
    and the worker-thread count (which never affects the result)."""

    h: float
    n: int
    N: int
    seed: int
    threads: int = 1

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError(f"h must be positive, got {self.h}")
        if self.n < 1 or self.N < 1:
            raise ValueError(f"need n >= 1 and N >= 1, got n={self.n}, N={self.N}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


@dataclass(frozen=True)
class BatchResult:
    """Aggregated batch statistics: mean over batch means and sigma/sqrt(N),
    floats for one cell and arrays of the grid's shape otherwise."""

    mean: float | np.ndarray
    stderr: float | np.ndarray
    elapsed_seconds: float
    batches: int
    paths_per_batch: int

    def __post_init__(self):
        if np.min(self.mean) < 0.0:
            raise ValueError(f"mean must be nonnegative, got {self.mean}")
        if np.min(self.stderr) < 0.0:
            raise ValueError(f"stderr must be nonnegative, got {self.stderr}")


def _steps_for(t: float, h: float) -> int:
    if h > t:
        raise ValueError(f"step h={h} exceeds horizon t={t}")
    steps = round(t / h)
    if abs(steps * h - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"h={h} must divide the horizon t={t} exactly")
    return steps


def _fold_batches(job: Callable[[np.random.Generator], object], plan: SimPlan,
                  shape: tuple = ()) -> BatchResult:
    """Run ``job`` N times and fold its per-cell batch means, cell by cell.

    ``job`` returns one float or an array of cell means; the result holds
    floats for ``shape == ()`` and arrays of ``shape`` otherwise.  Each
    cell's N means are folded as one contiguous vector, so a cell's result
    does not depend on the grid around it.
    """
    seed = plan.seed & 0xFFFFFFFFFFFFFFFF
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=(seed, k))) for k in range(plan.N)]
    start = time.perf_counter()
    if plan.threads == 1:
        means = [job(rng) for rng in rngs]
    else:
        with ThreadPoolExecutor(max_workers=plan.threads) as pool:
            means = list(pool.map(job, rngs))
    elapsed = time.perf_counter() - start
    cells = np.ascontiguousarray(np.asarray(means, dtype=np.float64).reshape(plan.N, -1).T)
    mean = np.array([c.mean() for c in cells]).reshape(shape)
    if plan.N == 1:
        logger.warning("N=1 batch: stderr is degenerate, reporting 0")
        stderr = np.zeros(shape)
    else:
        stderr = np.array([c.std(ddof=1) / math.sqrt(plan.N) for c in cells]).reshape(shape)
    if shape == ():
        mean, stderr = float(mean), float(stderr)
    return BatchResult(
        mean=mean,
        stderr=stderr,
        elapsed_seconds=elapsed,
        batches=plan.N,
        paths_per_batch=plan.n,
    )


def run_batches(job: Callable[[np.random.Generator], float], plan: SimPlan) -> BatchResult:
    """Run a one-cell ``job`` N times on independent deterministic streams.

    Batch k receives ``default_rng(SeedSequence((seed, k)))``.  Batches may
    execute concurrently on ``plan.threads`` workers; aggregation is a fold
    in batch-index order, so the output is independent of scheduling.
    """
    return _fold_batches(job, plan)


def _chunk_paths(steps: int) -> int:
    return max(1, _CHUNK_ELEMENTS // steps)


def _simulate_grid(u, t, plan: SimPlan, scan, factor) -> BatchResult:
    """Every (u, t) cell from one path set per batch.

    Every horizon is checked before any path is drawn.  Paths run to the
    largest horizon in chunks of ``_chunk_paths`` rows; ``scan(rng, npaths,
    steps, us, ends)`` draws a chunk and returns its per-(u, end) sums.
    A cell's batch mean is its sum over the batch's paths divided by n,
    times ``factor(t)``.
    """
    us = np.atleast_1d(np.asarray(u, dtype=np.float64))
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if us.ndim != 1 or ts.ndim != 1 or not (us > 0.0).all() or not (ts > 0.0).all():
        raise ValueError(f"u and t must be positive scalars or vectors, got u={u}, t={t}")
    ends, col = np.unique([_steps_for(float(x), plan.h) for x in ts], return_inverse=True)
    steps = int(ends[-1])
    chunk = _chunk_paths(steps)
    factors = np.array([factor(float(x)) for x in ts])

    def batch_job(rng: np.random.Generator) -> np.ndarray:
        total = 0
        done = 0
        while done < plan.n:
            npaths = min(chunk, plan.n - done)
            total = total + scan(rng, npaths, steps, us, ends)
            done += npaths
        return total[:, col] / plan.n * factors

    return _fold_batches(batch_job, plan, np.shape(u) + np.shape(t))


def simulate_ruin_mc(m: ClaimsModel, u, t, plan: SimPlan) -> BatchResult:
    """Measure-change estimator of P(ruin by t) at discrete step h.

    Per path: accumulate stable h-increments, flag a hit at horizon t if
    the running sum exceeded u at a step boundary up to t, and add the
    weight exp(-alpha * Z_t) for hit paths.  The batch mean is multiplied
    by exp(psi_X(alpha) * t).  ``u`` and ``t`` are scalars or vectors; the
    result's mean and stderr have shape ``shape(u) + shape(t)``.
    """
    params = stable_increment_params(m, plan.h)
    theta0, scale0 = _kernels.cms_constants(params.rho, params.beta)

    # one pair of draw buffers per worker thread, reused across its batches
    # and chunks; the first chunk of a batch is its largest
    local = threading.local()

    def scan(rng, npaths, steps, us, ends):
        size = npaths * steps
        if not hasattr(local, "u_ang") or local.u_ang.size < size:
            local.u_ang, local.w_exp = np.empty(size), np.empty(size)
        u_ang = local.u_ang[:size].reshape(npaths, steps)
        w_exp = local.w_exp[:size].reshape(npaths, steps)
        rng.random(out=u_ang)
        u_ang -= 0.5
        u_ang *= np.pi
        rng.standard_exponential(out=w_exp)
        return _kernels.mc_weight_scan(u_ang, w_exp, params.rho, theta0, scale0,
                                       params.nu, params.mu, us, m.alpha, ends)[0]

    return _simulate_grid(u, t, plan, scan, lambda x: math.exp(m.psi_alpha * x))


def _tilted_subordinator_increments(
    rng: np.random.Generator, count: int, nu: float, rho: float, alpha: float,
    theta0: float, scale0: float,
) -> np.ndarray:
    """Exact tempered increments by exponential-tilting rejection.

    Proposals V are stable subordinator increments (law of Z_h); accepting
    with probability exp(-alpha V) leaves the density proportional to
    exp(-alpha x) f_Z(x), which is exactly the tempered increment law.
    """
    out = np.empty(count)
    pending = np.arange(count)
    for _ in range(_MAX_REJECTION_ROUNDS):
        if pending.size == 0:
            return out
        u_ang = np.pi * (rng.random(pending.size) - 0.5)
        w_exp = rng.standard_exponential(pending.size)
        proposal = nu * _kernels.stable_standard(u_ang, w_exp, rho, theta0, scale0)
        accept = rng.random(pending.size) <= np.exp(-alpha * proposal)
        out[pending[accept]] = proposal[accept]
        pending = pending[~accept]
    raise RuntimeError(f"tilting rejection exceeded {_MAX_REJECTION_ROUNDS} rounds")


def simulate_ruin_naive(m: ClaimsModel, u, t, plan: SimPlan) -> BatchResult:
    """Direct estimator: exact tempered stable increments, hit fraction.
    Takes scalar or vector ``u`` and ``t`` as ``simulate_ruin_mc`` does."""
    params = stable_increment_params(m, plan.h)  # mu unused: drift added below
    theta0, scale0 = _kernels.cms_constants(params.rho, 1.0)
    drift = -m.p * plan.h

    def scan(rng, npaths, steps, us, ends):
        v = _tilted_subordinator_increments(
            rng, npaths * steps, params.nu, params.rho, m.alpha, theta0, scale0
        )
        counts = np.zeros((len(us), len(ends)), dtype=np.int64)
        _kernels.first_passage_scan(v.reshape(npaths, steps) + drift, us, ends, counts)
        return counts

    return _simulate_grid(u, t, plan, scan, lambda x: 1.0)
