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

Stream layout.  A batch simulates its paths in chunks of ``_chunk_paths``
rows.  A chunk of n draws reads n uniforms (the angles) from the batch's
stream, then its n exponentials; the naive sampler's first rejection round
then reads its n accept uniforms.  The draws are never held whole: a second
PCG64, advanced by n, reads the exponentials beside the angles, and both
are drawn a block of rows at a time, just before the kernels use them
(``_chunk_draws``).  Memory therefore stays at a few blocks per worker,
plus the naive sampler's one increment array per chunk, while every
variate is the one a one-shot draw would give.
"""
from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .model import ClaimsModel, positive_axis

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

# elements per chunk of paths: it fixes where a chunk's exponentials start in
# the stream, so every result depends on it (and on nothing else of memory
# or thread count); the draws themselves are held one block at a time
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
    us, ts = positive_axis(u, "u"), positive_axis(t, "t")
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


class _DrawRows:
    """Draws standing for an array of ``shape``, held one row block at a time.

    ``src[lo:hi]`` fills rows lo..hi-1 by ``fill(buffer)`` into one reused
    buffer and returns them.  Rows must be read in order, each once: that
    is the order in which the stream holds them.
    """

    def __init__(self, fill, shape: tuple):
        self.shape, self.size = shape, math.prod(shape)
        self.rows_read = 0
        self._fill, self._buf = fill, np.empty(0)

    def __getitem__(self, rows: slice) -> np.ndarray:
        lo, hi, step = rows.indices(self.shape[0])
        if lo != self.rows_read or hi < lo or step != 1:
            raise IndexError(f"draw rows must be read in order, each once: asked for "
                             f"{lo}:{hi}:{step} after {self.rows_read} rows")
        n = (hi - lo) * math.prod(self.shape[1:])
        if self._buf.size < n:
            self._buf = np.empty(n)
        blk = self._buf[:n].reshape((hi - lo,) + self.shape[1:])
        self._fill(blk)
        self.rows_read = hi
        return blk


@contextmanager
def _chunk_draws(rng: np.random.Generator, shape: tuple):
    """A chunk's angles and exponentials, drawn a block of rows at a time, in
    the stream order of ``pi * (rng.random(shape) - 0.5)`` followed by
    ``rng.standard_exponential(shape)``.

    ``Generator.random`` takes exactly one 64-bit draw per double, so a copy
    of the batch's PCG64 advanced by the chunk's size starts at its first
    exponential; ``rng`` must be a PCG64 generator.  Yields ``(u_ang,
    w_exp, after)``: two ``_DrawRows`` and the generator that continues the
    stream after the exponentials last read.  On exit, with every row of
    both read, ``rng`` continues where ``after`` stopped.
    """
    bits = np.random.PCG64(0)  # a fixed seed, not OS entropy: the state is replaced
    bits.state = rng.bit_generator.state
    bits.advance(math.prod(shape))
    after = np.random.Generator(bits)

    def angles(blk):
        rng.random(out=blk)
        blk -= 0.5
        blk *= np.pi

    u_ang = _DrawRows(angles, shape)
    w_exp = _DrawRows(lambda blk: after.standard_exponential(out=blk), shape)
    yield u_ang, w_exp, after
    if u_ang.rows_read != shape[0] or w_exp.rows_read != shape[0]:
        raise RuntimeError(f"a chunk of {shape[0]} rows was left unread at row "
                           f"{min(u_ang.rows_read, w_exp.rows_read)}")
    rng.bit_generator.state = bits.state


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

    def scan(rng, npaths, steps, us, ends):
        with _chunk_draws(rng, (npaths, steps)) as (u_ang, w_exp, _):
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

    The first round proposes every element: its proposals go a block at a
    time straight into the output, from the chunk's split stream
    (``_chunk_draws``), and its accept uniforms follow the exponentials.
    Later rounds redraw the rejected elements only.
    """
    out = np.empty(count)
    block = _kernels._BLOCK_ELEMENTS
    tmp = np.empty(min(block, count))
    rejected = []
    with _chunk_draws(rng, (count,)) as (u_ang, w_exp, after):
        for lo in range(0, count, block):
            hi = min(lo + block, count)
            proposal = _kernels.stable_standard(u_ang[lo:hi], w_exp[lo:hi], rho, theta0, scale0)
            np.multiply(nu, proposal, out=out[lo:hi])
        accept_u = _DrawRows(lambda blk: after.random(out=blk), (count,))
        for lo in range(0, count, block):
            hi = min(lo + block, count)
            prob = tmp[:hi - lo]
            np.multiply(-alpha, out[lo:hi], out=prob)
            np.exp(prob, out=prob)
            rejected.append(lo + np.flatnonzero(~(accept_u[lo:hi] <= prob)))
    pending = np.concatenate(rejected)
    for _ in range(_MAX_REJECTION_ROUNDS - 1):
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
        ).reshape(npaths, steps)
        v += drift
        counts = np.zeros((len(us), len(ends)), dtype=np.int64)
        _kernels.first_passage_scan(v, us, ends, counts)
        return counts

    return _simulate_grid(u, t, plan, scan, lambda x: 1.0)
