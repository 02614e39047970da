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
regardless of thread count or scheduling.  A one-thread plan runs its
batches in the caller's thread; the first plan with ``threads > 1``
imports the thread pool (``concurrent.futures``, which loads ``logging``),
so ``import tsruin`` does not.

Stream layout.  A batch simulates its paths in chunks of about
``_CHUNK_ELEMENTS`` elements.  ``_chunk_draws`` reads every angle and
exponential: n elements (a chunk, a rejection round) read n uniforms (the
angles), then n exponentials, then a round's n accept uniforms.  None is
held whole: a second PCG64, advanced by n, reads the exponentials beside
the angles, a block of rows at a time, just before the kernels use them.
The naive sampler draws a rejection round by ``sample_stable`` on a
chunk, then on its rejected elements until none is left.  Memory stays at
a few blocks per worker, plus the naive sampler's one increment array per
chunk, and every variate is the one a one-shot draw would give.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import _kernels
from .model import (ClaimsModel, _require_finite, _require_int, _require_positive,
                    _require_reportable, positive_axis)

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

# elements per chunk of paths: it fixes where a chunk's exponentials start in
# the stream, so every result depends on it (and on nothing else of memory
# or thread count); the draws themselves are held one block at a time
_CHUNK_ELEMENTS = 1 << 22

# safety cap on exponential-tilting rejection sweeps
_MAX_REJECTION_ROUNDS = 1_000_000

# largest h k alpha^rho, k = -c Gamma(-rho), a naive step may have.  A
# proposal is accepted with mean probability exp(-h k alpha^rho), so this
# allows 1e4 proposals per increment in expectation, and n increments take
# about ln(n) exp(h k alpha^rho) rounds: 1.6e5 for a chunk of
# _CHUNK_ELEMENTS, below the cap.  It bounds the rate, not the time: a plan
# makes about n N (t/h) exp(h k alpha^rho) proposals, t the largest
# horizon, at ~0.1 us each on a 2-core VM.  On (c, alpha, rho, xi) =
# (5, 3, 0.95, 0.3) a 3 x 3 grid to t = 2 at n = 1024, N = 6 passes at
# h = 0.025 (exp(h k alpha^rho) = 1,440) and makes 7e8 proposals in 55-64 s;
# at h = 0.01 it takes 1.6 s
_MAX_TILT_EXPONENT = math.log(1e4)

# smallest share of a measure-change cell's hit paths that its weight may
# rest on, per batch: (sum w / max w) / hits lies in (0, 1]; on the benchmark
# grids and the tested plans it is at least 0.04, where weights spread over
# the hits, and 0.0012 where one path carries the estimate
_MIN_WEIGHT_SHARE = 0.01


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
        _require_finite(mu=self.mu)
        _require_positive(nu=self.nu)
        if not (0.0 < self.rho < 1.0 or 1.0 < self.rho < 2.0):
            raise ValueError(f"rho must be in (0,1) or (1,2), got {self.rho}")
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [-1,1], got {self.beta}")


def sample_stable(params: StableLawParams, rng: np.random.Generator, size=None):
    """Draw from the stable law by the Chambers-Mallows-Stuck transform.

    Exact: one uniform angle and one exponential variate per sample, read
    through ``_chunk_draws``, so ``rng`` must be a PCG64 generator (as from
    ``default_rng``).  Returns a scalar for ``size=None``, otherwise an array.
    """
    theta0, scale0 = _kernels.cms_constants(params.rho, params.beta)
    # Python ints: PCG64.advance overflows on a numpy integer's product
    shape = tuple(_require_int("size", k, 0) for k in np.ravel(1 if size is None else size))
    with _chunk_draws(rng, shape) as (u_ang, w_exp):
        out = _kernels.stable_standard(u_ang, w_exp, params.rho, theta0, scale0)
    out *= params.nu
    out += params.mu
    return float(out[0]) if size is None else out


def stable_increment_params(m: ClaimsModel, h: float) -> StableLawParams:
    """Law of one h-increment of the measure-changed (stable) surplus:
    beta = 1, mu = -p h, nu = (-h c cos(pi rho/2) Gamma(-rho))**(1/rho)."""
    _require_positive(h=h)
    nu = (-h * m.c * math.cos(math.pi * m.rho / 2.0) * m.gamma_neg_rho) ** (1.0 / m.rho)
    return StableLawParams(rho=m.rho, beta=1.0, mu=-m.p * h, nu=nu)


@dataclass(frozen=True)
class SimPlan:
    """One simulation run: step h, n paths per batch, N >= 2 batches (one
    has no spread to give a stderr), RNG seed and worker-thread count (which
    never affects the result).  Counts and seed may be numpy integers."""

    h: float
    n: int
    N: int
    seed: int
    threads: int = 1

    def __post_init__(self):
        _require_positive(h=self.h)
        for name, least in (("n", 1), ("N", 2), ("seed", None), ("threads", 1)):
            object.__setattr__(self, name, _require_int(name, getattr(self, name), least))


@dataclass(frozen=True)
class BatchResult:
    """Aggregated batch statistics: mean over batch means and sigma/sqrt(N),
    floats for one cell and arrays of the grid's shape otherwise."""

    mean: float | np.ndarray
    stderr: float | np.ndarray
    elapsed_seconds: float

    def __post_init__(self):
        for name, value in (("mean", self.mean), ("stderr", self.stderr)):
            if np.min(value) < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value}")


def _steps_for(t: float, h: float) -> int:
    if h > t:
        raise ValueError(f"step h={h} exceeds horizon t={t}")
    steps = round(t / h)
    if abs(steps * h - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"h={h} must divide the horizon t={t} exactly")
    return steps


def _fold_batches(job: Callable[[np.random.Generator], object], plan: SimPlan,
                  shape: tuple = ()) -> BatchResult:
    """Run ``job`` N >= 2 times and fold each cell's batch means into their
    mean and the stderr std(ddof=1) / sqrt(N).

    ``job`` returns one float or an array of cell means; the result holds
    floats for ``shape == ()`` and arrays of ``shape`` otherwise.  Each
    cell's N means are folded as one contiguous row of a (cells, N) array,
    so a cell's result does not depend on the grid around it (reducing the
    (N, cells) array along axis 0 would sum in another order).

    A one-thread plan runs its batches in the caller's thread; the first
    plan with ``threads > 1`` imports the thread pool.  A batch that raises
    stops the plan: its error comes back unchanged, and the pool cancels
    the batches not yet started.
    """
    seed = plan.seed & 0xFFFFFFFFFFFFFFFF
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=(seed, k))) for k in range(plan.N)]
    start = time.perf_counter()
    if plan.threads == 1:
        # not a one-worker pool: its thread gets a malloc arena of its own,
        # 0.3-0.6 MB more peak RSS over mc-table's commands
        means = [job(rng) for rng in rngs]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=plan.threads) as pool:
            means = list(pool.map(job, rngs))
    elapsed = time.perf_counter() - start
    cells = np.ascontiguousarray(np.asarray(means, dtype=np.float64).reshape(plan.N, -1).T)
    mean = cells.mean(axis=1).reshape(shape)
    stderr = (cells.std(axis=1, ddof=1) / math.sqrt(plan.N)).reshape(shape)
    if shape == ():
        mean, stderr = float(mean), float(stderr)
    return BatchResult(mean=mean, stderr=stderr, elapsed_seconds=elapsed)


def run_batches(job: Callable[[np.random.Generator], float], plan: SimPlan) -> BatchResult:
    """Run a one-cell ``job`` N times on independent deterministic streams.

    Batch k receives ``default_rng(SeedSequence((seed, k)))``.  Batches may
    execute concurrently on ``plan.threads`` workers; aggregation is a fold
    in batch-index order, so the output is independent of scheduling.
    """
    return _fold_batches(job, plan)


def _simulate_grid(u, t, plan: SimPlan, scan, factor) -> BatchResult:
    """Every (u, t) cell from one path set per batch.

    Every horizon is checked before any path is drawn.  Paths run to the
    largest horizon in chunks of about ``_CHUNK_ELEMENTS`` elements;
    ``scan(rng, npaths, steps, us, ends)`` draws a chunk and returns its
    per-(u, end) weight sums, numbers of hit paths and largest weights.  A
    cell's batch mean is its sum over the batch's paths divided by n, times
    ``factor(t)``.  A cell with hits raises ``FloatingPointError`` naming u
    and t where its sum is exactly 0 (every hit weight lost below the
    doubles), or where sum w / max w, the number of hit paths its weight
    rests on, is below ``_MIN_WEIGHT_SHARE`` of its hits.
    """
    us, ts = positive_axis(u, "u"), positive_axis(t, "t")
    ends, col = np.unique([_steps_for(float(x), plan.h) for x in ts], return_inverse=True)
    steps = int(ends[-1])
    chunk = max(1, _CHUNK_ELEMENTS // steps)
    factors = np.array([factor(float(x)) for x in ts])

    def batch_job(rng: np.random.Generator) -> np.ndarray:
        total = hits = top = 0
        done = 0
        while done < plan.n:
            npaths = min(chunk, plan.n - done)
            sums, chunk_hits, chunk_top = scan(rng, npaths, steps, us, ends)
            total, hits, top = total + sums, hits + chunk_hits, np.maximum(top, chunk_top)
            done += npaths
        total, hits, top = total[:, col], hits[:, col], top[:, col]
        lost = np.argwhere((total == 0.0) & (hits > 0))
        if lost.size:
            i, k = lost[0]
            raise FloatingPointError(f"every weight of the {hits[i, k]} hit paths at "
                                     f"u={us[i]}, t={ts[k]} is 0 in double precision")
        thin = np.argwhere(total < _MIN_WEIGHT_SHARE * hits * top)
        if thin.size:
            i, k = thin[0]
            spread = total[i, k] / top[i, k]
            raise FloatingPointError(f"the weight of the {hits[i, k]} hit paths at u={us[i]}, "
                                     f"t={ts[k]} rests on sum w / max w = {spread:.3g} of them, "
                                     f"{spread / hits[i, k]:.3g} of the hits (below "
                                     f"{_MIN_WEIGHT_SHARE})")
        return total / plan.n * factors

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
    w_exp)``, two ``_DrawRows``.  On exit, with every row of both read,
    ``rng`` continues the stream after the last exponential.
    """
    bits = np.random.PCG64(0)  # a fixed seed, not OS entropy: the state is replaced
    bits.state = rng.bit_generator.state
    bits.advance(math.prod(shape))
    exps = np.random.Generator(bits)

    def angles(blk):
        rng.random(out=blk)
        blk -= 0.5
        blk *= np.pi

    u_ang = _DrawRows(angles, shape)
    w_exp = _DrawRows(lambda blk: exps.standard_exponential(out=blk), shape)
    yield u_ang, w_exp
    if u_ang.rows_read != shape[0] or w_exp.rows_read != shape[0]:
        raise RuntimeError(f"a chunk of {shape[0]} rows was left unread at row "
                           f"{min(u_ang.rows_read, w_exp.rows_read)}")
    rng.bit_generator.state = bits.state


def simulate_ruin_mc(m: ClaimsModel, u, t, plan: SimPlan) -> BatchResult:
    """Measure-change estimator of P(ruin by t) at discrete step h.

    Per path: accumulate stable h-increments, flag a hit at horizon t if
    the running sum exceeded u at a step boundary up to t, and add the
    weight exp(-alpha * Z_t) for hit paths.  The batch mean is multiplied
    by exp(psi_X(alpha) * t), which must be a positive normal double: one
    that overflows or underflows raises ``FloatingPointError`` naming t
    before any path is drawn.  So does a batch's cell whose hit paths all
    weigh 0.0, or whose weight rests on a few of them (``_simulate_grid``).
    ``u`` and ``t`` are scalars or vectors; the result's mean and stderr
    have shape ``shape(u) + shape(t)``.
    """
    params = stable_increment_params(m, plan.h)
    theta0, scale0 = _kernels.cms_constants(params.rho, params.beta)

    def scan(rng, npaths, steps, us, ends):
        with _chunk_draws(rng, (npaths, steps)) as (u_ang, w_exp):
            sums, _, hits, top = _kernels.mc_weight_scan(u_ang, w_exp, params.rho, theta0,
                                                         scale0, params.nu, params.mu, us,
                                                         m.alpha, ends)
            return sums, hits, top

    def factor(x: float) -> float:
        try:
            value = math.exp(m.psi_alpha * x)
        except OverflowError:
            value = math.inf
        return _require_reportable("measure-change factor exp(psi_X(alpha) t)", value, t=[x])

    return _simulate_grid(u, t, plan, scan, factor)


def _tilt_rejections(rng: np.random.Generator, proposal: np.ndarray, alpha: float):
    """Indices of the ``proposal`` entries V rejected by exponential tilting:
    each is accepted with probability exp(-alpha V) by the next uniform of
    ``rng``, the uniforms read a block at a time."""
    block = min(_kernels._BLOCK_ELEMENTS, proposal.size)
    accept_u, prob = np.empty(block), np.empty(block)
    rejected = []
    for lo in range(0, proposal.size, block):
        hi = min(lo + block, proposal.size)
        u, p = accept_u[:hi - lo], prob[:hi - lo]
        rng.random(out=u)
        np.multiply(-alpha, proposal[lo:hi], out=p)
        np.exp(p, out=p)
        rejected.append(lo + np.flatnonzero(~(u <= p)))
    return np.concatenate(rejected)


def _tilted_subordinator_increments(rng: np.random.Generator, count: int,
                                    params: StableLawParams, alpha: float) -> np.ndarray:
    """Exact tempered increments by exponential-tilting rejection.

    Proposals V are stable subordinator increments (``params``, with mu = 0:
    the law of Z_h); accepting with probability exp(-alpha V) leaves the
    density proportional to exp(-alpha x) f_Z(x), which is exactly the
    tempered increment law.  One round runs on every element, then on the
    rejected ones until none is left.
    """
    out = sample_stable(params, rng, count)
    pending = _tilt_rejections(rng, out, alpha)
    for _ in range(_MAX_REJECTION_ROUNDS - 1):
        if pending.size == 0:
            return out
        proposal = sample_stable(params, rng, pending.size)
        out[pending] = proposal
        pending = pending[_tilt_rejections(rng, proposal, alpha)]
    raise ArithmeticError(f"tilting rejection exceeded {_MAX_REJECTION_ROUNDS} rounds")


def simulate_ruin_naive(m: ClaimsModel, u, t, plan: SimPlan) -> BatchResult:
    """Direct estimator: exact tempered stable increments, hit fraction.
    Takes scalar or vector ``u`` and ``t`` as ``simulate_ruin_mc`` does.
    A step whose tilting acceptance rate exp(-h k alpha^rho) is below
    exp(-``_MAX_TILT_EXPONENT``) raises ``ValueError`` before any draw.  A
    step that passes makes about n N (t/h) exp(h k alpha^rho) proposals, t
    the largest horizon, which can still take a minute (see
    ``_MAX_TILT_EXPONENT``)."""
    params = stable_increment_params(m, plan.h)
    proposal_law = replace(params, mu=0.0)  # the drift is added below
    h_max = _MAX_TILT_EXPONENT / m.psi_y_alpha  # psi_Y(alpha) = k alpha^rho
    if plan.h > h_max:
        raise ValueError(f"naive step h={plan.h} accepts a tilting proposal with mean probability "
                         f"exp(-h k alpha^rho) = {math.exp(-plan.h * m.psi_y_alpha):.3g}"
                         f", k = -c Gamma(-rho); the largest step that passes is h={h_max!r}")

    def scan(rng, npaths, steps, us, ends):
        v = _tilted_subordinator_increments(rng, npaths * steps, proposal_law,
                                            m.alpha).reshape(npaths, steps)
        v += params.mu
        counts = np.zeros((len(us), len(ends)), dtype=np.int64)
        _kernels.first_passage_scan(v, us, ends, counts)
        return counts, counts, np.minimum(counts, 1)  # unit weights

    return _simulate_grid(u, t, plan, scan, lambda x: 1.0)
