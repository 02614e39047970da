"""Hot numeric kernels: stable-variate transform and first-passage scans.

Vectorised numpy kernels; ``perfbench/run.py --trace 1`` times them.

All kernels consume angle/exponential draws (``u_ang`` uniform on
(-pi/2, pi/2), ``w_exp`` standard exponential) rather than a generator, so
the random stream consumption is fixed by the caller.

The scans read a whole (u, t) grid off one path set: ``barrier`` may be an
array of levels and ``ends`` an increasing array of step counts (one per
horizon); a scalar barrier and ``ends=None`` give one cell, the full path.

Blocks.  Every kernel works a block of rows at a time, as many as fill
``_BLOCK_ELEMENTS`` and at least one.  ``stable_standard`` and
``mc_weight_scan`` read their draws only as ``u_ang[lo:hi]`` and
``w_exp[lo:hi]``, each row block once and in order, so they take draws that
exist one block at a time (``sim._DrawRows``) as well as arrays.  Both
scans run one loop (``_build_paths``): it keeps only each path's running
maximum and value at the ends, of shape (len(ends), npaths), from partial
sums in one reused buffer; then one levels x paths mask per end is the hit
rule, and every count, weight sum and largest weight is read off it.  No
temporary grows with the input or the number of horizons.

Bit identity.  Each element goes through the ufuncs of the one-expression
transform ``scale0 * sin(rho (u + theta0)) / cos(u)^(1/rho) * (cos(u - rho
(u + theta0)) / w)^((1 - rho)/rho)`` in that order (``_cms_into``), then
``nu x + mu`` and a cumulative sum along its row; the weight sums are taken
over the full per-path arrays, in the same pairwise order as an unblocked
scan.  A result therefore does not depend on the block size, and a change
to that order changes Monte Carlo bits.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "stable_standard",
    "mc_weight_scan",
    "first_passage_scan",
    "cms_constants",
]

# elements per block of the transform and the MC scan: a block, its scratch
# buffer and the draws they read stay in a 1 MB cache
_BLOCK_ELEMENTS = 1 << 14


def cms_constants(rho: float, beta: float):
    """Precomputed pieces of the Chambers-Mallows-Stuck transform.

    Returns (theta0, scale0) with theta0 = arctan(beta tan(pi rho/2))/rho
    and scale0 = (1 + beta^2 tan^2(pi rho/2))^(1/(2 rho)).
    """
    tpr = math.tan(math.pi * rho / 2.0)
    theta0 = math.atan(beta * tpr) / rho
    scale0 = (1.0 + beta * beta * tpr * tpr) ** (1.0 / (2.0 * rho))
    return theta0, scale0


def _cms_into(u_ang, w_exp, rho, theta0, scale0, out, tmp):
    """The transform of one block into ``out``, with ``tmp`` as scratch, in
    the ufunc order of the formula above.  The powers are taken by ``**=``
    so that numpy picks the same scalar-exponent path as ``**``."""
    np.add(u_ang, theta0, out=out)
    out *= rho
    np.sin(out, out=out)
    out *= scale0
    np.cos(u_ang, out=tmp)
    tmp **= 1.0 / rho
    out /= tmp
    np.add(u_ang, theta0, out=tmp)
    tmp *= rho
    np.subtract(u_ang, tmp, out=tmp)
    np.cos(tmp, out=tmp)
    tmp /= w_exp
    tmp **= (1.0 - rho) / rho
    out *= tmp


def _block_rows(row_elems: int) -> int:
    """Rows of ``row_elems`` elements per block."""
    return max(1, _BLOCK_ELEMENTS // max(1, row_elems))


def stable_standard(u_ang, w_exp, rho, theta0, scale0):
    """Standardised stable variates from angles and exponentials of one
    shape, read a row block of about ``_BLOCK_ELEMENTS`` at a time (arrays or
    ``sim._DrawRows``); returns an array of that shape."""
    out = np.empty(u_ang.shape)
    rows = _block_rows(math.prod(out.shape[1:]))
    tmp = np.empty_like(out[:rows])
    for lo in range(0, len(out), rows):
        hi = min(lo + rows, len(out))
        _cms_into(u_ang[lo:hi], w_exp[lo:hi], rho, theta0, scale0, out[lo:hi], tmp[:hi - lo])
    return out


def _running_max(path, ends):
    """Running maximum of each path at the step counts ``ends``: the maximum
    of every segment between consecutive ends, accumulated over the few
    segment columns (never over the full path array)."""
    starts = np.concatenate(([0], ends[:-1]))
    return np.maximum.accumulate(np.maximum.reduceat(path, starts, axis=1), axis=1)


def _build_paths(shape, fill, barrier, ends, alpha=None):
    """Scan the paths of ``shape`` (npaths, steps), built a row block at a
    time by ``fill(lo, hi, blk)``, which writes the partial sums of rows
    lo..hi-1 into ``blk``.  The hit rule is one mask per end j: ``above[i]``
    flags the paths whose running maximum by step ``ends[j]`` exceeds level i.

    Returns ``mc_weight_scan``'s tuple; without ``alpha``, sums and wmax are 0.
    """
    npaths, steps = shape
    ends = np.array([steps] if ends is None else ends, dtype=np.intp)
    levels = np.atleast_1d(barrier)
    rows = _block_rows(steps)
    path = np.empty((min(rows, npaths), steps))
    runmax = np.empty((len(ends), npaths))
    z_end = np.empty((len(ends), npaths))
    for lo in range(0, npaths, rows):
        hi = min(lo + rows, npaths)
        blk = path[:hi - lo]
        fill(lo, hi, blk)
        runmax[:, lo:hi] = _running_max(blk, ends).T
        z_end[:, lo:hi] = blk[:, ends - 1].T
    hits = np.empty((len(levels), len(ends)), dtype=np.int64)
    sums, wmax = np.zeros(hits.shape), np.zeros(hits.shape)
    weights = None if alpha is None else np.exp(-alpha * z_end)
    for j in range(len(ends)):
        above = runmax[j] > levels[:, None]
        hits[:, j] = np.count_nonzero(above, axis=1)
        if weights is not None:
            for i, hit in enumerate(above):
                w = weights[j, hit]
                sums[i, j], wmax[i, j] = w.sum(), w.max(initial=0.0)
    return sums, int(hits[levels.argmin(), -1]), hits, wmax


def mc_weight_scan(u_ang, w_exp, rho, theta0, scale0, nu, mu, barrier, alpha, ends=None):
    """Sum of exp(-alpha * Z_t) over paths that crossed the barrier by t.

    Returns (sums, crossing, hits, wmax): per (barrier, end) cell the sum,
    the number of paths summed and their largest weight (0 without hits),
    and the number of paths above the lowest barrier by the last end.
    """
    npaths, steps = u_ang.shape
    tmp = np.empty((min(_block_rows(steps), npaths), steps))

    def fill(lo, hi, blk):
        _cms_into(u_ang[lo:hi], w_exp[lo:hi], rho, theta0, scale0, blk, tmp[:hi - lo])
        blk *= nu
        blk += mu
        np.cumsum(blk, axis=1, out=blk)

    return _build_paths(u_ang.shape, fill, barrier, ends, alpha)


def first_passage_scan(incr, barrier, ends=None, counts=None):
    """Number of paths whose partial sums exceed the barrier (the lowest
    one, for an array) by the last end.

    With ``counts`` of shape (len(barrier), len(ends)), also adds to it,
    per cell, the number of paths above barrier i by end j.  ``incr`` is
    left unchanged.
    """
    _, crossing, hits, _ = _build_paths(
        incr.shape, lambda lo, hi, blk: np.cumsum(incr[lo:hi], axis=1, out=blk), barrier, ends)
    if counts is not None:
        counts += hits
    return crossing
