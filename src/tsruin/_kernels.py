"""Hot numeric kernels: stable-variate transform and first-passage scans.

Vectorised numpy kernels; ``perfbench/run.py --trace 1`` times them.

All kernels consume angle/exponential draws (``u_ang`` uniform on
(-pi/2, pi/2), ``w_exp`` standard exponential) rather than a generator, so
the random stream consumption is fixed by the caller.

The scans read a whole (u, t) grid off one path set: ``barrier`` may be an
array of levels and ``ends`` an increasing array of step counts (one per
horizon).  With a scalar barrier and ``ends=None`` they reduce to the
one-cell scan over the full path.

Blocks.  ``stable_standard`` computes its flattened input in blocks of
``_BLOCK_ELEMENTS``; the two scans take ``max(1, _BLOCK_ELEMENTS // steps)``
paths at a time, turn them into partial sums in place (``mc_weight_scan``
first into increments), and keep only each path's running maximum (and Z)
at the ends, of shape (npaths, len(ends)).  A block is computed in place,
in its slice of the output or in one reused path buffer, with one scratch
buffer of block size beside it, so no temporary grows with the input.
``mc_weight_scan`` reads its draws only as ``u_ang[lo:hi]`` and
``w_exp[lo:hi]``, each row block once and in order, so it also takes draw
sources that exist one block at a time (``sim._DrawRows``).

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


def stable_standard(u_ang, w_exp, rho, theta0, scale0):
    """Standardised stable variates from angles and exponentials, computed
    in flat blocks of ``_BLOCK_ELEMENTS``; returns an array of their
    broadcast shape."""
    u_ang, w_exp = np.broadcast_arrays(np.asarray(u_ang, dtype=np.float64),
                                       np.asarray(w_exp, dtype=np.float64))
    out = np.empty(u_ang.shape)
    u_flat, w_flat, o_flat = u_ang.reshape(-1), w_exp.reshape(-1), out.reshape(-1)
    tmp = np.empty(min(_BLOCK_ELEMENTS, out.size))
    for lo in range(0, out.size, _BLOCK_ELEMENTS):
        hi = min(lo + _BLOCK_ELEMENTS, out.size)
        _cms_into(u_flat[lo:hi], w_flat[lo:hi], rho, theta0, scale0, o_flat[lo:hi],
                  tmp[:hi - lo])
    return out


def _running_max(path, ends):
    """Running maximum of each path at the step counts ``ends``: the maximum
    of every segment between consecutive ends, accumulated over the few
    segment columns (never over the full path array)."""
    starts = np.concatenate(([0], ends[:-1]))
    return np.maximum.accumulate(np.maximum.reduceat(path, starts, axis=1), axis=1)


def mc_weight_scan(u_ang, w_exp, rho, theta0, scale0, nu, mu, barrier, alpha, ends=None):
    """Sum of exp(-alpha * Z_t) over paths that crossed the barrier by t.

    Returns (sums, crossing), where sums has shape (len(barrier), len(ends))
    (a float for a scalar barrier and ``ends=None``) and crossing is the
    number of paths above the lowest barrier by the last end.

    Paths are built a block of rows at a time; only each path's running
    maximum and Z at the ends are kept.
    """
    npaths, steps = u_ang.shape
    ends = np.array([steps] if ends is None else ends, dtype=np.intp)
    levels = np.atleast_1d(barrier)
    rows = max(1, _BLOCK_ELEMENTS // steps)
    path = np.empty((min(rows, npaths), steps))
    tmp = np.empty_like(path)
    runmax = np.empty((npaths, len(ends)))
    z_end = np.empty((npaths, len(ends)))
    for lo in range(0, npaths, rows):
        hi = min(lo + rows, npaths)
        blk = path[:hi - lo]
        _cms_into(u_ang[lo:hi], w_exp[lo:hi], rho, theta0, scale0, blk, tmp[:hi - lo])
        blk *= nu
        blk += mu
        np.cumsum(blk, axis=1, out=blk)
        runmax[lo:hi] = _running_max(blk, ends)
        z_end[lo:hi] = blk[:, ends - 1]
    weights = np.exp(-alpha * z_end)
    sums = np.array([[weights[runmax[:, j] > b, j].sum() for j in range(len(ends))]
                     for b in levels])
    crossing = int((runmax[:, -1] > levels.min()).sum())
    return (float(sums[0, 0]) if np.ndim(barrier) == 0 and len(ends) == 1 else sums), crossing


def first_passage_scan(incr, barrier, ends=None, counts=None):
    """Number of paths whose partial sums exceed the barrier (the lowest
    one, for an array) by the last end.

    With ``counts`` of shape (len(barrier), len(ends)), also adds to it,
    per cell, the number of paths above barrier i by end j.

    The partial sums are taken a block of rows at a time into one reused
    path buffer; ``incr`` is left unchanged.
    """
    npaths, steps = incr.shape
    ends = np.array([steps] if ends is None else ends, dtype=np.intp)
    levels = np.atleast_1d(barrier)
    rows = max(1, _BLOCK_ELEMENTS // steps)
    path = np.empty((min(rows, npaths), steps))
    runmax = np.empty((npaths, len(ends)))
    for lo in range(0, npaths, rows):
        hi = min(lo + rows, npaths)
        blk = path[:hi - lo]
        np.cumsum(incr[lo:hi], axis=1, out=blk)
        runmax[lo:hi] = _running_max(blk, ends)
    if counts is not None:
        counts += (runmax[None, :, :] > levels[:, None, None]).sum(axis=1)
    return int((runmax[:, -1] > levels.min()).sum())
