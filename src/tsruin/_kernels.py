"""Hot numeric kernels: stable-variate transform and first-passage scans.

Vectorised numpy kernels; ``perfbench/run.py --trace 1`` times them.

All kernels consume angle/exponential draws (``u_ang`` uniform on
(-pi/2, pi/2), ``w_exp`` standard exponential) rather than a generator, so
the random stream consumption is fixed by the caller.

The scans read a whole (u, t) grid off one path set: ``barrier`` may be an
array of levels and ``ends`` an increasing array of step counts (one per
horizon).  With a scalar barrier and ``ends=None`` they reduce to the
one-cell scan over the full path.
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


def cms_constants(rho: float, beta: float):
    """Precomputed pieces of the Chambers-Mallows-Stuck transform.

    Returns (theta0, scale0) with theta0 = arctan(beta tan(pi rho/2))/rho
    and scale0 = (1 + beta^2 tan^2(pi rho/2))^(1/(2 rho)).
    """
    tpr = math.tan(math.pi * rho / 2.0)
    theta0 = math.atan(beta * tpr) / rho
    scale0 = (1.0 + beta * beta * tpr * tpr) ** (1.0 / (2.0 * rho))
    return theta0, scale0


def stable_standard(u_ang, w_exp, rho, theta0, scale0):
    return (
        scale0
        * np.sin(rho * (u_ang + theta0))
        / np.cos(u_ang) ** (1.0 / rho)
        * (np.cos(u_ang - rho * (u_ang + theta0)) / w_exp) ** ((1.0 - rho) / rho)
    )


def _running_max(path, ends):
    """Running maximum of each path at the step counts ``ends``: the maximum
    of every segment between consecutive ends, accumulated over the few
    segment columns (never over the full path array)."""
    starts = np.concatenate(([0], ends[:-1]))
    return np.maximum.accumulate(np.maximum.reduceat(path, starts, axis=1), axis=1)


def _scan_setup(incr, barrier, ends):
    """Paths, ends, barrier levels, running maxima at the ends, and the
    number of paths above the lowest barrier by the last end."""
    path = np.cumsum(incr, axis=1)
    ends = np.array([path.shape[1]] if ends is None else ends, dtype=np.intp)
    levels = np.atleast_1d(barrier)
    runmax = _running_max(path, ends)
    return path, ends, levels, runmax, int((runmax[:, -1] > levels.min()).sum())


def mc_weight_scan(u_ang, w_exp, rho, theta0, scale0, nu, mu, barrier, alpha, ends=None):
    """Sum of exp(-alpha * Z_t) over paths that crossed the barrier by t.

    Returns (sums, crossing), where sums has shape (len(barrier), len(ends))
    (a float for a scalar barrier and ``ends=None``) and crossing is the
    number of paths above the lowest barrier by the last end.
    """
    incr = nu * stable_standard(u_ang, w_exp, rho, theta0, scale0) + mu
    path, ends, levels, runmax, crossing = _scan_setup(incr, barrier, ends)
    weights = np.exp(-alpha * path[:, ends - 1])
    sums = np.array([[weights[runmax[:, j] > b, j].sum() for j in range(len(ends))]
                     for b in levels])
    return (float(sums[0, 0]) if np.ndim(barrier) == 0 and len(ends) == 1 else sums), crossing


def first_passage_scan(incr, barrier, ends=None, counts=None):
    """Number of paths whose partial sums exceed the barrier (the lowest
    one, for an array) by the last end.

    With ``counts`` of shape (len(barrier), len(ends)), also adds to it,
    per cell, the number of paths above barrier i by end j.
    """
    _, ends, levels, runmax, crossing = _scan_setup(incr, barrier, ends)
    if counts is not None:
        counts += (runmax[None, :, :] > levels[:, None, None]).sum(axis=1)
    return crossing
