"""Hot numeric kernels: stable-variate transform and first-passage scans.

Two interchangeable backends produce identical results from identical
pre-drawn random inputs:

* ``numba`` -- @njit compiled per-path loops (default when numba imports);
* ``numpy`` -- vectorized fallback.

Select with the environment variable ``TSRUIN_BACKEND=numba|numpy`` before
import.  ``perfbench/run.py --trace 1`` times the kernels of the backend in
use.

All kernels consume angle/exponential draws (``u_ang`` uniform on
(-pi/2, pi/2), ``w_exp`` standard exponential) rather than a generator, so
the random stream consumption is backend-independent.
"""
from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "backend",
    "stable_standard",
    "mc_weight_scan",
    "first_passage_scan",
    "cms_constants",
]

_ENV_VAR = "TSRUIN_BACKEND"


def cms_constants(rho: float, beta: float):
    """Precomputed pieces of the Chambers-Mallows-Stuck transform.

    Returns (theta0, scale0) with theta0 = arctan(beta tan(pi rho/2))/rho
    and scale0 = (1 + beta^2 tan^2(pi rho/2))^(1/(2 rho)).
    """
    tpr = math.tan(math.pi * rho / 2.0)
    theta0 = math.atan(beta * tpr) / rho
    scale0 = (1.0 + beta * beta * tpr * tpr) ** (1.0 / (2.0 * rho))
    return theta0, scale0


# ---------------------------------------------------------------------------
# numpy implementations
# ---------------------------------------------------------------------------


def _stable_standard_numpy(u_ang, w_exp, rho, theta0, scale0):
    return (
        scale0
        * np.sin(rho * (u_ang + theta0))
        / np.cos(u_ang) ** (1.0 / rho)
        * (np.cos(u_ang - rho * (u_ang + theta0)) / w_exp) ** ((1.0 - rho) / rho)
    )


def _mc_weight_scan_numpy(u_ang, w_exp, rho, theta0, scale0, nu, mu, barrier, alpha):
    incr = nu * _stable_standard_numpy(u_ang, w_exp, rho, theta0, scale0) + mu
    path = np.cumsum(incr, axis=1)
    hit = (path > barrier).any(axis=1)
    wsum = float(np.exp(-alpha * path[hit, -1]).sum())
    return wsum, int(hit.sum())


def _first_passage_scan_numpy(incr, barrier):
    path = np.cumsum(incr, axis=1)
    return int(((path > barrier).any(axis=1)).sum())


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

try:
    import numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    _HAVE_NUMBA = False

if _HAVE_NUMBA:

    @numba.njit(cache=True, nogil=True)
    def _stable_standard_numba(u_ang, w_exp, rho, theta0, scale0):
        out = np.empty_like(u_ang)
        flat_u = u_ang.ravel()
        flat_w = w_exp.ravel()
        flat_o = out.ravel()
        inv_rho = 1.0 / rho
        expo = (1.0 - rho) / rho
        for i in range(flat_u.size):
            ua = flat_u[i]
            flat_o[i] = (
                scale0
                * np.sin(rho * (ua + theta0))
                / np.cos(ua) ** inv_rho
                * (np.cos(ua - rho * (ua + theta0)) / flat_w[i]) ** expo
            )
        return out

    @numba.njit(cache=True, nogil=True)
    def _mc_weight_scan_numba(u_ang, w_exp, rho, theta0, scale0, nu, mu, barrier, alpha):
        npaths, steps = u_ang.shape
        inv_rho = 1.0 / rho
        expo = (1.0 - rho) / rho
        wsum = 0.0
        nhit = 0
        for i in range(npaths):
            x = 0.0
            hit = False
            for s in range(steps):
                ua = u_ang[i, s]
                z = (
                    scale0
                    * np.sin(rho * (ua + theta0))
                    / np.cos(ua) ** inv_rho
                    * (np.cos(ua - rho * (ua + theta0)) / w_exp[i, s]) ** expo
                )
                x += nu * z + mu
                if x > barrier:
                    hit = True
            if hit:
                wsum += np.exp(-alpha * x)
                nhit += 1
        return wsum, nhit

    @numba.njit(cache=True, nogil=True)
    def _first_passage_scan_numba(incr, barrier):
        npaths, steps = incr.shape
        nhit = 0
        for i in range(npaths):
            x = 0.0
            for s in range(steps):
                x += incr[i, s]
                if x > barrier:
                    nhit += 1
                    break
        return nhit


def _select_backend() -> str:
    requested = os.environ.get(_ENV_VAR, "").strip().lower()
    if requested == "numpy":
        return "numpy"
    if requested == "numba":
        if not _HAVE_NUMBA:
            raise ImportError(f"{_ENV_VAR}=numba requested but numba is not importable")
        return "numba"
    if requested:
        raise ValueError(f"unknown {_ENV_VAR}={requested!r}; use 'numba' or 'numpy'")
    return "numba" if _HAVE_NUMBA else "numpy"


_BACKEND = _select_backend()

if _BACKEND == "numba":
    stable_standard = _stable_standard_numba
    mc_weight_scan = _mc_weight_scan_numba
    first_passage_scan = _first_passage_scan_numba
else:
    stable_standard = _stable_standard_numpy
    mc_weight_scan = _mc_weight_scan_numpy
    first_passage_scan = _first_passage_scan_numpy


def backend() -> str:
    """Name of the active kernel backend ('numba' or 'numpy')."""
    return _BACKEND
