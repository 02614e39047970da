"""Numerical inverse Laplace transforms.

Three engines operate on caller-supplied transforms ``F(delta)`` evaluated
at complex arguments:

* ``talbot_grid``, the production engine: fixed-Talbot contour
  deformation with trapezoidal summation, for every t of a grid in one
  double-precision array pass on a contour that may be shifted right, with
  F evaluated on the whole node array at once.  ``talbot_nodes`` and
  ``talbot_sum`` are its two halves: ``ruin`` builds the nodes at two term
  counts, evaluates its transform on both at once (for B, from one Phi_X
  solve shared by both term counts) and takes the gap of the two sums as
  its error estimate.
* ``talbot_invert``, the same rule one t at a time in configurable-precision
  arithmetic (F takes and returns scalars), because the method loses
  roughly 0.6*M decimal digits to cancellation.  A reference engine.
* ``levin_invert`` -- collocation in a Chebyshev basis for the oscillatory
  real-axis form ``f(t) = e^(eps t) (2/pi) int_0^inf Re F(eps+iu) cos(ut) du``,
  entirely in double precision, with F evaluated once per t on the 1-d
  array of its Bromwich nodes.  An independent reference engine, without
  an error estimate of its own.

Transforms must be analytic to the right of the declared abscissa; the
Talbot contour additionally requires analyticity in the cut plane away
from the negative real axis (after the shift), which holds for every
transform used here.
"""
from __future__ import annotations

import logging
from typing import Callable, Optional

import numpy as np

__all__ = ["InversionError", "talbot_invert", "talbot_grid", "talbot_nodes", "talbot_sum",
           "levin_invert"]

logger = logging.getLogger(__name__)

TransformFn = Callable[[complex], complex]


class InversionError(RuntimeError):
    """An inversion engine could not produce a trustworthy value."""


# ---------------------------------------------------------------------------
# fixed-Talbot
# ---------------------------------------------------------------------------


def talbot_invert(F: TransformFn, t: float, M: int = 32) -> float:
    """Invert F at time t on the fixed-Talbot contour with M terms.

    The contour is delta(theta) = r*theta*(cot(theta) + i) with
    r = 2M/(5t); the trapezoidal rule gives

        f(t) ~ (r/M) * [ F(r) e^(rt) / 2
                 + sum_{j=1}^{M-1} Re( e^(t delta_j) F(delta_j) (1 + i sigma_j) ) ]

    with theta_j = j pi / M and sigma = theta + (theta cot theta - 1) cot theta.
    All arithmetic carries M + 10 decimal digits (mpmath, imported here
    only); accuracy on well-behaved transforms is roughly 0.6*M digits.
    """
    import mpmath

    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if M < 8:
        raise ValueError(f"M must be >= 8, got {M}")
    with mpmath.workdps(M + 10):
        tt = mpmath.mpf(t)
        r = mpmath.mpf(2) * M / (5 * tt)
        try:
            acc = (mpmath.mpf("0.5") * F(mpmath.mpc(r)) * mpmath.exp(r * tt)).real
            for j in range(1, M):
                theta = mpmath.pi * j / M
                cot = mpmath.cos(theta) / mpmath.sin(theta)
                delta = r * theta * (cot + 1j)
                sigma = theta + (theta * cot - 1) * cot
                acc += (mpmath.exp(delta * tt) * F(delta) * (1 + 1j * sigma)).real
        except InversionError:
            raise
        except Exception as exc:  # transform evaluation failed: report, don't fabricate
            raise InversionError(f"transform evaluation failed on Talbot contour at t={t}: {exc}") from exc
        return float(r / M * acc)


def _talbot_contour(ts, M: int):
    """The validated ``ts`` of ``talbot_grid`` with its contour: r = 2M/(5t)
    per t, the path (nodes are shift + r * path) and the trapezoid weights."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or not np.all(ts > 0.0):
        raise ValueError("ts must be a 1-d array of positive times")
    if M < 8:
        raise ValueError(f"M must be >= 8, got {M}")
    theta = np.pi * np.arange(1, M) / M
    cot = 1.0 / np.tan(theta)
    path = np.concatenate([[1.0], theta * (cot + 1j)])
    weight = np.concatenate([[0.5], 1.0 + 1j * (theta + (theta * cot - 1.0) * cot)])
    return ts, 2.0 * M / (5.0 * ts), path, weight


def talbot_nodes(ts, M: int, shift: float = 0.0) -> np.ndarray:
    """The ``(len(ts), M)`` complex array of ``talbot_grid``'s nodes, one row
    per t with its columns in contour order from the real crossing point
    ``shift + r``."""
    _, r, path, _ = _talbot_contour(ts, M)
    return shift + r[:, None] * path


def talbot_sum(values: np.ndarray, ts, M: int, shift: float = 0.0) -> np.ndarray:
    """``talbot_grid``'s trapezoidal sum, given the transform ``values`` at
    every node of ``talbot_nodes(ts, M, shift)``."""
    ts, r, path, weight = _talbot_contour(ts, M)
    # e^(delta t) = e^(shift t) e^(2M/5 path): only the shift depends on t
    terms = values * (np.exp(0.4 * M * path) * weight)
    return r / M * np.exp(shift * ts) * terms.sum(axis=1).real


def talbot_grid(F: Callable[[np.ndarray], np.ndarray], ts, M: int,
                shift: float = 0.0) -> np.ndarray:
    """Invert F at every t of ``ts`` in one double-precision fixed-Talbot pass.

    The contour of ``talbot_invert``, shifted right by ``shift``:
    delta(theta) = shift + r*theta*(cot(theta) + i), r = 2M/(5t), which
    inverts F(shift + s) and multiplies by e^(shift t) (Abate & Whitt,
    INFORMS J. Comput. 2006).  A shift at or beyond the rightmost
    singularity keeps every singularity left of the contour for all t.

    ``F`` receives the ``(len(ts), M)`` complex array of nodes
    (``talbot_nodes``), one row per t with its columns in contour order from
    the real crossing point ``shift + r``, and returns the transform at
    every node, which ``talbot_sum`` sums.  Rounding error grows like
    e^(2M/5) times machine epsilon, which bounds useful M in double
    precision to the low twenties.
    """
    return talbot_sum(F(talbot_nodes(ts, M, shift)), ts, M, shift)


# ---------------------------------------------------------------------------
# Levin collocation
# ---------------------------------------------------------------------------


def _cheb_basis(x: np.ndarray, n: int):
    """T_k(x) and U_(k-1)(x) for k = 1..n at points x in [-1, 1]."""
    theta = np.arccos(np.clip(x, -1.0, 1.0))
    ks = np.arange(1, n + 1)
    T = np.cos(np.outer(theta, ks))
    s = np.sin(theta)[:, None]
    # U_(k-1) = sin(k theta)/sin(theta), with limit k (+-1)^(k-1) at x = +-1
    ends = ks * np.where(x[:, None] > 0, 1.0, (-1.0) ** (ks - 1))
    U = np.where(s > 1e-12, np.sin(np.outer(theta, ks)) / np.maximum(s, 1e-12), ends)
    return T, U


def _levin_panels(f: np.ndarray, a: np.ndarray, b: np.ndarray, t: float,
                  x: np.ndarray) -> np.ndarray:
    """integral_a^b f(u) cos(tu) du on every panel [a[i], b[i]], given f[i]
    at the points x in [-1, 1] mapped onto that panel.

    Seeks F1, F2 with (F1 cos + F2 sin)' = f cos, i.e. the linear system
    F1' + t F2 = f, F2' - t F1 = 0, collocated at the points x; the
    integral is then the antiderivative difference at the panel ends.  This
    pair form has no singular coefficients (unlike the scalar tan form,
    whose collocation matrix is singular wherever cos(t u) vanishes).  The
    panels' systems are solved as one stack.
    """
    panels, n = f.shape
    T, U = _cheb_basis(x, n)
    ks = np.arange(1, n + 1)
    A = np.empty((panels, 2 * n, 2 * n))
    A[:, :n, :n] = A[:, n:, n:] = (ks * U) * (2.0 / (b - a))[:, None, None]
    A[:, :n, n:] = t * T
    A[:, n:, :n] = -t * T
    rhs = np.concatenate([f, np.zeros_like(f)], axis=1)
    try:
        sol = np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise InversionError(
            f"singular Levin collocation matrix on one of {panels} panels (t={t})") from exc
    cond = np.linalg.cond(A)
    for i in np.flatnonzero(cond > 1e12):
        logger.warning(
            "Levin panel [%.6g, %.6g] condition number %.2e exceeds 1e12", a[i], b[i], cond[i]
        )
    c1, c2 = sol[:, :n], sol[:, n:]
    at_hi, at_lo = np.ones(n), (-1.0) ** ks
    f1b, f2b = np.vecdot(c1, at_hi), np.vecdot(c2, at_hi)
    f1a, f2a = np.vecdot(c1, at_lo), np.vecdot(c2, at_lo)
    return (f1b * np.cos(t * b) + f2b * np.sin(t * b)) - (
        f1a * np.cos(t * a) + f2a * np.sin(t * a)
    )


def _panel_edges(t: float, U: float, eps: float, n: int) -> np.ndarray:
    """Geometric panels refined near u=0, capped so no panel exceeds the
    resolved-oscillation length n/(2t)."""
    lmax = max(n / (2.0 * t), 1e-3)
    edges = [0.0]
    step = min(max(2.0 * eps, 2.0 / t), U, lmax)
    while edges[-1] < U:
        edges.append(min(edges[-1] + step, U))
        step = min(2.0 * step, lmax)
        if len(edges) > 2000:
            raise InversionError(f"Levin panelization exploded (t={t}, U={U}, eps={eps})")
    return np.array(edges)


def levin_invert(
    F: Callable[[np.ndarray], np.ndarray],
    t: float,
    n: int = 24,
    U: Optional[float] = None,
    eps: Optional[float] = None,
) -> float:
    """Invert F at time t from the oscillatory real-axis representation.

    Computes e^(eps t) (2/pi) * integral_0^U Re F(eps + iu) cos(ut) du by
    composite Levin collocation (n-point Chebyshev basis per panel), plus
    a three-term integration-by-parts estimate of the tail beyond U using
    finite-difference derivatives of Re F at U.  Defaults: eps = 1/t and
    U = max(n, 48/t).

    F is called once, on the 1-d array of every Bromwich node eps + iu:
    each panel's Chebyshev-Lobatto points and the three tail points,
    deduplicated and in increasing u, so the first node is the real point
    eps.  Where F raises or returns a non-finite value, ``InversionError``
    is raised.
    """
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if n < 8:
        raise ValueError(f"n must be >= 8, got {n}")
    if eps is None:
        eps = 1.0 / t
    if U is None:
        U = max(float(n), 48.0 / t)
    if U <= 0.0:
        raise ValueError(f"U must be positive, got {U}")

    edges = _panel_edges(t, U, eps, n)
    a, b = edges[:-1], edges[1:]
    x = -np.cos(np.pi * np.arange(n) / (n - 1))  # Lobatto, ascending
    panel_us = a[:, None] + (b - a)[:, None] * 0.5 * (x + 1.0)
    d = min(1.0, 0.05 * U)
    us, node = np.unique(np.concatenate([panel_us.ravel(), [U, U + d, U - d]]),
                         return_inverse=True)
    deltas = eps + 1j * us
    try:
        with np.errstate(all="ignore"):
            values = np.broadcast_to(F(deltas), deltas.shape)
    except Exception as exc:
        raise InversionError(
            f"transform evaluation failed on Levin contour at t={t}: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InversionError(f"transform is {values[bad[0]]} at {deltas[bad[0]]} "
                             f"on the Levin contour (t={t})")
    f = values.real[node]

    total = 0.0
    for panel in _levin_panels(f[:-3].reshape(panel_us.shape), a, b, t, x):
        total += panel  # in panel order, not np.sum's pairwise order

    # tail integral_U^inf by parts: f ~ smooth power-law decay, so
    # -f sin(tU)/t - f' cos(tU)/t^2 + f'' sin(tU)/t^3 + O(f'''/t^4)
    f0, fp_hi, fp_lo = f[-3:]
    fd1 = (fp_hi - fp_lo) / (2.0 * d)
    fd2 = (fp_hi - 2.0 * f0 + fp_lo) / d ** 2
    s_u, c_u = np.sin(t * U), np.cos(t * U)
    total += -f0 * s_u / t - fd1 * c_u / t ** 2 + fd2 * s_u / t ** 3
    return float(np.exp(eps * t) * (2.0 / np.pi) * total)
