"""Numerical inverse Laplace transforms.

Three engines operate on caller-supplied transforms ``F(delta)`` evaluated
at complex arguments:

* ``hyperbola_grid``: the trapezoidal rule on a hyperbolic contour that may
  be shifted right, for every t of a grid in one double-precision array
  pass, the production engine.  Every t of a window (t1/5, t1], t1 a power
  of 5, shares that window's nodes, so F is evaluated once, on the nodes
  of every window the grid touches at the two node counts of
  ``HYPERBOLA_RULES`` (for B, from one Phi_X solve).  It returns both
  rules' values: ``ruin`` reports the larger rule's and takes the gap of
  the two as its error estimate.
* ``talbot_invert``: mpmath's fixed-Talbot rule (``mpmath.invertlaplace``),
  the rule the oracles of the test suite and of perfbench share, one t at a
  time in M-digit arithmetic (F takes and returns scalars), because the
  method loses roughly 0.6*M decimal digits to cancellation.  A reference
  engine.
* ``levin_invert`` -- collocation in a Chebyshev basis for the oscillatory
  real-axis form ``f(t) = e^(eps t) (2/pi) int_0^inf Re F(eps+iu) cos(ut) du``,
  entirely in double precision, with F evaluated once per t on the 1-d
  array of its Bromwich nodes.  An independent reference engine, without
  an error estimate or a conditioning diagnostic of its own: a singular
  panel system raises ``InversionError``.

Transforms must be analytic to the right of the declared abscissa; the
hyperbolic and Talbot contours additionally require analyticity in the
cut plane away from the negative real axis (after the shift), which holds
for every transform used here.

Every engine checks its arguments before F is called: a time, grid or
``U`` that is not positive and finite, a shift or ``eps`` that is not
finite, or a term count that is not an integer >= 8 raises ``ValueError``
naming it, with the helpers of ``model``.  Where F returns a value that is
not finite, every engine raises ``InversionError`` naming t rather than
returning NaN.
"""
from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .model import (PhiConvergenceError, _require_finite, _require_int, _require_positive,
                    positive_axis)

__all__ = ["InversionError", "hyperbola_grid", "hyperbola_nodes", "talbot_invert",
           "levin_invert"]


class InversionError(ArithmeticError):
    """An inversion engine could not produce a trustworthy value."""


# ---------------------------------------------------------------------------
# fixed-Talbot
# ---------------------------------------------------------------------------


def talbot_invert(F: Callable[[complex], complex], t: float, M: int = 32) -> float:
    """Invert F at time t by mpmath's fixed-Talbot rule with M terms,
    ``mpmath.invertlaplace(F, t, method="talbot", degree=M)``, the rule of
    the test suite's and perfbench's oracles (Abate & Valko's contour
    r theta (cot theta + i)/t, r = 2M/5, in M decimal digits; accuracy on
    well-behaved transforms is roughly 0.6*M digits).  mpmath is imported
    here only.
    """
    import mpmath

    _require_positive(t=t)
    M = _require_int("M", M, 8)
    # invertlaplace sets mp.dps = M and restores it only when F returns
    with mpmath.workdps(mpmath.mp.dps):
        try:
            value = mpmath.invertlaplace(F, t, method="talbot", degree=M)
        except InversionError:
            raise
        except Exception as exc:  # transform evaluation failed: report, don't fabricate
            raise InversionError(f"transform evaluation failed on Talbot contour at t={t}: {exc}") from exc
    if not mpmath.isfinite(value):
        raise InversionError(f"transform is not finite on the Talbot contour (t={t})")
    return float(value)


# ---------------------------------------------------------------------------
# windowed hyperbolic contour
# ---------------------------------------------------------------------------

# Every t of a window (t1/WINDOW, t1], t1 an integer power of WINDOW, is
# inverted on that window's nodes; the window depends on t alone.
WINDOW = 5.0
# node count N -> (a, m, c) of the rule on the hyperbola
# z(u) = mu (1 + sin(iu - a)), mu = m N / t1, at the nodes u_k = k c / N,
# k = 0..N; the larger N first (its values are reported, the smaller's gap
# to them is their error estimate).  Fitted by Nelder-Mead on the worst
# relative error over 25 geometric t in [1, 5] with t1 = 5, of the pairs
# 1/sqrt(s), 1/s + 1/(s+1), 1/(s(s+1)), 1/s^2, e^(-sqrt(s))/s and
# (s+0.3)^(-0.99): at most 3.4e-13 at N = 24 and 3.6e-15 at N = 32.
HYPERBOLA_RULES = {32: (0.8964, 0.5429, 3.2357), 24: (0.9475, 1.1320, 2.5880)}


@functools.cache
def _hyperbola_path() -> tuple:
    """The arrays of both rules of ``HYPERBOLA_RULES``, each rule's N + 1
    entries in the order of the dict, built once and read-only: the path
    m N (1 + sin(iu_k - a)) (the nodes are shift + path / t1) and the
    trapezoid weights (h/pi) m N z'(u_k)/mu, halved at k = 0."""
    paths, weights = [], []
    for N, (a, m, c) in HYPERBOLA_RULES.items():
        h = c / N
        w = 1j * h * np.arange(N + 1) - a
        weights.append((h / np.pi) * m * N * 1j * np.cos(w))
        weights[-1][0] *= 0.5
        paths.append(m * N * (1.0 + np.sin(w)))
    arrays = np.concatenate(paths), np.concatenate(weights)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _windows(ts, shift: float):
    """The validated ``ts``, the ends t1 of the windows they touch in
    increasing order, and the index of each t's window among them, after
    checking ``shift``."""
    ts = positive_axis(ts, "ts")
    _require_finite(shift=shift)
    k = np.ceil(np.log(ts) / np.log(WINDOW))
    k += ts > WINDOW ** k  # the logarithm's rounding at a window end
    k -= ts <= WINDOW ** (k - 1)
    ends, window = np.unique(WINDOW ** k, return_inverse=True)
    return ts, ends, window


def hyperbola_nodes(ts, shift: float = 0.0) -> np.ndarray:
    """The complex array of ``hyperbola_grid``'s nodes, one row per window
    that ``ts`` touches, in increasing order of t1: each rule's N + 1 nodes
    in the order of ``HYPERBOLA_RULES``, each rule's in contour order from
    its real crossing point shift + m N (1 - sin a) / t1."""
    return _nodes(_windows(ts, shift)[1], shift)


def _nodes(ends: np.ndarray, shift: float) -> np.ndarray:
    """``hyperbola_nodes`` of the windows that end at ``ends``."""
    return shift + _hyperbola_path()[0] / ends[:, None]


def hyperbola_grid(F: Callable[[np.ndarray], np.ndarray], ts,
                   shift: float = 0.0) -> np.ndarray:
    """Invert F at every t of ``ts`` on both rules of ``HYPERBOLA_RULES``,
    in double precision; one row per rule, in that order.

    The contour is shifted right by ``shift``: each rule inverts
    F(shift + s) on the hyperbola z(u) of t's window and multiplies by
    e^(shift t), so a shift at or beyond the rightmost singularity keeps
    every singularity left of the contour (Weideman & Trefethen, Math.
    Comp. 76 (2007); Lopez-Fernandez, Palencia & Schaedle, SIAM J. Numer.
    Anal. 44 (2006)):

        f(t) ~ e^(shift t) (h/pi) Im[G_0/2 + sum_{k=1}^N G_k],
        G_k = e^(z_k t) F(shift + z_k) z'(u_k).

    ``F`` is called once, on ``hyperbola_nodes(ts, shift)``, and returns
    the transform at every node.  Each t's values depend on t alone, not on
    the other points of ``ts``.  A value that is not finite raises
    ``InversionError`` naming the first t whose window it is on, and so does
    a ``PhiConvergenceError`` that F raises from ``phi`` of the nodes: its
    stalled node's index gives the window.
    """
    ts, ends, window = _windows(ts, shift)
    nodes = _nodes(ends, shift)
    try:
        values = F(nodes)
    except PhiConvergenceError as exc:
        row = exc.index // nodes.shape[1]
        raise PhiConvergenceError(f"{exc} (t={ts[window == row][0]})", exc.index) from None
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        t = ts[bad[window]][0]
        raise InversionError(f"transform is not finite on the hyperbolic contour (t={t})")
    path, weight = _hyperbola_path()
    terms = np.exp(path * (ts / ends[window])[:, None]) * (values * weight)[window]
    first = next(iter(HYPERBOLA_RULES)) + 1  # the larger rule's columns
    sums = terms[:, :first].sum(axis=1).imag, terms[:, first:].sum(axis=1).imag
    return np.exp(shift * ts) / ends[window] * np.array(sums)


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
    U: float | None = None,
    eps: float | None = None,
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
    _require_positive(t=t)
    n = _require_int("n", n, 8)
    if eps is None:
        eps = 1.0 / t
    if U is None:
        U = max(float(n), 48.0 / t)
    _require_positive(U=U)
    _require_finite(eps=eps)

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
