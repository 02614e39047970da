"""Ruin-probability estimators.

The asymptotic finite-time estimate factors as ``tail(u) * B(t)`` where
``B`` is recovered by numerically inverting its closed-form Laplace
transform

    B~(delta) = (Phi_X(delta) - alpha) / ((delta - psi_X(alpha))^2 Phi_X(delta)),

valid for Re delta > max(0, psi_X(alpha)).  ``BFunction`` inverts it for a
whole t-grid at once, in double precision on a Talbot contour shifted
right of that abscissa, and checks every value against a second term
count (``_talbot_checked``); both term counts share one Phi_X solve.  The
eventual-ruin probability P(u) is inverted the same way for a whole
u-grid, from its own transform written without cancellation
(``_eventual_ruin_transform``); the scale function is read off it,
W(u) = (1 - P(u))/|E[X_1]|, as 1 + E[X_1] W(u) cancels once P is small.
``b_tilde`` is the transform for the reference engines ``levin_invert``
and ``talbot_invert``, which no estimator here calls.

The estimators take a scalar or a vector ``u`` and ``t`` and return every
(u, t) cell at once, in shape shape(u) + shape(t) (a float for one cell),
as outer products of a u part and a t part: ``estimate_rft`` is
tail(u) * B(t), ``estimate_tulta`` is P(u) * min(1, B(t)/B(inf)), and
``estimate_infinite_horizon`` is P(u) along t.  Each inverts B and P at
most once per call, on the whole grid.
"""
from __future__ import annotations

import math
import threading
from typing import Optional

import numpy as np

from .laplace import InversionError, talbot_nodes, talbot_sum
# unused here; perfbench spans both reference engines at this lookup site
from .laplace import levin_invert, talbot_invert  # noqa: F401
from .model import (P_SERIES, ClaimsModel, RegimeTag, levy_tail, phi, phi_contour,
                    positive_axis)

__all__ = [
    "RegimeError",
    "BFunction",
    "b_tilde",
    "b_infinity",
    "scale_function",
    "prob_eventual_ruin",
    "estimate_rft",
    "estimate_tulta",
    "estimate_infinite_horizon",
    "growth_diagnostic",
]

# Every double-precision Talbot inversion runs at both term counts; their
# gap is its error estimate.  24 is about the most that double precision
# carries (the rounding error grows like e^(2M/5) * 1e-16).
TALBOT_TERMS = (18, 24)
B_TALBOT_RTOL = 1e-8
# at u in [100, 150] P's M=18/M=24 gap reaches 2.4e-8 while M=24 stays
# within 5e-9 of a 64-digit reference
P_TALBOT_RTOL = 1e-7
_TINY = np.finfo(float).tiny


class RegimeError(ValueError):
    """An estimator's regime precondition (sign of psi_X(alpha)) is violated."""


# ---------------------------------------------------------------------------
# the transform of B and its inversion
# ---------------------------------------------------------------------------


def b_tilde(m: ClaimsModel, delta):
    """Laplace transform of B at a scalar or an array ``delta``,
    Re delta > max(0, psi_X(alpha)):
    (Phi(delta) - alpha) / ((delta - psi_X(alpha))^2 Phi(delta))."""
    return _b_tilde_at(m, delta, phi(m, delta))


def _b_tilde_at(m: ClaimsModel, delta, root):
    """B~(delta) given root = Phi_X(delta); delta and root may be arrays."""
    return (root - m.alpha) / ((delta - m.psi_alpha) ** 2 * root)


def b_infinity(m: ClaimsModel) -> float:
    """Limit B(inf) = alpha |E X_1| / psi_X(alpha)^2, finite only subcritically."""
    regime = m.regime
    if regime.tag is not RegimeTag.SUBCRITICAL:
        raise RegimeError(
            f"B(inf) is infinite in the {regime.tag.value} regime "
            f"(psi_X(alpha) = {regime.psi_alpha:.6g})"
        )
    return m.alpha * abs(m.drift_mean) / m.psi_alpha ** 2


def _talbot_checked(F, xs, shift: float, rtol: float, name: str) -> np.ndarray:
    """The fixed-Talbot inversion (``talbot_grid``) of F on every point of
    ``xs`` at both ``TALBOT_TERMS``; the M=24 values.  F is called once, on
    the list of both term counts' node arrays, and returns the list of
    transform values.  Raises ``InversionError`` at the first point whose
    value is not finite, is below the smallest positive normal double (it
    would print as 0 or with wrong digits), or differs between the term
    counts by more than ``rtol`` relative."""
    # a non-finite value fails the checks below and raises
    with np.errstate(all="ignore"):
        values = F([talbot_nodes(xs, M, shift) for M in TALBOT_TERMS])
        lo, hi = (talbot_sum(v, xs, M, shift) for v, M in zip(values, TALBOT_TERMS))
        gap = np.abs(hi - lo) / np.abs(hi)
    bad = np.flatnonzero(~((gap <= rtol) & (hi >= _TINY)))
    if bad.size:
        i, x, v = bad[0], xs[bad[0]], hi[bad[0]]
        if not np.isfinite(v):
            raise InversionError(f"{name}({x}) is not finite in double precision ({v})")
        if not v >= _TINY:
            raise InversionError(f"{name}({x}) = {v:.6e} is not a positive normal double")
        raise InversionError(
            f"{name}({x}) failed its Talbot self-check: M={TALBOT_TERMS[0]} and "
            f"M={TALBOT_TERMS[1]} differ by {gap[i]:.3e} relative (tolerance {rtol:g})")
    return hi


class BFunction:
    """Memoized evaluator of B(t) for one model.

    The cache is guarded by a lock so concurrent readers are safe; values
    are monotone increasing in t (B is an integral of a positive
    function), which the test suite verifies on grids.  On the plateau of
    a subcritical profile the increments fall below the ~1e-12 relative
    noise of the double-precision engine, and there monotonicity holds only
    to that noise.
    """

    def __init__(self, model: ClaimsModel):
        self.model = model
        self._memo: dict = {}
        self._lock = threading.Lock()

    def value(self, t: float) -> float:
        """B(t) by numerical inversion; one point of ``grid``."""
        return self.grid([t])[0]

    def grid(self, ts) -> list:
        """B at every t of ``ts``, inverting all uncached points in one pass
        of ``_talbot_checked`` on the contour shifted to max(0, psi_X(alpha)),
        with tolerance ``B_TALBOT_RTOL`` (the check also catches a Newton
        solve that left the analytic branch).
        """
        ts = [float(t) for t in ts]
        for t in ts:
            if t <= 0.0:
                raise ValueError(f"t must be positive, got {t}")
        with self._lock:
            todo = sorted({t for t in ts if t not in self._memo})
        if todo:
            m = self.model

            def transform(nodes):  # one Phi_X solve for both term counts
                return [_b_tilde_at(m, d, root) for d, root in zip(nodes, phi_contour(m, nodes))]

            vals = _talbot_checked(transform, todo, max(0.0, m.psi_alpha), B_TALBOT_RTOL,
                                   "B").tolist()
            with self._lock:
                self._memo.update(zip(todo, vals))
        with self._lock:
            return [self._memo[t] for t in ts]

    def derivative(self, t: float, h_fd: Optional[float] = None) -> float:
        """Centered finite-difference B'(t); step balances inversion noise
        against truncation."""
        h = h_fd if h_fd is not None else max(1e-4, 1e-3 * t)
        h = min(h, 0.5 * t)
        lo, hi = self.grid([t - h, t + h])
        return (hi - lo) / (2.0 * h)

    def sup_moment(self, t: float) -> float:
        """E exp(alpha * sup_{s<=t} X_s) recovered from the density identity
        B'(t) = psi_X(alpha) B(t) + E e^(alpha X-bar_t)."""
        if t <= 0.0:
            raise ValueError(f"t must be positive, got {t}")
        return self.derivative(t) - self.model.psi_alpha * self.value(t)

    def mean_estimate(self, T: float, geom_points: int = 48, lin_step: float = 2.0) -> float:
        """Diagnostic integral_0^T (1 - B(t)/B(inf)) dt by trapezoid.

        Stabilization of this quantity as T grows is the numerical
        counterpart of the limit distribution having finite expectation.
        The grid is geometric up to t=20 and linear with a fixed step
        beyond, so evaluations at different T share nodes and the
        increment between two horizons is a genuine tail integral rather
        than quadrature noise.
        """
        if T < 0.0:
            raise ValueError(f"T must be nonnegative, got {T}")
        if T == 0.0:
            return 0.0
        binf = b_infinity(self.model)
        knee = min(T, 20.0)
        ts = list(np.geomspace(min(1e-3, T), knee, geom_points))
        ts.extend(np.arange(knee + lin_step, T, lin_step))
        if ts[-1] < T:
            ts.append(T)
        ts = np.array(ts)
        vals = 1.0 - np.array(self.grid(ts)) / binf
        integral = float(np.trapezoid(vals, ts))
        # the integrand is 1 on [0, ts[0]) to first order
        return integral + float(ts[0])


# ---------------------------------------------------------------------------
# scale function and eventual ruin
# ---------------------------------------------------------------------------


def _eventual_ruin_transform(m: ClaimsModel):
    """Transform of P(ruin ever) on an array of nodes b, with Q = ``m.q`` at
    ``P_SERIES``:

        Psi~(b) = 1/b + E[X_1]/psi_X(-b) = Q/(E[X_1] + b Q).

    psi_X(-b) = -b (E[X_1] + b Q) exactly, so the second form removes the
    pole at b = 0 algebraically: in the first, rounding leaves
    E[X_1] != psi_X'(0) and a residual pole whose residue (~1e-16) any
    contour enclosing b = 0 adds to P.  Q sums its remainder as a series
    near b = 0, so nothing cancels; at b = 0, a node for u = 2M/(5 |shift|),
    Q is the limit k a^(rho-2) C(rho, 2).
    """
    def transform(b):
        q = m.q(b, P_SERIES)
        return q / (m.drift_mean + b * q)

    return transform


def _eventual_ruin_shift(m: ClaimsModel) -> float:
    """Rightmost singularity of Psi~: the branch point -alpha or, when
    psi_X(alpha) > 0, the pole at -R, R the Lundberg root of psi_X in
    (0, alpha), found by float bisection."""
    if m.psi_alpha <= 0.0:
        return -m.alpha
    lo, hi = 0.0, m.alpha  # psi_X(lo) < 0 <= psi_X(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if m.psi_x(mid) < 0.0 else (lo, mid)
    return -lo


def prob_eventual_ruin(m: ClaimsModel, u):
    """P(ruin ever) at a scalar or a vector ``u``, in one double-precision pass
    (``_talbot_checked`` on the contour at ``_eventual_ruin_shift``): a value
    that underflows, at alpha u beyond ~700, raises rather than printing as 0.
    A scalar is the one-point grid and returns a float."""
    us = positive_axis(u, "u")
    transform = _eventual_ruin_transform(m)
    p = _talbot_checked(lambda nodes: [transform(b) for b in nodes], us,
                        _eventual_ruin_shift(m), P_TALBOT_RTOL, "P")
    return p if np.ndim(u) else float(p[0])


def scale_function(m: ClaimsModel, u, p_ruin=None):
    """Scale function W(u) = (1 - P(ruin ever))/|E X_1| at a scalar or a vector
    ``u``, nondecreasing to 1/|E X_1|; ``p_ruin`` is P(ruin ever) at ``u`` when
    the caller already has it."""
    p = prob_eventual_ruin(m, u) if p_ruin is None else p_ruin
    return (1.0 - p) / abs(m.drift_mean)


# ---------------------------------------------------------------------------
# the estimators
# ---------------------------------------------------------------------------


def _cells(u, t, values: np.ndarray):
    """A (len(u), len(t)) array of cell values in the shape shape(u) + shape(t);
    a float for one cell."""
    values = values.reshape(np.shape(u) + np.shape(t))
    return values if values.ndim else float(values)


def estimate_rft(m: ClaimsModel, u, t):
    """Raw asymptotic estimate tail(u) * B(t) at every cell of a scalar or
    vector ``u`` and ``t``, in shape shape(u) + shape(t) (a float for one
    cell); may exceed 1 for small u.

    One Levy tail per u and one ``BFunction.grid`` pass over t.  Raises
    ``FloatingPointError`` at the first cell (u outer, t inner) where the
    estimate is not a positive normal double (the tail underflows once
    alpha u exceeds ~700), rather than returning a positive probability as
    0 or with lost digits.
    """
    us, ts = positive_axis(u, "u"), positive_axis(t, "t")
    b = np.array(BFunction(m).grid(ts))
    values = np.array([levy_tail(m, x) for x in us.tolist()])[:, None] * b
    bad = np.argwhere(~((values >= _TINY) & (values < math.inf)))  # row-major
    if bad.size:
        i, j = bad[0]
        raise FloatingPointError(f"rft estimate at u={us[i]}, t={ts[j]} is {values[i, j]:.6e}, "
                                 f"not a positive normal double")
    return _cells(u, t, values)


def estimate_tulta(m: ClaimsModel, u, t, p_ruin=None):
    """Normalized estimate P(ruin ever) * min(1, B(t)/B(inf)) at every cell of
    a scalar or vector ``u`` and ``t``, in shape shape(u) + shape(t) (a float
    for one cell); subcritical only.

    ``p_ruin`` is P(ruin ever) at ``u`` when the caller already has it; it
    is computed otherwise.  A value outside [0, 1] raises ``ValueError``.
    """
    us, ts = positive_axis(u, "u"), positive_axis(t, "t")
    regime = m.regime
    if regime.tag is not RegimeTag.SUBCRITICAL:
        raise RegimeError(
            f"the normalized finite-time estimate requires the subcritical regime, "
            f"got {regime.tag.value} (psi_X(alpha) = {regime.psi_alpha:.6g})"
        )
    ratio = np.minimum(1.0, np.array(BFunction(m).grid(ts)) / b_infinity(m))
    p = prob_eventual_ruin(m, us) if p_ruin is None else np.asarray(p_ruin, float).reshape(us.shape)
    values = p[:, None] * ratio
    bad = np.argwhere(~((values >= 0.0) & (values <= 1.0)))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"tulta estimate at u={us[i]}, t={ts[j]} is {values[i, j]}, "
                         f"outside [0, 1]")
    return _cells(u, t, values)


def estimate_infinite_horizon(m: ClaimsModel, u, t):
    """P(ruin ever), the t -> inf limit, at every cell of a scalar or vector
    ``u`` and ``t``: constant along t, in shape shape(u) + shape(t) (a float
    for one cell)."""
    us, ts = positive_axis(u, "u"), positive_axis(t, "t")
    return _cells(u, t, np.repeat(prob_eventual_ruin(m, us)[:, None], ts.size, axis=1))


def growth_diagnostic(m: ClaimsModel, t_lo: float, t_hi: float,
                      points: int = 12, critical_tol: float = 0.01) -> float:
    """Least-squares slope of ln B(t) over [t_lo, t_hi].

    Subcritically B plateaus (slope -> 0); supercritically the slope tends
    to psi_X(alpha) as t grows, though with a slowly decaying 1/t
    correction because the transform's pole at psi_X(alpha) is double.  In
    the critical regime the function additionally checks the linear lower
    growth bound B(t_hi)/t_hi >= 1 - critical_tol and raises if violated.
    """
    if not 0.0 < t_lo < t_hi:
        raise ValueError(f"need 0 < t_lo < t_hi, got {t_lo}, {t_hi}")
    bf = BFunction(m)
    ts = np.linspace(t_lo, t_hi, points)
    vals = np.array(bf.grid(ts))
    slope = float(np.polyfit(ts, np.log(vals), 1)[0])
    if m.regime.tag is RegimeTag.CRITICAL:
        ratio = bf.value(t_hi) / t_hi
        if ratio < 1.0 - critical_tol:
            raise InversionError(
                f"critical-regime linear growth bound violated: B({t_hi})/{t_hi} = {ratio:.4f}"
            )
    return slope
