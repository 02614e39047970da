"""Ruin-probability estimators.

The asymptotic finite-time estimate factors as ``tail(u) * B(t)`` where
``B`` is recovered by numerically inverting its closed-form Laplace
transform

    B~(delta) = (Phi_X(delta) - alpha) / ((delta - psi_X(alpha))^2 Phi_X(delta)),

valid for Re delta > max(0, psi_X(alpha)).  ``BFunction`` inverts it for a
whole t-grid at once, in double precision on a Talbot contour shifted
right of that abscissa; the mpmath ``talbot_invert`` of ``make_b_transform``
is the high-precision reference.  The eventual-ruin probability comes from
the scale function W, whose transform 1/psi_X(-beta) needs no root finding
at all.
"""
from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .laplace import InversionError, InversionSpec, levin_invert, talbot_grid, talbot_invert
from .model import (ClaimsModel, PhiContinuation, RegimeTag, classify_regime, levy_tail, phi,
                    phi_contour)

__all__ = [
    "EstimateMethod",
    "RuinEstimate",
    "RegimeError",
    "BFunction",
    "b_tilde",
    "make_b_transform",
    "b_infinity",
    "scale_function",
    "prob_eventual_ruin",
    "eventual_ruin_from_w",
    "estimate_rft",
    "estimate_tulta",
    "estimate_infinite_horizon",
    "growth_diagnostic",
]

logger = logging.getLogger(__name__)

# B's double-precision Talbot runs at both term counts; their gap is its
# error estimate.  24 is about the most that double precision carries (the
# rounding error grows like e^(2M/5) * 1e-16).
B_TALBOT_TERMS = (18, 24)
B_TALBOT_RTOL = 1e-8


class RegimeError(ValueError):
    """An estimator's regime precondition (sign of psi_X(alpha)) is violated."""


class EstimateMethod(str, Enum):
    RFT = "rft"
    TULTA = "tulta"
    INFINITE_HORIZON = "infinite_horizon"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class RuinEstimate:
    """A (u, t, value) record; the common currency of all estimators.

    ``value`` may exceed 1 for the raw ``rft`` form at small u; the
    ``tulta`` and infinite-horizon forms are genuine probabilities.
    ``stderr`` is present exactly for Monte Carlo estimates.
    """

    u: float
    t: float  # horizon; math.inf for infinite-horizon estimates
    value: float
    method: EstimateMethod
    stderr: Optional[float] = None

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError(f"estimate must be nonnegative, got {self.value}")
        if self.method in (EstimateMethod.TULTA, EstimateMethod.INFINITE_HORIZON) and self.value > 1.0:
            raise ValueError(f"{self.method.value} estimate must lie in [0,1], got {self.value}")
        if (self.stderr is not None) != (self.method is EstimateMethod.MONTE_CARLO):
            raise ValueError("stderr is present exactly for Monte Carlo estimates")
        if self.stderr is not None and self.stderr < 0.0:
            raise ValueError(f"stderr must be nonnegative, got {self.stderr}")


# ---------------------------------------------------------------------------
# the transform of B and its inversion
# ---------------------------------------------------------------------------


def b_tilde(m: ClaimsModel, delta, continuation: Optional[PhiContinuation] = None):
    """Laplace transform of B at delta, Re delta > max(0, psi_X(alpha)).

    Evaluates (Phi(delta) - alpha) / ((delta - psi_X(alpha))^2 Phi(delta));
    supply a ``PhiContinuation`` when walking a contour so the root stays
    on the analytic branch.
    """
    root = continuation.solve(delta) if continuation is not None else phi(m, delta)
    return _b_tilde_at(m, delta, root)


def _b_tilde_at(m: ClaimsModel, delta, root):
    """B~(delta) given root = Phi_X(delta); delta and root may be arrays."""
    return (root - m.alpha) / ((delta - m.psi_alpha) ** 2 * root)


def make_b_transform(m: ClaimsModel):
    """Transform closure for the scalar engines, with fresh continuation state.

    The returned callable is serial (it mutates its continuation cache);
    engines evaluate it from a single thread.
    """
    cont = PhiContinuation(m)

    def transform(delta):
        return b_tilde(m, delta, cont)

    transform.serial = True
    return transform


def b_infinity(m: ClaimsModel) -> float:
    """Limit B(inf) = alpha |E X_1| / psi_X(alpha)^2, finite only subcritically."""
    regime = classify_regime(m)
    if regime.tag is not RegimeTag.SUBCRITICAL:
        raise RegimeError(
            f"B(inf) is infinite in the {regime.tag.value} regime "
            f"(psi_X(alpha) = {regime.psi_alpha:.6g})"
        )
    return m.alpha * abs(m.drift_mean) / m.psi_alpha ** 2


class BFunction:
    """Memoized evaluator of B(t) for one model and inversion spec.

    The cache is guarded by a lock so concurrent readers are safe; values
    are monotone increasing in t (B is an integral of a positive
    function), which the test suite verifies on grids.  On the plateau of
    a subcritical profile the increments fall below the ~1e-12 relative
    noise of the double-precision engine, and there monotonicity holds only
    to that noise.
    """

    def __init__(self, model: ClaimsModel, spec: Optional[InversionSpec] = None):
        self.model = model
        self.spec = spec or InversionSpec()
        self._memo: dict = {}
        self._lock = threading.Lock()

    def _levin_shift(self, t: float) -> float:
        # keep the contour strictly right of the poles at 0 and psi_X(alpha)
        return max(0.0, self.model.psi_alpha) + 1.0 / t

    def value(self, t: float) -> float:
        """B(t) by numerical inversion; one point of ``grid``."""
        return self.grid([t])[0]

    def grid(self, ts) -> list:
        """B at every t of ``ts``, inverting all uncached points in one pass.

        The Talbot engine inverts them together in double precision on the
        contour shifted to max(0, psi_X(alpha)), at both term counts of
        ``B_TALBOT_TERMS``, and raises ``InversionError`` wherever the two
        differ by more than ``B_TALBOT_RTOL`` relative (this also catches a
        Newton solve that left the analytic branch).  The Levin engine
        inverts point by point.  Tiny negative noise near t = 0 is clamped
        to 0; any other negative value raises.
        """
        ts = [float(t) for t in ts]
        for t in ts:
            if t <= 0.0:
                raise ValueError(f"t must be positive, got {t}")
        with self._lock:
            todo = sorted({t for t in ts if t not in self._memo})
        if todo:
            if self.spec.engine == "talbot":
                vals = self._talbot(todo)
            else:
                vals = [self._levin(t) for t in todo]
            vals = [self._nonnegative(t, v) for t, v in zip(todo, vals)]
            with self._lock:
                self._memo.update(zip(todo, vals))
        with self._lock:
            return [self._memo[t] for t in ts]

    def _talbot(self, ts: list) -> list:
        m = self.model

        def transform(deltas):
            return _b_tilde_at(m, deltas, phi_contour(m, deltas))

        # a non-finite value fails the check below and raises
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = (talbot_grid(transform, ts, M, shift=max(0.0, m.psi_alpha))
                      for M in B_TALBOT_TERMS)
            gap = np.abs(hi - lo) / np.abs(hi)
        bad = np.flatnonzero(~(gap <= B_TALBOT_RTOL))
        if bad.size:
            i = bad[0]
            if not np.isfinite(hi[i]):
                raise InversionError(f"B({ts[i]}) is not finite in double precision ({hi[i]})")
            raise InversionError(
                f"B({ts[i]}) failed its Talbot self-check: M={B_TALBOT_TERMS[0]} and "
                f"M={B_TALBOT_TERMS[1]} differ by {gap[i]:.3e} relative "
                f"(tolerance {B_TALBOT_RTOL:g})"
            )
        return hi.tolist()

    def _levin(self, t: float) -> float:
        return levin_invert(
            make_b_transform(self.model), t, n=self.spec.nodes, U=self.spec.cutoff,
            eps=self.spec.shift if self.spec.shift is not None else self._levin_shift(t),
        )

    @staticmethod
    def _nonnegative(t: float, val: float) -> float:
        if val < 0.0:
            if t < 1e-6 and val > -1e-9:
                logger.info("clamping B(%g) = %.3e to 0 (inversion noise near 0)", t, val)
                return 0.0
            raise InversionError(f"B({t}) inverted to a negative value {val:.6e}")
        return val

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


def _w_transform(m: ClaimsModel):
    """Transform of the scale function, 1/psi_X(-beta); closed form, no phi."""

    def transform(beta):
        return 1.0 / m.psi_x(-beta)

    return transform


def scale_function(m: ClaimsModel, u: float, spec: Optional[InversionSpec] = None) -> float:
    """Scale function W(u), nondecreasing with W(u) -> 1/|E X_1|.

    W is smooth and bounded under net profit, so the default Talbot engine
    at 32 digits converges fast; the transform is evaluated in closed form.
    """
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    spec = spec or InversionSpec()
    F = _w_transform(m)
    if spec.engine == "talbot":
        return talbot_invert(F, u, M=spec.digits)
    return levin_invert(F, u, n=spec.nodes, U=spec.cutoff,
                        eps=spec.shift if spec.shift is not None else 1.0 / u)


def prob_eventual_ruin(m: ClaimsModel, u: float, spec: Optional[InversionSpec] = None) -> float:
    """P(ruin ever) = 1 + E[X_1] * W(u), clamped to [0, 1]; see ``eventual_ruin_from_w``."""
    return eventual_ruin_from_w(m, u, scale_function(m, u, spec))


def eventual_ruin_from_w(m: ClaimsModel, u: float, w: float) -> float:
    """P(ruin ever) = 1 + E[X_1] * w from an inverted w = W(u), clamped to [0, 1].

    Inversion noise can push the value marginally outside [0, 1]; excursions
    beyond 1e-6 are logged as warnings before clamping.
    """
    val = 1.0 + m.drift_mean * w
    if val < -1e-6 or val > 1.0 + 1e-6:
        logger.warning("prob_eventual_ruin(%g) = %.6g clamped into [0,1]", u, val)
    return min(1.0, max(0.0, val))


# ---------------------------------------------------------------------------
# the estimators
# ---------------------------------------------------------------------------


def estimate_rft(m: ClaimsModel, u: float, t: float,
                 spec: Optional[InversionSpec] = None,
                 bf: Optional[BFunction] = None) -> RuinEstimate:
    """Raw asymptotic estimate tail(u) * B(t); may exceed 1 for small u."""
    if u <= 0.0 or t <= 0.0:
        raise ValueError(f"u and t must be positive, got u={u}, t={t}")
    bf = bf or BFunction(m, spec)
    return RuinEstimate(u=u, t=t, value=levy_tail(m, u) * bf.value(t), method=EstimateMethod.RFT)


def estimate_tulta(m: ClaimsModel, u: float, t: float,
                   spec: Optional[InversionSpec] = None,
                   bf: Optional[BFunction] = None,
                   p_ruin: Optional[float] = None) -> RuinEstimate:
    """Normalized estimate P(ruin ever) * B(t)/B(inf); subcritical only.

    ``p_ruin`` is P(ruin ever) at this u when the caller already has it
    (a grid over t shares one per u); it is computed otherwise.
    """
    if u <= 0.0 or t <= 0.0:
        raise ValueError(f"u and t must be positive, got u={u}, t={t}")
    regime = classify_regime(m)
    if regime.tag is not RegimeTag.SUBCRITICAL:
        raise RegimeError(
            f"the normalized finite-time estimate requires the subcritical regime, "
            f"got {regime.tag.value} (psi_X(alpha) = {regime.psi_alpha:.6g})"
        )
    bf = bf or BFunction(m, spec)
    ratio = min(1.0, bf.value(t) / b_infinity(m))
    if p_ruin is None:
        p_ruin = prob_eventual_ruin(m, u, spec)
    value = p_ruin * ratio
    return RuinEstimate(u=u, t=t, value=value, method=EstimateMethod.TULTA)


def estimate_infinite_horizon(m: ClaimsModel, u: float,
                              spec: Optional[InversionSpec] = None) -> RuinEstimate:
    """Eventual-ruin probability as a RuinEstimate record."""
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    return RuinEstimate(u=u, t=math.inf, value=prob_eventual_ruin(m, u, spec),
                        method=EstimateMethod.INFINITE_HORIZON)


def growth_diagnostic(m: ClaimsModel, spec: Optional[InversionSpec], t_lo: float, t_hi: float,
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
    bf = BFunction(m, spec)
    ts = np.linspace(t_lo, t_hi, points)
    vals = np.array(bf.grid(ts))
    slope = float(np.polyfit(ts, np.log(vals), 1)[0])
    if classify_regime(m).tag is RegimeTag.CRITICAL:
        ratio = bf.value(t_hi) / t_hi
        if ratio < 1.0 - critical_tol:
            raise InversionError(
                f"critical-regime linear growth bound violated: B({t_hi})/{t_hi} = {ratio:.4f}"
            )
    return slope
