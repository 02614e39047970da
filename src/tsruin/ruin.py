"""Ruin-probability estimators.

The asymptotic finite-time estimate factors as ``tail(u) * B(t)`` where
``B`` is recovered by numerically inverting its closed-form Laplace
transform

    B~(delta) = (Phi_X(delta) - alpha) / ((delta - psi_X(alpha))^2 Phi_X(delta)),

valid for Re delta > max(0, psi_X(alpha)).  ``BFunction`` inverts it for a
whole t-grid at once, in double precision on hyperbolic contours shifted
right of that abscissa, one per window of t that the grid touches, and
checks every value against a second node count (``_inverted_checked``);
both node counts share one Phi_X solve.  It keeps no state: each call
inverts its grid afresh, into an array.  The eventual-ruin probability
P(u) is inverted the same way for a whole u-grid, from its own transform
written without cancellation (``_eventual_ruin_transform``); the scale
function is read off it, W(u) = (1 - P(u))/|E[X_1]|, as 1 + E[X_1] W(u)
cancels once P is small.
``BFunction`` inverts ``b_tilde``, B~ at an array of nodes, and reads a
diagnostic off it: E exp(alpha sup_{s<=t} X_s) (``sup_moment``), inverted
from (delta - psi_X(alpha)) B~.  The mean of the limit law B(t)/B(inf),
``limit_law_mean``, is a closed form from B~'s Laurent expansion at 0.

The estimators take a scalar or a vector ``u`` and ``t`` and return every
(u, t) cell at once, in shape shape(u) + shape(t) (a float for one cell),
as outer products of a u part and a t part: ``estimate_rft`` is
tail(u) * B(t), ``estimate_tulta`` is P(u) * min(1, B(t)/B(inf)), and
``estimate_infinite_horizon`` is P(u) along t.  Each inverts B and P at
most once per call, on the whole grid.  ``require_subcritical`` is the one
check of the regime precondition of B(inf) and of what needs it.  Every B,
P and estimate passes ``model._require_reportable``, so one that is not a
finite, positive normal double (P, rft and tulta: <= 1) raises, naming its cell.
"""
from __future__ import annotations

import math

import numpy as np

from .laplace import HYPERBOLA_RULES, InversionError, hyperbola_grid
# unused here; perfbench spans both reference engines at this lookup site
from .laplace import levin_invert, talbot_invert  # noqa: F401
from .model import (ClaimsModel, RegimeTag, _require_int, _require_positive,
                    _require_reportable, levy_tail, phi, positive_axis)

__all__ = [
    "RegimeError",
    "require_subcritical",
    "BFunction",
    "b_tilde",
    "b_infinity",
    "limit_law_mean",
    "scale_function",
    "prob_eventual_ruin",
    "estimate_rft",
    "estimate_tulta",
    "estimate_infinite_horizon",
    "growth_diagnostic",
]

# Every double-precision inversion runs on both rules of
# ``HYPERBOLA_RULES``; the gap of the two is its error estimate.  B's gap
# reaches 4.0e-11 (the critical fixture model at t = 3131) on t-grids over
# [1e-3, 1e4] of ten models: the four fixtures, (1, 2, rho, xi) at
# (0.05, 0.1), (0.3, 0.5) and (0.1, 1), and (0.01, 1, 0.99 or 0.5, 1e-6)
# and (0.01, 1, 0.99, 1e-9).
B_INVERSION_RTOL = 1e-8
# P's gap reaches 1.5e-9 (at u = 5 of the reference model) on u-grids over
# [0.01, 300] of the same models, while at the reference model the N=32
# value stays within 9e-12 of a 64-digit reference; the tolerance, 1e-7,
# is 67 times that worst gap of 1.5e-9
P_INVERSION_RTOL = 1e-7


class RegimeError(ValueError):
    """An estimator's regime precondition (sign of psi_X(alpha)) is violated."""


# ---------------------------------------------------------------------------
# the transform of B and its inversion
# ---------------------------------------------------------------------------


def b_tilde(m: ClaimsModel, delta):
    """Laplace transform of B at a scalar or an array ``delta``,
    Re delta > max(0, psi_X(alpha)):
    (Phi(delta) - alpha) / ((delta - psi_X(alpha))^2 Phi(delta))."""
    root = phi(m, delta)
    return (root - m.alpha) / ((delta - m.psi_alpha) ** 2 * root)


def require_subcritical(m: ClaimsModel, quantity: str) -> None:
    """Raise ``RegimeError`` naming ``quantity`` and giving psi_X(alpha)
    unless ``m.regime`` is subcritical."""
    if m.regime is not RegimeTag.SUBCRITICAL:
        raise RegimeError(f"{quantity} requires the subcritical regime, got "
                          f"{m.regime.value} (psi_X(alpha) = {m.psi_alpha:.6g})")


def b_infinity(m: ClaimsModel) -> float:
    """Limit B(inf) = alpha |E X_1| / psi_X(alpha)^2, finite only subcritically."""
    require_subcritical(m, "B(inf)")
    return m.alpha * abs(m.drift_mean) / m.psi_alpha ** 2


def limit_law_mean(m: ClaimsModel) -> float:
    """Mean of the limit law B(t)/B(inf) of tau_u given tau_u < inf as u -> inf,
    integral_0^inf (1 - B(t)/B(inf)) dt, subcritical only: from the Laurent
    expansion of B~ at 0, with Phi_X(delta) = delta/E[X_1] -
    Var[X_1] delta^2/(2 E[X_1]^3) + ..., it is
    1/(alpha E[X_1]) - Var[X_1]/(2 E[X_1]^2) - 2/psi_X(alpha)."""
    require_subcritical(m, "the limit law's mean")
    mean = m.drift_mean
    return 1.0 / (m.alpha * mean) - m.variance / (2.0 * mean ** 2) - 2.0 / m.psi_alpha


def _inverted_checked(F, xs, shift: float, rtol: float, name: str, axis: str,
                      upper: float = math.inf) -> np.ndarray:
    """The inversion (``hyperbola_grid``) of F on every point of ``xs`` at
    both ``HYPERBOLA_RULES``; the values of the larger.  F is called once,
    on the nodes of every window that ``xs`` touches, and returns the
    transform values in the same shape.  Each value must be reportable
    (``_require_reportable``: named on ``axis``, <= ``upper``) and within
    ``rtol`` relative of the smaller rule's (else ``InversionError``)."""
    big, small = HYPERBOLA_RULES
    with np.errstate(all="ignore"):  # a non-finite value or sum raises below
        try:
            hi, lo = hyperbola_grid(F, xs, shift)
        except InversionError as exc:  # the engine's t is a point of xs: name its axis
            raise InversionError(str(exc).replace("(t=", f"({axis}=")) from None
        gap = np.abs(_require_reportable(name, hi, upper, **{axis: xs}) - lo) / hi
    bad = np.flatnonzero(~(gap <= rtol))
    if bad.size:
        i = bad[0]
        raise InversionError(
            f"{name}({xs[i]}) failed its inversion self-check: N={small} and N={big} "
            f"differ by {gap[i]:.3e} relative (tolerance {rtol:g})")
    return hi


class BFunction:
    """Evaluator of B(t) for one model; it holds nothing but the model.

    Every call inverts afresh.  A B value depends on its t alone, not on
    the grid it is computed in, so ``value(t)`` is bitwise t's entry of any
    ``grid``.  Values are monotone increasing in t (B is an integral of a
    positive function), which the test suite verifies on grids.  On the
    plateau of a subcritical profile the increments fall below the ~1e-12
    relative noise of the double-precision engine, and there monotonicity
    holds only to that noise.
    """

    def __init__(self, model: ClaimsModel):
        self.model = model

    def value(self, t: float) -> float:
        """B(t) at a scalar t by numerical inversion: the one-point ``grid``."""
        if np.ndim(t):
            raise ValueError(f"t must be a scalar, got shape {np.shape(t)}")
        return float(self.grid(t)[0])

    def grid(self, ts) -> np.ndarray:
        """B at every t of a positive scalar or vector ``ts``, as a float
        array: one pass of ``_inverted_checked`` on the contour shifted to
        max(0, psi_X(alpha)), with tolerance ``B_INVERSION_RTOL`` (the check
        also catches a Phi_X solve that left the analytic branch).
        """
        return self._invert(b_tilde, ts, "B")

    def sup_moment(self, ts):
        """E exp(alpha sup_{s<=t} X_s) at a positive scalar or vector ``ts`` (a
        float for a scalar), inverted as ``grid`` inverts B, from its
        transform (delta - psi_X(alpha)) B~(delta): B' = psi_X(alpha) B +
        E e^(alpha X-bar_t) and B(0) = 0."""
        values = self._invert(lambda m, nodes: (nodes - m.psi_alpha) * b_tilde(m, nodes), ts,
                              "E exp(alpha sup X)")
        return values if np.ndim(ts) else float(values[0])

    def _invert(self, transform, ts, name: str) -> np.ndarray:
        """``transform(model, nodes)`` inverted at every t of ``ts`` as ``grid``
        inverts B, its values named ``name``."""
        m = self.model
        return _inverted_checked(lambda nodes: transform(m, nodes), positive_axis(ts, "t"),
                                 max(0.0, m.psi_alpha), B_INVERSION_RTOL, name, "t")


# ---------------------------------------------------------------------------
# scale function and eventual ruin
# ---------------------------------------------------------------------------


def _eventual_ruin_transform(m: ClaimsModel, b: np.ndarray) -> np.ndarray:
    """Transform of P(ruin ever) on an array of nodes b, with Q = ``m._q``,
    the Q of psi_X:

        Psi~(b) = 1/b + E[X_1]/psi_X(-b) = Q/(E[X_1] + b Q).

    psi_X(-b) = -b (E[X_1] + b Q) exactly, so the second form removes the
    pole at b = 0 algebraically: in the first, rounding leaves
    E[X_1] != psi_X'(0) and a residual pole whose residue (~1e-16) any
    contour enclosing b = 0 adds to P.  Q sums its remainder as a series
    near b = 0, so nothing cancels; at b = 0 (a node where the real
    crossing point of a window's contour is 0) Q is the limit
    k a^(rho-2) C(rho, 2).
    """
    q = m._q(b)
    return q / (m.drift_mean + b * q)


def _eventual_ruin_shift(m: ClaimsModel) -> float:
    """Rightmost singularity of Psi~: the branch point -alpha or, when
    psi_X(alpha) > 0, the pole at -R, R the Lundberg root of psi_X in
    (0, alpha), found by float bisection."""
    if m.psi_alpha <= 0.0:
        return -m.alpha
    lo, hi = 0.0, m.alpha  # psi_X(lo) < 0 <= psi_X(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if m._psi(mid, m.p)[0] < 0.0 else (lo, mid)
    return -lo


def prob_eventual_ruin(m: ClaimsModel, u):
    """P(ruin ever) at a scalar or a vector ``u``, in one double-precision pass
    (``_inverted_checked`` on the contour at ``_eventual_ruin_shift``): a value
    that underflows, at alpha u beyond ~700, raises rather than printing as 0.
    A scalar is the one-point grid and returns a float."""
    us = positive_axis(u, "u")
    p = _inverted_checked(lambda nodes: _eventual_ruin_transform(m, nodes), us,
                          _eventual_ruin_shift(m), P_INVERSION_RTOL, "P", "u", upper=1.0)
    return p if np.ndim(u) else float(p[0])


def _require_probability(p_ruin, u):
    """A caller's P(ruin ever) at ``u``, a float or an array of u's shape, if
    every entry is in (0, 1] (NaN is not); else ``ValueError`` naming
    ``p_ruin``."""
    one_float = isinstance(p_ruin, float) and isinstance(u, float)  # scale-fn's: no numpy
    if not one_float and np.shape(p_ruin) != np.shape(u):
        raise ValueError(f"p_ruin must have the shape of u, {np.shape(u)}, got {np.shape(p_ruin)}")
    if isinstance(p_ruin, float):
        ok = 0.0 < p_ruin <= 1.0
    else:
        p_ruin = np.asarray(p_ruin, dtype=np.float64)
        ok = ((p_ruin > 0.0) & (p_ruin <= 1.0)).all()
    if not ok:
        raise ValueError(f"p_ruin must be in (0, 1], got {p_ruin} (0, NaN or outside [0, 1])")
    return p_ruin


def scale_function(m: ClaimsModel, u, p_ruin=None):
    """Scale function W(u) = (1 - P(ruin ever))/|E X_1| at a scalar or a vector
    ``u``, nondecreasing to 1/|E X_1|; ``p_ruin`` is P(ruin ever) at ``u`` when
    the caller already has it."""
    p = prob_eventual_ruin(m, u) if p_ruin is None else _require_probability(p_ruin, u)
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
    cell).  The product is not a probability at small u, where it can
    exceed 1 (5.1 at u = 0.01, t = 200 of the paper's reference model); a
    cell above 1 raises, as one does below the normal range.

    One Levy tail per u and one ``BFunction.grid`` pass over t.  The tail
    leaves the normal range once alpha u exceeds ~690, where it raises.
    """
    us, ts = positive_axis(u, "u"), positive_axis(t, "t")
    b = BFunction(m).grid(ts)
    values = np.array([levy_tail(m, x) for x in us.tolist()])[:, None] * b
    return _cells(u, t, _require_reportable("rft estimate", values, 1.0, u=us, t=ts))


def estimate_tulta(m: ClaimsModel, u, t):
    """Normalized estimate P(ruin ever) * min(1, B(t)/B(inf)) at every cell of
    a scalar or vector ``u`` and ``t``, in shape shape(u) + shape(t) (a float
    for one cell); subcritical only.  P is inverted before B, and a cell
    must be a positive normal double <= 1.
    """
    us, ts = positive_axis(u, "u"), positive_axis(t, "t")
    require_subcritical(m, "the normalized finite-time estimate")
    p = prob_eventual_ruin(m, us)
    ratio = np.minimum(1.0, BFunction(m).grid(ts) / b_infinity(m))
    values = p[:, None] * ratio
    return _cells(u, t, _require_reportable("tulta estimate", values, 1.0, u=us, t=ts))


def estimate_infinite_horizon(m: ClaimsModel, u, t):
    """P(ruin ever), the t -> inf limit, at every cell of a scalar or vector
    ``u`` and ``t``: constant along t, in shape shape(u) + shape(t) (a float
    for one cell)."""
    us, ts = positive_axis(u, "u"), positive_axis(t, "t")
    return _cells(u, t, np.repeat(prob_eventual_ruin(m, us)[:, None], ts.size, axis=1))


def growth_diagnostic(m: ClaimsModel, t_lo: float, t_hi: float, points: int = 12) -> float:
    """Least-squares slope of ln B(t) over ``points`` equispaced t in
    [t_lo, t_hi], from one ``BFunction.grid`` pass.

    Subcritically B plateaus (slope -> 0); supercritically the slope tends
    to psi_X(alpha) as t grows, but slowly: B~'s double pole there adds a
    t e^(psi_X(alpha) t) term, and the rest of B beyond its pole terms fades
    late (34% of B at t = 20 for (0.01, 1, 0.5, 0.2)).  In the critical
    regime the function additionally checks the linear lower growth bound
    B(t_hi)/t_hi >= 0.99 on the grid's last value and raises if violated.
    """
    _require_positive(t_lo=t_lo, t_hi=t_hi)
    if t_lo >= t_hi:
        raise ValueError(f"need t_lo < t_hi, got {t_lo}, {t_hi}")
    points = _require_int("points", points, 2)  # one point fits no slope
    ts = np.linspace(t_lo, t_hi, points)  # ts[-1] is t_hi exactly
    vals = BFunction(m).grid(ts)
    slope = float(np.polyfit(ts, np.log(vals), 1)[0])
    if m.regime is RegimeTag.CRITICAL:
        ratio = vals[-1] / t_hi
        if ratio < 0.99:
            raise InversionError(
                f"critical-regime linear growth bound violated: B({t_hi})/{t_hi} = {ratio:.4f}"
            )
    return slope
