"""Tempered stable claims-surplus model.

The aggregate claims process is a tempered stable subordinator with jump
density ``c * exp(-alpha*x) / x**(1+rho)`` on ``(0, inf)``; the claims
surplus subtracts premium income at rate ``p``.  Everything downstream
(Laplace transforms, ruin estimates, simulation) is driven by the cumulant

    psi_Y(theta) = -c * Gamma(-rho) * (alpha**rho - (alpha - theta)**rho)

and its drifted version ``psi_X(theta) = psi_Y(theta) - p*theta``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import gammaincc

__all__ = [
    "ClaimsModel",
    "Regime",
    "RegimeTag",
    "ScaleChange",
    "PhiConvergenceError",
    "cumulant_y",
    "cumulant_x",
    "mean_y",
    "premium_from_loading",
    "min_loading_for_subcritical",
    "classify_regime",
    "phi",
    "phi_contour",
    "levy_tail",
    "levy_tail_asymptotic",
    "rescale",
]


class PhiConvergenceError(RuntimeError):
    """Root finding for the inverse cumulant failed; carries the residual."""


def gamma_neg(rho: float) -> float:
    """Gamma(-rho) for rho in (0, 1), via Gamma(1-rho)/(-rho).

    The recurrence keeps the evaluation away from the pole at 0, which
    matters for rho close to 1 (Gamma(-0.99) ~ -100 while Gamma(0.01) ~ 100
    is perfectly conditioned).
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0,1), got {rho}")
    return _gamma(1.0 - rho) / (-rho)


def premium_from_loading(mean_claims: float, xi: float) -> float:
    """Premium rate p = (1 + xi) * E[Y_1] for safety loading xi > 0."""
    if mean_claims <= 0.0:
        raise ValueError(f"mean_claims must be positive, got {mean_claims}")
    if xi <= 0.0:
        raise ValueError(f"safety loading must be positive (net profit), got {xi}")
    return (1.0 + xi) * mean_claims


def min_loading_for_subcritical(rho: float) -> float:
    """Smallest safety loading for which psi_X(alpha) < 0, i.e. (1-rho)/rho."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0,1), got {rho}")
    return (1.0 - rho) / rho


@dataclass(frozen=True)
class ClaimsModel:
    """Tempered stable claims surplus parametrization.

    Parameters
    ----------
    c : float
        Jump-measure scale, > 0.
    alpha : float
        Exponential tempering rate (inverse currency units), > 0.
    rho : float
        Stability index, in (0, 1).
    p : float
        Premium rate (currency per time).  Must exceed the mean claim
        rate E[Y_1] (net profit condition), otherwise ruin is certain
        and construction fails.
    """

    c: float
    alpha: float
    rho: float
    p: float

    def __post_init__(self):
        if self.c <= 0.0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0,1), got {self.rho}")
        if self.p <= self.mean_claims:
            raise ValueError(
                f"net profit violated: p={self.p} <= E[Y_1]={self.mean_claims}"
            )

    @classmethod
    def from_loading(cls, c: float, alpha: float, rho: float, xi: float) -> "ClaimsModel":
        """Build a model from a safety loading xi via p = (1+xi) E[Y_1]."""
        mean = -c * rho * gamma_neg(rho) * alpha ** (rho - 1.0)
        return cls(c=c, alpha=alpha, rho=rho, p=premium_from_loading(mean, xi))

    @cached_property
    def gamma_neg_rho(self) -> float:
        return gamma_neg(self.rho)

    @cached_property
    def tilt_coefficient(self) -> float:
        """-c * Gamma(-rho), the positive prefactor of the cumulant."""
        return -self.c * self.gamma_neg_rho

    @cached_property
    def mean_claims(self) -> float:
        """E[Y_1] = -c * rho * Gamma(-rho) * alpha**(rho-1) > 0."""
        return -self.c * self.rho * self.gamma_neg_rho * self.alpha ** (self.rho - 1.0)

    @cached_property
    def drift_mean(self) -> float:
        """E[X_1] = E[Y_1] - p, negative under net profit."""
        return self.mean_claims - self.p

    @cached_property
    def loading(self) -> float:
        """Implied safety loading xi = p / E[Y_1] - 1."""
        return self.p / self.mean_claims - 1.0

    @cached_property
    def psi_alpha(self) -> float:
        """psi_X(alpha); its sign decides the growth regime of B."""
        return self.tilt_coefficient * self.alpha ** self.rho - self.p * self.alpha

    # -- cumulants, valid for real arguments <= alpha and for complex
    #    arguments via the principal branch of (alpha - theta)**rho;
    #    scalars or arrays --

    def psi_y(self, theta):
        a, r = self.alpha, self.rho
        return self.tilt_coefficient * (a ** r - (a - theta) ** r)

    def psi_x(self, theta):
        return self.psi_y(theta) - self.p * theta

    def dpsi_x(self, theta):
        a, r = self.alpha, self.rho
        return self.tilt_coefficient * r * (a - theta) ** (r - 1.0) - self.p


class RegimeTag(str, Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class Regime:
    """Sign classification of psi_X(alpha) with the threshold that produced it."""

    tag: RegimeTag
    psi_alpha: float
    loading_threshold: float  # (1-rho)/rho; loading above it => subcritical


@dataclass(frozen=True)
class ScaleChange:
    """Units change: time rescaled by a, currency by b (both > 0)."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError(f"scale factors must be positive, got a={self.a}, b={self.b}")


def cumulant_y(m: ClaimsModel, theta: float) -> float:
    """psi_Y(theta) = log E exp(theta * Y_1), finite only for theta <= alpha."""
    if theta > m.alpha:
        raise ValueError(f"theta={theta} exceeds the tempering rate alpha={m.alpha}")
    return float(m.psi_y(theta))


def cumulant_x(m: ClaimsModel, theta: float) -> float:
    """psi_X(theta) = psi_Y(theta) - p*theta for theta <= alpha."""
    if theta > m.alpha:
        raise ValueError(f"theta={theta} exceeds the tempering rate alpha={m.alpha}")
    return float(m.psi_x(theta))


def mean_y(m: ClaimsModel) -> float:
    """E[Y_1], the mean aggregate claims per unit time."""
    return m.mean_claims


def classify_regime(m: ClaimsModel, tol_factor: float = 1e-12) -> Regime:
    """Classify by the sign of psi_X(alpha).

    The tolerance is relative, ``tol_factor * |psi_Y(alpha)|``, so that a
    units change (which rescales every cumulant) cannot flip the class.
    """
    psi_a = m.psi_alpha
    tol = tol_factor * abs(float(m.psi_y(m.alpha)))
    if psi_a < -tol:
        tag = RegimeTag.SUBCRITICAL
    elif psi_a > tol:
        tag = RegimeTag.SUPERCRITICAL
    else:
        tag = RegimeTag.CRITICAL
    return Regime(tag=tag, psi_alpha=psi_a, loading_threshold=min_loading_for_subcritical(m.rho))


# ---------------------------------------------------------------------------
# inverse cumulant
# ---------------------------------------------------------------------------


def _phi_real_seed(m: ClaimsModel, delta):
    """Float-precision roots of psi_X(beta) = delta on the decreasing branch,
    for an array ``delta`` of floats >= 0, bracketed and bisected
    elementwise in one pass.
    """
    d = np.asarray(delta, dtype=float)
    lo = np.full_like(d, -1.0)
    for _ in range(1100):
        short = m.psi_x(lo) < d
        if not short.any():
            break
        lo[short] *= 2.0
    else:
        raise PhiConvergenceError(f"could not bracket phi({d[short][0]})")
    hi = np.zeros_like(d)
    live = np.ones(d.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        live &= (mid != lo) & (mid != hi)
        if not live.any():
            break
        left = m.psi_x(mid) > d
        lo = np.where(live & left, mid, lo)
        hi = np.where(live & ~left, mid, hi)
    return np.where(d == 0.0, 0.0, 0.5 * (lo + hi))


def _phi_newton_column(m: ClaimsModel, delta: np.ndarray, seed: np.ndarray,
                       maxit: int) -> np.ndarray:
    """Newton on every entry of ``delta`` at once, each entry dropping out
    once its residual meets the 1e-12 relative gate.  The step
    computed there is still taken: the gate is absolute for |delta| < 1,
    and roots only that close cost a double-precision Talbot sum of B up
    to ~1e-8 relative.  Raises if any entry is still above the gate
    after ``maxit`` iterations."""
    beta = seed.copy()
    gate = 1e-12 * np.maximum(1.0, np.abs(delta))
    active = np.arange(delta.size)
    for _ in range(maxit):
        b = beta[active]
        resid = m.psi_x(b) - delta[active]
        beta[active] = b - resid / m.dpsi_x(b)
        active = active[~(np.abs(resid) <= gate[active])]
        if not active.size:
            return beta
    worst = int(active[np.argmax(np.abs(m.psi_x(beta[active]) - delta[active]))])
    raise PhiConvergenceError(
        f"Newton stalled for phi({delta[worst]}) after {maxit} iterations "
        f"({active.size} of {delta.size} contour nodes unconverged)"
    )


def phi_contour(m: ClaimsModel, deltas: np.ndarray, maxit: int = 50) -> np.ndarray:
    """Phi_X on a ``(rows, nodes)`` array of inversion contour points.

    Each row is one contour, its columns in contour order starting from
    the real crossing point ``deltas[:, 0]`` (real and positive).  The
    real column is seeded from the float bisection on the decreasing
    branch, and every later column from the roots of the column before it,
    so each row is continued along its contour from the real solution.
    Newton runs masked over a whole column at a time; every root meets a
    1e-12 relative residual gate (plus one polishing step), and a node
    that does not within ``maxit`` iterations raises
    ``PhiConvergenceError``.
    """
    deltas = np.asarray(deltas, dtype=complex)
    roots = np.empty_like(deltas)
    seed = _phi_real_seed(m, deltas[:, 0].real).astype(complex)
    for j in range(deltas.shape[1]):
        seed = roots[:, j] = _phi_newton_column(m, deltas[:, j], seed, maxit)
    return roots


def phi(m: ClaimsModel, delta):
    """Inverse cumulant Phi_X(delta): the smallest root of psi_X(beta) = delta.

    ``delta`` is a scalar or an array, real and >= 0 or complex.  For real
    delta the root lies on the decreasing branch of psi_X, a value <= 0
    with phi(0) = 0, and the result is real.  Each delta is the two-node
    contour (|delta|, delta) of ``phi_contour``: the root is continued
    from the real solution at |delta|, meets the same 1e-12 relative
    residual gate, and a failure raises ``PhiConvergenceError``.
    """
    d = np.asarray(delta)
    real = not np.iscomplexobj(d)
    if real and (d < 0.0).any():
        raise ValueError(f"real delta must be >= 0, got {delta}")
    flat = d.ravel().astype(complex)
    roots = phi_contour(m, np.stack([np.abs(flat), flat], axis=1))[:, 1].reshape(d.shape)
    if real:
        roots = roots.real
    return roots if roots.ndim else roots.item()


# ---------------------------------------------------------------------------
# Levy measure tails and units changes
# ---------------------------------------------------------------------------


def levy_tail(m: ClaimsModel, u: float) -> float:
    """Upper tail of the jump measure, integral_u^inf c e^(-alpha x) x^(-1-rho) dx.

    In closed form this is c alpha^rho Gamma(-rho, x) at x = alpha u, and
    integrating by parts once gives
    Gamma(-rho, x) = (x^(-rho) e^(-x) - Gamma(1-rho) Q(1-rho, x)) / rho,
    with Q the regularized upper incomplete gamma function.  Checked against
    a 30-digit incomplete gamma in the test suite.
    """
    if u <= 0.0:
        raise ValueError(f"u must be positive (tail diverges at 0), got {u}")
    x, r = m.alpha * u, m.rho
    upper = x ** (-r) * math.exp(-x) - _gamma(1.0 - r) * gammaincc(1.0 - r, x)
    return m.c * m.alpha ** r * upper / r


def levy_tail_asymptotic(m: ClaimsModel, u: float) -> float:
    """Leading-order tail c e^(-alpha u) / (alpha u^(1+rho)), adequate for large alpha*u."""
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    return m.c * math.exp(-m.alpha * u) / (m.alpha * u ** (1.0 + m.rho))


def rescale(m: ClaimsModel, s: ScaleChange) -> ClaimsModel:
    """Model for the units-changed process b * Y_(a t).

    New parameters: c' = a b**rho c, alpha' = alpha / b, rho unchanged;
    the premium keeps the same safety loading, p' = (1 + xi) E[Y'_1].
    """
    c_new = s.a * s.b ** m.rho * m.c
    alpha_new = m.alpha / s.b
    xi = m.loading
    mean_new = -c_new * m.rho * m.gamma_neg_rho * alpha_new ** (m.rho - 1.0)
    return ClaimsModel(c=c_new, alpha=alpha_new, rho=m.rho, p=(1.0 + xi) * mean_new)
