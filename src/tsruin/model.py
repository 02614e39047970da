"""Tempered stable claims-surplus model.

The aggregate claims process is a tempered stable subordinator with jump
density ``c * exp(-alpha*x) / x**(1+rho)`` on ``(0, inf)``; the claims
surplus subtracts premium income at rate ``p``.  Everything downstream
(Laplace transforms, ruin estimates, simulation) is driven by the cumulant

    psi_Y(theta) = -c * Gamma(-rho) * (alpha**rho - (alpha - theta)**rho)

and its drifted version ``psi_X(theta) = psi_Y(theta) - p*theta``.  Near
theta = 0 both differences cancel; there both are summed as

    psi_Y(theta) = theta (E[Y_1] - theta Q(-theta)),  Q(b) = k a^(rho-2) S(b/a),

and psi_X likewise with E[X_1] = E[Y_1] - p in place of E[Y_1],
with k = -c Gamma(-rho), a = alpha and S(x) = R2(x)/x^2 the binomial
remainder of (1+x)^rho (``ClaimsModel._q``).

The inverse cumulant Phi_X(delta), the root of psi_X(beta) = delta on the
decreasing branch, is solved by Halley's iteration alone on a node array of
any shape, such as whole inversion contours (``phi``): one masked loop over
every node at once, each seeded at the root of the [2/1] Pade approximant
of psi_X at 0 (``_phi_seed``), with one power per step.  A complex power is
taken in polar form (``_power``), at about a third of the cost of numpy's
complex ``**`` for rho away from 1/2.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "ClaimsModel",
    "RegimeTag",
    "PhiConvergenceError",
    "premium_from_loading",
    "min_loading_for_subcritical",
    "phi",
    "levy_tail",
    "levy_tail_asymptotic",
    "rescale",
]


class PhiConvergenceError(ArithmeticError):
    """Root finding for the inverse cumulant failed; ``index`` is the flat
    index of the stalled node reported, in the delta array ``phi`` got."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


# (window, terms): S(x) is summed as its first ``terms`` binomial terms for
# |x| < window, where the direct form loses ~2^-52/|x|^2 relative to
# cancellation
PSI_SERIES = (1.0 / 64.0, 12)  # the 13th term is below 2^-72 of the first

_REGIME_TOL = 1e-12
_TINY = np.finfo(float).tiny  # below it a value prints as 0 or with wrong digits

# Halley iterations a node may take in ``_phi_halley``
_PHI_MAXIT = 50


# cephes Gamma: P/Q approximate Gamma(2 + x) on 0 <= x < 1, highest power first
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
            4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
            1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _gamma_small(x: float) -> float:
    """Gamma(x) for 0 < x < 2: cephes ``Gamma``'s upward recurrence into its
    rational approximation on [2, 3], operation for operation, so the result
    is the one ``scipy.special.gamma`` returns, bit for bit."""
    z = 1.0
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


def gamma_neg(rho: float) -> float:
    """Gamma(-rho) for rho in (0, 1), via Gamma(1-rho)/(-rho).

    The recurrence keeps the evaluation away from the pole at 0, which
    matters for rho close to 1 (Gamma(-0.99) ~ -100 while Gamma(0.01) ~ 100
    is perfectly conditioned).  Gamma(1-rho) is a port of the cephes
    Gamma that scipy uses, not ``math.gamma``, which differs from it in the
    last bits for most rho: Gamma(-rho) sets the stable law of the simulated
    increments, so every Monte Carlo byte of a fixed seed would move.  The
    port agrees with ``scipy.special.gamma`` bit for bit, and so with a
    30-digit Gamma to scipy's accuracy, 4 ulp on (0, 1) (both checked in the
    test suite).
    """
    _require_rho(rho)
    return _gamma_small(1.0 - rho) / (-rho)


def _mean_claims(c: float, alpha: float, rho: float) -> float:
    """E[Y_1] of the parameters (c, alpha, rho); one formula for every caller."""
    return -c * rho * gamma_neg(rho) * alpha ** (rho - 1.0)


def _power(z, r: float):
    """The principal power z^r of ``z`` (a scalar or an array): ``**`` for
    real z, and for complex z the polar form |z|^r (cos(r arg z) +
    i sin(r arg z)), two to three times as fast as numpy's complex ``**``,
    except at r = 1/2, where ``**`` is a complex square root at ~0.6 of its
    cost.  For |z| in [1e-8, 1e8] the polar form is within 4e-16 relative
    of a 40-digit power (numpy's ``**``: 3e-15).  On the positive real axis
    it is exactly real, |z|^r; on the negative one arg z is +pi or -pi by
    the sign of the zero imaginary part."""
    if not np.iscomplexobj(z):
        return z ** r
    mod = np.hypot(z.real, z.imag) ** r
    angle = r * np.arctan2(z.imag, z.real)
    out = np.empty_like(z)
    np.multiply(mod, np.cos(angle), out=out.real)
    np.multiply(mod, np.sin(angle), out=out.imag)
    return out[()]  # a scalar for a scalar z


def _require_finite(**values) -> None:
    """Raise ``ValueError`` naming the first of ``values`` that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _require_positive(**values) -> None:
    """Raise ``ValueError`` naming the first of ``values`` that is not finite
    (``_require_finite``), else the first that is not positive."""
    _require_finite(**values)
    for name, value in values.items():
        if value <= 0.0:
            raise ValueError(f"{name} must be positive, got {value}")


def _require_rho(rho: float) -> None:
    """Raise ``ValueError`` unless the stability index ``rho`` is in (0, 1)."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0,1), got {rho}")


def _require_reportable(what: str, values: np.ndarray, upper: float = math.inf,
                        **axes) -> np.ndarray:
    """Return ``values`` if every entry (a scalar is one) is a finite, positive
    normal double <= ``upper``; else raise ``FloatingPointError`` naming ``what``
    and the first bad entry's (row-major) coordinate on each of ``axes``."""
    flat = np.atleast_1d(values)  # argwhere of a 0-d array finds nothing
    bad = np.argwhere(~(np.isfinite(flat) & (flat >= _TINY) & (flat <= upper)))
    if bad.size:
        where = ", ".join(f"{name}={axis[k]}" for (name, axis), k in zip(axes.items(), bad[0]))
        v, bound = flat[tuple(bad[0])], "" if upper == math.inf else f" <= {upper:g}"
        reason = (f"not a positive normal double{bound}" if np.isfinite(v)
                  else "not finite in double precision")
        raise FloatingPointError(f"{what} at {where} is {v:.6e}, {reason}")
    return values


def _require_int(name: str, value, least: int | None = None) -> int:
    """``value`` as a Python int; raise ``ValueError`` naming ``name`` unless it
    is an integer (a numpy one included) and, if given, at least ``least``."""
    try:
        k = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and k < least:
        raise ValueError(f"{name} must be >= {least}, got {k}")
    return k


def premium_from_loading(mean_claims: float, xi: float) -> float:
    """Premium rate p = (1 + xi) * E[Y_1] for safety loading xi > 0."""
    _require_positive(mean_claims=mean_claims, xi=xi)
    return (1.0 + xi) * mean_claims


def min_loading_for_subcritical(rho: float) -> float:
    """Smallest safety loading for which psi_X(alpha) < 0, i.e. (1-rho)/rho."""
    _require_rho(rho)
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
        _require_positive(c=self.c, alpha=self.alpha)
        _require_finite(rho=self.rho, p=self.p)
        if self.p <= self.mean_claims:  # gamma_neg checks rho
            raise ValueError(
                f"net profit violated: p={self.p} <= E[Y_1]={self.mean_claims}"
            )

    @classmethod
    def from_loading(cls, c: float, alpha: float, rho: float, xi: float) -> "ClaimsModel":
        """Build a model from a safety loading xi via p = (1+xi) E[Y_1]."""
        _require_finite(c=c, alpha=alpha, rho=rho)  # premium_from_loading checks xi
        return cls(c=c, alpha=alpha, rho=rho,
                   p=premium_from_loading(_mean_claims(c, alpha, rho), xi))

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
        return _mean_claims(self.c, self.alpha, self.rho)

    @cached_property
    def drift_mean(self) -> float:
        """E[X_1] = E[Y_1] - p, negative under net profit."""
        return self.mean_claims - self.p

    @cached_property
    def variance(self) -> float:
        """Var[X_1] = psi_X''(0) = k rho (1 - rho) alpha^(rho-2), k = -c Gamma(-rho)."""
        return self._q_scale * (self.rho * (1.0 - self.rho))  # -2 Q(0), to the bit

    @cached_property
    def loading(self) -> float:
        """Implied safety loading xi = p / E[Y_1] - 1."""
        return self.p / self.mean_claims - 1.0

    @cached_property
    def psi_y_alpha(self) -> float:
        """psi_Y(alpha) = k a^rho, the largest term psi_X sums."""
        return self.tilt_coefficient * self.alpha ** self.rho

    @cached_property
    def psi_alpha(self) -> float:
        """psi_X(alpha); its sign decides the growth regime of B."""
        return self.psi_x(self.alpha)

    @cached_property
    def regime(self) -> "RegimeTag":
        """The growth regime of B, by the sign of ``psi_alpha``, classified
        once per model.

        The tolerance is relative, ``_REGIME_TOL * |psi_Y(alpha)|``, so that
        a units change (which rescales every cumulant) cannot flip the class.
        The loading above which a model is subcritical is
        ``min_loading_for_subcritical(rho)``.
        """
        tol = _REGIME_TOL * abs(self.psi_y_alpha)
        if self.psi_alpha < -tol:
            return RegimeTag.SUBCRITICAL
        if self.psi_alpha > tol:
            return RegimeTag.SUPERCRITICAL
        return RegimeTag.CRITICAL

    # -- cumulants of a scalar or an array theta: a real theta must be finite
    #    and <= alpha (else ValueError); a complex or mpmath one is taken on
    #    the principal branch of (alpha - theta)**rho, unchecked --

    def psi_y(self, theta):
        """psi_Y(theta) = k (a^rho - (a - theta)^rho), k = -c Gamma(-rho)."""
        self._require_theta(theta)
        return self._psi(theta, 0.0)[0]

    def psi_x(self, theta):
        """psi_X(theta) = psi_Y(theta) - p theta."""
        self._require_theta(theta)
        return self._psi(theta, self.p)[0]

    def _require_theta(self, theta) -> None:
        """Raise ``ValueError`` on the first entry of a real (bool, integer or
        float) ``theta`` that is not finite or exceeds alpha, where the
        cumulants are not finite; a complex or object ``theta`` passes."""
        th = np.asarray(theta)
        if th.dtype.kind in "biuf":
            bad = np.flatnonzero(~(np.isfinite(th) & (th <= self.alpha)))
            if bad.size:
                value = th.ravel()[bad[0]]
                _require_finite(theta=value)
                raise ValueError(f"theta={value} exceeds the tempering rate alpha={self.alpha}")

    def _psi(self, theta, p: float):
        """psi_Y(theta) - p theta, (a - theta)^rho and a - theta, from one
        difference and one power (``_power``): the Halley step of ``phi``
        gets psi_X' = k rho (a - theta)^rho / (a - theta) - p and psi_X''
        from the same two.  Inside the window of ``PSI_SERIES`` the first is
        summed as theta (E[Y_1] - p - theta Q(-theta)), in which nothing
        cancels."""
        gap = self.alpha - theta
        power = _power(gap, self.rho)
        psi = self.tilt_coefficient * (self.alpha ** self.rho - power) - p * theta
        th = np.atleast_1d(theta)  # also an object array of mpmath numbers
        near = abs(th) < PSI_SERIES[0] * self.alpha
        if near.any():
            th = th[near]
            series = th * ((self.mean_claims - p) - th * self._q(-th))
            if np.ndim(psi) == 0:
                psi = series[0]
            else:
                psi[near] = series
        return psi, power, gap

    @cached_property
    def _series_coef(self) -> np.ndarray:
        """C(rho, n) for n = 2, 3, ...: S's binomial series, lowest power first."""
        rho, n = self.rho, np.arange(2, PSI_SERIES[1] + 1)
        return np.cumprod(np.r_[rho * (rho - 1.0) / 2.0, (rho - n) / (n + 1)])

    @cached_property
    def _q_scale(self) -> float:
        return self.tilt_coefficient * self.alpha ** (self.rho - 2.0)

    def _q(self, b):
        """Q(b) = k a^(rho-2) S(b/a) on an array ``b``, with
        S(x) = R2(x)/x^2 and R2(x) = (1+x)^rho - 1 - rho x: S is its binomial
        series inside the window of ``PSI_SERIES`` (C(rho, 2) at x = 0) and
        the direct form outside it, whose power is ``_power``."""
        x = b / self.alpha
        near = np.abs(x) < PSI_SERIES[0]
        s = np.empty_like(x)
        s[near] = np.polyval(self._series_coef[::-1], x[near])
        xf = x[~near]
        s[~near] = (_power(1.0 + xf, self.rho) - 1.0 - self.rho * xf) / xf ** 2
        return self._q_scale * s


class RegimeTag(str, Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


def positive_axis(x, name: str) -> np.ndarray:
    """A positive finite scalar or nonempty vector ``x`` as a 1-d float
    array; the check on the u and t axes of every (u, t) grid function."""
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if xs.ndim != 1 or not xs.size or not ((xs > 0.0) & (xs < math.inf)).all():
        raise ValueError(f"{name} must be a positive finite scalar or vector, got {x}")
    return xs


# ---------------------------------------------------------------------------
# inverse cumulant
# ---------------------------------------------------------------------------


def _phi_seed(m: ClaimsModel, delta: np.ndarray) -> np.ndarray:
    """Seeds of ``phi``: at each ``delta`` the root nearest delta / E of
    R(beta) = delta, R(beta) = (E beta + a2 beta^2) / (1 + b1 beta) the
    [2/1] Pade approximant of psi_X at 0 from E = E[X_1], Var[X_1] and
    kappa3 = Var[X_1] (2 - rho)/alpha: b1 = -(2 - rho)/(3 alpha) and
    a2 = Var[X_1]/2 + E b1.  Both roots are formed without cancellation.
    The tangent's root delta / E lies ~1/xi too far left near criticality."""
    mean, b1 = m.drift_mean, -(2.0 - m.rho) / (3.0 * m.alpha)
    a2 = 0.5 * m.variance + mean * b1
    half = 0.5 * mean - (0.5 * b1) * delta
    root = np.sqrt(half * half + a2 * delta)
    big = np.where((half.conj() * root).real < 0.0, half - root, half + root)  # no cancellation
    small, large, tangent = delta / big, big / -a2, delta / mean
    return np.where(np.abs(small - tangent) <= np.abs(large - tangent), small, large)


def _phi_halley(m: ClaimsModel, delta: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Masked Halley iteration on psi_X(beta) = delta at every entry at once,
    from the seeds ``beta`` (overwritten with the roots, which are
    returned), one power per step: psi_X' and psi_X'' =
    k rho (1 - rho) (a - beta)^rho / (a - beta)^2 come from the power of
    psi_X.  An entry drops out once its residual meets the gate 1e-12
    max(1, |delta|, k a^rho), relative to the largest term psi_X sums (so
    at delta ~ 1e-12 it is met by a root still off by percents), and the
    step computed there is below 1e-8 of the new iterate.  That last step
    is still taken: roots only as close as the gate cost the
    double-precision inversion of B up to ~2e-10 relative.  Raises if any
    entry is still unconverged after ``_PHI_MAXIT`` iterations."""
    scale = max(1.0, m.psi_y_alpha)  # psi_X rounds at ~2^-52 of it
    active, gate = np.arange(delta.size), 1e-12 * np.maximum(scale, np.abs(delta))
    for _ in range(_PHI_MAXIT):
        b = beta[active]
        psi, power, gap = m._psi(b, m.p)
        slope = m.tilt_coefficient * m.rho * power / gap  # psi_Y'
        d1 = slope - m.p  # psi_X'; psi_X'' = (1 - rho) slope / gap
        resid = psi - delta[active]
        newton = resid / d1
        nxt = b - newton / (1.0 - 0.5 * (1.0 - m.rho) * newton * slope / (gap * d1))
        beta[active] = nxt
        done = (np.abs(resid) <= gate[active]) & (np.abs(nxt - b) <= 1e-8 * np.abs(nxt))
        active = active[~done]
        if not active.size:
            return beta
    worst = int(active[np.argmax(np.abs(m._psi(beta[active], m.p)[0] - delta[active]))])
    raise PhiConvergenceError(
        f"Halley iteration stalled for phi({delta[worst]}) after {_PHI_MAXIT} iterations "
        f"({active.size} of {delta.size} nodes unconverged)", worst)


def phi(m: ClaimsModel, delta):
    """Inverse cumulant Phi_X(delta): the smallest root of psi_X(beta) = delta.

    ``delta`` is a scalar or an array of any shape, finite, real and >= 0
    or complex (the nodes of whole inversion contours at once, say).  For
    real delta the root lies on the decreasing branch of psi_X, a value
    <= 0 with phi(0) = 0 exactly, and the result is real.  Every node is
    solved at once by one masked Halley iteration (``_phi_halley``), from
    the root of the [2/1] Pade approximant of psi_X at 0 (``_phi_seed``).
    For real delta the seed lay left of the root (or within an ulp of it),
    and the steps climbed monotonically to it until within 1e-10
    relative, on 2,999 random models (rho in (0.01, 0.99), alpha and c
    over four decades, loadings 1e-12 to 30) at 301 delta in [0, 1e7]; a
    complex node is reached from its seed on the branch continued from
    the real axis.
    Every root meets the same 1e-12 relative residual gate and takes one
    polishing step; a node that does not converge within ``_PHI_MAXIT``
    iterations raises ``PhiConvergenceError``.  The iteration acts
    elementwise, so a node's root is bitwise the same in any array of the
    same dtype.
    """
    d = np.asarray(delta)
    if not np.isfinite(d).all():
        raise ValueError(f"delta must be finite, got {delta}")
    if not np.iscomplexobj(d) and (d < 0.0).any():
        raise ValueError(f"real delta must be >= 0, got {delta}")
    flat = d.ravel().astype(np.result_type(d, float))
    roots = _phi_halley(m, flat, _phi_seed(m, flat)).reshape(d.shape)
    return roots if roots.ndim else roots.item()


# ---------------------------------------------------------------------------
# Levy measure tails and units changes
# ---------------------------------------------------------------------------


# Gamma(-rho, x) switches from its power series to its continued fraction
# here.  Just above it the fraction takes 94 terms, five times the series'
# time at rho = 0.99, and more as x falls; above it the series
# loses digits like e^(2x) to cancellation, 1e-12 relative by x = 1.5
_TAIL_SERIES_MAX_X = 1.0
_TAIL_CF_TERMS = 500


def _upper_gamma_neg(r: float, x: float) -> float:
    """Gamma(-r, x) for r in (0, 1) and x > 0.

    For x <= ``_TAIL_SERIES_MAX_X`` it is Gamma(-r) minus the power series
    of the lower function (DLMF 8.7.3),
        Gamma(-r, x) = Gamma(-r) - sum_n (-1)^n x^(n-r) / (n! (n-r)),
    and beyond it the Legendre continued fraction (DLMF 8.9.2) in its even
    form, x^(-r) e^(-x) / (x+1+r - 1(1+r)/(x+3+r - 2(2+r)/(x+5+r - ...))),
    summed by the modified Lentz method.
    """
    if x <= _TAIL_SERIES_MAX_X:
        total, term, n = 0.0, 1.0, 0  # term = (-x)^n / n!
        while True:
            part = term / (n - r)
            total += part
            if n and abs(part) <= 1e-17 * abs(total):
                return gamma_neg(r) - x ** (-r) * total
            n += 1
            term *= -x / n
    b = x + 1.0 + r
    c, d = math.inf, 1.0 / b
    h = d
    for n in range(1, _TAIL_CF_TERMS):
        an = -n * (n + r)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h *= d * c
        if abs(d * c - 1.0) <= 1e-16:
            return x ** (-r) * math.exp(-x) * h
    raise ArithmeticError(f"Gamma(-{r}, {x}): continued fraction unconverged "
                          f"after {_TAIL_CF_TERMS} terms")


def levy_tail(m: ClaimsModel, u: float) -> float:
    """Upper tail of the jump measure, integral_u^inf c e^(-alpha x) x^(-1-rho) dx.

    In closed form this is c alpha^rho Gamma(-rho, x) at x = alpha u, with
    the incomplete gamma function summed directly (``_upper_gamma_neg``).
    The one cancellation left is the series' Gamma(-rho) against its pole
    term, up to ~700 times the result at x = 1 and rho near 0.01 or 0.99.
    Against a 40-digit mpmath, on 99 rho in [0.01, 0.99] times 400 x in
    [1e-4, 600], the worst relative error was 2.7e-13 (rho = 0.01,
    x = 0.98).  Checked against a 30-digit incomplete gamma in the test
    suite.  A tail that is not a normal double (alpha u > ~690) raises.
    """
    _require_positive(u=u)
    tail = m.c * m.alpha ** m.rho * _upper_gamma_neg(m.rho, m.alpha * u)
    return _require_reportable("Levy tail", tail, u=[u])


def levy_tail_asymptotic(m: ClaimsModel, u: float) -> float:
    """Leading-order tail c e^(-alpha u) / (alpha u^(1+rho)), adequate for large alpha*u."""
    _require_positive(u=u)
    tail = m.c * math.exp(-m.alpha * u) / (m.alpha * u ** (1.0 + m.rho))
    return _require_reportable("asymptotic Levy tail", tail, u=[u])


def rescale(m: ClaimsModel, a: float, b: float) -> ClaimsModel:
    """Model for the units-changed process b * Y_(a t): time rescaled by
    a > 0, currency by b > 0.

    New parameters: c' = a b**rho c, alpha' = alpha / b, rho unchanged;
    the premium keeps the same safety loading, p' = (1 + xi) E[Y'_1].
    """
    _require_positive(a=a, b=b)
    return ClaimsModel.from_loading(a * b ** m.rho * m.c, m.alpha / b, m.rho, m.loading)
