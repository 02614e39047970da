"""Numerical inverse Laplace transforms.

Two independent engines operate on caller-supplied transforms ``F(delta)``
evaluated at complex arguments:

* fixed-Talbot contour deformation with trapezoidal summation, in two
  forms: ``talbot_invert``, one t at a time in configurable-precision
  (mpmath) arithmetic, because the method loses roughly 0.6*M decimal
  digits to cancellation; and ``talbot_grid``, every t of a grid in one
  double-precision array pass on a contour that may be shifted right,
  with F evaluated on the whole node array at once.
* ``levin_invert`` -- collocation in a Chebyshev basis for the oscillatory
  real-axis form ``f(t) = e^(eps t) (2/pi) int_0^inf Re F(eps+iu) cos(ut) du``,
  entirely in double precision.

Transforms must be analytic to the right of the declared abscissa; the
Talbot contour additionally requires analyticity in the cut plane away
from the negative real axis (after the shift), which holds for every
transform used here.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import mpmath
import numpy as np

__all__ = ["InversionSpec", "InversionError", "talbot_invert", "talbot_grid", "levin_invert"]

logger = logging.getLogger(__name__)

TransformFn = Callable[[complex], complex]


class InversionError(RuntimeError):
    """An inversion engine could not produce a trustworthy value."""


@dataclass(frozen=True)
class InversionSpec:
    """Configuration of B's inversion.

    engine
        ``talbot`` (``talbot_grid`` at fixed double-precision term counts)
        or ``levin``.  W and P(ruin ever) always use ``talbot_grid``.
    nodes
        Levin collocation basis size per panel.
    cutoff
        Levin truncation U of the frequency integral; ``None`` selects
        ``max(nodes, 48/t)`` (the tail beyond the cutoff is integrated by
        parts, see ``levin_invert``).
    shift
        Bromwich abscissa eps for the Levin engine.  Must exceed the real
        part of every singularity of the transform; ``None`` selects
        ``1/t``, which callers with known singularities should override
        (e.g. ``max(0, psi_X(alpha)) + 1/t`` for the ruin-time transform).
    """

    engine: str = "talbot"
    nodes: int = 24
    cutoff: Optional[float] = None
    shift: Optional[float] = None

    def __post_init__(self):
        if self.engine not in ("talbot", "levin"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.nodes < 8:
            raise ValueError(f"nodes must be >= 8, got {self.nodes}")
        if self.cutoff is not None and self.cutoff <= 0.0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        if self.shift is not None and self.shift < 0.0:
            raise ValueError(f"shift must be nonnegative, got {self.shift}")


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
    All arithmetic carries M + 10 decimal digits; accuracy on well-behaved
    transforms is roughly 0.6*M digits.
    """
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


def talbot_grid(F: Callable[[np.ndarray], np.ndarray], ts, M: int,
                shift: float = 0.0) -> np.ndarray:
    """Invert F at every t of ``ts`` in one double-precision fixed-Talbot pass.

    The contour of ``talbot_invert``, shifted right by ``shift``:
    delta(theta) = shift + r*theta*(cot(theta) + i), r = 2M/(5t), which
    inverts F(shift + s) and multiplies by e^(shift t) (Abate & Whitt,
    INFORMS J. Comput. 2006).  A shift at or beyond the rightmost
    singularity keeps every singularity left of the contour for all t.

    ``F`` receives the ``(len(ts), M)`` complex array of nodes, one row per
    t with its columns in contour order from the real crossing point
    ``shift + r``, and returns the transform at every node.  Rounding error
    grows like e^(2M/5) times machine epsilon, which bounds useful M in
    double precision to the low twenties.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or not np.all(ts > 0.0):
        raise ValueError("ts must be a 1-d array of positive times")
    if M < 8:
        raise ValueError(f"M must be >= 8, got {M}")
    theta = np.pi * np.arange(1, M) / M
    cot = 1.0 / np.tan(theta)
    path = np.concatenate([[1.0], theta * (cot + 1j)])  # delta = shift + r * path
    weight = np.concatenate([[0.5], 1.0 + 1j * (theta + (theta * cot - 1.0) * cot)])
    r = 2.0 * M / (5.0 * ts)
    deltas = shift + r[:, None] * path
    # e^(delta t) = e^(shift t) e^(2M/5 path): only the shift depends on t
    terms = F(deltas) * (np.exp(0.4 * M * path) * weight)
    return r / M * np.exp(shift * ts) * terms.sum(axis=1).real


# ---------------------------------------------------------------------------
# Levin collocation
# ---------------------------------------------------------------------------


def _cheb_basis(x: np.ndarray, n: int):
    """T_k(x) and U_(k-1)(x) for k = 1..n at points x in [-1, 1]."""
    theta = np.arccos(np.clip(x, -1.0, 1.0))
    ks = np.arange(1, n + 1)
    T = np.cos(np.outer(theta, ks))
    s = np.sin(theta)
    U = np.empty((len(x), n))
    for i in range(len(x)):
        if s[i] > 1e-12:
            U[i, :] = np.sin(ks * theta[i]) / s[i]
        else:
            sign = 1.0 if x[i] > 0 else (-1.0) ** (ks - 1)
            U[i, :] = ks * sign
    return T, U


def _levin_panel(F, eps: float, a: float, b: float, t: float, n: int) -> float:
    """integral_a^b Re F(eps + iu) cos(tu) du by Chebyshev collocation.

    Seeks F1, F2 with (F1 cos + F2 sin)' = f cos, i.e. the linear system
    F1' + t F2 = f, F2' - t F1 = 0, collocated at Chebyshev-Lobatto
    points; the integral is then the antiderivative difference at the
    panel ends.  This pair form has no singular coefficients (unlike the
    scalar tan form, whose collocation matrix is singular wherever
    cos(t u) vanishes).
    """
    x = -np.cos(np.pi * np.arange(n) / (n - 1))  # Lobatto, ascending
    nodes = a + (b - a) * 0.5 * (x + 1.0)
    T, U = _cheb_basis(x, n)
    D = (np.arange(1, n + 1)[None, :] * U) * (2.0 / (b - a))
    A = np.vstack([np.hstack([D, t * T]), np.hstack([-t * T, D])])
    fv = np.array([float(np.real(F(complex(eps, u)))) for u in nodes])
    rhs = np.concatenate([fv, np.zeros(n)])
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise InversionError(
            f"singular collocation matrix on panel [{a:.6g}, {b:.6g}] "
            f"(first node u={nodes[0]:.6g})"
        ) from exc
    cond = np.linalg.cond(A)
    if cond > 1e12:
        logger.warning(
            "Levin panel [%.6g, %.6g] condition number %.2e exceeds 1e12", a, b, cond
        )
    c1, c2 = sol[:n], sol[n:]
    ks = np.arange(1, n + 1)
    at_hi, at_lo = np.ones(n), (-1.0) ** ks
    f1b, f2b = c1 @ at_hi, c2 @ at_hi
    f1a, f2a = c1 @ at_lo, c2 @ at_lo
    return (f1b * np.cos(t * b) + f2b * np.sin(t * b)) - (
        f1a * np.cos(t * a) + f2a * np.sin(t * a)
    )


def _panel_edges(t: float, U: float, eps: float, n: int) -> list:
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
    return edges


def levin_invert(
    F: TransformFn,
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

    try:
        edges = _panel_edges(t, U, eps, n)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            total += _levin_panel(F, eps, a, b, t, n)

        # tail integral_U^inf by parts: f ~ smooth power-law decay, so
        # -f sin(tU)/t - f' cos(tU)/t^2 + f'' sin(tU)/t^3 + O(f'''/t^4)
        d = min(1.0, 0.05 * U)
        f0 = float(np.real(F(complex(eps, U))))
        fp_hi = float(np.real(F(complex(eps, U + d))))
        fp_lo = float(np.real(F(complex(eps, U - d))))
        fd1 = (fp_hi - fp_lo) / (2.0 * d)
        fd2 = (fp_hi - 2.0 * f0 + fp_lo) / d ** 2
        s_u, c_u = np.sin(t * U), np.cos(t * U)
        total += -f0 * s_u / t - fd1 * c_u / t ** 2 + fd2 * s_u / t ** 3
    except InversionError:
        raise
    except Exception as exc:
        raise InversionError(f"transform evaluation failed on Levin contour at t={t}: {exc}") from exc

    return float(np.exp(eps * t) * (2.0 / np.pi) * total)
