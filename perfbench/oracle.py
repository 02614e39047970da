"""High-precision reference values, independent of the package's own code.

Every inversion uses mpmath's fixed-Talbot rule (``mpmath.invertlaplace``,
Abate & Valko 2004) at ``M`` terms and ``M`` decimal digits; the model's
cumulant, its inverse ``Phi`` and the transforms are written out here again
in mpmath rather than imported from ``tsruin``, so a defect in the package
cannot also sit in its reference.  ``make_refs.py`` keeps a value only where
two term counts agree.

    B~(d) = (Phi(d) - alpha) / ((d - psi_X(alpha))^2 Phi(d))        ruin-time profile
    W~(b) = 1 / psi_X(-b)                                            scale function
    P(u)  = exp(-alpha u) L^-1[ 1/(b-alpha) + E[X_1]/psi_X(alpha-b) ](u)

The last line is the shift theorem applied to the transform of the
eventual-ruin probability 1/b + E[X_1]/psi_X(-b); the shift moves its branch
point from -alpha to the origin and avoids the cancellation in
``1 + E[X_1] W(u)``.
"""
from __future__ import annotations

import mpmath


class Oracle:
    """The model c, alpha, rho, xi in mpmath at the current working precision."""

    def __init__(self, c: float, alpha: float, rho: float, xi: float):
        self.params = (c, alpha, rho, xi)

    def _setup(self) -> None:
        c, alpha, rho, xi = (mpmath.mpf(x) for x in self.params)
        self.a, self.r = alpha, rho
        self.C = -c * mpmath.gamma(-rho)
        mean_y = self.C * rho * alpha ** (rho - 1)
        self.p = (1 + xi) * mean_y
        self.drift = mean_y - self.p
        self.psi_a = self.psi(alpha)

    def psi(self, th):
        return self.C * (self.a ** self.r - (self.a - th) ** self.r) - self.p * th

    def _dpsi(self, th):
        return self.C * self.r * (self.a - th) ** (self.r - 1) - self.p

    def _newton(self, d, beta):
        tol = mpmath.mpf(10) ** (5 - mpmath.mp.dps)
        for _ in range(200):
            step = (self.psi(beta) - d) / self._dpsi(beta)
            beta -= step
            if abs(step) <= tol * max(1, abs(beta)):
                return beta
        raise ArithmeticError(f"oracle Newton failed for Phi({d})")

    def _phi_real(self, d):
        lo = mpmath.mpf(-1)
        while self.psi(lo) < d:
            lo *= 2
        hi = mpmath.mpf(0)
        for _ in range(60):
            mid = (lo + hi) / 2
            if self.psi(mid) > d:
                lo = mid
            else:
                hi = mid
        return self._newton(d, (lo + hi) / 2)

    def b(self, t: float, M: int):
        """B(t); the Talbot nodes arrive in contour order from the real axis,
        so each Newton solve starts from the previous node's root."""
        with mpmath.workdps(M):
            self._setup()
            last = []

            def transform(d):
                if mpmath.im(d) == 0:
                    root = self._phi_real(mpmath.re(d))
                else:
                    root = self._newton(d, last[-1])
                last.append(root)
                return (root - self.a) / ((d - self.psi_a) ** 2 * root)

            return mpmath.invertlaplace(transform, t, method="talbot", degree=M)

    def b_infinity(self):
        with mpmath.workdps(50):
            self._setup()
            return self.a * abs(self.drift) / self.psi_a ** 2

    def w(self, u: float, M: int):
        with mpmath.workdps(M):
            self._setup()
            return mpmath.invertlaplace(lambda b: 1 / self.psi(-b), u, method="talbot", degree=M)

    def p_ruin(self, u: float, M: int):
        with mpmath.workdps(M):
            self._setup()

            def shifted(b):
                return 1 / (b - self.a) + self.drift / self.psi(self.a - b)

            return mpmath.exp(-self.a * u) * mpmath.invertlaplace(shifted, u, method="talbot",
                                                                 degree=M)

    def levy_tail(self, u: float, dps: int):
        """integral_u^inf c e^(-alpha x) x^(-1-rho) dx = c alpha^rho Gamma(-rho, alpha u)."""
        with mpmath.workdps(dps):
            c, alpha, rho, _ = (mpmath.mpf(x) for x in self.params)
            return c * alpha ** rho * mpmath.gammainc(-rho, alpha * u)
