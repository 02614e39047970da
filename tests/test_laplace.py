"""Inversion-engine tests: known transform pairs, cross-engine agreement,
self-convergence, linearity, spec validation."""
import math
import subprocess
import sys

import numpy as np
import pytest

from tsruin import (
    InversionError,
    InversionSpec,
    b_tilde,
    levin_invert,
    talbot_grid,
    talbot_invert,
)
from tsruin.laplace import _levin_panels, _panel_edges

from conftest import MODELS, Oracle

TS = [0.5, 1.0, 2.0, 5.0, 10.0]


def f_t(d):  # transform of f(t) = t
    return 1.0 / d**2


def f_exp(d):  # transform of f(t) = exp(-t)
    return 1.0 / (d + 1.0)


def f_sin(d):  # transform of f(t) = sin(t)
    return 1.0 / (d**2 + 1.0)


class TestTalbot:
    @pytest.mark.parametrize("t", TS)
    def test_known_pairs(self, t):
        assert abs(talbot_invert(f_t, t, M=32) - t) < 1e-10
        assert abs(talbot_invert(f_exp, t, M=32) - math.exp(-t)) < 1e-10
        assert abs(talbot_invert(f_sin, t, M=32) - math.sin(t)) < 1e-10

    @pytest.mark.parametrize("M", [16, 24])
    def test_self_convergence(self, M):
        # doubling the term count changes the result by less than 10^(-M/2)
        for F, exact in [(f_t, 3.0), (f_exp, math.exp(-3.0))]:
            a = talbot_invert(F, 3.0, M=M)
            b = talbot_invert(F, 3.0, M=2 * M)
            assert abs(a - b) / abs(b) <= 10.0 ** (-M / 2)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            talbot_invert(f_t, 0.0, M=32)
        with pytest.raises(ValueError):
            talbot_invert(f_t, 1.0, M=4)

    def test_failure_reported_not_fabricated(self):
        def broken(d):
            raise ArithmeticError("boom")

        with pytest.raises(InversionError, match="transform evaluation failed"):
            talbot_invert(broken, 1.0, M=16)


class TestTalbotGrid:
    def test_known_pairs(self):
        ts = np.array(TS)
        assert np.allclose(talbot_grid(f_t, ts, M=24), ts, rtol=1e-11, atol=0.0)
        # double precision resolves e^-t to ~1e-12 absolute, not relative
        assert np.allclose(talbot_grid(f_exp, ts, M=24), np.exp(-ts), rtol=0.0, atol=1e-12)

    def test_shift_past_a_double_pole(self):
        # 1/(d-1)^2 <-> t e^t: the unshifted contour crosses the real axis at
        # r = 2M/(5t) < 1 for t > 2M/5, leaving the pole right of the
        # contour; shifted by 1 the contour stays right of it for every t
        ts = np.array([1.0, 10.0, 50.0])
        got = talbot_grid(lambda d: 1.0 / (d - 1.0) ** 2, ts, M=24, shift=1.0)
        assert np.allclose(got, ts * np.exp(ts), rtol=1e-10, atol=0.0)

    def test_matches_scalar_engine(self, paper_ref):
        def w_transform(beta):
            return 1.0 / paper_ref.psi_x(-beta)

        got = talbot_grid(w_transform, [0.5, 4.0], M=24)
        for u, g in zip([0.5, 4.0], got):
            assert abs(g / talbot_invert(w_transform, u, M=32) - 1.0) < 1e-10

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            talbot_grid(f_t, [1.0, 0.0], M=24)
        with pytest.raises(ValueError):
            talbot_grid(f_t, [1.0], M=4)


class TestLevin:
    @pytest.mark.parametrize("t", TS)
    def test_known_pairs(self, t):
        assert abs(levin_invert(f_t, t) - t) < 1e-6
        assert abs(levin_invert(f_exp, t) - math.exp(-t)) < 1e-6

    @pytest.mark.parametrize("t", TS)
    def test_known_pairs_large_basis(self, t):
        assert abs(levin_invert(f_t, t, n=64) - t) < 1e-6
        assert abs(levin_invert(f_exp, t, n=64) - math.exp(-t)) < 1e-6

    def test_sine_needs_wider_shift(self):
        # poles on the imaginary axis: the spectrum has spikes of width eps
        # at u = 1, so eps must stay away from 0 while e^(eps t) stays tame
        for t in [0.5, 2.0, 7.5, 19.5]:
            got = levin_invert(f_sin, t, n=64, eps=max(0.5, 1.0 / t))
            assert abs(got - math.sin(t)) < 1e-5

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            levin_invert(f_t, -1.0)
        with pytest.raises(ValueError):
            levin_invert(f_t, 1.0, n=4)
        with pytest.raises(ValueError):
            levin_invert(f_t, 1.0, U=-3.0)

    def test_failure_reported(self):
        def broken(d):
            raise ZeroDivisionError("pole")

        with pytest.raises(InversionError, match="transform evaluation failed"):
            levin_invert(broken, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_transform_raises(self, value):
        with pytest.raises(InversionError, match="Levin contour"):
            levin_invert(lambda d: value, 1.0)

    def test_non_finite_node_raises(self):
        # a pole on one Bromwich node: the value there is inf, not a number
        with pytest.raises(InversionError, match="Levin contour"):
            levin_invert(lambda d: 1.0 / (d - 0.5) ** 2, 2.0, eps=0.5)

    @pytest.mark.parametrize("t, n", [(0.5, 24), (7.0, 64)])
    def test_stacked_panels_match_one_at_a_time(self, t, n):
        # the per-panel loop: one solve and one dot product per panel
        edges = _panel_edges(t, max(float(n), 48.0 / t), 1.0 / t, n)
        a, b = edges[:-1], edges[1:]
        x = -np.cos(np.pi * np.arange(n) / (n - 1))
        f = np.real(f_exp(1.0 / t + 1j * (a[:, None] + (b - a)[:, None] * 0.5 * (x + 1.0))))
        theta, ks = np.arccos(x), np.arange(1, n + 1)
        T = np.cos(np.outer(theta, ks))
        U = np.array([np.sin(ks * th) / np.sin(th) if np.sin(th) > 1e-12
                      else ks * (1.0 if xi > 0 else (-1.0) ** (ks - 1))
                      for th, xi in zip(theta, x)])
        want = []
        for fi, ai, bi in zip(f, a, b):
            D = (ks * U) * (2.0 / (bi - ai))
            sol = np.linalg.solve(np.block([[D, t * T], [-t * T, D]]), np.r_[fi, np.zeros(n)])
            c1, c2 = sol[:n], sol[n:]
            hi, lo = np.ones(n), (-1.0) ** ks
            want.append((c1 @ hi * np.cos(t * bi) + c2 @ hi * np.sin(t * bi))
                        - (c1 @ lo * np.cos(t * ai) + c2 @ lo * np.sin(t * ai)))
        assert np.array_equal(_levin_panels(f, a, b, t, x), want)

    @pytest.mark.parametrize("t, n, eps", [(0.5, 24, None), (7.0, 64, 0.3)])
    def test_one_call_on_sorted_nodes(self, t, n, eps):
        calls = []

        def F(d):
            calls.append(d)
            return f_t(d)

        levin_invert(F, t, n=n, eps=eps)
        assert len(calls) == 1
        (nodes,) = calls
        assert nodes.ndim == 1 and nodes.dtype == complex
        assert nodes[0] == (1.0 / t if eps is None else eps)
        assert np.all(nodes.real == nodes[0].real)
        assert np.all(np.diff(nodes.imag) > 0.0)


class TestEngineConsistency:
    """Talbot(M=32) and Levin(n=64) agree to 1e-5 relative on the corpus."""

    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0, 7.0, 12.0, 20.0])
    def test_simple_corpus(self, t):
        # the sine transform has poles at +-i; the Talbot contour crosses the
        # imaginary axis at height r*pi/2 = M*pi/(5t), so M must grow with t
        # to keep the poles strictly inside (M=32 leaves margin 0.005 at t=20)
        M_sin = 32 if t <= 15.0 else 64
        for F, eps, M in [(f_t, None, 32), (f_exp, None, 32), (f_sin, max(0.5, 1.0 / t), M_sin)]:
            a = talbot_invert(F, t, M=M)
            b = levin_invert(F, t, n=64, eps=eps)
            # absolute floor: at t=20 the true e^-t is 2e-9 while the Levin
            # engine works at ~1e-12 absolute, so pure relative 1e-5 is
            # unattainable in double precision for exponentially small values
            assert abs(a - b) <= 1e-5 * abs(a) + 1e-10, f"{F.__name__} at t={t}: {a} vs {b}"

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0])
    def test_ruin_time_transform(self, t, paper_ref):
        a = float(Oracle(*MODELS["paper_ref"]).b(t, 32))
        eps = max(0.0, paper_ref.psi_alpha) + 1.0 / t
        b = levin_invert(lambda d: b_tilde(paper_ref, d), t, n=64, eps=eps)
        assert abs(a - b) <= 1e-5 * abs(a)

    @pytest.mark.parametrize("u", [0.5, 1.0, 4.0, 10.0, 20.0])
    def test_scale_function_transform(self, u, paper_ref):
        def w_transform(beta):
            return 1.0 / paper_ref.psi_x(-beta)

        a = talbot_invert(w_transform, u, M=32)
        b = levin_invert(w_transform, u, n=64)
        assert abs(a - b) <= 1e-5 * abs(a)

    def test_linearity(self):
        def combo(d):
            return 2.5 * f_t(d) - 1.25 * f_exp(d)

        t = 3.0
        want = 2.5 * t - 1.25 * math.exp(-t)
        assert abs(talbot_invert(combo, t, M=32) - want) < 1e-9
        assert abs(levin_invert(combo, t) - want) < 3e-6


class TestInversionSpec:
    def test_defaults(self):
        spec = InversionSpec()
        assert spec.engine == "talbot" and spec.nodes == 24
        assert spec.shift is None

    def test_validation(self):
        with pytest.raises(ValueError):
            InversionSpec(engine="euler")
        with pytest.raises(ValueError):
            InversionSpec(nodes=2)
        with pytest.raises(ValueError):
            InversionSpec(shift=-1.0)


def test_import_leaves_mpmath_unloaded():
    # mpmath is the configurable-precision arithmetic of talbot_invert alone
    code = "import sys, tsruin; print('mpmath' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def test_cli_import_loads_numpy_alone():
    # every CLI command pays for its imports before it does any work, so a
    # third-party package other than numpy must not load with the CLI
    code = ("import sys\nbefore = set(sys.modules)\nimport tsruin.cli\n"
            "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(*sorted(loaded - set(sys.stdlib_module_names) - {'tsruin', 'numpy'}))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.strip() == ""
