"""Inversion-engine tests: known transform pairs, cross-engine agreement,
self-convergence, linearity."""
import ast
import importlib
import math
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import tsruin
from tsruin import (
    InversionError,
    b_tilde,
    hyperbola_grid,
    hyperbola_nodes,
    levin_invert,
    talbot_invert,
)
from tsruin.laplace import (HYPERBOLA_RULES, WINDOW, _hyperbola_path, _levin_panels, _panel_edges,
                            _windows)

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
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^t must be finite, got {bad}"):
                talbot_invert(f_t, bad, M=32)
        with pytest.raises(ValueError, match="^M must be an integer, got 8.5"):
            talbot_invert(f_t, 1.0, M=8.5)
        assert talbot_invert(f_t, 1.0, M=np.int64(16)) == talbot_invert(f_t, 1.0, M=16)

    def test_failure_reported_not_fabricated(self):
        def broken(d):
            raise ArithmeticError("boom")

        dps = mpmath.mp.dps
        with pytest.raises(InversionError, match="transform evaluation failed"):
            talbot_invert(broken, 1.0, M=16)
        # mpmath.invertlaplace sets mp.dps = M and restores it only on a return
        assert mpmath.mp.dps == dps
        # a NaN transform value is reported, not summed
        with pytest.raises(InversionError, match=r"^transform is not finite .*\(t=2\.0\)"):
            talbot_invert(lambda d: math.nan, 2.0, M=16)
        assert mpmath.mp.dps == dps
        talbot_invert(f_t, 1.0, M=16)
        assert mpmath.mp.dps == dps


class TestHyperbolaGrid:
    """The double-precision grid engine, ``hyperbola_grid``."""

    def test_known_pairs(self):
        ts = np.array(TS)
        for values in hyperbola_grid(f_t, ts):
            assert np.allclose(values, ts, rtol=1e-11, atol=0.0)
        # double precision resolves e^-t to ~1e-12 absolute, not relative
        for values in hyperbola_grid(f_exp, ts):
            assert np.allclose(values, np.exp(-ts), rtol=0.0, atol=1e-12)

    def test_shift_past_a_double_pole(self):
        # 1/(d-1)^2 <-> t e^t: unshifted, the contour of t's window crosses
        # the real axis at m N (1 - sin a)/t1 < 1 for t1 >= 25, leaving the
        # pole right of the contour; shifted by 1 it stays right of it for
        # every t
        ts = np.array([1.0, 10.0, 50.0])
        for got in hyperbola_grid(lambda d: 1.0 / (d - 1.0) ** 2, ts, shift=1.0):
            assert np.allclose(got, ts * np.exp(ts), rtol=1e-10, atol=0.0)

    def test_matches_scalar_engine(self, paper_ref):
        def w_transform(beta):
            return 1.0 / paper_ref.psi_x(-beta)

        for got in hyperbola_grid(w_transform, [0.5, 4.0]):
            for u, g in zip([0.5, 4.0], got):
                assert abs(g / talbot_invert(w_transform, u, M=32) - 1.0) < 1e-10

    def test_one_transform_call_on_the_windows_touched(self):
        # t = 5^k closes its window (5^(k-1), 5^k]; (1, 5] holds none of ts
        calls = []

        def F(d):
            calls.append(d)
            return f_t(d)

        ts = [0.3, 1.0, 5.0 * (1.0 + 2.0 ** -52), 25.0, 26.0]
        hyperbola_grid(F, ts)
        assert len(calls) == 1 and np.array_equal(calls[0], hyperbola_nodes(ts))
        assert calls[0].shape == (3, sum(N + 1 for N in HYPERBOLA_RULES))

    def test_windows_close_at_powers_of_five(self):
        # t lies in (5^(k-1), 5^k] also where log(t)/log(5) rounds past k
        ts = np.array([WINDOW ** k * f for k in range(-8, 12)
                       for f in (1.0 - 2.0 ** -52, 1.0, 1.0 + 2.0 ** -52)])
        powers = WINDOW ** np.arange(-9.0, 13.0)
        _, ends, window = _windows(ts, 0.0)
        assert np.array_equal(ends[window], powers[np.searchsorted(powers, ts)])

    def test_contour_arrays_shared_read_only(self):
        # built once and handed to every grid, so no caller may write them
        pair = _hyperbola_path()
        hyperbola_grid(f_t, [1.0, 2.0])
        assert all(a is b for a, b in zip(_hyperbola_path(), pair))
        for a in pair:
            assert a.shape == (sum(N + 1 for N in HYPERBOLA_RULES),)
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            hyperbola_grid(f_t, [1.0, 0.0])
        for engine in (lambda ts, shift=0.0: hyperbola_grid(f_exp, ts, shift),
                       lambda ts, shift=0.0: hyperbola_nodes(ts, shift)):
            with pytest.raises(ValueError, match="^ts must be a positive finite"):
                engine([1.0, math.inf])
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"^shift must be finite, got {bad}"):
                    engine([1.0], shift=bad)

    def test_non_finite_transform_names_t(self):
        # of the two windows, only t = 2's has nodes with |d| < 2
        with pytest.raises(InversionError,
                           match=r"^transform is not finite on the hyperbolic contour \(t=2\.0\)"):
            hyperbola_grid(lambda d: np.where(abs(d) < 2.0, np.nan, 1.0), [1.0, 2.0])


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
        for bad in (math.nan, math.inf):
            for name in ("t", "U", "eps"):
                kwargs = {"t": 1.0, name: bad}
                with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad}"):
                    levin_invert(f_t, **kwargs)
        with pytest.raises(ValueError, match="^n must be an integer, got 8.5"):
            levin_invert(f_t, 1.0, n=8.5)

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


def test_import_leaves_mpmath_unloaded():
    # mpmath is the configurable-precision arithmetic of talbot_invert alone
    code = "import sys, tsruin; print('mpmath' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["_kernels", "laplace", "model", "ruin", "sim"])
def test_every_exported_name_resolves(module):
    # a name deleted from a module must not linger in its export list
    mod = importlib.import_module(f"tsruin.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_no_unused_module_import():
    # a name imported at module level is used in the module or exported by
    # its __all__; a line marked "# noqa: F401" imports for lookup elsewhere
    unused = []
    for path in sorted(Path(tsruin.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        exempt = {k for k, line in enumerate(source.splitlines(), 1) if "# noqa: F401" in line}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(node.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
                    for node in ast.walk(stmt.value) if isinstance(node, ast.Constant))
        for stmt in tree.body:
            if (isinstance(stmt, (ast.Import, ast.ImportFrom)) and stmt.lineno not in exempt
                    and not (isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__")):
                unused += [f"{path.name}:{stmt.lineno} {alias.name}" for alias in stmt.names
                           if alias.name != "*"
                           and (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def test_no_module_imports_logging():
    # a doubtful result raises; nothing is reported beside the result on a log
    imports = []
    for path in sorted(Path(tsruin.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] == "logging"]
    assert imports == []


def test_package_exports_every_module_export():
    # the package re-exports its public modules' names, and nothing else
    union = [name for module in ("laplace", "model", "ruin", "sim")
             for name in importlib.import_module(f"tsruin.{module}").__all__]
    assert [name for name in union if not hasattr(tsruin, name)] == []
    assert sorted(tsruin.__all__) == sorted(union)


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in deps] == ["numpy"]


def test_cli_import_loads_numpy_alone():
    # every CLI command pays for its imports before it does any work, so a
    # third-party package other than numpy must not load with the CLI
    code = ("import sys\nbefore = set(sys.modules)\nimport tsruin.cli\n"
            "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(*sorted(loaded - set(sys.stdlib_module_names) - {'tsruin', 'numpy'}))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.strip() == ""


def test_cli_import_loads_no_thread_pool():
    # only a plan with threads > 1 uses the pool, so importing it (and the
    # logging it loads) is left to that plan
    code = ("import sys\nimport tsruin.cli\n"
            "print(*[m for m in ('concurrent.futures', 'logging', 'queue', 'traceback')"
            " if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.strip() == ""
