import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from tsruin import BFunction, ClaimsModel

# tests that run ``python -m tsruin`` in a subprocess import the package from
# this checkout, as pytest's ``pythonpath`` setting does in this process
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def load_perfbench(name: str):
    """The module ``perfbench/<name>.py``, loaded by file path (``perfbench``
    is not a package) and registered in ``sys.modules``, where its
    dataclasses look themselves up."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# whether numpy runs its AVX-512 (``X86_V4``) loops, as on the host the pins
# were first taken on; ``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL
# X86_V4"`` turns them off.  With them, numpy's float64 ``**``, ``exp``, ``log``
# and ``arctan2`` differ from glibc's in the last bit on some inputs
X86_V4 = bool(__cpu_features__.get("X86_V4"))


def dispatch_pins(x86_v4, baseline):
    """The ``float.hex`` pins of the running numpy dispatch: ``x86_v4`` where
    its AVX-512 loops are on, ``baseline`` where they are off.  A pin that
    both dispatches give alike is written once, outside this choice."""
    return x86_v4 if X86_V4 else baseline


def pytest_report_header(config):
    """numpy's version and whether its AVX-512 (``X86_V4``) loops are on."""
    return f"numpy {np.__version__}, X86_V4 dispatch {'on' if X86_V4 else 'off'}"


# B, W and P(ruin ever) in mpmath, written independently of the package
Oracle = load_perfbench("oracle").Oracle


def oracle_refs() -> dict:
    """``perfbench/refs/oracle.json``: 64-digit B and P(ruin ever) on every
    grid variant of the deterministic benchmark workloads, keyed by
    workload, variant and command label (the grids are those of
    ``load_perfbench("workloads").commands``)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "oracle.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)

# fixture name -> (c, alpha, rho, xi), for ClaimsModel.from_loading and Oracle
MODELS = {
    # the reference model (subcritical)
    "paper_ref": (0.01, 1.0, 0.99, 0.2),
    # inverse Gaussian claims (rho=1/2) at loading 0.2 (supercritical)
    "ig_model": (0.01, 1.0, 0.5, 0.2),
    # rho = 1/(1+xi) exactly: psi_X(alpha) = 0 to rounding
    "critical_model": (0.01, 1.0, 1.0 / 1.2, 0.2),
    # B's contour nodes for t in [1000, 10000] come within |delta/alpha| ~ 1e-4
    # of 0, where psi_X cancels unless summed as a series
    "large_t_model": (5.0, 3.0, 0.95, 0.3),
}


def _lundberg_bound(m: ClaimsModel, u, t) -> np.ndarray:
    """The finite-horizon Lundberg bound on P(tau_u <= t) at every cell of
    ``u`` and ``t`` (scalars or vectors), as a (len(u), len(t)) array: the
    minimum over theta in [0, alpha] of exp(-theta u + t max(0, psi_X(theta))).
    exp(theta X_t - psi_X(theta) t) is a mean-one martingale, and optional
    stopping at tau_u ^ t bounds P(tau_u <= t) by each theta's term (Gerber
    1973; Asmussen & Albrecher 2010, ch. V).  The minimum is taken over 4001
    equispaced theta, so it is itself a bound; t = inf bounds P(ruin ever)."""
    theta = np.linspace(0.0, m.alpha, 4001)
    growth = np.maximum(0.0, m.psi_x(theta))
    us, ts = np.atleast_1d(u), np.atleast_1d(t)
    # t * 0 is 0 at t = inf: theta where psi_X <= 0 adds no growth
    exponent = np.multiply(ts[:, None], growth, out=np.zeros((ts.size, theta.size)),
                           where=growth > 0.0)
    return np.exp(np.array([np.min(exponent - theta * x, axis=1) for x in us]))


@pytest.fixture(scope="session")
def paper_ref() -> ClaimsModel:
    return ClaimsModel.from_loading(*MODELS["paper_ref"])


@pytest.fixture(scope="session")
def ig_model() -> ClaimsModel:
    return ClaimsModel.from_loading(*MODELS["ig_model"])


@pytest.fixture(scope="session")
def critical_model() -> ClaimsModel:
    return ClaimsModel.from_loading(*MODELS["critical_model"])


@pytest.fixture(scope="session")
def near_critical_model() -> ClaimsModel:
    """Loading 1e-9: E[X_1] = -1e-9 E[Y_1], so the root delta / E[X_1] of
    the tangent of psi_X at 0 lies ~1e9 times too far left.  Not in
    ``MODELS``: the oracle's premium differs from this model's by its
    rounding, ~1e-7 relative in E[X_1]."""
    return ClaimsModel.from_loading(0.01, 1.0, 0.99, 1e-9)


@pytest.fixture(scope="session")
def bf_ref(paper_ref) -> BFunction:
    """Shared B(t) evaluator (double-precision inversion) for the reference model."""
    return BFunction(paper_ref)


def assert_close(got, want, rel=0.0, abs_=0.0, msg=""):
    __tracebackhide__ = True
    tol = rel * abs(want) + abs_
    assert abs(got - want) <= tol, f"{msg}: got {got!r}, want {want!r} +- {tol:g}"


@pytest.fixture(scope="session")
def rng_factory():
    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make
