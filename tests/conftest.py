import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from tsruin import BFunction, ClaimsModel

# tests that run ``python -m tsruin`` in a subprocess import the package from
# this checkout, as pytest's ``pythonpath`` setting does in this process
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def load_perfbench(name: str):
    """The module ``perfbench/<name>.py``, loaded by file path (``perfbench``
    is not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# B, W and P(ruin ever) in mpmath, written independently of the package
Oracle = load_perfbench("oracle").Oracle

# fixture name -> (c, alpha, rho, xi), for ClaimsModel.from_loading and Oracle
MODELS = {
    # the reference model (subcritical)
    "paper_ref": (0.01, 1.0, 0.99, 0.2),
    # inverse Gaussian claims (rho=1/2) at loading 0.2 (supercritical)
    "ig_model": (0.01, 1.0, 0.5, 0.2),
    # rho = 1/(1+xi) exactly: psi_X(alpha) = 0 to rounding
    "critical_model": (0.01, 1.0, 1.0 / 1.2, 0.2),
    # B's Talbot nodes for t in [1000, 10000] come within |theta/alpha| ~ 1e-4
    # of 0, where psi_X cancels unless summed as a series
    "large_t_model": (5.0, 3.0, 0.95, 0.3),
}


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
def bf_ref(paper_ref) -> BFunction:
    """Shared memoized B(t) evaluator (double-precision Talbot) for the reference model."""
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
