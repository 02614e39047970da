import numpy as np
import pytest

from tsruin import BFunction, ClaimsModel, InversionSpec


@pytest.fixture(scope="session")
def paper_ref() -> ClaimsModel:
    """Reference model: c=0.01, alpha=1, rho=0.99, loading 0.2 (subcritical)."""
    return ClaimsModel.from_loading(0.01, 1.0, 0.99, 0.2)


@pytest.fixture(scope="session")
def ig_model() -> ClaimsModel:
    """Inverse Gaussian claims (rho=1/2) at loading 0.2 (supercritical)."""
    return ClaimsModel.from_loading(0.01, 1.0, 0.5, 0.2)


@pytest.fixture(scope="session")
def critical_model() -> ClaimsModel:
    """rho = 1/(1+xi) exactly: psi_X(alpha) = 0 to rounding."""
    return ClaimsModel.from_loading(0.01, 1.0, 1.0 / 1.2, 0.2)


@pytest.fixture(scope="session")
def bf_ref(paper_ref) -> BFunction:
    """Shared memoized B(t) evaluator (double-precision Talbot) for the reference model."""
    return BFunction(paper_ref, InversionSpec(engine="talbot"))


def assert_close(got, want, rel=0.0, abs_=0.0, msg=""):
    __tracebackhide__ = True
    tol = rel * abs(want) + abs_
    assert abs(got - want) <= tol, f"{msg}: got {got!r}, want {want!r} +- {tol:g}"


@pytest.fixture(scope="session")
def rng_factory():
    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make
