"""Model-layer tests: cumulants, regime algebra, inverse cumulant, jump tails."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsruin import (
    ClaimsModel,
    RegimeTag,
    levy_tail,
    levy_tail_asymptotic,
    min_loading_for_subcritical,
    phi,
    premium_from_loading,
    rescale,
)
from tsruin import model as model_module
from tsruin.laplace import HYPERBOLA_RULES, hyperbola_nodes
from tsruin.model import (_TAIL_SERIES_MAX_X, PhiConvergenceError, _gamma_small, _power,
                          gamma_neg)

from conftest import MODELS, Oracle, assert_close

# gamma(-0.99) = gamma(0.01)/(-0.99) = -100.43695466580859 (30-digit mpmath
# oracle: -100.436954665808690619...), used by the frozen expectations below
GAMMA_NEG_099 = -100.43695466580859


# float.hex of psi_Y and psi_X at PSI_THETAS (real, or (real, imag) for a
# complex value; a theta given as a fraction of alpha is a float), and of
# psi_X(alpha), recorded before psi_Y, psi_X and psi_X(alpha) shared one
# evaluator
PSI_THETAS = (-100.0, -1.0, -1e-3, 1e-6, "0.5 alpha", -(1 + 2j), 1e-4j)
PSI_PINS = {
    "paper_ref": {
        "psi_y": ["-0x1.7f726289c22b4p+6", "-0x1.fb220d58fff67p-1", "-0x1.04a7beaaa2607p-10",
                  "0x1.0ae98d734d181p-20", "0x1.fea9105180295p-2",
                  ("-0x1.ff8fdb34932f1p-1", "-0x1.f8e7d47907386p+0"),
                  ("-0x1.b54f235cb58c0p-35", "0x1.a10cece10e36ap-14")],
        "psi_x": ["0x1.775180b23a498p+4", "0x1.9f1f8693601a4p-3", "0x1.a10f97f1f72dcp-13",
                  "-0x1.ab0f47e1891bap-23", "-0x1.91037ab15f4ecp-4",
                  ("0x1.8d684f251337cp-3", "0x1.a8086a1343128p-2"),
                  ("-0x1.b54f235cb58c0p-35", "-0x1.4da3f0b49c19cp-16")],
        "psi_alpha": "-0x1.82b4d5576a8d0p-3",
    },
    "ig_model": {
        "psi_y": ["-0x1.4882591207feep-2", "-0x1.e126076504e6ap-7", "-0x1.294b4a89c3c21p-16",
                  "0x1.30815d3ec4ca1p-26", "0x1.543930eb53435p-7",
                  ("-0x1.41a17180f089bp-6", "-0x1.75cc4cd889bcbp-6"),
                  ("-0x1.85c447ed96872p-35", "0x1.dbca19dc7dd00p-20")],
        "psi_x": ["0x1.ce5edb0f765b8p+0", "0x1.af9e09172a4f8p-8", "0x1.dc624718b30fdp-19",
                  "-0x1.e735321905d8dp-29", "-0x1.082aa19f387c0p-12",
                  ("0x1.ad914775c7d80p-10", "0x1.4328bf181051bp-6"),
                  ("-0x1.85c447ed96872p-35", "-0x1.7ca1ae79e3405p-22")],
        "psi_alpha": "0x1.d0a35d4b115eep-7",
    },
    "large_t_model": {
        "psi_y": ["-0x1.f90a19625e924p+12", "-0x1.6dd3022d7f2c7p+6", "-0x1.796e75c5dd250p-4",
                  "0x1.827e396e3f5b1p-14", "0x1.18baa9bc79261p+7",
                  ("-0x1.76897a974fdeap+6", "-0x1.6a95dba70c5fep+7"),
                  ("-0x1.07d88ed2e397dp-27", "0x1.2df29cb3ddc20p-7")],
        "psi_x": ["0x1.e74fd8e65b32cp+11", "0x1.c55cfbfc0dfb8p+4", "0x1.c4ef2379fecd9p-6",
                  "-0x1.cfcaaa381c911p-16", "-0x1.3a941c93a369cp+5",
                  ("0x1.a2831a54cb32cp+4", "0x1.d2519615d92dcp+5"),
                  ("-0x1.07d88ed2e397dp-27", "-0x1.6a5655a4e545fp-9")],
        "psi_alpha": "-0x1.11880e67243ecp+6",
    },
}


# float.hex of psi_Y and psi_X at paper_ref for complex and mpmath arguments,
# which are taken on the principal branch unchecked, the real part beyond
# alpha included; recorded before psi_Y and psi_X checked a real argument
COMPLEX_THETAS = (2 + 0j, 1 + 1j, -3 - 0.5j, 1e-3j)
COMPLEX_PINS = {
    "psi_y": [("0x1.010e1f783e4c2p+1", "-0x1.0270f8d2a98f2p-5"),
              ("0x1.fa28f0935526ep-1", "0x1.01163e054ae4ap+0"),
              ("-0x1.7aa32adc28342p+1", "-0x1.f612a52bdce21p-2"),
              ("-0x1.55a5cfe06eb6ap-28", "0x1.04a814055f37ep-10")],
    "psi_x": [("-0x1.8336c0356d930p-2", "-0x1.0270f8d2a98f2p-5"),
              ("-0x1.a303f9aa0b588p-3", "-0x1.82f5cbcd08cf0p-3"),
              ("0x1.3e312188e7268p-1", "0x1.b35d2747ec6bcp-4"),
              ("-0x1.55a5cfe06eb6ap-28", "-0x1.a10ced1c10727p-13")],
}
MPC_PINS = {"psi_y": (1.9814055769727794, 1.0241977174482901),
            "psi_x": (-0.40497646588683267, -0.16899330398151591)}


def _hex(z):
    z = complex(z)
    return (z.real.hex(), z.imag.hex()) if z.imag else z.real.hex()


class TestCumulants:
    def test_zero_is_zero(self, paper_ref, ig_model):
        assert paper_ref.psi_y(0.0) == 0.0
        assert paper_ref.psi_x(0.0) == 0.0
        assert ig_model.psi_y(0.0) == 0.0

    def test_reference_value_at_alpha(self, paper_ref):
        # -c*Gamma(-rho)*alpha^rho with the oracle constant above
        assert_close(paper_ref.psi_y(1.0), -0.01 * GAMMA_NEG_099, rel=1e-13,
                     msg="psi_Y(alpha)")

    def test_inverse_gaussian_closed_form(self, ig_model):
        # rho = 1/2: psi_Y(theta) = 2 c sqrt(pi) (sqrt(alpha) - sqrt(alpha-theta))
        c, a = ig_model.c, ig_model.alpha
        for theta in [-5.0, -1.0, 0.0, 0.3, 0.9, 1.0]:
            closed = 2 * c * math.sqrt(math.pi) * (math.sqrt(a) - math.sqrt(a - theta))
            assert_close(ig_model.psi_y(theta), closed, rel=1e-12, abs_=1e-15,
                         msg=f"psi_Y({theta})")

    def test_domain_error_beyond_alpha(self, paper_ref):
        # a real theta beyond alpha once gave a complex psi (a NaN for a numpy one)
        for psi in (paper_ref.psi_y, paper_ref.psi_x):
            for theta in (2.0, np.float64(2.0), np.array([0.5, 2.0]), 1.0 + 1e-9):
                with pytest.raises(ValueError, match=r"theta=2\.0 |theta=1\.000000001 "):
                    psi(theta)
            for theta in (math.nan, math.inf, -math.inf, np.array([[0.1], [math.nan]])):
                with pytest.raises(ValueError, match="theta must be finite"):
                    psi(theta)
            assert psi(paper_ref.alpha) == psi(np.array([paper_ref.alpha]))[0]

    def test_complex_and_mpmath_arguments_unchecked(self, paper_ref):
        for name in ("psi_y", "psi_x"):
            psi = getattr(paper_ref, name)
            assert [_hex(z) for z in psi(np.array(COMPLEX_THETAS))] == COMPLEX_PINS[name]
            got = psi(mpmath.mpc(2, 1))
            assert isinstance(got, mpmath.mpc) and complex(got) == complex(*MPC_PINS[name])

    def test_cumulant_x_reference(self, paper_ref):
        # psi_X(1) = psi_Y(1) - p, oracle chain through Gamma(-0.99)
        want = -0.01 * GAMMA_NEG_099 - paper_ref.p
        assert_close(paper_ref.psi_x(1.0), want, rel=1e-13, msg="psi_X(1)")
        assert_close(paper_ref.psi_x(1.0), -0.18882147477172007, rel=1e-12)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.85, 0.99])
    @pytest.mark.parametrize("xi", [0.05, 0.2, 1.0, 3.0])
    def test_sign_equivalence(self, rho, xi):
        # sign(psi_X(alpha)) < 0 iff p > E[Y_1]/rho
        m = ClaimsModel.from_loading(0.02, 1.3, rho, xi)
        assert (m.psi_alpha < 0) == (m.p > m.mean_claims / rho)

    def test_convexity_on_grid(self, paper_ref, ig_model):
        for m in (paper_ref, ig_model):
            thetas = np.linspace(-8.0, m.alpha - 0.05, 60)
            h = 1e-4
            for th in thetas:
                second = (m.psi_x(th + h) - 2 * m.psi_x(th) + m.psi_x(th - h)) / h**2
                assert second >= -1e-8, f"psi_X not convex at {th}"

    @pytest.mark.parametrize("name", ["paper_ref", "ig_model"])
    def test_psi_x_near_zero(self, name, request):
        # psi_Y(theta) - p theta cancels twice near 0 (1e-8 relative at
        # theta = 1e-8 in the direct form); the series form inside |theta| <
        # alpha/64 keeps psi_X to 1e-13 of a 40-digit value, and the direct
        # form just outside the window stays there too
        m = request.getfixturevalue(name)
        c, alpha, rho, _ = MODELS[name]
        thetas = [1e-8, -1e-8, 3e-5, -2e-3, 0.015, -0.0157, 0.0157, 0.05,
                  1e-6j, 1e-4 * (1 - 1j), 0.01j, -0.012 + 0.008j, 0.02j]
        scalars = [m.psi_x(th) for th in thetas]
        arrays = m.psi_x(np.array(thetas))
        with mpmath.workdps(40):
            k = -c * mpmath.gamma(-mpmath.mpf(rho))
            for th, s, a in zip(thetas, scalars, arrays):
                th = mpmath.mpmathify(th)
                want = k * (alpha ** rho - (alpha - th) ** rho) - mpmath.mpf(m.p) * th
                for got in (s, a):
                    assert abs(got - complex(want)) <= 1e-13 * abs(want), f"psi_X({th})"

    @pytest.mark.parametrize("name", ["paper_ref", "ig_model"])
    def test_cumulant_y_near_zero(self, name, request):
        # k (a^rho - (a - theta)^rho) cancels near 0 (4.2e-9 relative at
        # theta = 1e-8 for paper_ref); inside |theta| < alpha/64 psi_Y is
        # summed as theta (E[Y_1] - theta Q(-theta)), and 1/65 is just inside
        m = request.getfixturevalue(name)
        c, alpha, rho, _ = MODELS[name]
        with mpmath.workdps(40):
            k = -c * mpmath.gamma(-mpmath.mpf(rho))
            a, r = mpmath.mpf(alpha), mpmath.mpf(rho)
            for th in (1e-8, 1e-6, 1e-3, 1 / 65):
                for theta in (th, -th):
                    want = float(k * (a ** r - (a - mpmath.mpf(theta)) ** r))
                    got = m.psi_y(theta)
                    assert abs(got - want) <= 1e-13 * abs(want), f"psi_Y({theta})"

    @pytest.mark.parametrize("name", list(PSI_PINS))
    def test_psi_bits_pinned(self, name):
        m = ClaimsModel.from_loading(*MODELS[name])
        thetas = [0.5 * m.alpha if th == "0.5 alpha" else th for th in PSI_THETAS]
        pins = PSI_PINS[name]
        assert [_hex(m.psi_y(th)) for th in thetas] == pins["psi_y"]
        assert [_hex(m.psi_x(th)) for th in thetas] == pins["psi_x"]
        assert type(m.psi_alpha) is float and m.psi_alpha.hex() == pins["psi_alpha"]


class TestMeans:
    def test_reference_mean(self, paper_ref):
        assert_close(paper_ref.mean_claims, 0.9943258511915051, rel=1e-13)
        # expected aggregate claims over two time units, published as 1.9886
        assert_close(2 * paper_ref.mean_claims, 1.9886, rel=1e-4)

    def test_inverse_gaussian_mean(self):
        m = ClaimsModel.from_loading(0.7, 2.3, 0.5, 0.4)
        assert_close(m.mean_claims, 0.7 * math.sqrt(math.pi / 2.3), rel=1e-12)
        unit = ClaimsModel.from_loading(1.0, math.pi, 0.5, 0.2)
        assert_close(unit.mean_claims, 1.0, rel=1e-12)

    @pytest.mark.parametrize("name", list(MODELS))
    def test_variance(self, name):
        # Var[X_1] = psi_X''(0) is -2 Q(0) to the bit, and mpmath's second
        # derivative of the oracle's psi_X at 0 (p drops out of it)
        m = ClaimsModel.from_loading(*MODELS[name])
        assert m.variance == -2.0 * m._q(np.zeros(1))[0]
        oracle = Oracle(*MODELS[name])
        with mpmath.workdps(30):
            oracle._setup()
            want = mpmath.diff(oracle.psi, 0, 2)
        assert_close(m.variance, float(want), rel=1e-13)


class TestRequireReportable:
    def test_scalar_is_one_entry(self):
        # a 0-d value is checked as a one-entry vector and named on its axis
        for bad in (1e-310, 0.0, math.nan, math.inf, np.float64(1e-310), np.array(0.0)):
            with pytest.raises(FloatingPointError, match=r"^x at u=1\.0 is "):
                model_module._require_reportable("x", bad, u=[1.0])
        with pytest.raises(FloatingPointError, match=r"^P at u=2\.0 is 1\.5.*normal double <= 1$"):
            model_module._require_reportable("P", 1.5, 1.0, u=[2.0])
        assert model_module._require_reportable("x", 2.0, u=[1.0]) == 2.0


class TestGamma:
    """The cephes Gamma port behind gamma_neg, which sets every Monte Carlo byte."""

    def test_port_matches_scipy_bitwise(self):
        from scipy.special import gamma as scipy_gamma

        xs = np.random.default_rng(20261018).random(20000)
        xs = np.r_[xs[xs > 0.0], 1e-12, 1e-9, math.nextafter(1.0, 0.0), 0.5]
        got = np.array([_gamma_small(float(x)) for x in xs])
        differ = np.flatnonzero(got != scipy_gamma(xs))
        assert not differ.size, f"{differ.size} points differ, first at x={xs[differ[0]]!r}"
        for _, _, rho, _ in MODELS.values():
            assert gamma_neg(rho) == scipy_gamma(1.0 - rho) / (-rho), f"rho={rho}"

    def test_port_against_mpmath(self):
        # the port is scipy's algorithm, so it carries scipy's error: up to
        # 3.7 ulp measured on 40,000 points of (0, 1), the arguments
        # gamma_neg uses, where a correctly rounded Gamma is within 0.5 ulp
        xs = np.random.default_rng(7).random(2000)
        xs = np.r_[xs[xs > 0.0], 1e-12, math.nextafter(1.0, 0.0)]
        with mpmath.workdps(30):
            for x in map(float, xs):
                want = mpmath.gamma(mpmath.mpf(x))
                err = float(abs(_gamma_small(x) - want)) / math.ulp(float(want))
                assert err <= 4.0, f"Gamma({x!r}) is {err:.2f} ulp off"


class TestPremium:
    def test_arithmetic(self):
        assert_close(premium_from_loading(0.99433, 0.2), 1.193196, rel=1e-9)
        assert premium_from_loading(2.0, 0.5) == 3.0

    def test_zero_loading_rejected(self):
        with pytest.raises(ValueError):
            premium_from_loading(1.0, 0.0)
        with pytest.raises(ValueError):
            premium_from_loading(1.0, -0.1)

    def test_net_profit_enforced(self):
        mean = -0.01 * 0.99 * GAMMA_NEG_099
        with pytest.raises(ValueError):
            ClaimsModel(c=0.01, alpha=1.0, rho=0.99, p=mean)  # p == E[Y_1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # NaN fails no ordered comparison, so each parameter is checked by name
        for name in ("c", "alpha", "rho", "p"):
            params = {"c": 1.0, "alpha": 1.0, "rho": 0.5, "p": 10.0, name: bad}
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                ClaimsModel(**params)
        for name in ("c", "alpha", "rho", "xi"):
            params = {"c": 1.0, "alpha": 1.0, "rho": 0.5, "xi": 0.2, name: bad}
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                ClaimsModel.from_loading(**params)
        with pytest.raises(ValueError, match="^mean_claims must be finite"):
            premium_from_loading(bad, 0.2)
        with pytest.raises(ValueError, match="^xi must be finite"):
            premium_from_loading(1.0, bad)
        m = ClaimsModel(c=1.0, alpha=1.0, rho=0.5, p=10.0)
        with pytest.raises(ValueError, match="^a must be finite"):
            rescale(m, bad, 1.0)
        with pytest.raises(ValueError, match="^b must be finite"):
            rescale(m, 1.0, bad)

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            ClaimsModel(c=-1.0, alpha=1.0, rho=0.5, p=10.0)
        with pytest.raises(ValueError):
            ClaimsModel(c=1.0, alpha=0.0, rho=0.5, p=10.0)
        with pytest.raises(ValueError):
            ClaimsModel(c=1.0, alpha=1.0, rho=1.2, p=10.0)


class TestRegime:
    def test_reference_cases(self, paper_ref, ig_model, critical_model):
        assert paper_ref.regime is RegimeTag.SUBCRITICAL
        assert ig_model.regime is RegimeTag.SUPERCRITICAL
        assert critical_model.regime is RegimeTag.CRITICAL

    def test_default_tolerance_classified_once(self):
        m = ClaimsModel.from_loading(0.01, 1.0, 0.99, 0.2)
        assert "regime" not in vars(m)
        assert m.regime is RegimeTag.SUBCRITICAL and "regime" in vars(m)

    @given(rho=st.floats(0.2, 0.98), xi=st.floats(0.02, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_loading_boundary(self, rho, xi):
        threshold = (1.0 - rho) / rho
        if abs(xi - threshold) / threshold < 1e-6:
            return  # numerically on the boundary: classification is tolerance-bound
        m = ClaimsModel.from_loading(0.05, 2.0, rho, xi)
        tag = m.regime
        if xi > threshold:
            assert tag is RegimeTag.SUBCRITICAL
        else:
            assert tag is RegimeTag.SUPERCRITICAL

    def test_min_loading(self):
        assert min_loading_for_subcritical(0.5) == 1.0
        assert_close(min_loading_for_subcritical(5.0 / 6.0), 0.2, rel=1e-12)
        assert min_loading_for_subcritical(0.999999) < 2e-6
        with pytest.raises(ValueError):
            min_loading_for_subcritical(1.0)
        with pytest.raises(ValueError):
            min_loading_for_subcritical(0.0)


def _phi_ig_closed_form(m: ClaimsModel, delta):
    """rho = 1/2 inverse cumulant in closed form (principal square roots)."""
    c, a, p = m.c, m.alpha, m.p
    sq = np.sqrt((np.sqrt(a) * p - np.sqrt(np.pi) * c) ** 2 + delta * p + 0j)
    num = 2 * np.pi * c**2 + 2 * np.sqrt(np.pi) * c * (sq - np.sqrt(a) * p) + delta * p
    return num / (-(p**2))


# real delta from 0 to 1e6, each a Halley climb from its Pade seed
REAL_DELTAS = [0.0, 1e-12, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e2, 1e4, 1e6]


def _oracle_with_drift_of(m, params):
    """``Oracle(*params)`` at the working precision, given the package's
    E[X_1]: E[Y_1] - p keeps only ~1e-16/xi of its digits in double
    precision, so with its own premium the oracle's roots would differ from
    the package's by that rounding of the model, not by the solve."""
    oracle = Oracle(*params)
    oracle._setup()
    oracle.p = oracle.C * oracle.r * oracle.a ** (oracle.r - 1) - mpmath.mpf(m.drift_mean)
    return oracle


class TestPhi:
    def test_at_zero(self, paper_ref):
        assert phi(paper_ref, 0.0) == 0.0

    @pytest.mark.parametrize("params", [
        MODELS["paper_ref"], MODELS["critical_model"], MODELS["ig_model"],
        MODELS["large_t_model"], (1.0, 2.0, 0.05, 0.1),
    ], ids=["paper_ref", "critical_model", "ig_model", "large_t_model", "rho_0.05"])
    def test_real_column_against_oracle(self, params):
        m = ClaimsModel.from_loading(*params)
        roots = phi(m, np.array(REAL_DELTAS))
        assert phi(m, 0.0) == 0.0 and roots[0] == 0.0
        oracle = Oracle(*params)
        with mpmath.workdps(40):
            oracle._setup()
            want = [float(oracle._phi_real(mpmath.mpf(d))) for d in REAL_DELTAS[1:]]
        for delta, got, w in zip(REAL_DELTAS[1:], roots[1:], want):
            assert_close(got, w, rel=1e-13, msg=f"phi({delta})")
        # on the decreasing branch: psi_X'(root) < 0
        slope = m.tilt_coefficient * m.rho * (m.alpha - roots) ** (m.rho - 1.0) - m.p
        assert np.all(slope < 0.0)

    def test_gate_scaled_by_the_cumulant_terms(self):
        # k alpha^rho = 2.3e5: psi_X's direct form rounds at ~5e-11, above an
        # absolute 1e-12 gate, which 44 of these deltas never met
        params = (92.38, 72.97, 0.9733, 3.56e-7)
        m = ClaimsModel.from_loading(*params)
        deltas = np.geomspace(1e-3, 1e3, 2001)
        roots = phi(m, deltas)
        with mpmath.workdps(40):
            oracle = _oracle_with_drift_of(m, params)
            want = [float(oracle._phi_real(mpmath.mpf(d))) for d in deltas[::100]]
        for delta, got, w in zip(deltas[::100], roots[::100], want):
            assert_close(got, w, rel=1e-10, msg=f"phi({delta})")

    @pytest.mark.parametrize("params", [(1.0, 2.0, 0.05, 1e-6), (0.01, 1.0, 0.5, 1e-6)],
                             ids=["rho_0.05", "rho_0.5"])
    def test_near_critical_below_the_gate(self, params):
        # at delta = 1e-12 on near-critical drift the absolute residual gate
        # is met by a root still 2-3% off; only a small last step stops the iteration
        m = ClaimsModel.from_loading(*params)
        deltas = [1e-12, 1e-10, 1e-6]
        roots = phi(m, np.array(deltas))
        with mpmath.workdps(40):
            oracle = _oracle_with_drift_of(m, params)
            want = [float(oracle._phi_real(mpmath.mpf(d))) for d in deltas]
        for delta, got, w in zip(deltas, roots, want):
            assert_close(got, w, rel=1e-13, msg=f"phi({delta})")

    @pytest.mark.parametrize("params", [*MODELS.values(), (1.0, 2.0, 0.05, 0.1),
                                        (0.01, 1.0, 0.99, 1e-9), (3.0, 0.01, 0.3, 10.0)],
                             ids=[*MODELS, "rho_0.05", "xi_1e-9", "alpha_0.01"])
    def test_real_seed_left_of_root(self, params):
        # the Pade seed of a real delta lies left of its root, or within
        # rounding of it at small delta, where it is exact to 1 ulp
        m = ClaimsModel.from_loading(*params)
        deltas = np.geomspace(1e-14, 1e7, 200)
        roots = phi(m, deltas)
        assert np.all(model_module._phi_seed(m, deltas) <= roots * (1.0 - 4e-16))

    def test_against_brentq_oracle(self, paper_ref):
        from scipy.optimize import brentq

        root = brentq(lambda b: paper_ref.psi_x(b) - 1.0, -50.0, -1e-12, xtol=1e-13)
        assert_close(phi(paper_ref, 1.0), root, rel=1e-10, msg="phi(1)")

    def test_residual_on_log_grid(self, paper_ref, ig_model):
        for m in (paper_ref, ig_model):
            for delta in np.logspace(-6, 3, 25):
                root = phi(m, float(delta))
                resid = abs(m.psi_x(root) - delta)
                assert resid <= 1e-12 * max(1.0, delta)

    def test_closed_form_inverse_gaussian(self, ig_model):
        for delta in np.linspace(0.0, 100.0, 21):
            closed = _phi_ig_closed_form(ig_model, delta).real
            assert_close(phi(ig_model, float(delta)), closed, rel=1e-10, abs_=1e-14,
                         msg=f"phi({delta})")

    def test_closed_form_complex(self, ig_model):
        for delta in [1.0 + 2.0j, 0.3 - 5.0j, -0.2 + 1.0j, 10.0 + 40.0j]:
            closed = _phi_ig_closed_form(ig_model, delta)
            got = phi(ig_model, delta)
            assert abs(got - closed) <= 1e-9 * max(1.0, abs(closed))

    def test_conjugate_symmetry(self, paper_ref):
        for delta in [0.5 + 1.0j, 2.0 + 8.0j]:
            assert abs(phi(paper_ref, np.conj(delta)) - np.conj(phi(paper_ref, delta))) < 1e-12

    def test_negative_real_rejected(self, paper_ref):
        with pytest.raises(ValueError):
            phi(paper_ref, -1.0)
        with pytest.raises(ValueError):
            phi(paper_ref, np.array([1.0, -1e-300]))

    @pytest.mark.parametrize("delta", [math.nan, math.inf, complex(math.nan, 1.0),
                                       np.array([1.0, math.inf])])
    def test_non_finite_rejected(self, paper_ref, delta):
        # NaN used to spin the Newton loop to its cap
        with pytest.raises(ValueError, match="delta must be finite"):
            phi(paper_ref, delta)

    def test_types_and_shapes(self, paper_ref):
        assert type(phi(paper_ref, 2.5)) is float
        assert type(phi(paper_ref, 1.0 + 3.0j)) is complex
        assert phi(paper_ref, 0.0) == 0.0 and phi(paper_ref, 0) == 0.0
        grid = np.array([[0.0, 1.0, 2.5], [4.0, 8.0, 16.0]])
        roots = phi(paper_ref, grid)
        assert roots.shape == grid.shape and roots.dtype == float
        assert roots[0, 2] == phi(paper_ref, 2.5)
        line = 0.5 + 1j * np.linspace(0.0, 30.0, 7)
        croots = phi(paper_ref, line)
        assert croots.shape == line.shape and croots.dtype == complex
        assert croots[3] == phi(paper_ref, complex(line[3]))

    def test_residual_along_bromwich_line(self, paper_ref):
        # the Levin engine's nodes eps + iu, far out in u
        line = 0.01 + 1j * np.linspace(0.0, 5000.0, 20001)
        resid = np.abs(paper_ref.psi_x(phi(paper_ref, line)) - line)
        assert np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(line)))

    def test_continuation_cache(self, paper_ref):
        # one contour row solved at once stays on one branch along it, and
        # each root is bitwise the one its node gets alone
        line = 0.5 + 1j * np.linspace(0.0, 30.0, 40)
        roots = phi(paper_ref, line[None, :])[0]
        resid = np.abs(paper_ref.psi_x(roots) - line)
        assert np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(line)))
        jumps = np.abs(np.diff(roots))
        assert jumps.max() < 5.0  # continuous branch, no jumps to the other root
        assert roots.tolist() == [phi(paper_ref, complex(d)) for d in line]


def _continued(m, row):
    """Phi_X along one contour row in complex Python scalars, node by node:
    Newton from the root at the node before it, the first node's root being
    phi's real root.  The continuation that the one-shot solve must match."""
    roots = [complex(phi(m, row[0].real))]
    for d in row[1:]:
        beta = roots[-1]
        for _ in range(60):
            slope = m.tilt_coefficient * m.rho * (m.alpha - beta) ** (m.rho - 1.0) - m.p
            step = (m.psi_x(beta) - d) / slope
            beta -= step
            if abs(step) <= 1e-15 * abs(beta):
                break
        roots.append(beta)
    return np.array(roots)


def _rule_rows(deltas):
    """``hyperbola_nodes``' array split into one array per rule, whose rows
    run in contour order from the real node."""
    return np.split(deltas, [next(iter(HYPERBOLA_RULES)) + 1], axis=1)


class TestPhiContour:
    def test_matches_scalar_continuation(self, paper_ref, ig_model):
        # the whole contour at once versus continued node by node along each row
        for m in (paper_ref, ig_model):
            deltas = hyperbola_nodes([0.01, 1.0, 50.0], shift=max(0.0, m.psi_alpha))
            roots = phi(m, deltas)
            for rows, got_rows in zip(_rule_rows(deltas), _rule_rows(roots)):
                for row, got in zip(rows, got_rows):
                    want = _continued(m, row)
                    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

    def test_closed_form_inverse_gaussian(self, ig_model):
        deltas = hyperbola_nodes([1e-3, 0.5, 20.0, 900.0], shift=ig_model.psi_alpha)
        roots = phi(ig_model, deltas)
        closed = _phi_ig_closed_form(ig_model, deltas)
        assert np.all(np.abs(roots - closed) <= 1e-9 * np.maximum(1.0, np.abs(closed)))
        resid = np.abs(ig_model.psi_x(roots) - deltas)
        assert np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(deltas)))

    def test_concatenation_equals_each_part_alone(self, paper_ref, ig_model):
        # the iteration acts elementwise: the nodes of two contour arrays
        # solved in one call get bitwise the roots each array gets alone
        for m in (paper_ref, ig_model):
            shift = max(0.0, m.psi_alpha)
            narrow = hyperbola_nodes([0.05, 3.0, 700.0], shift)
            wide = hyperbola_nodes([0.01, 0.5, 9.0, 120.0, 1000.0, 9000.0], shift)
            both = phi(m, np.concatenate([narrow.ravel(), wide.ravel()]))
            assert both.tobytes() == phi(m, narrow).tobytes() + phi(m, wide).tobytes()

    @pytest.mark.parametrize("xi", [1e-9, 1e-12, 1e-6])
    def test_near_critical_contours(self, xi, monkeypatch):
        # E[X_1] ~ -xi E[Y_1]: the tangent's root delta / E[X_1] lies far
        # left of a node's root, and every node of both rules' contours on the
        # 40-point B grid must still meet the residual gate, on the branch
        # continued from the real axis, within the 4 passes of the
        # benchmark's models (from the tangent's root: 10, 13 and 15 at
        # xi = 1e-6, 1e-9 and 1e-12)
        m = ClaimsModel.from_loading(0.01, 1.0, 0.99, xi)
        shift = max(0.0, m.psi_alpha)
        deltas = hyperbola_nodes(np.linspace(0.5, 200.0, 40), shift)
        calls, psi = [], ClaimsModel._psi

        def counted(self, theta, p):
            calls.append(np.size(theta))
            return psi(self, theta, p)

        monkeypatch.setattr(ClaimsModel, "_psi", counted)
        roots = phi(m, deltas)
        monkeypatch.undo()
        assert len(calls) <= 4 and calls[0] == deltas.size
        resid = np.abs(m.psi_x(roots) - deltas)
        assert np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(deltas)))
        for rows, got_rows in zip(_rule_rows(deltas), _rule_rows(roots)):
            for row, got in zip(rows, got_rows):
                want = _continued(m, row)
                assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

    @given(rho=st.floats(0.05, 0.95), log_alpha=st.floats(-1.0, 1.0),
           log_c=st.floats(-2.0, 1.0), frac=st.floats(0.0, 1.0),
           loading=st.sampled_from(["subcritical", "critical", "supercritical", "tiny"]))
    @settings(max_examples=8, deadline=None)
    def test_roots_against_oracle_continuation(self, rho, log_alpha, log_c, frac, loading):
        # both rules' nodes of B on t in [0.05, 1e4], in all
        # three regimes and at a loading near 0 (E[X_1] near 0), against the
        # oracle's 30-digit Newton continued along each contour row from its
        # real root
        threshold = min_loading_for_subcritical(rho)
        xi = {"subcritical": threshold * (1.5 + 2.5 * frac), "critical": threshold,
              "supercritical": threshold * (0.2 + 0.5 * frac), "tiny": 10.0 ** (-6.0 + 3.0 * frac)
              }[loading]
        params = (10.0 ** log_c, 10.0 ** log_alpha, rho, xi)
        m = ClaimsModel.from_loading(*params)
        ts = np.geomspace(0.05, 1e4, 6)
        deltas = hyperbola_nodes(ts, max(0.0, m.psi_alpha))
        with mpmath.workdps(30):
            oracle = _oracle_with_drift_of(m, params)
            for rows in _rule_rows(deltas):
                for row, got in zip(rows, phi(m, rows)):
                    want = [oracle._phi_real(mpmath.mpf(row[0].real))]
                    for d in row[1:]:
                        want.append(oracle._newton(mpmath.mpc(d), want[-1]))
                    want = np.array([complex(w) for w in want])
                    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), params

    def test_newton_cap_raises(self, paper_ref, monkeypatch):
        monkeypatch.setattr(model_module, "_PHI_MAXIT", 1)
        with pytest.raises(PhiConvergenceError, match="unconverged"):
            phi(paper_ref, hyperbola_nodes([1.0, 10.0]))


class TestComplexPower:
    @pytest.mark.parametrize("r", [0.99, 0.83, 0.5, 0.05])
    def test_principal_power_against_mpmath(self, r):
        # |z| in [1e-8, 1e8] at 63 angles in (-pi, pi), every quadrant, and
        # on the real axis: exactly real on the positive half, and arg z =
        # +pi or -pi on the negative half by the sign of the zero imaginary
        # part (measured worst: 3.5e-16 relative; numpy's ** 2.9e-15)
        mods = np.geomspace(1e-8, 1e8, 17)
        angles = np.linspace(-np.pi, np.pi, 65)[1:-1]
        z = (mods[:, None] * np.exp(1j * angles)).ravel()
        got = _power(z, r)
        with mpmath.workdps(40):
            want = np.array([complex(mpmath.mpc(w) ** mpmath.mpf(r)) for w in z])
            above = np.array([complex(mpmath.mpc(-x) ** mpmath.mpf(r)) for x in mods])
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
        positive = _power(mods + 0j, r)
        assert np.all(positive.imag == 0.0) and positive.real.tolist() == (mods ** r).tolist()
        for neg, expect in [(-mods + 0j, above), (np.conj(-mods + 0j), np.conj(above))]:
            assert np.all(np.abs(_power(neg, r) - expect) <= 1e-15 * np.abs(expect))


class TestLevyTail:
    def test_incomplete_gamma_identity(self):
        # oracle: c * alpha^rho * Gamma(-rho, alpha*u) via mpmath
        for rho in [0.99, 0.5, 1.0 / 1.2]:
            m = ClaimsModel.from_loading(0.01, 1.0, rho, 0.2)
            for u in [0.05, 0.3, 1.0, 5.0, 8.0, 20.0, 30.0, 40.0]:
                with mpmath.workdps(30):
                    oracle = float(
                        m.c * mpmath.mpf(m.alpha) ** m.rho
                        * mpmath.gammainc(-mpmath.mpf(m.rho), m.alpha * u)
                    )
                assert_close(levy_tail(m, u), oracle, rel=1e-10, msg=f"tail({u}), rho={rho}")

    def test_incomplete_gamma_wide_grid(self):
        # x = alpha u from 1e-4 to 600, both sides of the switch from the
        # power series to the continued fraction
        s = _TAIL_SERIES_MAX_X
        xs = np.r_[np.geomspace(1e-4, 600.0, 40), 0.99 * s, s, math.nextafter(s, 2.0 * s),
                   1.01 * s]
        for rho in (0.05, 0.5, 0.95, 0.99):
            m = ClaimsModel.from_loading(0.01, 2.0, rho, 0.2)
            for x in map(float, xs):
                with mpmath.workdps(30):
                    oracle = float(m.c * mpmath.mpf(m.alpha) ** m.rho
                                   * mpmath.gammainc(-mpmath.mpf(m.rho), mpmath.mpf(x)))
                assert_close(levy_tail(m, x / m.alpha), oracle, rel=1e-12,
                             msg=f"tail at x={x!r}, rho={rho}")

    def test_asymptotic_agreement(self, paper_ref):
        # the relative gap is (1+rho)/(alpha u) to first order, so 5%
        # requires alpha*u >= 20*(1+rho) (about 40 here); check that bound
        # at each point and the 5% level where it is actually attained
        gaps = {}
        for u in [20.0, 40.0, 50.0, 80.0]:
            ratio = levy_tail_asymptotic(paper_ref, u) / levy_tail(paper_ref, u)
            gaps[u] = abs(ratio - 1.0)
            assert gaps[u] < 1.2 * (1.0 + paper_ref.rho) / (paper_ref.alpha * u)
        assert gaps[50.0] < 0.05
        assert gaps[80.0] < gaps[50.0] < gaps[40.0] < gaps[20.0]  # ratio -> 1

    def test_asymptotic_value(self):
        m = ClaimsModel.from_loading(0.01, 1.0, 0.99, 0.2)
        assert_close(levy_tail_asymptotic(m, 1.0), 0.01 * math.exp(-1.0), rel=1e-12)

    def test_monotone(self, paper_ref):
        us = np.linspace(0.1, 10.0, 15)
        vals = [levy_tail(paper_ref, float(u)) for u in us]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self, paper_ref):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                levy_tail(paper_ref, bad)
            with pytest.raises(ValueError):
                levy_tail_asymptotic(paper_ref, bad)
        for bad in (math.nan, math.inf):
            for tail in (levy_tail, levy_tail_asymptotic):
                with pytest.raises(ValueError, match="u must be finite"):
                    tail(paper_ref, bad)
        # a positive tail past alpha u ~ 690 is subnormal (691) or 0.0 (745, 800)
        for u in (691.0, 745.0, 800.0):
            with pytest.raises(FloatingPointError,
                               match=rf"^Levy tail at u={u} is .*not a positive normal double"):
                levy_tail(paper_ref, u)
        with pytest.raises(FloatingPointError,
                           match=r"^asymptotic Levy tail at u=745\.0 is 0\.000000e\+00, not a"):
            levy_tail_asymptotic(paper_ref, 745.0)

    def test_unconverged_fraction_raises(self, paper_ref, monkeypatch):
        # alpha u = 2 is past the series, where the fraction takes ~40 terms
        monkeypatch.setattr(model_module, "_TAIL_CF_TERMS", 2)
        with pytest.raises(ArithmeticError, match="continued fraction unconverged after 2 terms"):
            levy_tail(paper_ref, 2.0)


class TestRescale:
    def test_identity(self, paper_ref):
        same = rescale(paper_ref, 1.0, 1.0)
        assert_close(same.c, paper_ref.c, rel=1e-14)
        assert_close(same.alpha, paper_ref.alpha, rel=1e-14)
        assert_close(same.p, paper_ref.p, rel=1e-14)

    def test_units_change(self, paper_ref):
        scaled = rescale(paper_ref, a=2.0, b=0.5)
        assert_close(scaled.c, 0.01 * 2.0 * 0.5**0.99, rel=1e-13)
        assert_close(scaled.alpha, 2.0, rel=1e-14)
        assert_close(scaled.loading, paper_ref.loading, rel=1e-10)

    @given(a=st.floats(0.2, 5.0), b=st.floats(0.2, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_mean_transforms(self, a, b):
        m = ClaimsModel.from_loading(0.01, 1.0, 0.99, 0.2)
        scaled = rescale(m, a, b)
        assert_close(scaled.mean_claims, a * b * m.mean_claims, rel=1e-11)

    @given(a=st.floats(0.25, 4.0), b=st.floats(0.25, 4.0), u=st.floats(0.2, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_tail_consistency(self, a, b, u):
        m = ClaimsModel.from_loading(0.01, 1.0, 0.99, 0.2)
        scaled = rescale(m, a, b)
        assert_close(levy_tail(scaled, u), a * levy_tail(m, u / b), rel=1e-9,
                     msg=f"tail rescale a={a} b={b} u={u}")

    def test_scale_change_domain(self, paper_ref):
        for a, b, message in [(0.0, 1.0, "a must be positive, got 0.0"),
                              (-1.0, 1.0, "a must be positive, got -1.0"),
                              (1.0, 0.0, "b must be positive, got 0.0"),
                              (1.0, -2.0, "b must be positive, got -2.0")]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                rescale(paper_ref, a, b)
