"""Estimator tests: the ruin-time profile B, the scale function, eventual
ruin, the two finite-time estimates, and growth diagnostics."""
import math

import numpy as np
import pytest

from tsruin import (
    BFunction,
    ClaimsModel,
    InversionError,
    RegimeError,
    ScaleChange,
    b_infinity,
    b_tilde,
    estimate_infinite_horizon,
    estimate_rft,
    estimate_tulta,
    growth_diagnostic,
    levy_tail,
    prob_eventual_ruin,
    rescale,
    scale_function,
    talbot_invert,
)
from tsruin import model as model_module
from tsruin import ruin

from conftest import MODELS, Oracle, assert_close

# published benchmark values for the reference model (asymptotic and
# infinite-horizon columns), reproduced by this package to ~1e-6 relative
TULTA_REFERENCE = {
    (1.0, 10.0): 0.00330802,
    (1.0, 20.0): 0.00383461,
    (1.5, 14.0): 0.00140234,
    (2.0, 10.0): 0.000543995,
    (2.0, 20.0): 0.000630592,
}
INFINITE_REFERENCE = {1.0: 0.00393118, 1.5: 0.00151651, 2.0: 0.000646473}
# eventual ruin at paper-ref, mpmath Talbot on the shifted transform at 64 digits
EVENTUAL_RUIN_64 = {9.6: 3.055485227e-8, 20.0: 2.52366771e-13, 45.0: 7.625530228e-25,
                    100.0: 2.105782917e-49}


@pytest.fixture
def skewed_m18(monkeypatch):
    """ruin.talbot_sum with its M=18 values moved by 1e-6 relative."""
    exact = ruin.talbot_sum

    def skewed(values, xs, M, shift=0.0):
        vals = exact(values, xs, M, shift)
        return vals * (1.0 + 1e-6) if M == ruin.TALBOT_TERMS[0] else vals

    monkeypatch.setattr(ruin, "talbot_sum", skewed)


class TestBTilde:
    def test_real_argument_is_real(self, paper_ref):
        val = b_tilde(paper_ref, 2.0)
        assert float(np.imag(val)) == 0.0

    def test_conjugate_symmetry(self, paper_ref):
        for delta in [1.0 + 2.0j, 0.5 + 10.0j]:
            a = b_tilde(paper_ref, np.conj(delta))
            b = np.conj(b_tilde(paper_ref, delta))
            assert abs(a - b) < 1e-12 * abs(b)

    def test_large_delta_unit_slope(self, paper_ref):
        # delta^2 * B~(delta) -> 1, i.e. B(0)=0 with B'(0)=1
        for delta, tol in [(1e4, 2e-3), (1e6, 2e-5)]:
            assert abs(delta**2 * b_tilde(paper_ref, delta) - 1.0) < tol

    def test_small_delta_final_value(self, paper_ref):
        # delta * B~(delta) -> B(inf)
        binf = b_infinity(paper_ref)
        assert_close(1e-7 * b_tilde(paper_ref, 1e-7), binf, rel=1e-4)


class TestBFunction:
    def test_small_t_linear(self, bf_ref):
        assert abs(bf_ref.value(1e-3) / 1e-3 - 1.0) <= 0.05

    def test_monotone_grid(self, bf_ref):
        ts = np.linspace(0.25, 25.0, 14)
        vals = bf_ref.grid(ts)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_plateau(self, paper_ref, bf_ref):
        assert_close(bf_ref.value(200.0), b_infinity(paper_ref), rel=1e-6)

    def test_memoization(self, paper_ref):
        bf = BFunction(paper_ref)
        first = bf.value(3.0)
        assert bf.value(3.0) is first or bf.value(3.0) == first
        assert 3.0 in bf._memo

    def test_lower_bound_all_regimes(self, paper_ref, ig_model, critical_model):
        # B(t) >= (e^(psi t) - 1)/psi, read as t when psi = 0
        for m in (paper_ref, ig_model, critical_model):
            bf = BFunction(m)
            psi = m.psi_alpha
            for t in [0.5, 2.0, 8.0, 20.0]:
                bound = t if abs(psi) < 1e-14 else (math.exp(psi * t) - 1.0) / psi
                assert bf.value(t) >= bound * (1.0 - 1e-9)

    def test_rejects_nonpositive_t(self, bf_ref):
        with pytest.raises(ValueError):
            bf_ref.value(0.0)

    def test_sup_moment(self, paper_ref, bf_ref):
        # E exp(alpha sup X) is 1 at t=0+, nondecreasing, >= max(1, e^(psi t))
        vals = [bf_ref.sup_moment(t) for t in [0.1, 1.0, 5.0, 10.0, 20.0]]
        assert abs(vals[0] - 1.0) < 0.02
        assert all(b >= a * (1 - 1e-6) for a, b in zip(vals, vals[1:]))
        for t, v in zip([0.1, 1.0, 5.0, 10.0, 20.0], vals):
            assert v >= max(1.0, math.exp(paper_ref.psi_alpha * t)) - 1e-3

    def test_sandwich_upper_bound(self, paper_ref, bf_ref):
        # B(t) <= (e^(psi t) - 1)/psi * E e^(alpha sup X)
        psi = paper_ref.psi_alpha
        for t in [1.0, 5.0, 15.0]:
            upper = (math.exp(psi * t) - 1.0) / psi * bf_ref.sup_moment(t)
            assert bf_ref.value(t) <= upper * (1.0 + 1e-6)

    def test_mean_estimate(self, paper_ref):
        bf = BFunction(paper_ref)
        assert bf.mean_estimate(0.0) == 0.0
        m50 = bf.mean_estimate(50.0)
        m100 = bf.mean_estimate(100.0)
        m200 = bf.mean_estimate(200.0)
        assert 0.0 < m50 <= m100 <= m200
        # stabilization consistent with a finite mean of the limit law
        assert m200 - m100 < 1e-4


class TestShiftedTalbotEngine:
    """The double-precision grid engine against the independent mpmath oracle."""

    @pytest.mark.parametrize("model, ts, M", [
        ("paper_ref", [1e-3, 0.5, 5.0, 20.0, 100.0, 200.0], 32),
        ("critical_model", [0.5, 10.0, 100.0, 1000.0], 32),
        # the unshifted M=32 contour crosses the real axis at r = 12.8/t, which
        # nears the double pole at psi_X(alpha) = 0.014 (reached at t = 903):
        # that reference is off by more than 1e-10 from t ~ 600, M=64 is not
        ("ig_model", [0.5, 10.0, 100.0, 300.0, 500.0], 32),
        ("ig_model", [718.0, 850.0, 1000.0], 64),
        ("large_t_model", [1000.0, 4000.0, 7000.0, 10000.0], 32),
    ])
    def test_agrees_with_mpmath_oracle(self, model, ts, M):
        got = BFunction(ClaimsModel.from_loading(*MODELS[model])).grid(ts)
        oracle = Oracle(*MODELS[model])
        for t, b in zip(ts, got):
            assert_close(b, float(oracle.b(t, M)), rel=1e-10, msg=f"B({t})")

    def test_supercritical_monotone_to_1000(self, ig_model):
        vals = BFunction(ig_model).grid(np.linspace(0.5, 1000.0, 40))
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_grid_fills_memo_for_value(self, paper_ref):
        bf = BFunction(paper_ref)
        ts = [0.5, 2.0, 8.0]
        vals = bf.grid(ts)
        assert sorted(bf._memo) == ts
        assert [bf.value(t) for t in ts] == vals
        assert_close(BFunction(paper_ref).value(2.0), vals[1], rel=1e-13)

    def test_self_check_disagreement_raises(self, paper_ref, skewed_m18):
        with pytest.raises(InversionError, match="self-check"):
            BFunction(paper_ref).grid([1.0, 5.0])

    def test_overflow_raises(self):
        # psi_X(alpha) = 2.93: B(300) ~ e^879 is beyond double precision
        m = ClaimsModel.from_loading(1.0, 2.0, 0.3, 0.5)
        with pytest.raises(InversionError, match="not finite"):
            BFunction(m).value(300.0)

    # float.hex of B on the models of the b-regimes benchmark, pinned before
    # both term counts shared one Phi_X solve
    @pytest.mark.parametrize("model, ts, pins", [
        ("paper_ref", [0.5, 3.0, 17.5, 200.0],
         ["0x1.ec76ff4850266p-2", "0x1.2cb4f7c390222p+1", "0x1.56fc294536898p+2",
          "0x1.64f934b9cdd2fp+2"]),
        ("critical_model", [0.5, 7.0, 120.0, 1000.0],
         ["0x1.0268e96befc99p-1", "0x1.e89ea54a3a8eap+2", "0x1.cbb96f24f9556p+7",
          "0x1.b28e0934f393dp+12"]),
        ("ig_model", [0.5, 7.0, 120.0, 1000.0],
         ["0x1.030fade44d136p-1", "0x1.044e9a577af09p+3", "0x1.bc3b8beac2965p+9",
          "0x1.06f9df744faccp+31"]),
    ])
    def test_grid_bits_pinned(self, model, ts, pins):
        got = BFunction(ClaimsModel.from_loading(*MODELS[model])).grid(ts)
        assert [v.hex() for v in got] == pins

    def test_one_phi_solve_for_both_term_counts(self, paper_ref, monkeypatch):
        calls = {"seed": 0, "newton": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(model_module, "_phi_real_seed",
                            counted("seed", model_module._phi_real_seed))
        monkeypatch.setattr(model_module, "_phi_newton_column",
                            counted("newton", model_module._phi_newton_column))
        BFunction(paper_ref).grid([0.5, 2.0, 8.0])
        assert calls == {"seed": 1, "newton": max(ruin.TALBOT_TERMS)}


class TestScaleFunction:
    def test_plateau(self, paper_ref):
        want = 1.0 / abs(paper_ref.drift_mean)
        assert_close(scale_function(paper_ref, 40.0), want, rel=1e-7)

    def test_nondecreasing(self, paper_ref):
        us = np.linspace(0.05, 10.0, 25)
        vals = [scale_function(paper_ref, float(u)) for u in us]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_laplace_self_check(self, paper_ref):
        # integral_0^inf e^(-beta u) W(u) du = 1/psi_X(-beta) at beta = 1;
        # adaptive quadrature because W has a u^(1-rho) cusp at 0 (here
        # u^0.01: steep and extremely slowly varying)
        from scipy.integrate import quad

        val, _ = quad(lambda u: math.exp(-u) * scale_function(paper_ref, u),
                      0.0, 40.0, limit=400, epsrel=1e-9, points=[1e-4, 1e-2, 0.1, 1.0])
        val += math.exp(-40.0) * (1.0 / abs(paper_ref.drift_mean))  # plateau tail
        want = 1.0 / float(paper_ref.psi_x(-1.0))
        assert_close(val, want, rel=1e-4, msg="scale-function transform identity")

    def test_domain(self, paper_ref):
        with pytest.raises(ValueError):
            scale_function(paper_ref, 0.0)


class TestEventualRuin:
    def test_reference_values(self, paper_ref):
        for u, want in INFINITE_REFERENCE.items():
            assert_close(prob_eventual_ruin(paper_ref, u), want, rel=1e-4,
                         msg=f"eventual ruin at u={u}")

    def test_decreasing_in_u(self, paper_ref):
        us = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        vals = [prob_eventual_ruin(paper_ref, u) for u in us]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_small_u_limit(self, paper_ref, ig_model):
        # bounded-variation paths: P(ruin from 0+) = E[Y_1]/p = 1/(1+xi),
        # about 0.833 at loading 0.2 (not 1: the surplus leaks downward
        # between jumps, so a fraction of paths never climbs above 0).
        # The limit is attained cleanly at rho=1/2; at rho=0.99 the
        # u^(1-rho) = u^0.01 cusp makes convergence numerically invisible,
        # so there only the upper bound and the approach direction apply.
        want = 1.0 / (1.0 + ig_model.loading)
        assert_close(prob_eventual_ruin(ig_model, 1e-8), want, rel=1e-4)
        cap = 1.0 / (1.0 + paper_ref.loading)
        p_small = [prob_eventual_ruin(paper_ref, u) for u in (1e-7, 1e-4, 1e-2)]
        assert all(v < cap for v in p_small)
        assert p_small[0] > p_small[1] > p_small[2]  # rises toward the cap as u -> 0

    def test_supercritical_still_defined(self, ig_model):
        # net profit holds, so eventual ruin is well defined in any regime
        val = prob_eventual_ruin(ig_model, 1.0)
        assert 0.0 < val < 1.0


class TestEventualRuinGrid:
    """P(ruin ever) for a whole u-grid in one double-precision pass, W from it."""

    def test_reference_values(self, paper_ref):
        # at u = 9.6 = 2M/(5 alpha) the M=24 contour's real node is b = 0
        got = prob_eventual_ruin(paper_ref, list(EVENTUAL_RUIN_64))
        for (u, want), p in zip(EVENTUAL_RUIN_64.items(), got):
            assert_close(p, want, rel=1e-8, msg=f"P({u})")

    @pytest.mark.parametrize("params, want", [
        ((0.01, 1.0, 0.5, 0.2), 9.963562317e-6),
        ((1.0, 2.0, 0.05, 0.1), 5.398406254e-4),
    ])
    def test_lundberg_shift(self, params, want):
        # psi_X(alpha) > 0 puts a pole at minus the Lundberg root, right of -alpha
        m = ClaimsModel.from_loading(*params)
        assert m.psi_alpha > 0.0
        assert_close(prob_eventual_ruin(m, 20.0), want, rel=1e-8)

    def test_scalar_is_grid_entry(self, paper_ref):
        us = np.linspace(0.05, 100.0, 200)
        grid = prob_eventual_ruin(paper_ref, us)
        for u, p in zip(us, grid):
            one = prob_eventual_ruin(paper_ref, float(u))
            assert isinstance(one, float) and one == p

    def test_strictly_decreasing(self, paper_ref):
        vals = prob_eventual_ruin(paper_ref, np.linspace(0.05, 100.0, 200))
        assert np.all(np.diff(vals) < 0.0)

    def test_scale_function_matches_w_inversion(self, paper_ref):
        us = [0.5, 1.0, 4.0, 10.0, 20.0]
        for u, w in zip(us, scale_function(paper_ref, us)):
            want = talbot_invert(lambda b: 1.0 / paper_ref.psi_x(-b), u, M=32)
            assert_close(w, want, rel=1e-10, msg=f"W({u})")

    def test_self_check_disagreement_raises(self, paper_ref, skewed_m18):
        with pytest.raises(InversionError, match=r"P\(2\.0\) failed its Talbot self-check"):
            prob_eventual_ruin(paper_ref, [2.0, 5.0])

    def test_underflow_raises(self, paper_ref):
        # e^(-alpha u) underflows: P must not be printed as 0
        with pytest.raises(InversionError, match="not a positive normal double"):
            prob_eventual_ruin(paper_ref, 800.0)


# float.hex of each estimate on SURFACE_US x SURFACE_TS at the reference
# model, recorded from the former one-cell-per-call estimators
SURFACE_US = [0.5, 1.0, 2.0]
SURFACE_TS = [1.0, 5.0, 10.0, 20.0]
SURFACE_PINS = {
    "tulta": [["0x1.0f980a9cdf2b8p-9", "0x1.ebfa818f7cc56p-8", "0x1.593d99c90f835p-7",
               "0x1.9032d55f4a7ffp-7"],
              ["0x1.55187732327fep-11", "0x1.34f049c41bbc3p-9", "0x1.b196b458b4febp-9",
               "0x1.f69c4b46232f6p-9"],
              ["0x1.c0bcf0bb027a2p-14", "0x1.966edd0a08096p-12", "0x1.1d35c350cc318p-11",
               "0x1.4a9ca15ea8a61p-11"]],
    "rft": [["0x1.8a4150f36664fp-8", "0x1.651628755009ap-6", "0x1.f529cbf3de633p-6",
             "0x1.22789768dc9e8p-5"],
            ["0x1.688ee38ef7528p-10", "0x1.4690fdbd3d31fp-8", "0x1.ca542f8af4d9cp-8",
             "0x1.09a4fe2072c9ap-7"],
            ["0x1.6eb51d8a9e8b4p-13", "0x1.4c22ce85e7b72p-11", "0x1.d225497d0aee6p-11",
             "0x1.0e2cd1808ba05p-10"]],
    "infinite": [["0x1.9a46e976d01acp-7"] * 4, ["0x1.01a24f9c9ee82p-8"] * 4,
                 ["0x1.52f0155e7c0fep-11"] * 4],
}
ESTIMATORS = {"tulta": estimate_tulta, "rft": estimate_rft, "infinite": estimate_infinite_horizon}


class TestEstimators:
    @pytest.mark.parametrize("name", sorted(SURFACE_PINS))
    def test_surface_bits_pinned(self, paper_ref, name):
        got = ESTIMATORS[name](paper_ref, SURFACE_US, SURFACE_TS)
        assert [[v.hex() for v in row] for row in got.tolist()] == SURFACE_PINS[name]

    @pytest.mark.parametrize("name", sorted(SURFACE_PINS))
    def test_shapes(self, paper_ref, name):
        estimate = ESTIMATORS[name]
        one = estimate(paper_ref, 1.0, 10.0)
        assert type(one) is float and one.hex() == SURFACE_PINS[name][1][2]
        assert estimate(paper_ref, SURFACE_US, SURFACE_TS).shape == (3, 4)
        assert estimate(paper_ref, 1.0, SURFACE_TS).shape == (4,)
        assert estimate(paper_ref, np.array(SURFACE_US), 10.0).shape == (3,)

    def test_rft_is_product(self, paper_ref, bf_ref):
        est = estimate_rft(paper_ref, 0.5, 4.0)
        assert_close(est, levy_tail(paper_ref, 0.5) * bf_ref.value(4.0), rel=1e-12)

    def test_rft_exceeds_one_at_small_u(self, paper_ref):
        assert estimate_rft(paper_ref, 0.01, 10.0) > 1.0

    def test_rft_underflow_names_first_cell(self, paper_ref):
        # the tail leaves the normal range near alpha u = 691: there B(200) ~ 5.6
        # still lifts the product into it, B(1) ~ 0.92 does not.  Row-major
        # order (u outer) fails at (691, 1) before (800, 200).
        us, ts = [690.0, 691.0, 800.0], [200.0, 1.0]
        with pytest.raises(FloatingPointError,
                           match=r"^rft estimate at u=691\.0, t=1\.0 is .*not a positive normal"):
            estimate_rft(paper_ref, us, ts)

    def test_tulta_reference_values(self, paper_ref):
        for (u, t), want in TULTA_REFERENCE.items():
            got = estimate_tulta(paper_ref, u, t)
            assert_close(got, want, rel=1e-4, msg=f"normalized estimate ({u},{t})")

    def test_tulta_bounded_by_eventual(self, paper_ref):
        us = [0.5, 1.0, 3.0]
        est = estimate_tulta(paper_ref, us, [1.0, 10.0])
        assert np.all(est >= 0.0)
        assert np.all(est <= prob_eventual_ruin(paper_ref, us)[:, None] + 1e-15)

    def test_tulta_monotone_t(self, paper_ref):
        vals = estimate_tulta(paper_ref, 1.0, [2.0, 5.0, 10.0, 20.0])
        assert np.all(np.diff(vals) >= 0.0)

    @pytest.mark.parametrize("p_ruin", [1.5, -0.1])
    def test_tulta_rejects_probability_out_of_range(self, paper_ref, p_ruin):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            estimate_tulta(paper_ref, 1.0, 10.0, p_ruin=p_ruin)

    def test_tulta_takes_p_ruin(self, paper_ref):
        us = np.array(SURFACE_US)
        got = estimate_tulta(paper_ref, us, SURFACE_TS, p_ruin=prob_eventual_ruin(paper_ref, us))
        assert [[v.hex() for v in row] for row in got.tolist()] == SURFACE_PINS["tulta"]

    def test_tulta_needs_subcritical(self, ig_model):
        with pytest.raises(RegimeError, match="supercritical"):
            estimate_tulta(ig_model, 1.0, 5.0)

    def test_b_infinity_needs_subcritical(self, ig_model, critical_model):
        for m in (ig_model, critical_model):
            with pytest.raises(RegimeError):
                b_infinity(m)

    def test_ratio_rft_over_tulta_decreases_to_one(self, paper_ref):
        # tail(u) * B(inf) / P(ruin ever) -> 1 as u -> inf
        us = [5.0, 8.0, 12.0, 20.0]
        ratios = estimate_rft(paper_ref, us, 10.0) / estimate_tulta(paper_ref, us, 10.0)
        assert np.all(ratios > 1.0)
        assert np.all(np.diff(ratios) < 0.0)

    def test_ratio_to_infinite_independent_of_u(self, paper_ref):
        # tulta(u, t)/infinite(u) = B(t)/B(inf) carries no u-dependence
        us = [0.5, 1.0, 1.5, 2.0, 3.0]
        ratios = (estimate_tulta(paper_ref, us, 10.0)
                  / estimate_infinite_horizon(paper_ref, us, 10.0))
        for r in ratios[1:]:
            assert abs(r / ratios[0] - 1.0) < 1e-5

    def test_rescale_invariance(self, paper_ref):
        # ruin events are invariant under units changes:
        # estimate(rescaled, b*u, t/a) == estimate(original, u, t)
        base = estimate_tulta(paper_ref, 1.0, 10.0)
        for a, b in [(2.0, 0.5), (0.25, 3.0), (1.5, 1.5)]:
            scaled_model = rescale(paper_ref, ScaleChange(a, b))
            got = estimate_tulta(scaled_model, b * 1.0, 10.0 / a)
            assert_close(got, base, rel=1e-6, msg=f"rescale invariance a={a} b={b}")

    def test_domain_errors(self, paper_ref):
        for estimate in ESTIMATORS.values():
            for u, t in [(-1.0, 1.0), (1.0, 0.0), ([1.0, 0.0], 1.0), (1.0, [[1.0]])]:
                with pytest.raises(ValueError):
                    estimate(paper_ref, u, t)


class TestGrowthDiagnostic:
    def test_subcritical_plateau_slope(self, paper_ref):
        slope = growth_diagnostic(paper_ref, 100.0, 200.0, points=6)
        assert abs(slope) < 1e-8

    def test_supercritical_asymptotic_slope(self, ig_model):
        # the transform's double pole at psi_X(alpha) puts a 1/t correction
        # on the log-slope, so the limit is only reached at t >> 1/psi
        slope = growth_diagnostic(ig_model, 600.0, 1000.0, points=9)
        assert abs(slope / ig_model.psi_alpha - 1.0) < 0.10

    def test_critical_linear_bound(self, critical_model):
        slope = growth_diagnostic(critical_model, 50.0, 100.0, points=6)
        assert slope > 0.0  # still growing; the linear bound check passed inside

    def test_critical_quadratic_diagnostic(self, critical_model):
        # growth is at most quadratic: B(t)/t^2 stays bounded on a doubling grid
        bf = BFunction(critical_model)
        ratios = [bf.value(t) / t**2 for t in [100.0, 200.0, 400.0]]
        assert all(r < 1.0 for r in ratios)
        assert ratios[2] < ratios[0]

    def test_window_validation(self, paper_ref):
        with pytest.raises(ValueError):
            growth_diagnostic(paper_ref, 10.0, 10.0)
