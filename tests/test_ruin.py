"""Estimator tests: the ruin-time profile B, the scale function, eventual
ruin, the two finite-time estimates, and growth diagnostics."""
import math

import mpmath
import numpy as np
import pytest

from tsruin import (
    BFunction,
    ClaimsModel,
    InversionError,
    RegimeError,
    RegimeTag,
    b_infinity,
    b_tilde,
    estimate_infinite_horizon,
    estimate_rft,
    estimate_tulta,
    growth_diagnostic,
    levy_tail,
    limit_law_mean,
    prob_eventual_ruin,
    rescale,
    SimPlan,
    scale_function,
    simulate_ruin_mc,
    simulate_ruin_naive,
    talbot_invert,
)
from tsruin import model as model_module
from tsruin import ruin
from tsruin.laplace import hyperbola_nodes

from conftest import (MODELS, Oracle, _lundberg_bound, assert_close, dispatch_pins, load_perfbench,
                      oracle_refs)

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
# psi_X evaluations, one per Halley step, of one B grid
# (``test_one_phi_solve_for_both_term_counts``)
NEWTON_STEPS = 3
# the nodes of both inversion rules on one window
NODES_PER_WINDOW = sum(N + 1 for N in ruin.HYPERBOLA_RULES)
# eventual ruin at paper-ref, mpmath Talbot on the shifted transform at 64 digits
EVENTUAL_RUIN_64 = {9.6: 3.055485227e-8, 20.0: 2.52366771e-13, 45.0: 7.625530228e-25,
                    100.0: 2.105782917e-49}

# the benchmark's commands and grids, for its stored 64-digit references
WORKLOADS = load_perfbench("workloads")

# subcritical models (c, alpha, rho, xi): the two subcritical fixtures, and
# one each with a fast and a slow approach of B to B(inf)
SUBCRITICAL = {"paper_ref": MODELS["paper_ref"], "large_t_model": MODELS["large_t_model"],
               "fast": (1.0, 2.0, 0.3, 3.0), "slow": (0.01, 1.0, 0.5, 1.5)}


class SupOracle(Oracle):
    """``Oracle`` with E exp(alpha sup_{s<=t} X_s), the mpmath Talbot rule on
    its transform (Phi(d) - alpha) / ((d - psi_X(alpha)) Phi(d)), solved node
    by node as ``Oracle.b`` solves B's."""

    def sup_moment(self, t: float, M: int):
        with mpmath.workdps(M):
            self._setup()
            last = []

            def transform(d):
                if mpmath.im(d) == 0:
                    root = self._phi_real(mpmath.re(d))
                else:
                    root = self._newton(d, last[-1])
                last.append(root)
                return (root - self.a) / ((d - self.psi_a) * root)

            return mpmath.invertlaplace(transform, t, method="talbot", degree=M)


@pytest.fixture
def skewed_small_rule(monkeypatch):
    """ruin.hyperbola_grid with the smaller rule's values moved by 1e-6 relative."""
    exact = ruin.hyperbola_grid

    def skewed(F, xs, shift=0.0):
        hi, lo = exact(F, xs, shift)
        return np.array([hi, lo * (1.0 + 1e-6)])

    monkeypatch.setattr(ruin, "hyperbola_grid", skewed)


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

    def test_value_is_bitwise_any_grid_entry(self, paper_ref):
        # a B value depends on its t alone, not on the grid it is computed in
        bf = BFunction(paper_ref)
        grids = [[0.5, 2.0, 8.0], [8.0, 2.0, 0.5], [2.0], np.linspace(0.5, 8.0, 6)]
        for ts in grids:
            vals = bf.grid(ts)
            assert isinstance(vals, np.ndarray) and vals.dtype == np.float64
            assert [bf.value(t) for t in ts] == vals.tolist()

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
        with pytest.raises(ValueError, match=r"t must be a scalar, got shape \(2,\)"):
            bf_ref.value(np.array([1.0, 2.0]))  # not B at the first t alone
        for bad in (math.nan, math.inf):
            for call in (bf_ref.value, bf_ref.grid, lambda t: bf_ref.grid([1.0, t]),
                         bf_ref.sup_moment, lambda t: bf_ref.sup_moment([1.0, t])):
                with pytest.raises(ValueError, match="t must be a positive finite"):
                    call(bad)
        for bad in (0.0, -1.0, [[1.0]]):
            with pytest.raises(ValueError,
                               match="t must be a positive finite scalar or vector"):
                bf_ref.sup_moment(bad)

    def test_sup_moment(self, paper_ref, bf_ref):
        # E exp(alpha sup X) is 1 at t=0+, nondecreasing, >= max(1, e^(psi t))
        vals = [bf_ref.sup_moment(t) for t in [0.1, 1.0, 5.0, 10.0, 20.0]]
        assert abs(vals[0] - 1.0) < 0.02
        assert all(b >= a * (1 - 1e-6) for a, b in zip(vals, vals[1:]))
        for t, v in zip([0.1, 1.0, 5.0, 10.0, 20.0], vals):
            assert v >= max(1.0, math.exp(paper_ref.psi_alpha * t)) - 1e-3

    @pytest.mark.parametrize("model", list(MODELS))
    def test_sup_moment_against_mpmath_rule(self, model):
        ts = [0.1, 1.0, 5.0, 20.0, 100.0]
        got = BFunction(ClaimsModel.from_loading(*MODELS[model])).sup_moment(ts)
        oracle = SupOracle(*MODELS[model])
        for t, v in zip(ts, got):
            assert_close(v, float(oracle.sup_moment(t, 32)), rel=1e-10,
                         msg=f"E exp(alpha sup X) at t={t}")

    @pytest.mark.parametrize("name", list(SUBCRITICAL))
    def test_sup_moment_plateau(self, name):
        # subcritically X-bar_t -> X-bar_inf, and E e^(alpha X-bar_inf) =
        # alpha E[X_1]/psi_X(alpha) = -psi_X(alpha) B(inf)
        m = ClaimsModel.from_loading(*SUBCRITICAL[name])
        for v in BFunction(m).sup_moment([5000.0, 10000.0]):
            assert_close(v, m.alpha * m.drift_mean / m.psi_alpha, rel=1e-11)

    def test_sup_moment_scalar_is_bitwise_any_grid_entry(self, ig_model):
        bf = BFunction(ig_model)
        for ts in ([0.5, 2.0, 8.0], [8.0, 2.0, 0.5], np.linspace(0.5, 8.0, 6)):
            vals = bf.sup_moment(ts)
            assert isinstance(vals, np.ndarray) and vals.shape == (len(ts),)
            assert [bf.sup_moment(t) for t in ts] == vals.tolist()
        assert type(bf.sup_moment(2.0)) is float

    def test_sandwich_upper_bound(self, paper_ref, bf_ref):
        # B(t) <= (e^(psi t) - 1)/psi * E e^(alpha sup X)
        psi = paper_ref.psi_alpha
        for t in [1.0, 5.0, 15.0]:
            upper = (math.exp(psi * t) - 1.0) / psi * bf_ref.sup_moment(t)
            assert bf_ref.value(t) <= upper * (1.0 + 1e-6)

    @pytest.mark.parametrize("name, T", [("paper_ref", 800.0), ("large_t_model", 50.0),
                                         ("fast", 200.0), ("slow", 8000.0)])
    def test_limit_law_mean(self, name, T):
        # the closed form against integral_0^T (1 - B/B(inf)) dt, T past which
        # the rest is negligible: geometric trapezoids of 4000 and 7999 points
        # (every second node of the finer is a node of the coarser),
        # Richardson-extrapolated
        m = ClaimsModel.from_loading(*SUBCRITICAL[name])
        binf, t0 = b_infinity(m), 1e-9  # 1 - B/B(inf) is 1 on [0, t0) to first order

        def trapezoid(n):
            ts = np.geomspace(t0, T, n)
            return t0 + np.trapezoid(1.0 - BFunction(m).grid(ts) / binf, ts)

        coarse, fine = trapezoid(4000), trapezoid(7999)
        assert_close(limit_law_mean(m), (4.0 * fine - coarse) / 3.0, rel=1e-8)

    def test_limit_law_mean_subcritical_only(self, ig_model, critical_model):
        for m in (ig_model, critical_model):
            with pytest.raises(RegimeError, match="the limit law's mean requires the subcritical"):
                limit_law_mean(m)


class TestShiftedTalbotEngine:
    """The double-precision grid engine (``hyperbola_grid`` on a contour
    shifted right of B~'s singularities, which replaced a shifted fixed-Talbot
    one) against the independent mpmath oracle."""

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

    def test_value_is_bitwise_across_instances(self, paper_ref):
        # two evaluators of one model give the same bits; no state carries over
        ts = [0.5, 2.0, 8.0]
        vals = BFunction(paper_ref).grid(ts)
        assert BFunction(paper_ref).grid(ts).tolist() == vals.tolist()
        assert [BFunction(paper_ref).value(t) for t in ts] == vals.tolist()

    def test_self_check_disagreement_raises(self, paper_ref, skewed_small_rule):
        with pytest.raises(InversionError, match="self-check"):
            BFunction(paper_ref).grid([1.0, 5.0])

    def test_overflow_raises(self):
        # psi_X(alpha) = 2.93: B(300) ~ e^879 is beyond double precision
        m = ClaimsModel.from_loading(1.0, 2.0, 0.3, 0.5)
        with pytest.raises(FloatingPointError, match="not finite"):
            BFunction(m).value(300.0)

    # float.hex of B on the models of the b-regimes benchmark; each within
    # 1.7e-13 relative of the 64-digit oracle (critical_model B(1000) the
    # furthest), on either numpy dispatch
    @pytest.mark.parametrize("model, ts, pins", [
        ("paper_ref", [0.5, 3.0, 17.5, 200.0], dispatch_pins(
            ["0x1.ec76ff4850111p-2", "0x1.2cb4f7c3900d2p+1", "0x1.56fc29453678fp+2",
             "0x1.64f934b9ccfcfp+2"],
            ["0x1.ec76ff4850111p-2", "0x1.2cb4f7c3900d2p+1", "0x1.56fc294536792p+2",
             "0x1.64f934b9ccfb2p+2"])),
        ("critical_model", [0.5, 7.0, 120.0, 1000.0],
         ["0x1.0268e96befc5dp-1", "0x1.e89ea54a3a7f2p+2", "0x1.cbb96f24f94e3p+7",
          "0x1.b28e0934f3de5p+12"]),
        ("ig_model", [0.5, 7.0, 120.0, 1000.0],
         ["0x1.030fade44d0aep-1", "0x1.044e9a577ae62p+3", "0x1.bc3b8beac2813p+9",
          "0x1.06f9df744f9e4p+31"]),
    ])
    def test_grid_bits_pinned(self, model, ts, pins):
        got = BFunction(ClaimsModel.from_loading(*MODELS[model])).grid(ts)
        assert [v.hex() for v in got] == pins

    def test_one_phi_solve_for_both_term_counts(self, paper_ref, monkeypatch):
        # on the 40-point grid of the b-regimes benchmark's subcritical
        # command, one masked Halley iteration serves every node of both
        # rules on the four windows it touches, t1 = 1, 25, 125 and 625 (no
        # t lies in (1, 5]), 4 x 58 = 232 at once, and psi_X is evaluated at
        # most NEWTON_STEPS times in all
        sizes, steps = [], 0
        halley, psi = model_module._phi_halley, ClaimsModel._psi

        def counted_halley(m, delta, beta):
            sizes.append(delta.size)
            return halley(m, delta, beta)

        def counted_psi(self, theta, p):
            nonlocal steps
            steps += 1
            return psi(self, theta, p)

        paper_ref.regime  # psi_Y(alpha) and psi_X(alpha), cached before counting
        monkeypatch.setattr(model_module, "_phi_halley", counted_halley)
        monkeypatch.setattr(ClaimsModel, "_psi", counted_psi)
        BFunction(paper_ref).grid(np.linspace(0.5, 200.0, 40))
        assert sizes == [4 * NODES_PER_WINDOW]
        assert steps <= NEWTON_STEPS


class TestWindows:
    """Every t of a window (t1/5, t1], t1 a power of 5, is inverted on that
    window's nodes, whatever grid it is in."""

    # the window ends 5^k, and the doubles on either side of each
    EDGES = [5.0 ** k * f for k in range(-3, 6) for f in (1.0 - 2.0 ** -52, 1.0, 1.0 + 2.0 ** -52)]

    def test_b_value_is_bitwise_its_grid_entry_at_window_ends(self, paper_ref, ig_model):
        for m in (paper_ref, ig_model):
            bf = BFunction(m)
            grid = bf.grid(self.EDGES)
            assert [bf.value(t) for t in self.EDGES] == grid.tolist()
            assert bf.grid(self.EDGES[::-1]).tolist() == grid.tolist()[::-1]

    def test_p_scalar_is_bitwise_its_grid_entry_at_window_ends(self, paper_ref):
        us = [u for u in self.EDGES if u < 700.0]  # P(3125) underflows
        grid = prob_eventual_ruin(paper_ref, us)
        assert [prob_eventual_ruin(paper_ref, u) for u in us] == grid.tolist()

    def test_continuous_across_window_ends(self, paper_ref):
        # either side of a window end is a different contour: the values
        # still agree to the engine's accuracy
        vals = BFunction(paper_ref).grid(self.EDGES).reshape(-1, 3)
        assert np.all(np.abs(vals[:, [0, 2]] / vals[:, [1]] - 1.0) <= 1e-12)


class TestOracleReferences:
    """B and P(ruin ever) on every grid variant of the benchmark against its
    stored 64-digit references (``perfbench/refs/oracle.json``)."""

    REFS = oracle_refs()

    @pytest.mark.parametrize("variant", range(WORKLOADS.VARIANTS))
    def test_b_regimes(self, variant):
        for cmd in WORKLOADS.commands("b-regimes", variant):
            m = ClaimsModel.from_loading(*WORKLOADS.MODELS[cmd.model])
            want = np.array(self.REFS["b-regimes"][str(variant)][cmd.label]["B"])
            got = BFunction(m).grid(cmd.axis("t"))
            assert np.all(np.abs(got / want - 1.0) <= 1e-10), cmd.label

    @pytest.mark.parametrize("variant", range(WORKLOADS.VARIANTS))
    def test_eventual_ruin(self, variant):
        (cmd,) = [c for c in WORKLOADS.commands("ruin-grid", variant) if c.label == "scale-fn"]
        m = ClaimsModel.from_loading(*WORKLOADS.MODELS[cmd.model])
        want = np.array(self.REFS["ruin-grid"][str(variant)][cmd.label]["P"])
        got = prob_eventual_ruin(m, cmd.axis("u"))
        assert np.all(np.abs(got / want - 1.0) <= 1e-10)


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
        for bad in (1.5, math.nan):
            with pytest.raises(ValueError, match=r"^p_ruin .*outside \[0, 1\]"):
                scale_function(paper_ref, 1.0, p_ruin=bad)
        # one P for two u is not W at either
        with pytest.raises(ValueError, match=r"^p_ruin must have the shape of u, \(2,\)"):
            scale_function(paper_ref, [1.0, 2.0], p_ruin=0.5)
        for bad in (math.nan, math.inf, [1.0, math.inf]):
            for f in (scale_function, prob_eventual_ruin):
                with pytest.raises(ValueError, match="u must be a positive finite"):
                    f(paper_ref, bad)

    def test_vector_p_ruin(self, paper_ref):
        us = np.array([0.5, 2.0, 8.0])
        p = prob_eventual_ruin(paper_ref, us)
        assert scale_function(paper_ref, us, p_ruin=p).tobytes() == \
            scale_function(paper_ref, us).tobytes()
        for bad in (0.0, math.nan, 1.5):
            with pytest.raises(ValueError, match=r"^p_ruin .*outside \[0, 1\]"):
                scale_function(paper_ref, us, p_ruin=np.array([p[0], bad, p[2]]))


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
        # P from 3e-8 down to 2e-49, each a small sum of far larger terms
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

    def test_one_transform_call_for_both_term_counts(self, paper_ref, monkeypatch):
        # both rules' nodes on the four windows the grid touches, t1 = 1, 5,
        # 25 and 125, go through Q in one call
        sizes, q = [], ClaimsModel._q

        def counted(self, b, *args):
            sizes.append(b.size)
            return q(self, b, *args)

        monkeypatch.setattr(ClaimsModel, "_q", counted)
        prob_eventual_ruin(paper_ref, np.linspace(0.5, 40.0, 80))
        assert sizes == [4 * NODES_PER_WINDOW]

    def test_rule_gap_margin(self, near_critical_model):
        # the N=24/N=32 gap, P's error estimate, stays far inside
        # P_INVERSION_RTOL wherever P is reportable: at most 1.4e-9 (paper_ref)
        us = np.geomspace(0.01, 300.0, 400)
        for m in [*(ClaimsModel.from_loading(*p) for p in MODELS.values()), near_critical_model]:
            hi, lo = ruin.hyperbola_grid(lambda b: ruin._eventual_ruin_transform(m, b), us,
                                         ruin._eventual_ruin_shift(m))
            normal = hi >= np.finfo(float).tiny  # large_t_model's P(u > ~230) underflows
            assert np.all(np.abs(hi - lo)[normal] <= 1e-8 * hi[normal]), m

    def test_strictly_decreasing(self, paper_ref):
        vals = prob_eventual_ruin(paper_ref, np.linspace(0.05, 100.0, 200))
        assert np.all(np.diff(vals) < 0.0)

    def test_scale_function_matches_w_inversion(self, paper_ref):
        us = [0.5, 1.0, 4.0, 10.0, 20.0]
        for u, w in zip(us, scale_function(paper_ref, us)):
            want = talbot_invert(lambda b: 1.0 / paper_ref.psi_x(-b), u, M=32)
            assert_close(w, want, rel=1e-10, msg=f"W({u})")

    def test_self_check_disagreement_raises(self, paper_ref, skewed_small_rule):
        with pytest.raises(InversionError, match=r"P\(2\.0\) failed its inversion self-check"):
            prob_eventual_ruin(paper_ref, [2.0, 5.0])

    def test_underflow_raises(self, paper_ref):
        # e^(-alpha u) underflows: P must not be printed as 0
        with pytest.raises(FloatingPointError, match="not a positive normal double"):
            prob_eventual_ruin(paper_ref, 800.0)


# float.hex of each estimate on SURFACE_US x SURFACE_TS at the reference
# model; the B factor of each is within 8.9e-16 relative of the 64-digit
# oracle (the t = 20 column the furthest), the P factor within 4.6e-13 (the
# u = 1 row); without the X86_V4 loops within 1.3e-15 and 4.6e-13
SURFACE_US = [0.5, 1.0, 2.0]
SURFACE_TS = [1.0, 5.0, 10.0, 20.0]
SURFACE_PINS = dispatch_pins({
    "tulta": [["0x1.0f980a9ce8b27p-9", "0x1.ebfa818f8e116p-8", "0x1.593d99c91bb1dp-7",
               "0x1.9032d55f5883dp-7"],
              ["0x1.55187732526b6p-11", "0x1.34f049c438abap-9", "0x1.b196b458dda8dp-9",
               "0x1.f69c4b465230bp-9"],
              ["0x1.c0bcf0b990752p-14", "0x1.966edd08b8eeep-12", "0x1.1d35c34fe1130p-11",
               "0x1.4a9ca15d98039p-11"]],
    "rft": [["0x1.8a4150f3664eap-8", "0x1.651628754ffcbp-6", "0x1.f529cbf3de614p-6",
             "0x1.22789768dc89bp-5"],
            ["0x1.688ee38ef73e2p-10", "0x1.4690fdbd3d262p-8", "0x1.ca542f8af4d7fp-8",
             "0x1.09a4fe2072b69p-7"],
            ["0x1.6eb51d8a9e768p-13", "0x1.4c22ce85e7ab2p-11", "0x1.d225497d0aec8p-11",
             "0x1.0e2cd1808b8cfp-10"]],
    "infinite": [["0x1.9a46e976de965p-7"] * 4, ["0x1.01a24f9cb712cp-8"] * 4,
                 ["0x1.52f0155d64a80p-11"] * 4],
}, {
    "tulta": [["0x1.0f980a9ce8b27p-9", "0x1.ebfa818f8e116p-8", "0x1.593d99c91bb1dp-7",
               "0x1.9032d55f5883ep-7"],
              ["0x1.55187732526b6p-11", "0x1.34f049c438abap-9", "0x1.b196b458dda8dp-9",
               "0x1.f69c4b465230dp-9"],
              ["0x1.c0bcf0b990702p-14", "0x1.966edd08b8ea6p-12", "0x1.1d35c34fe10fdp-11",
               "0x1.4a9ca15d98000p-11"]],
    "rft": [["0x1.8a4150f3664eap-8", "0x1.651628754ffcbp-6", "0x1.f529cbf3de614p-6",
             "0x1.22789768dc89cp-5"],
            ["0x1.688ee38ef73e2p-10", "0x1.4690fdbd3d262p-8", "0x1.ca542f8af4d7fp-8",
             "0x1.09a4fe2072b6ap-7"],
            ["0x1.6eb51d8a9e768p-13", "0x1.4c22ce85e7ab2p-11", "0x1.d225497d0aec8p-11",
             "0x1.0e2cd1808b8d0p-10"]],
    "infinite": [["0x1.9a46e976de965p-7"] * 4, ["0x1.01a24f9cb712cp-8"] * 4,
                 ["0x1.52f0155d64a44p-11"] * 4],
})
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
        # tail(0.01) * B(10) exceeds 1, so it is refused, as tulta's would be
        with pytest.raises(FloatingPointError, match=r"^rft estimate at u=0\.01, t=10\.0 is "
                           r".*not a positive normal double <= 1$"):
            estimate_rft(paper_ref, 0.01, 10.0)

    def test_rft_underflow_names_first_cell(self, paper_ref):
        # the tail leaves the normal range near alpha u = 691 and raises there,
        # before any product: B(200) ~ 5.6 would lift a subnormal tail, whose
        # lost digits stay lost, back into the normal range
        us, ts = [690.0, 691.0, 800.0], [200.0, 1.0]
        with pytest.raises(FloatingPointError,
                           match=r"^Levy tail at u=691\.0 is .*not a positive normal"):
            estimate_rft(paper_ref, us, ts)
        # P(690) ~ 1e-300 is normal; times B(1e-12)/B(inf) it is subnormal
        with pytest.raises(FloatingPointError,
                           match=r"^tulta estimate at u=690\.0, t=1e-12 is .*not a positive normal"):
            estimate_tulta(paper_ref, [690.0], [1e-12, 1.0])

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
            scaled_model = rescale(paper_ref, a, b)
            got = estimate_tulta(scaled_model, b * 1.0, 10.0 / a)
            assert_close(got, base, rel=1e-6, msg=f"rescale invariance a={a} b={b}")

    def test_domain_errors(self, paper_ref):
        for estimate in ESTIMATORS.values():
            for u, t in [(-1.0, 1.0), (1.0, 0.0), ([1.0, 0.0], 1.0), (1.0, [[1.0]]),
                         (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), ([], 1.0),
                         (1.0, [])]:
                with pytest.raises(ValueError):
                    estimate(paper_ref, u, t)


class TestLundbergBound:
    """Every ruin probability the package reports lies at or below the
    finite-horizon Lundberg bound (``conftest._lundberg_bound``)."""

    us, ts = np.geomspace(0.01, 20.0, 40), np.geomspace(0.1, 200.0, 40)
    mc_us, mc_ts = [0.05, 0.2, 1.0], [0.5, 1.0, 2.0]
    plan = SimPlan(h=0.01, n=1024, N=6, seed=7, threads=1)

    @pytest.mark.parametrize("name", MODELS)
    def test_estimates_below_bound(self, name):
        m = ClaimsModel.from_loading(*MODELS[name])
        assert (prob_eventual_ruin(m, self.us) <= _lundberg_bound(m, self.us, math.inf)[:, 0]).all()
        if m.regime is RegimeTag.SUBCRITICAL:
            assert (estimate_tulta(m, self.us, self.ts) <= _lundberg_bound(m, self.us, self.ts)).all()
        # the measure change refuses large_t_model's cells: their weight
        # rests on under 1% of the hit paths
        simulators = ((simulate_ruin_naive,) if name == "large_t_model"
                      else (simulate_ruin_mc, simulate_ruin_naive))
        bound = _lundberg_bound(m, self.mc_us, self.mc_ts)
        for simulate in simulators:
            res = simulate(m, self.mc_us, self.mc_ts, self.plan)
            assert (res.mean - 3.0 * res.stderr <= bound).all(), simulate.__name__


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
        for points in (0, 1):  # one point fits no slope
            with pytest.raises(ValueError, match=f"^points must be >= 2, got {points}"):
                growth_diagnostic(paper_ref, 1.0, 2.0, points=points)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"t_hi must be finite, got {bad}"):
                growth_diagnostic(paper_ref, 1.0, bad)
            with pytest.raises(ValueError, match=f"t_lo must be finite, got {bad}"):
                growth_diagnostic(paper_ref, bad, 10.0)


class TestModelSweep:
    """phi, B and P across the model space: every value passes its checks,
    or the call raises an ArithmeticError subclass with a message; and
    ``phi`` raises on no model."""

    @staticmethod
    def _checks(m: ClaimsModel):
        gate = 1e-12 * max(1.0, m.tilt_coefficient * m.alpha ** m.rho)
        t_max = 1000.0 if m.psi_alpha <= 0.0 else min(1000.0, 500.0 / m.psi_alpha)
        ts = np.geomspace(1e-3 * t_max, t_max, 40)

        def real_roots():
            # negative, decreasing in delta, within the residual gate
            deltas = np.geomspace(1e-3, 1e3, 301)
            roots = model_module.phi(m, deltas)
            assert np.all(roots < 0.0) and np.all(np.diff(roots) < 0.0)
            assert np.all(np.abs(m.psi_x(roots) - deltas) <= np.maximum(gate, 1e-12 * deltas))

        def node_roots():
            nodes = hyperbola_nodes(ts, max(0.0, m.psi_alpha))
            roots = model_module.phi(m, nodes)
            assert np.all(np.abs(m.psi_x(roots) - nodes) <= np.maximum(gate, 1e-12 * np.abs(nodes)))

        def b_grid():
            # B(t)/B(inf) is a distribution function: B is non-decreasing
            b = BFunction(m).grid(ts)
            assert np.all(np.diff(b) >= -ruin.B_INVERSION_RTOL * b[1:])

        def p_grid():
            p = prob_eventual_ruin(m, np.geomspace(0.01, 50.0, 40) / m.alpha)
            assert np.all(np.diff(p) <= ruin.P_INVERSION_RTOL * p[:-1])

        return real_roots, node_roots, b_grid, p_grid

    def test_seeded_sweep(self):
        rng = np.random.default_rng(20261020)
        raised = []
        for _ in range(400):
            rho = rng.uniform(0.01, 0.99)
            c, alpha = 10.0 ** rng.uniform(-2.0, 2.0, 2)
            xi = 10.0 ** rng.uniform(-12.0, math.log10(30.0))
            for check in self._checks(ClaimsModel.from_loading(c, alpha, rho, xi)):
                try:
                    check()
                except ArithmeticError as exc:
                    raised.append(exc)
        assert all(type(exc) is not ArithmeticError and str(exc) for exc in raised), raised
        assert not any(isinstance(exc, model_module.PhiConvergenceError) for exc in raised)
