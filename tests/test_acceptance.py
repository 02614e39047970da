"""Acceptance suite: one test per published criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Three criteria encode reference values or windows that a correct
implementation provably cannot reproduce (see the failing assertions'
messages for the measured numbers and the verified explanation):

* criterion 3: the published finite-time Monte Carlo mean at
  (u=0.1, t=2.0) is 19% above the true value of the stated model.  The
  stated plan reproduces the published mean and stderr at loading 0.15
  in place of the stated 0.2 (test_measure_change_benchmark_at_loading_0_15),
  and at 0.2 the same simulator passes the independent
  Esscher-consistency and transform-law checks (criteria 4 and 8).
* criterion 7 (supercritical half): the log-slope limit psi_X(alpha) holds
  as t -> infinity, but the measured slope on the stated [20, 50] window is
  still 3.3x the limit.  The pole terms of the transform (its double pole
  at psi_X(alpha) and its pole at 0) account for part of that gap only:
  they predict 4.1x, and leave out a remainder that is 34% of B at t = 20.
  On [600, 1000] the pole terms match B and the statement passes.
* criterion 10: the eventual-ruin/tail ratio converges to its limit like
  ~1.1/u to ~1.3/u, so the 3% band is first met near u = 43, far beyond
  the stated u = 5 (where the true gap is 22%); the required shrink from
  u=5 to u=8 does hold and is asserted, and a companion test shows the
  band met at u = 45.
"""
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from tsruin import (
    BFunction,
    ClaimsModel,
    SimPlan,
    b_infinity,
    b_tilde,
    estimate_rft,
    estimate_tulta,
    growth_diagnostic,
    levin_invert,
    levy_tail,
    phi,
    prob_eventual_ruin,
    rescale,
    sample_stable,
    simulate_ruin_mc,
    simulate_ruin_naive,
    stable_increment_params,
    hyperbola_grid,
    talbot_invert,
)
from tsruin.ruin import B_INVERSION_RTOL
from tsruin.sim import _tilted_subordinator_increments

from conftest import Oracle, assert_close

TULTA_REFERENCE = {
    (1.0, 10.0): 0.00330802,
    (1.0, 20.0): 0.00383461,
    (1.5, 14.0): 0.00140234,
    (2.0, 10.0): 0.000543995,
    (2.0, 20.0): 0.000630592,
}
INFINITE_REFERENCE = {1.0: 0.00393118, 1.5: 0.00151651, 2.0: 0.000646473}
MC_REFERENCE_MEAN = 0.05048      # published value at (u=0.1, t=2.0, h=0.01)
MC_REFERENCE_STDERR = 2.9e-4


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num:>2} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def model() -> ClaimsModel:
    return ClaimsModel.from_loading(0.01, 1.0, 0.99, 0.2)


@pytest.fixture(scope="module")
def bf(model) -> BFunction:
    return BFunction(model)


# the published plan of the Monte Carlo point
TABLE2_PLAN = SimPlan(h=0.01, n=16384, N=30, seed=20240817, threads=1)


def _published_point_bands(res) -> tuple:
    """Criterion 3's bands: (mean within +-3 x 3e-4 of the published mean,
    stderr within a factor 2 of the published stderr)."""
    return (abs(res.mean - MC_REFERENCE_MEAN) <= 3.0 * 3.0e-4,
            MC_REFERENCE_STDERR / 2.0 <= res.stderr <= MC_REFERENCE_STDERR * 2.0)


@pytest.fixture(scope="module")
def table2_mc(model):
    """Full-scale measure-change run at the published configuration."""
    return simulate_ruin_mc(model, 0.1, 2.0, TABLE2_PLAN)


def test_criterion_01_asymptotic_table(model):
    t0 = time.perf_counter()
    errs = {}
    for (u, t), want in TULTA_REFERENCE.items():
        got = estimate_tulta(model, u, t)
        errs[(u, t)] = abs(got / want - 1.0)
    elapsed = time.perf_counter() - t0
    worst = max(errs.values())
    _criterion(1, "finite-time asymptotic table", worst <= 5e-3 and elapsed < 10.0,
               f"worst relative error {worst:.2e} over {len(errs)} cells in {elapsed:.2f}s")


def test_criterion_02_infinite_horizon_table(model):
    t0 = time.perf_counter()
    errs = {u: abs(prob_eventual_ruin(model, u) / want - 1.0)
            for u, want in INFINITE_REFERENCE.items()}
    elapsed = time.perf_counter() - t0
    worst = max(errs.values())
    _criterion(2, "infinite-horizon table", worst <= 5e-3 and elapsed < 10.0,
               f"worst relative error {worst:.2e} in {elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_03_measure_change_benchmark(table2_mc):
    res = table2_mc
    mean_ok, stderr_ok = _published_point_bands(res)
    detail = (
        f"mean {res.mean:.6f} vs published {MC_REFERENCE_MEAN} "
        f"(band +-{3 * 3.0e-4}), stderr {res.stderr:.2e} vs {MC_REFERENCE_STDERR:.1e}; "
        f"the published mean is not reproducible from the stated model: this plan "
        f"reproduces the published mean and stderr at loading 0.15 in place of the "
        f"stated 0.2 (0.050381 +- 0.00030, test_measure_change_benchmark_at_loading_0_15), "
        f"and at 0.2 this simulator matches its own exact-law counterpart (criterion 4); "
        f"a doubled horizon does not reach the published mean: this plan at t=4 gives "
        f"0.048908 +- 0.00020, 4.46 combined stderr below it"
    )
    _criterion(3, "measure-change benchmark point", mean_ok and stderr_ok, detail)


@pytest.mark.slow
def test_measure_change_benchmark_at_loading_0_15():
    # companion to criterion 3: the published plan at loading 0.15 meets
    # criterion 3's bands; batches are seeded one by one, so two threads
    # give the bits of one
    m = ClaimsModel.from_loading(0.01, 1.0, 0.99, 0.15)
    res = simulate_ruin_mc(m, 0.1, 2.0, replace(TABLE2_PLAN, threads=2))
    print(f"\n  [companion] published plan at loading 0.15: "
          f"mean {res.mean:.6f} +- {res.stderr:.5f}")
    assert _published_point_bands(res) == (True, True)


@pytest.mark.slow
def test_criterion_04_esscher_consistency(model, table2_mc):
    # exact tempered increments at a finer step versus the measure-change
    # estimate; paths halved relative to the published run purely for runtime,
    # which the 3-combined-stderr band already accounts for.  Batches are
    # seeded one by one, so two threads give the same bits as one.
    plan = SimPlan(h=0.001, n=8192, N=30, seed=777, threads=2)
    naive = simulate_ruin_naive(model, 0.1, 2.0, plan)
    mc = table2_mc
    band = 3.0 * math.hypot(naive.stderr, mc.stderr)
    ok = abs(naive.mean - mc.mean) <= band
    _criterion(4, "naive vs measure-change consistency", ok,
               f"naive {naive.mean:.6f} (se {naive.stderr:.1e}) vs "
               f"mc {mc.mean:.6f} (se {mc.stderr:.1e}), band {band:.1e}")


def test_criterion_05_engine_validation(model):
    ts = np.array([0.5, 1.0, 2.0, 5.0, 10.0])
    pairs = [(lambda d: 1 / d**2, ts), (lambda d: 1 / (d + 1), np.exp(-ts))]
    # each engine's worst on its own; the production engine on the rule
    # whose values the package reports
    engines = {
        "hyperbola_grid": lambda F: hyperbola_grid(F, ts)[0],
        "talbot_invert M=32": lambda F: [talbot_invert(F, t, M=32) for t in ts],
        "levin_invert n=24": lambda F: [levin_invert(F, t, n=24) for t in ts],
    }
    known = {name: max(np.max(np.abs(np.asarray(invert(F)) - exact)) for F, exact in pairs)
             for name, invert in engines.items()}
    gaps = []
    oracle = Oracle(0.01, 1.0, 0.99, 0.2)
    for t in np.linspace(0.5, 20.0, 8):
        a = float(oracle.b(float(t), 32))
        eps = max(0.0, model.psi_alpha) + 1.0 / float(t)
        b = levin_invert(lambda d: b_tilde(model, d), float(t), n=64, eps=eps)
        gaps.append(abs(a / b - 1.0))
    cross_worst = max(gaps)
    ok = max(known.values()) <= 1e-6 and cross_worst <= 1e-5
    _criterion(5, "inversion engine validation", ok,
               "known-pair worst " + ", ".join(f"{name} {worst:.2e}"
                                               for name, worst in known.items())
               + f" (each <=1e-6), cross-engine worst {cross_worst:.2e} (<=1e-5)")


def test_criterion_06_small_t_linearity(bf):
    dev = abs(bf.value(1e-3) / 1e-3 - 1.0)
    _criterion(6, "small-t linearity", dev <= 0.05, f"|B(1e-3)/1e-3 - 1| = {dev:.2e}")


def test_criterion_07_growth_regimes(model, bf):
    binf = b_infinity(model)
    plateau_gap = abs(bf.value(200.0) / binf - 1.0)
    plateau_ok = plateau_gap <= 0.01
    # below the inversion's own tolerance the figure is rounding noise
    plateau = (f"< {B_INVERSION_RTOL:.0e} (the inversion's self-check tolerance)"
               if plateau_gap <= B_INVERSION_RTOL else f"= {plateau_gap:.2e}")

    super_model = ClaimsModel.from_loading(0.01, 1.0, 0.5, 0.2)
    slope = growth_diagnostic(super_model, 20.0, 50.0, points=10)
    slope_gap = abs(slope / super_model.psi_alpha - 1.0)
    slope_ok = slope_gap <= 0.10
    ts = np.linspace(20.0, 50.0, 10)  # growth_diagnostic's grid
    terms = _pole_terms(super_model, ts)
    predicted = np.polyfit(ts, np.log(terms), 1)[0]
    rest = 1.0 - terms / BFunction(super_model).grid(ts)
    detail = (
        f"plateau |B(200)/B(inf)-1| {plateau} (<=1e-2); "
        f"supercritical slope {slope:.5f} vs psi {super_model.psi_alpha:.5f} "
        f"(gap {slope_gap:.0%}, required <=10%): [20,50] sits outside the "
        f"asymptotic regime. The transform's pole terms, at psi (double) and at 0, "
        f"predict a slope of {predicted:.4f} there against the measured {slope:.4f}; "
        f"the prediction leaves out the remainder of B, {rest[0]:.0%} of B at t=20 "
        f"and {rest[-1]:.1%} at t=50. On [600,1000] the pole terms match B and the "
        f"same check passes (see test_pole_terms_match_b_late and "
        f"test_growth_asymptotic_window)"
    )
    _criterion(7, "growth regimes", plateau_ok and slope_ok, detail)


def _pole_terms(m: ClaimsModel, ts):
    """B's terms from the poles of its transform, e^(psi t) (A t + C) + D, of a
    supercritical model, psi = psi_X(alpha): with Phi = Phi_X(psi) and
    Phi' = 1/psi_X'(Phi), the double pole at psi gives A = 1 - alpha/Phi and
    C = alpha Phi'/Phi^2, and the pole of 1/Phi_X at 0 gives
    D = alpha |E[X_1]|/psi^2."""
    psi = m.psi_alpha
    root = phi(m, psi)
    slope_at_root = m.tilt_coefficient * m.rho * (m.alpha - root) ** (m.rho - 1.0) - m.p
    a, c = 1.0 - m.alpha / root, m.alpha / (slope_at_root * root ** 2)
    return np.exp(psi * ts) * (a * ts + c) + m.alpha * abs(m.drift_mean) / psi ** 2


def test_pole_terms_match_b_late():
    # companion to criterion 7: on [600, 1000] B is its pole terms to 3.9e-7
    # relative, and their log-slope is growth_diagnostic's to 5e-8
    super_model = ClaimsModel.from_loading(0.01, 1.0, 0.5, 0.2)
    ts = np.linspace(600.0, 1000.0, 9)
    terms = _pole_terms(super_model, ts)
    np.testing.assert_allclose(terms, BFunction(super_model).grid(ts), rtol=1e-6)
    assert_close(np.polyfit(ts, np.log(terms), 1)[0],
                 growth_diagnostic(super_model, 600.0, 1000.0, points=9), rel=2e-7)


def test_growth_asymptotic_window():
    # companion to criterion 7: the log-slope limit does hold once t is a
    # few multiples of 1/psi_X(alpha) (= 70.5 here)
    super_model = ClaimsModel.from_loading(0.01, 1.0, 0.5, 0.2)
    slope = growth_diagnostic(super_model, 600.0, 1000.0, points=9)
    gap = abs(slope / super_model.psi_alpha - 1.0)
    print(f"\n  [companion] supercritical slope on [600,1000]: gap {gap:.1%}")
    assert gap <= 0.10


def test_criterion_08_sampler_validation(model):
    n = 10**6
    zmax = 0.0
    # stable h-increments: E e^(-lam dZ) = exp(h (c Gamma(-rho) lam^rho + p lam))
    h = 0.01
    params = stable_increment_params(model, h)
    rng = np.random.default_rng(100)
    zs = sample_stable(params, rng, size=n)
    for lam in (0.5, 1.0, 2.0):
        vals = np.exp(-lam * zs)
        # stable cumulant: psi_Z(-lam) = c Gamma(-rho) lam^rho, plus the
        # premium drift contribution p*lam*h from the increment's location
        want = math.exp(h * (-model.tilt_coefficient * lam**model.rho + model.p * lam))
        z = (vals.mean() - want) / (vals.std(ddof=1) / math.sqrt(n))
        zmax = max(zmax, abs(z))
    # tempered h-increments via tilting: E e^(-lam V) = exp(h psi_Y(-lam))
    v = _tilted_subordinator_increments(np.random.default_rng(101), n,
                                        replace(params, mu=0.0), model.alpha)
    for lam in (0.5, 1.0, 2.0):
        vals = np.exp(-lam * v)
        want = math.exp(h * float(model.psi_y(-lam)))
        z = (vals.mean() - want) / (vals.std(ddof=1) / math.sqrt(n))
        zmax = max(zmax, abs(z))
    _criterion(8, "sampler transform validation", zmax < 4.0,
               f"max |z| = {zmax:.2f} over 6 transform points, 1e6 draws each")


def test_criterion_09_invariance_suite(model, tmp_path):
    problems = []
    # units-change invariance of the normalized estimate
    base = estimate_tulta(model, 1.0, 10.0)
    for a, b in [(2.0, 0.5), (0.5, 2.0), (1.25, 0.8)]:
        scaled = rescale(model, a, b)
        got = estimate_tulta(scaled, b * 1.0, 10.0 / a)
        if abs(got / base - 1.0) > 1e-6:
            problems.append(f"rescale({a},{b}) gap {abs(got / base - 1.0):.1e}")
    # monotonicity in u and t
    t_vals = estimate_tulta(model, 1.0, [5.0, 10.0, 15.0, 20.0]).tolist()
    if not all(y >= x for x, y in zip(t_vals, t_vals[1:])):
        problems.append("tulta not nondecreasing in t")
    u_vals = estimate_rft(model, [0.5, 1.0, 2.0, 4.0], 10.0).tolist()
    if not all(y <= x for x, y in zip(u_vals, u_vals[1:])):
        problems.append("rft not nonincreasing in u")
    # a/i ratio independent of u
    us = [0.5, 1.0, 2.0, 3.0]
    ratios = (estimate_tulta(model, us, 10.0) / prob_eventual_ruin(model, us)).tolist()
    spread = max(abs(r / ratios[0] - 1.0) for r in ratios[1:])
    if spread > 1e-5:
        problems.append(f"a/i u-dependence {spread:.1e}")
    # byte-identical deterministic rerun through the CLI
    args = [sys.executable, "-m", "tsruin", "simulate", "--preset", "paper-ref",
            "--approach", "mc", "--u-min", "0.2", "--u-steps", "1",
            "--t-min", "1", "--t-steps", "1", "--h", "0.1", "--paths", "256",
            "--batches", "4", "--seed", "31415"]
    outs = []
    for name in ("r1.tsv", "r2.tsv"):
        path = tmp_path / name
        subprocess.run(args + ["--out", str(path)], check=True, capture_output=True)
        outs.append(path.read_bytes())
    if outs[0] != outs[1]:
        problems.append("deterministic rerun differs")
    _criterion(9, "invariance suite", not problems,
               "; ".join(problems) if problems else "rescale, monotonicity, ratio, rerun all hold")


def test_criterion_10_eventual_ruin_asymptotic(model):
    binf = b_infinity(model)
    gap5 = abs(prob_eventual_ruin(model, 5.0) / levy_tail(model, 5.0) / binf - 1.0)
    gap8 = abs(prob_eventual_ruin(model, 8.0) / levy_tail(model, 8.0) / binf - 1.0)
    shrink_ok = gap8 < gap5
    ok = gap5 <= 0.03 and shrink_ok
    _criterion(10, "eventual-ruin tail asymptotic", ok,
               f"gap {gap5:.1%} at u=5 (required <=3%), {gap8:.1%} at u=8 "
               f"(shrinking: {shrink_ok}); the gap decays like ~1.1/u to ~1.3/u "
               f"(gap*u is 1.10 at u=5, 1.33 at u=20, 1.29 at u=45), so the 3% band "
               f"is first met near u=43; test_eventual_ruin_asymptotic_band shows it "
               f"met at u=45, where the package gives P(ruin ever) = 7.6255e-25")


def test_eventual_ruin_asymptotic_band(model):
    # companion to criterion 10: the 3% band holds once u is large enough
    gap = abs(prob_eventual_ruin(model, 45.0) / levy_tail(model, 45.0) / b_infinity(model) - 1.0)
    print(f"\n  [companion] eventual-ruin/tail ratio gap at u=45: {gap:.2%}")
    assert gap <= 0.03
