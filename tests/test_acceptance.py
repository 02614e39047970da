"""Acceptance suite: one test per published criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Three criteria encode reference values or windows that a correct
implementation provably cannot reproduce (see the failing assertions'
messages for the measured numbers and the verified explanation):

* criterion 3: the published finite-time Monte Carlo mean at
  (u=0.1, t=2.0) is ~18% above the true value of the stated model; the
  same simulator reproduces the published benchmark-table simulation
  column at (u=2, t=20) and (u=1, t=10) and passes the independent
  Esscher-consistency and transform-law checks (criteria 4 and 8).
* criterion 7 (supercritical half): the log-slope limit psi_X(alpha) holds
  as t -> infinity, but the transform's double pole adds a 1/t correction
  that is still 3x the limit on the stated [20, 50] window; the same
  statement passes on [600, 1000].
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
    prob_eventual_ruin,
    rescale,
    sample_stable,
    simulate_ruin_mc,
    simulate_ruin_naive,
    stable_increment_params,
    talbot_grid,
    talbot_invert,
)
from tsruin.model import ScaleChange
from tsruin.sim import _tilted_subordinator_increments
from tsruin import _kernels

from conftest import Oracle

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


@pytest.fixture(scope="module")
def table2_mc(model):
    """Full-scale measure-change run at the published configuration."""
    plan = SimPlan(h=0.01, n=16384, N=30, seed=20240817, threads=1)
    return simulate_ruin_mc(model, 0.1, 2.0, plan)


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


def test_criterion_03_measure_change_benchmark(table2_mc):
    res = table2_mc
    mean_ok = abs(res.mean - MC_REFERENCE_MEAN) <= 3.0 * 3.0e-4
    stderr_ok = MC_REFERENCE_STDERR / 2.0 <= res.stderr <= MC_REFERENCE_STDERR * 2.0
    detail = (
        f"mean {res.mean:.6f} vs published {MC_REFERENCE_MEAN} "
        f"(band +-{3 * 3.0e-4}), stderr {res.stderr:.2e} vs {MC_REFERENCE_STDERR:.1e}; "
        f"the published mean is not reproducible from the stated model: this "
        f"simulator matches the published benchmark-table simulation column at "
        f"(2,20)/(1,10) and its own exact-law counterpart (criterion 4), and the "
        f"published point value is instead consistent with a doubled horizon t=4"
    )
    _criterion(3, "measure-change benchmark point", mean_ok and stderr_ok, detail)


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
    probs = []
    for t in (0.5, 1.0, 2.0, 5.0, 10.0):
        probs.append(abs(talbot_invert(lambda d: 1 / d**2, t, M=32) - t))
        probs.append(abs(talbot_invert(lambda d: 1 / (d + 1), t, M=32) - math.exp(-t)))
        probs.append(abs(levin_invert(lambda d: 1 / d**2, t, n=24) - t))
        probs.append(abs(levin_invert(lambda d: 1 / (d + 1), t, n=24) - math.exp(-t)))
    # the production engine, at the term count whose values the package reports
    ts = np.array([0.5, 1.0, 2.0, 5.0, 10.0])
    probs.extend(np.abs(talbot_grid(lambda d: 1 / d**2, ts, 24) - ts))
    probs.extend(np.abs(talbot_grid(lambda d: 1 / (d + 1), ts, 24) - np.exp(-ts)))
    known_worst = max(probs)
    gaps = []
    oracle = Oracle(0.01, 1.0, 0.99, 0.2)
    for t in np.linspace(0.5, 20.0, 8):
        a = float(oracle.b(float(t), 32))
        eps = max(0.0, model.psi_alpha) + 1.0 / float(t)
        b = levin_invert(lambda d: b_tilde(model, d), float(t), n=64, eps=eps)
        gaps.append(abs(a / b - 1.0))
    cross_worst = max(gaps)
    ok = known_worst <= 1e-6 and cross_worst <= 1e-5
    _criterion(5, "inversion engine validation", ok,
               f"known-pair worst {known_worst:.2e} (<=1e-6), "
               f"cross-engine worst {cross_worst:.2e} (<=1e-5)")


def test_criterion_06_small_t_linearity(bf):
    dev = abs(bf.value(1e-3) / 1e-3 - 1.0)
    _criterion(6, "small-t linearity", dev <= 0.05, f"|B(1e-3)/1e-3 - 1| = {dev:.2e}")


def test_criterion_07_growth_regimes(model, bf):
    binf = b_infinity(model)
    plateau_gap = abs(bf.value(200.0) / binf - 1.0)
    plateau_ok = plateau_gap <= 0.01

    super_model = ClaimsModel.from_loading(0.01, 1.0, 0.5, 0.2)
    slope = growth_diagnostic(super_model, 20.0, 50.0, points=10)
    slope_gap = abs(slope / super_model.psi_alpha - 1.0)
    slope_ok = slope_gap <= 0.10
    detail = (
        f"plateau |B(200)/B(inf)-1| = {plateau_gap:.2e} (<=1e-2); "
        f"supercritical slope {slope:.5f} vs psi {super_model.psi_alpha:.5f} "
        f"(gap {slope_gap:.0%}, required <=10%): the transform's double pole at "
        f"psi adds a d(ln t)/dt ~ 1/t term, so [20,50] sits outside the "
        f"asymptotic regime; the same check passes on [600,1000] "
        f"(see test_growth_asymptotic_window)"
    )
    _criterion(7, "growth regimes", plateau_ok and slope_ok, detail)


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
    theta0, scale0 = _kernels.cms_constants(params.rho, 1.0)
    v = _tilted_subordinator_increments(np.random.default_rng(101), n, params.nu,
                                        params.rho, model.alpha, theta0, scale0)
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
        scaled = rescale(model, ScaleChange(a, b))
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
        rows = [ln.split(b"\t") for ln in path.read_bytes().splitlines()]
        outs.append([[c for i, c in enumerate(r) if i != 4] for r in rows])  # drop elapsed
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
