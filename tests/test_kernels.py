"""Tests for the hot kernels: the blocked transform bit for bit against its
one-expression formula, grid scans against brute force, and the numpy
kernels end to end in a fresh interpreter."""
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from tsruin._kernels import (
    _BLOCK_ELEMENTS as BLOCK,
    cms_constants,
    first_passage_scan,
    mc_weight_scan,
    stable_standard,
)


def _draws(seed=7, shape=(400, 50)):
    rng = np.random.default_rng(seed)
    u_ang = np.pi * (rng.random(shape) - 0.5)
    w_exp = rng.standard_exponential(shape)
    return u_ang, w_exp


def cms_formula(u_ang, w_exp, rho, theta0, scale0):
    """The Chambers-Mallows-Stuck transform as one expression: the reference
    the blocked kernels must match bit for bit."""
    return (scale0 * np.sin(rho * (u_ang + theta0)) / np.cos(u_ang) ** (1.0 / rho)
            * (np.cos(u_ang - rho * (u_ang + theta0)) / w_exp) ** ((1.0 - rho) / rho))


class TestStableStandard:
    @pytest.mark.parametrize("beta", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.99, 1.5])
    def test_bitwise_equal_to_formula_across_block_edges(self, rho, beta):
        theta0, scale0 = cms_constants(rho, beta)
        for size in (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7):
            for shape in ((size,), (2, size)):
                u_ang, w_exp = _draws(seed=size, shape=shape)
                got = stable_standard(u_ang, w_exp, rho, theta0, scale0)
                want = cms_formula(u_ang, w_exp, rho, theta0, scale0)
                assert got.shape == shape
                assert got.tobytes() == want.tobytes(), (size, shape)


class TestGridScans:
    barriers = np.array([0.02, 0.05, 0.1])
    ends = np.array([7, 20, 21, 50])

    def test_first_passage_grid_matches_brute_force(self):
        # 3000 rows are ten row blocks, the last one partial
        self._check_first_passage_grid((3000, 50), self.ends)

    def test_first_passage_one_row_per_block(self):
        self._check_first_passage_grid((5, BLOCK + 5), np.array([7, 20, BLOCK + 1, BLOCK + 5]))

    def _check_first_passage_grid(self, shape, ends):
        rng = np.random.default_rng(3)
        incr = rng.normal(-0.001, 0.02, size=shape)
        before = incr.copy()
        path = np.cumsum(incr, axis=1)
        # two levels equal to partial sums of the unblocked cumsum: a blocked
        # sum one ulp above them would count one path more
        levels = np.concatenate([self.barriers, path[:2].max(axis=1)])
        hits = np.zeros((len(levels), len(ends)), dtype=np.int64)
        crossing = first_passage_scan(incr, levels, ends, hits)
        assert incr.tobytes() == before.tobytes()
        assert crossing == int((path > levels.min()).any(axis=1).sum())
        for i, b in enumerate(levels):
            for j, e in enumerate(ends):
                assert hits[i, j] == int((path[:, :e] > b).any(axis=1).sum())
                assert hits[i, j] == first_passage_scan(incr[:, :e], float(b))

    def test_mc_grid_matches_brute_force(self):
        # 2000 rows are not a multiple of a row block
        self._check_mc_grid((2000, 50), self.ends)

    def test_mc_grid_one_row_per_block(self):
        self._check_mc_grid((5, BLOCK + 5), np.array([7, 20, BLOCK + 1, BLOCK + 5]))

    def _check_mc_grid(self, shape, ends):
        u_ang, w_exp = _draws(shape=shape)
        theta0, scale0 = cms_constants(0.99, 1.0)
        law = (0.99, theta0, scale0, 1.44e-4, -0.0119)
        sums, crossing, hits, wmax = mc_weight_scan(u_ang, w_exp, *law, self.barriers, 1.0, ends)
        path = np.cumsum(law[3] * cms_formula(u_ang, w_exp, *law[:3]) + law[4], axis=1)
        for i, b in enumerate(self.barriers):
            for j, e in enumerate(ends):
                hit = (path[:, :e] > b).any(axis=1)
                weights = np.exp(-path[hit, e - 1])
                assert sums[i, j] == weights.sum()
                assert hits[i, j] == hit.sum()
                assert wmax[i, j] == weights.max(initial=0.0)
                cell = mc_weight_scan(u_ang[:, :e], w_exp[:, :e], *law, float(b), 1.0)
                assert (cell[0][0, 0], cell[2][0, 0], cell[3][0, 0]) == (sums[i, j], hits[i, j],
                                                                       wmax[i, j])
        assert crossing == int((path > self.barriers.min()).any(axis=1).sum())

    def test_mc_scan_temporaries_stay_small(self):
        # a whole path array (one input-sized temporary) would be 8x the bound
        u_ang, w_exp = _draws(shape=(4096, 200))
        theta0, scale0 = cms_constants(0.99, 1.0)
        tracemalloc.start()
        try:
            mc_weight_scan(u_ang, w_exp, 0.99, theta0, scale0, 1.44e-4, -0.0119, 0.05, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < u_ang.nbytes / 8

    def test_first_passage_temporaries_stay_small(self):
        # the hit rule's mask covers one horizon at a time: a levels x paths
        # x horizons array would be 40 MB on top of the 6.6 MB input here
        incr = np.random.default_rng(5).normal(-0.001, 0.02, size=(4096, 200))
        ends = np.arange(2, 201, 2)

        def peak(levels):
            counts = np.zeros((len(levels), len(ends)), dtype=np.int64)
            tracemalloc.start()
            try:
                first_passage_scan(incr, levels, ends, counts)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(np.linspace(0.01, 1.0, 100)) <= 1.25 * peak(np.array([0.5]))

    def test_scalar_call_returns_one_cell(self):
        u_ang, w_exp = _draws()
        theta0, scale0 = cms_constants(0.99, 1.0)
        ws, crossing, hits, wmax = mc_weight_scan(u_ang, w_exp, 0.99, theta0, scale0, 1.44e-4,
                                                  -0.0119, 0.05, 1.0)
        assert ws.shape == hits.shape == wmax.shape == (1, 1)
        assert isinstance(crossing, int) and hits[0, 0] == crossing > 0
        assert 0.0 < wmax[0, 0] <= ws[0, 0] <= crossing * wmax[0, 0]
        assert isinstance(first_passage_scan(u_ang * 0.01, 0.05), int)


class TestFreshInterpreter:
    def test_estimator_end_to_end(self):
        # the full estimator runs on the numpy kernels in a fresh interpreter
        code = (
            "import tsruin\n"
            "m = tsruin.ClaimsModel.from_loading(0.01, 1.0, 0.99, 0.2)\n"
            "plan = tsruin.SimPlan(h=0.1, n=256, N=3, seed=4, threads=1)\n"
            "r = tsruin.simulate_ruin_mc(m, 0.2, 1.0, plan)\n"
            "print(r.mean)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert float(out.stdout) >= 0.0
