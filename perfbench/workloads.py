"""The four benchmark workloads, built from a seed.

Each workload is a list of ``Command`` records: the argv handed to
``tsruin.cli.main`` plus what the checker needs to know about its output.
The deterministic workloads (``b-regimes``, ``ruin-grid``) take one of
``VARIANTS`` slightly shifted grids, chosen by ``seed % VARIANTS``, so a
change cannot special-case one set of grid points; every variant keeps the
grid ends where the documented defects live (t = 1000 for the supercritical
model, u = 40 for the eventual-ruin probability).  The Monte Carlo
workloads keep their grids fixed and draw their random stream from the
seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANTS = 8

# name -> (c, alpha, rho, xi)
MODELS = {
    "paper-ref": (0.01, 1.0, 0.99, 0.2),
    "critical": (0.01, 1.0, 1.0 / 1.2, 0.2),
    "supercritical": (0.01, 1.0, 0.5, 0.2),
}

# Monte Carlo reference runs use even seeds, the benchmark odd ones, so
# a cell is never compared against its own random stream.
MC_REF_SEED = 20260
MC_REF_PATH_FACTOR = 4

WORKLOADS = ("b-regimes", "ruin-grid", "mc-table", "mc-point")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    kind      the output layout: b, tulta, rft, scale-fn, benchmark, simulate
    label     stable name used for references, known failures and reports
    model     key into MODELS
    grids     axis -> (lo, hi, steps), as the CLI builds them
    mc        (h, paths, batches, seed, approach) for Monte Carlo commands
    """

    label: str
    kind: str
    model: str
    grids: dict
    mc: tuple = ()

    def argv(self, out: str, threads: int = 1) -> list:
        c, alpha, rho, xi = MODELS[self.model]
        cli_kind = {"tulta": "ruin-surface", "rft": "ruin-surface"}.get(self.kind, self.kind)
        argv = [cli_kind, "--c", repr(c), "--alpha", repr(alpha), "--rho", repr(rho),
                "--xi", repr(xi)]
        if self.kind in ("tulta", "rft"):
            argv += ["--method", self.kind]
        for axis, (lo, hi, steps) in self.grids.items():
            argv += [f"--{axis}-min", repr(lo), f"--{axis}-max", repr(hi),
                     f"--{axis}-steps", str(steps)]
        if self.mc:
            h, paths, batches, seed, approach = self.mc
            argv += ["--h", repr(h), "--paths", str(paths), "--batches", str(batches),
                     "--seed", str(seed)]
            if self.kind == "simulate":
                argv += ["--approach", approach]
        return argv + ["--threads", str(threads), "--out", out]

    def axis(self, name: str) -> np.ndarray:
        lo, hi, steps = self.grids[name]
        return np.linspace(lo, hi, steps)


def variant_of(workload: str, seed: int) -> int:
    """Grid variant of a deterministic workload; 0 for Monte Carlo ones."""
    return seed % VARIANTS if workload in ("b-regimes", "ruin-grid") else 0


def mc_seed(seed: int) -> int:
    return 2 * seed + 1


def commands(workload: str, seed: int) -> list:
    v = variant_of(workload, seed)
    if workload == "b-regimes":
        t0 = 0.5 + 0.05 * v
        return [
            Command("b-subcritical", "b", "paper-ref", {"t": (t0, 200.0, 40)}),
            Command("b-critical", "b", "critical", {"t": (t0, 1000.0, 40)}),
            Command("b-supercritical", "b", "supercritical", {"t": (t0, 1000.0, 40)}),
        ]
    if workload == "ruin-grid":
        grid = {"u": (0.2 + 0.01 * v, 2.0, 10), "t": (1.0 + 0.05 * v, 20.0, 20)}
        return [
            Command("surface-tulta", "tulta", "paper-ref", grid),
            Command("surface-rft", "rft", "paper-ref", grid),
            Command("scale-fn", "scale-fn", "paper-ref", {"u": (0.5 + 0.05 * v, 40.0, 80)}),
        ]
    s = mc_seed(seed)
    if workload == "mc-table":
        return [Command("benchmark", "benchmark", "paper-ref",
                        {"u": (1.0, 2.0, 3), "t": (10.0, 20.0, 6)},
                        mc=(0.05, 1024, 8, s, "mc"))]
    if workload == "mc-point":
        point = {"u": (0.1, 0.1, 1), "t": (2.0, 2.0, 1)}
        return [
            Command("simulate-mc", "simulate", "paper-ref", point, mc=(0.01, 16384, 8, s, "mc")),
            Command("simulate-naive", "simulate", "paper-ref", point,
                    mc=(0.01, 4096, 8, s, "naive")),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def warmup_commands(workload: str) -> list:
    """One-cell versions of each command kind: finish lazy set-up before timing."""
    cell = {"t": (1.0, 1.0, 1)}
    if workload == "b-regimes":
        return [Command("warm-b", "b", "paper-ref", cell)]
    if workload == "ruin-grid":
        return [Command("warm-tulta", "tulta", "paper-ref", {"u": (1.0, 1.0, 1), **cell}),
                Command("warm-scale", "scale-fn", "paper-ref", {"u": (1.0, 1.0, 1)})]
    if workload == "mc-table":
        return [Command("warm-bench", "benchmark", "paper-ref", {"u": (1.0, 1.0, 1), **cell},
                        mc=(0.05, 64, 2, 1, "mc"))]
    return [Command("warm-mc", "simulate", "paper-ref", {"u": (0.1, 0.1, 1), "t": (0.1, 0.1, 1)},
                    mc=(0.01, 64, 2, 1, "mc")),
            Command("warm-naive", "simulate", "paper-ref",
                    {"u": (0.1, 0.1, 1), "t": (0.1, 0.1, 1)}, mc=(0.01, 64, 2, 1, "naive"))]


def mc_reference_commands() -> dict:
    """The stored Monte Carlo reference runs: same grid and step as the
    benchmark, ``MC_REF_PATH_FACTOR`` times the paths, an even seed."""
    refs = {}
    for workload in ("mc-table", "mc-point"):
        for cmd in commands(workload, 0):
            h, paths, batches, _, approach = cmd.mc
            refs[f"{workload}/{cmd.label}"] = Command(
                cmd.label, "simulate", cmd.model, cmd.grids,
                mc=(h, paths * MC_REF_PATH_FACTOR, batches, MC_REF_SEED, approach))
    return refs
