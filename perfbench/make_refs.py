"""Regenerate the stored reference data under ``perfbench/refs``.

    python3 perfbench/make_refs.py oracle   # inversion references, ~5 min on 2 cores
    python3 perfbench/make_refs.py mc       # Monte Carlo reference runs, ~1 min
    python3 perfbench/make_refs.py known    # cells that fail at the current commit

``oracle`` evaluates every deterministic cell of every grid variant with the
independent mpmath oracle at M = 64 and M = 96 and keeps the value only
where the two agree to ``AGREE`` relative; elsewhere it stores ``null`` and
the cell is checked for sign and monotonicity only.  ``mc`` runs each Monte
Carlo command of the benchmark with four times the paths at a seed the
benchmark never uses.  ``known`` records which cells fail their gates at the
commit it runs on; ``run.py`` reports those cells in ``fail_frac`` and
fails the run only for cells outside that list.  Run it from the root of
the repository.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from oracle import Oracle  # noqa: E402

REFS = HERE / "refs"
PRECISIONS = (64, 96)
AGREE = 1e-10


def _agreed(fn, x):
    """fn(x, M) at both precisions; the value when they agree, else None."""
    lo, hi = (fn(x, M) for M in PRECISIONS)
    if abs(lo - hi) <= AGREE * abs(hi) and hi != 0:
        return float(hi)
    return None


def _scale(a, b):
    return None if a is None or b is None else a * b


def _oracle_cells(job):
    """Reference cells of one (workload, variant)."""
    workload, variant = job
    out = {}
    for cmd in W.commands(workload, variant):
        o = Oracle(*W.MODELS[cmd.model])
        if cmd.kind == "b":
            out[cmd.label] = {"B": [_agreed(o.b, float(t)) for t in cmd.axis("t")]}
        elif cmd.kind in ("tulta", "rft", "benchmark"):
            us, ts = cmd.axis("u"), cmd.axis("t")
            bs = [_agreed(o.b, float(t)) for t in ts]
            if cmd.kind == "rft":
                tails = [_agreed(lambda u, M: o.levy_tail(u, M // 2), float(u)) for u in us]
                out[cmd.label] = {"value": [_scale(lt, b) for lt in tails for b in bs]}
                continue
            binf = float(o.b_infinity())
            ps = [_agreed(o.p_ruin, float(u)) for u in us]
            ratio = [None if b is None else min(1.0, b / binf) for b in bs]
            cells = [_scale(p, r) for p in ps for r in ratio]
            if cmd.kind == "tulta":
                out[cmd.label] = {"value": cells}
            else:
                out[cmd.label] = {"a": cells, "i": [p for p in ps for _ in ts]}
        elif cmd.kind == "scale-fn":
            us = [float(u) for u in cmd.axis("u")]
            out[cmd.label] = {"W": [_agreed(o.w, u) for u in us],
                              "P": [_agreed(o.p_ruin, u) for u in us]}
    return workload, variant, out


def make_oracle() -> None:
    jobs = [(w, v) for w in ("b-regimes", "ruin-grid") for v in range(W.VARIANTS)]
    jobs.append(("mc-table", 0))
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=2) as pool:
        results = pool.map(_oracle_cells, jobs, chunksize=1)
    refs = {"precisions": list(PRECISIONS), "agree": AGREE}
    for workload, variant, cells in results:
        refs.setdefault(workload, {})[str(variant)] = cells
    _dump("oracle.json", refs)


def make_mc() -> None:
    from tsruin.cli import main

    refs = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = os.path.join(tmp, "ref.tsv")
        for key, cmd in W.mc_reference_commands().items():
            if main(cmd.argv(out)) != 0:
                raise SystemExit(f"reference run {key} failed")
            with open(out, encoding="utf-8") as fh:
                rows = [line.split("\t") for line in fh.read().splitlines()[1:]]
            h, paths, batches, seed, approach = cmd.mc
            refs[key] = {"argv": cmd.argv("REF.tsv"), "paths": paths * batches,
                         "mean": [float(r[2]) for r in rows],
                         "stderr": [float(r[3]) for r in rows]}
            print(key, refs[key]["mean"][:3], flush=True)
    _dump("mc.json", refs)


def make_known() -> None:
    import run

    known = {}
    for workload in ("b-regimes", "ruin-grid"):
        for variant in range(W.VARIANTS):
            checker = run.Checker(workload, variant, known=())
            with tempfile.TemporaryDirectory(dir=HERE) as tmp:
                for cmd in W.commands(workload, variant):
                    text, rc, _ = run.run_command(cmd, tmp)
                    checker.check(cmd, text, rc)
            failing = dict(sorted(checker.failures.items()))
            known.setdefault(workload, {})[str(variant)] = failing
            print(workload, variant, len(failing), "known failing cells", flush=True)
    _dump("known_failures.json", known)


def _dump(name: str, obj) -> None:
    REFS.mkdir(exist_ok=True)
    (REFS / name).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    steps = {"oracle": make_oracle, "mc": make_mc, "known": make_known}
    if len(sys.argv) != 2 or sys.argv[1] not in steps:
        raise SystemExit(f"usage: make_refs.py {{{'|'.join(steps)}}}")
    if sys.argv[1] != "oracle":
        sys.path.insert(0, str(HERE.parent / "src"))
    steps[sys.argv[1]]()
