#!/usr/bin/env python3
"""tsruin benchmark: four CLI workloads, correctness gates and a traced run.

    python3 perfbench/run.py --workload b-regimes --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` the run measures the end-to-end metrics with the package
unpatched: ``setup_s`` (fresh interpreter to the end of one tiny command,
median of several), ``wall_s`` (median time of the workload's command list
after a warm-up), ``peak_rss_mb`` (this process's peak resident set) and
``cells_ok_frac`` (the share of checked output cells that pass).  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  Either way every output cell is checked (see
``Checker``) and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
name the failing cells and record the environment; the full record,
including spans of a traced run, goes to ``perfbench/results/``.
See ``perfbench/README.md`` for the metric definitions.
"""
from __future__ import annotations

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

SETUP_SAMPLES = 3
MIN_ITERATIONS = 3
REL_TOL = 1e-6       # inversion cells against the oracle
MC_SIGMAS = 5.0      # Monte Carlo cells against the stored run
RATIO_TOL = 1e-7     # derived columns of `benchmark`, printed at 9 digits

# a child that imports the package, runs one tiny command and reports when
# it finished on the clock this process reads too
PROBE = ("import json, sys, time\nimport tsruin.cli\n"
         "rc = tsruin.cli.main(json.loads(sys.argv[1]))\n"
         "print(time.monotonic())\nsys.exit(rc)\n")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


def run_command(cmd: W.Command, workdir: str, threads: int = 1):
    """Run one CLI command in-process; (output text, exit code, seconds)."""
    import tsruin.cli

    out = os.path.join(workdir, f"{cmd.label}.tsv")
    argv = cmd.argv(out, threads)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            rc = tsruin.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a dead benchmark
            print(f"{type(exc).__name__}: {exc}", file=sink)
            rc = -1
        seconds = time.perf_counter() - start
    text = ""
    if rc == 0:
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        os.unlink(out)
    else:
        print(f"# command {cmd.label} exited {rc}: {sink.getvalue().strip()[-500:]}")
    return text, rc, seconds


def run_iteration(cmds, workdir, checker, threads=1):
    """One pass over the command list; returns its wall time."""
    total = 0.0
    for cmd in cmds:
        text, rc, seconds = run_command(cmd, workdir, threads)
        total += seconds
        checker.check(cmd, text, rc)
    return total


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------


def _load_refs(name: str) -> dict:
    with open(HERE / "refs" / name, encoding="utf-8") as fh:
        return json.load(fh)


def _sections(text: str) -> list:
    """TSV text -> list of (header, rows), rows as lists of strings."""
    out = []
    for block in text.split("\n\n"):
        lines = [ln for ln in block.split("\n") if ln]
        if lines and lines[0].startswith("# "):
            out.append((lines[0][2:].split("\t"), [ln.split("\t") for ln in lines[1:]]))
    return out


def _masked(cmd: W.Command, text: str) -> list:
    """Output lines with the wall-clock `elapsed` column of simulate masked."""
    lines = text.split("\n")
    if cmd.kind != "simulate":
        return lines
    return [ln if ln.startswith("#") or not ln else "\t".join(
        f if i != 4 else "-" for i, f in enumerate(ln.split("\t"))) for ln in lines]


class Checker:
    """Gates every output cell of every command and tallies the failures.

    A cell is one checked number: B, a surface value, W, P(ruin ever), or
    the a, s, i and derived-ratio columns of a `benchmark` row.  Gates:
    relative error <= REL_TOL against the oracle where it has a value; every
    probability and profile value > 0; B and the estimates built on it
    non-decreasing in t; Monte Carlo means within MC_SIGMAS standard errors
    of the stored larger run; the grid coordinates as requested; and the
    same bytes (elapsed masked) on every repetition of a command.  Cells in
    ``known`` are failures already present when the benchmark was defined:
    they count in fail_frac but do not make the run incorrect.
    """

    def __init__(self, workload: str, variant: int, known=None):
        self.oracle = _load_refs("oracle.json").get(workload, {}).get(str(variant), {})
        self.mc = _load_refs("mc.json")
        if known is None:
            known = _load_refs("known_failures.json").get(workload, {}).get(str(variant), [])
        self.workload = workload
        self.known = set(known)
        self.cells = 0
        self.failed_cells = 0
        self.failures = {}      # cell id -> sorted reasons
        self.operations = 0
        self.failed_operations = 0
        self._first = {}

    def unexpected(self) -> list:
        return sorted(c for c, why in self.failures.items()
                      if c not in self.known or "nondeterministic" in why or "grid" in why)

    def check(self, cmd: W.Command, text: str, rc: int) -> None:
        self.operations += 1
        cells = {}  # cell id -> reasons, insertion-ordered
        rows_of = {}  # row key -> cell ids

        def cell(cid, row, ok_checks):
            reasons = [why for why, ok in ok_checks if not ok]
            cells[f"{cmd.label}/{cid}"] = reasons
            rows_of.setdefault(row, []).append(f"{cmd.label}/{cid}")

        if rc != 0:
            self.failed_operations += 1
        sections = _sections(text) if rc == 0 else []
        getattr(self, f"_check_{cmd.kind.replace('-', '_')}")(cmd, sections, cell)

        masked = _masked(cmd, text)
        first = self._first.setdefault(cmd.label, masked)
        if masked != first:
            body = [ln for ln in masked if ln and not ln.startswith("#")]
            ref = [ln for ln in first if ln and not ln.startswith("#")]
            for k, ids in rows_of.items():
                if k >= len(body) or k >= len(ref) or body[k] != ref[k]:
                    for cid in ids:
                        cells[cid].append("nondeterministic")
        for cid, reasons in cells.items():
            self.cells += 1
            if reasons:
                self.failed_cells += 1
                self.failures[cid] = sorted(set(self.failures.get(cid, [])) | set(reasons))

    # -- per command kind; `cell(id, row, [(reason, ok), ...])` ------------

    @staticmethod
    def _rows(sections, index, expect):
        rows = sections[index][1] if len(sections) > index else []
        return (rows + [None] * expect)[:expect]

    @staticmethod
    def _value(row, col):
        try:
            return float(row[col])
        except (TypeError, IndexError, ValueError):
            return math.nan

    def _gates(self, x, ref, prev=None):
        checks = [("positive", x > 0.0)]
        if ref is not None:
            checks.append(("rel_err", abs(x - ref) <= REL_TOL * abs(ref)))
        if prev is not None:
            checks.append(("monotone", not x < prev))
        return checks

    def _grid_ok(self, row, coords):
        return all(abs(self._value(row, i) - c) <= 1e-8 * abs(c) for i, c in enumerate(coords))

    def _check_b(self, cmd, sections, cell):
        ts = cmd.axis("t")
        refs = self.oracle.get(cmd.label, {}).get("B", [None] * len(ts))
        prev = None
        for i, (t, row) in enumerate(zip(ts, self._rows(sections, 0, len(ts)))):
            x = self._value(row, 1)
            cell(f"B@t={t:.9g}", i,
                 self._gates(x, refs[i], prev) + [("grid", self._grid_ok(row, [t]))])
            prev = x

    def _check_surface(self, cmd, sections, cell):
        us, ts = cmd.axis("u"), cmd.axis("t")
        refs = self.oracle.get(cmd.label, {}).get("value", [None] * (len(us) * len(ts)))
        rows = self._rows(sections, 0, len(us) * len(ts))
        for i, row in enumerate(rows):
            u, t = us[i // len(ts)], ts[i % len(ts)]
            x = self._value(row, 2)
            prev = self._value(rows[i - 1], 2) if i % len(ts) else None
            cell(f"{cmd.kind}@u={u:.9g},t={t:.9g}", i,
                 self._gates(x, refs[i], prev) + [("grid", self._grid_ok(row, [u, t]))])

    _check_tulta = _check_surface
    _check_rft = _check_surface

    def _check_scale_fn(self, cmd, sections, cell):
        us = cmd.axis("u")
        refs = self.oracle.get(cmd.label, {})
        for sec, col in enumerate(("W", "P")):
            col_refs = refs.get(col, [None] * len(us))
            for i, (u, row) in enumerate(zip(us, self._rows(sections, sec, len(us)))):
                cell(f"{col}@u={u:.9g}", sec * len(us) + i,
                     self._gates(self._value(row, 1), col_refs[i])
                     + [("grid", self._grid_ok(row, [u]))])

    def _mc_gate(self, key, i, x, stderr):
        ref = self.mc[key]
        bound = MC_SIGMAS * math.hypot(stderr, ref["stderr"][i])
        return [("positive", x > 0.0), ("mc_agree", abs(x - ref["mean"][i]) <= bound)]

    def _check_benchmark(self, cmd, sections, cell):
        us, ts = cmd.axis("u"), cmd.axis("t")
        refs = self.oracle.get(cmd.label, {})
        n = len(us) * len(ts)
        a_refs, i_refs = refs.get("a", [None] * n), refs.get("i", [None] * n)
        mc_key = f"{self.workload}/{cmd.label}"
        # the table prints no standard error: scale the stored run's by its
        # path count relative to this run's
        _, paths, batches, _, _ = cmd.mc
        se_scale = math.sqrt(self.mc[mc_key]["paths"] / (paths * batches))
        rows = self._rows(sections, 0, n)
        for k, row in enumerate(rows):
            u, t = us[k // len(ts)], ts[k % len(ts)]
            at = f"@u={u:.9g},t={t:.9g}"
            a, s, i = (self._value(row, c) for c in (2, 3, 4))
            prev = self._value(rows[k - 1], 2) if k % len(ts) else None
            grid = [("grid", self._grid_ok(row, [u, t]))]
            cell("a" + at, k, self._gates(a, a_refs[k], prev) + grid)
            cell("s" + at, k, self._mc_gate(mc_key, k, s, se_scale * self.mc[mc_key]["stderr"][k]))
            cell("i" + at, k, self._gates(i, i_refs[k]))
            # a, s, i are printed rounded, so a difference is only as exact
            # as the size of its operands
            ratios_ok = s > 0 and all(
                abs(self._value(row, 5 + j) - d) <= RATIO_TOL * size
                for j, (d, size) in enumerate(((a / s, a / s), (i / s, i / s),
                                               (abs(a - s) / s, (a + s) / s),
                                               (abs(i - s) / s, (i + s) / s))))
            cell("ratios" + at, k, [("ratios", ratios_ok)])

    def _check_simulate(self, cmd, sections, cell):
        us, ts = cmd.axis("u"), cmd.axis("t")
        mc_key = f"{self.workload}/{cmd.label}"
        for k, row in enumerate(self._rows(sections, 0, len(us) * len(ts))):
            u, t = us[k // len(ts)], ts[k % len(ts)]
            cell(f"mean@u={u:.9g},t={t:.9g}", k,
                 self._mc_gate(mc_key, k, self._value(row, 2), self._value(row, 3))
                 + [("grid", self._grid_ok(row, [u, t]))])


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def measure_setup(workload: str, workdir: str) -> list:
    """Seconds from a fresh interpreter's start to the end of one tiny command."""
    cmd = W.warmup_commands(workload)[0]
    argv = json.dumps(cmd.argv(os.path.join(workdir, "probe.tsv")))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", PROBE, argv], env=_child_env(),
                              capture_output=True, text=True, timeout=120, cwd=workdir)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def import_times() -> dict:
    """Seconds of `import tsruin` spent importing numpy, scipy and mpmath:
    the `-X importtime` cumulative time of each import of one of a
    package's modules that no import of these three packages encloses (so
    numpy modules that scipy pulls in count for scipy)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tsruin"],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    entries = []  # (depth, top-level package, cumulative seconds), children first
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "cumulative" in line:
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip().split(".")[0], float(parts[1]) * 1e-6))
    totals = dict.fromkeys(("numpy", "scipy", "mpmath"), 0.0)
    for i, (depth, top, cumulative) in enumerate(entries):
        if top not in totals:
            continue
        enclosing = set()
        for e in entries[i + 1:]:
            if e[0] < depth:
                enclosing.add(e[1])
                depth = e[0]
        if not enclosing & totals.keys():
            totals[top] += cumulative
    return {f"setup.import.{k}_s": v for k, v in totals.items()}


def kernel_timings(repeat: int = 5, paths: int = 256, steps: int = 1024) -> dict:
    """ns per element of each kernel on pre-drawn inputs of paths x steps at
    the paper-ref h = 0.01 increment law (median of `repeat`), and the bytes
    per element of mc_weight_scan computed from its inputs plus the peak of
    the temporaries it allocates."""
    import tracemalloc

    import numpy as np
    from tsruin import _kernels, sim
    from tsruin.model import ClaimsModel

    c, alpha, rho, xi = W.MODELS["paper-ref"]
    params = sim.stable_increment_params(ClaimsModel.from_loading(c, alpha, rho, xi), 0.01)
    theta0, scale0 = _kernels.cms_constants(params.rho, params.beta)
    rng = np.random.default_rng(12345)
    u_ang = np.pi * (rng.random((paths, steps)) - 0.5)
    w_exp = rng.standard_exponential((paths, steps))
    incr = (params.nu * _kernels.stable_standard(u_ang, w_exp, params.rho, theta0, scale0)
            + params.mu)
    calls = {
        "stable_standard": lambda: _kernels.stable_standard(u_ang, w_exp, params.rho, theta0,
                                                            scale0),
        "mc_weight_scan": lambda: _kernels.mc_weight_scan(u_ang, w_exp, params.rho, theta0, scale0,
                                                          params.nu, params.mu, 0.1, alpha),
        "first_passage_scan": lambda: _kernels.first_passage_scan(incr, 0.1),
    }
    out = {}
    for name, fn in calls.items():
        fn()
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        out[f"kernels.{name}.ns_per_elem"] = 1e9 * statistics.median(times) / u_ang.size
    tracemalloc.start()
    calls["mc_weight_scan"]()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out["kernels.mc_weight_scan.bytes_per_elem_computed"] = (
        (u_ang.nbytes + w_exp.nbytes + peak) / u_ang.size)
    return out


def environment() -> dict:
    import tsruin

    backend = getattr(tsruin, "kernel_backend", None)
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "kernel_backend": backend() if backend else "n/a",
    }
    env.update({var: os.environ.get(var) for var in BLAS_VARS})
    for pkg in ("numpy", "mpmath", "scipy"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    return env


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def timed_run(args, cmds, checker, workdir) -> tuple:
    setup = measure_setup(args.workload, workdir)
    walls = []
    start = time.perf_counter()
    # start another pass only if a typical one still fits in --seconds
    while (len(walls) < MIN_ITERATIONS
           or time.perf_counter() - start + statistics.median(walls) <= args.seconds):
        walls.append(run_iteration(cmds, workdir, checker))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "cells_ok_frac": 1.0 - checker.failed_cells / max(checker.cells, 1),
    }
    return metrics, {"iteration_walls": walls, "setup_samples": setup}


def traced_run(args, cmds, checker, workdir) -> tuple:
    import tsruin
    import tsruin.cli  # noqa: F401  (installs need the cli module loaded)
    from spans import SPAN_FIELDS, Tracer, layer_metrics

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds / 2:
        plain.append(run_iteration(cmds, workdir, checker))
        tracer.run = len(traced) + 1
        tracer.install(tsruin)
        try:
            traced.append(run_iteration(cmds, workdir, checker))
        finally:
            tracer.uninstall()
    metrics = layer_metrics(tracer, len(traced))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    speedup = 0.0
    if args.workload == "mc-point":
        # one traced pass at two worker threads; same bytes are required
        second = Tracer()
        second.install(tsruin)
        try:
            two = run_iteration(cmds, workdir, checker, threads=2)
        finally:
            second.uninstall()
        speedup = statistics.median(traced) / two
    metrics["sim.thread_speedup_2"] = speedup
    metrics.update(kernel_timings())
    metrics.update(import_times())
    spans = [dict(zip(SPAN_FIELDS, s)) for s in tracer.spans]
    return metrics, {"plain_walls": plain, "traced_walls": traced, "spans": spans,
                     "psi_x_calls": dict(tracer.psi_x_calls)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tsruin" / "__init__.py").is_file():
        print(f"error: no tsruin package under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    import tsruin

    if Path(tsruin.__file__).resolve().parent != (SRC / "tsruin").resolve():
        print(f"error: imported tsruin from {tsruin.__file__}, not {SRC}", file=sys.stderr)
        return 2

    variant = W.variant_of(args.workload, args.seed)
    cmds = W.commands(args.workload, args.seed)
    checker = Checker(args.workload, variant)
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir:
        for cmd in W.warmup_commands(args.workload):
            if run_command(cmd, workdir)[1] != 0:
                print(f"error: warm-up command {cmd.label} failed", file=sys.stderr)
                return 3
        run = traced_run if args.trace else timed_run
        values, detail = run(args, cmds, checker, workdir)
    if set(values) != set(units):
        print(f"error: measured {sorted(set(values) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 3
    metrics = {name: (values[name], units[name]) for name in units}

    unexpected = checker.unexpected()
    correct = not unexpected and checker.failed_operations == 0
    env = environment()
    report = {
        "workload": args.workload, "seed": args.seed, "variant": variant,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "cells": checker.cells, "failed_cells": checker.failed_cells,
        "fail_frac": checker.failed_cells / max(checker.cells, 1),
        "failing": {cid: {"reasons": why, "known": cid in checker.known}
                    for cid, why in sorted(checker.failures.items())},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report) + "\n", encoding="utf-8")

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} variant={variant} trace={args.trace}: "
          f"fail_frac={report['fail_frac']:.6g} ({checker.failed_cells} of {checker.cells} "
          f"cells checked), {len(checker.failures)} distinct failing cells, "
          f"{len(unexpected)} not in the known list")
    for cid, info in report["failing"].items():
        tag = "known" if info["known"] and cid not in unexpected else "NEW"
        print(f"#   {tag} {cid}: {', '.join(info['reasons'])}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# full record: {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.operations,
        "failed": checker.failed_operations,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
