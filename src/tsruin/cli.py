"""Command-line interface.

Subcommands
-----------
b             ruin-time profile B(t) on a t-grid (plus its limit when finite)
ruin-surface  finite/infinite-horizon estimates on a (u, t)-grid
simulate      Monte Carlo estimates on a (u, t)-grid
benchmark     asymptotic vs simulated vs infinite-horizon comparison table
scale-fn      scale function and eventual-ruin probability on a u-grid

B(t) and P(ruin ever) are inverted in double precision on a shifted Talbot
contour at two term counts, M=18 and M=24; a value whose two counts
disagree, or that is not a positive normal double, fails the command with
exit code 3.  There is no engine to choose and no inversion setting.
``ruin-surface`` and ``benchmark`` compute each estimate on the whole
(u, t)-grid in one call, with B and P(ruin ever) inverted once per grid.

All outputs are TSV: UTF-8, LF line endings, tab separators, a '#'-prefixed
header line, numbers at 9 significant digits.  Files are written to a
temporary name and atomically renamed, so a failed run leaves no partial
output.  Identical inputs yield byte-identical outputs, except for the
``elapsed`` column of ``simulate``, which is wall time.

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 regime
precondition violation.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from .laplace import InversionError
from .model import ClaimsModel, PhiConvergenceError, classify_regime, RegimeTag
from .ruin import (
    BFunction,
    RegimeError,
    b_infinity,
    estimate_infinite_horizon,
    estimate_rft,
    estimate_tulta,
    prob_eventual_ruin,
    scale_function,
)
from .sim import SimPlan, simulate_ruin_mc, simulate_ruin_naive

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_REGIME = 4

PRESETS = {
    "paper-ref": {"c": 0.01, "alpha": 1.0, "rho": 0.99, "xi": 0.2},
}

_FLOAT_KEYS = ("c", "alpha", "rho", "p", "xi", "u_min", "u_max", "t_min", "t_max", "h")
_INT_KEYS = ("u_steps", "t_steps", "paths", "batches", "seed", "threads")
_STR_KEYS = ("method", "approach", "preset", "out", "config")


class UsageError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.9g}"


@functools.cache  # one parser per process: main may run many commands
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tsruin", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("b", "ruin-time profile B(t) over a t-grid"),
        ("ruin-surface", "estimate surface over a (u, t)-grid"),
        ("simulate", "Monte Carlo estimates over a (u, t)-grid"),
        ("benchmark", "compare asymptotic, simulated and infinite-horizon estimates"),
        ("scale-fn", "scale function and eventual-ruin probability over a u-grid"),
    ]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="flat key=value settings file; flags override")
        p.add_argument("--preset", choices=sorted(PRESETS), help="named model preset")
        p.add_argument("--c", type=float, help="jump-measure scale c > 0")
        p.add_argument("--alpha", type=float, help="tempering rate alpha > 0")
        p.add_argument("--rho", type=float, help="stability index in (0,1)")
        p.add_argument("--p", type=float, help="premium rate (exclusive with --xi)")
        p.add_argument("--xi", type=float, help="safety loading (exclusive with --p)")
        p.add_argument("--u-min", type=float, dest="u_min")
        p.add_argument("--u-max", type=float, dest="u_max")
        p.add_argument("--u-steps", type=int, dest="u_steps")
        p.add_argument("--t-min", type=float, dest="t_min")
        p.add_argument("--t-max", type=float, dest="t_max")
        p.add_argument("--t-steps", type=int, dest="t_steps")
        p.add_argument("--h", type=float, help="simulation time step")
        p.add_argument("--paths", type=int, help="paths per batch")
        p.add_argument("--batches", type=int, help="number of batches N")
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--method", choices=("rft", "tulta", "infinite", "mc"))
        p.add_argument("--approach", choices=("naive", "mc"))
        p.add_argument("--out", help="output TSV path (stdout when omitted)")
    return parser


def _parse_config(path: str) -> dict:
    settings: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key in _FLOAT_KEYS:
            settings[key] = float(value)
        elif key in _INT_KEYS:
            settings[key] = int(value)
        elif key in _STR_KEYS:
            settings[key] = value
        else:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
    return settings


def _merge_settings(args: argparse.Namespace) -> dict:
    merged: dict = {"h": 0.01, "paths": 4096, "batches": 30, "seed": 12345, "threads": 1}
    if args.preset:
        merged.update(PRESETS[args.preset])
    if args.config:
        merged.update(_parse_config(args.config))
    for key in _FLOAT_KEYS + _INT_KEYS + _STR_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    # an explicit premium flag replaces a preset/config loading, and vice versa
    if args.p is not None and args.xi is None:
        merged.pop("xi", None)
    if args.xi is not None and args.p is None:
        merged.pop("p", None)
    return merged


def _resolve_model(s: dict) -> ClaimsModel:
    for key in ("c", "alpha", "rho"):
        if key not in s:
            raise UsageError(f"missing model parameter --{key} (or use --preset/--config)")
    has_p, has_xi = "p" in s, "xi" in s
    if has_p == has_xi:
        raise UsageError("exactly one of --p and --xi must be given")
    try:
        if has_p:
            return ClaimsModel(c=s["c"], alpha=s["alpha"], rho=s["rho"], p=s["p"])
        return ClaimsModel.from_loading(c=s["c"], alpha=s["alpha"], rho=s["rho"], xi=s["xi"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _grid(s: dict, axis: str) -> np.ndarray:
    lo, hi, steps = s.get(f"{axis}_min"), s.get(f"{axis}_max"), s.get(f"{axis}_steps")
    if lo is None:
        raise UsageError(f"missing --{axis}-min")
    if steps is None:
        steps = 1 if hi is None else None
    if hi is None:
        hi = lo
    if steps is None or steps < 1:
        raise UsageError(f"--{axis}-steps must be >= 1")
    if lo <= 0.0:
        raise UsageError(f"--{axis}-min must be positive (grid is left-open at 0)")
    if hi < lo:
        raise UsageError(f"--{axis}-max must be >= --{axis}-min")
    return np.linspace(lo, hi, steps)


def _sim_plan(s: dict) -> SimPlan:
    try:
        return SimPlan(h=s["h"], n=s["paths"], N=s["batches"], seed=s["seed"],
                       threads=s["threads"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write_tsv(path: Optional[str], header: list, rows, sections=None) -> None:
    """Emit TSV atomically (temp file + rename); stdout when path is None."""
    blocks = sections if sections is not None else [(header, rows)]
    chunks = []
    for head, rws in blocks:
        chunks.append("# " + "\t".join(head) + "\n")
        for row in rws:
            chunks.append("\t".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")
        chunks.append("\n")
    text = "".join(chunks[:-1])  # no trailing blank line
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tsruin-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_b(s: dict) -> int:
    model = _resolve_model(s)
    ts = _grid(s, "t")
    bf = BFunction(model)
    rows = list(zip(map(float, ts), bf.grid(ts)))
    _write_tsv(s.get("out"), ["t", "B"], rows)
    # keep stdout clean for the TSV when no output path was given
    info = sys.stdout if s.get("out") else sys.stderr
    regime = classify_regime(model)
    if regime.tag is RegimeTag.SUBCRITICAL:
        print(f"regime: {regime.tag.value}", file=info)
        print(f"B(inf) = {_fmt(b_infinity(model))}", file=info)
    else:
        print(f"warning: regime is {regime.tag.value}; B(inf) is undefined (B grows without bound)",
              file=sys.stderr)
    return EXIT_OK


def cmd_ruin_surface(s: dict) -> int:
    model = _resolve_model(s)
    method = s.get("method")
    if method is None:
        raise UsageError("--method is required (rft, tulta, infinite, mc)")
    us, ts = _grid(s, "u"), _grid(s, "t")
    if method == "mc":
        res = simulate_ruin_mc(model, us, ts, _sim_plan(s))
        header, surfaces = ["u", "t", "value", "stderr"], [res.mean, res.stderr]
    else:
        # the estimators return the whole (u, t) surface; they are looked up
        # at call time, where perfbench spans them
        estimate = {"rft": estimate_rft, "tulta": estimate_tulta,
                    "infinite": estimate_infinite_horizon}[method]
        header, surfaces = ["u", "t", "value"], [estimate(model, us, ts)]
    rows = [(u, t, *(float(v[i, j]) for v in surfaces))
            for i, u in enumerate(us.tolist()) for j, t in enumerate(ts.tolist())]
    _write_tsv(s.get("out"), header, rows)
    return EXIT_OK


def cmd_simulate(s: dict) -> int:
    model = _resolve_model(s)
    approach = s.get("approach")
    if approach is None:
        raise UsageError("--approach is required (naive or mc)")
    plan = _sim_plan(s)
    us, ts = _grid(s, "u"), _grid(s, "t")
    simulate = simulate_ruin_mc if approach == "mc" else simulate_ruin_naive
    res = simulate(model, us, ts, plan)
    rows = [(u, t, float(res.mean[i, j]), float(res.stderr[i, j]), res.elapsed_seconds,
             plan.n, plan.N, plan.h, plan.seed)
            for i, u in enumerate(map(float, us)) for j, t in enumerate(map(float, ts))]
    _write_tsv(s.get("out"), ["u", "t", "mean", "stderr", "elapsed", "n", "N", "h", "seed"], rows)
    return EXIT_OK


def cmd_benchmark(s: dict) -> int:
    model = _resolve_model(s)
    regime = classify_regime(model)
    if regime.tag is not RegimeTag.SUBCRITICAL:
        raise RegimeError(
            f"benchmark requires the subcritical regime, got {regime.tag.value}"
        )
    plan = _sim_plan(s)
    us, ts = _grid(s, "u"), _grid(s, "t")
    # both asymptotic columns before the costly simulation
    p_ever = prob_eventual_ruin(model, us)
    asym = estimate_tulta(model, us, ts, p_ruin=p_ever)
    sims = simulate_ruin_mc(model, us, ts, plan).mean
    zero = np.argwhere(sims == 0.0)
    if zero.size:
        i, j = zero[0]
        raise ArithmeticError(
            f"simulated estimate s = 0 at u={us[i]}, t={ts[j]}: the ratios to s are undefined")
    rows = [(u, t, a, sim, p, a / sim, p / sim, abs(a - sim) / sim, abs(p - sim) / sim)
            for u, p, a_row, sim_row in zip(us.tolist(), p_ever.tolist(), asym.tolist(),
                                            sims.tolist())
            for t, a, sim in zip(ts.tolist(), a_row, sim_row)]
    _write_tsv(s.get("out"), ["u", "t", "a", "s", "i", "a/s", "i/s", "|a-s|/s", "|i-s|/s"], rows)
    return EXIT_OK


def cmd_scale_fn(s: dict) -> int:
    model = _resolve_model(s)
    us = _grid(s, "u")
    p_rows = list(zip(us.tolist(), prob_eventual_ruin(model, us).tolist()))
    # one call per u: perfbench's span on scale_function reads a scalar u
    w_rows = [(u, scale_function(model, u, p_ruin=p)) for u, p in p_rows]
    _write_tsv(s.get("out"), None, None,
               sections=[(["u", "W"], w_rows), (["u", "P_ruin"], p_rows)])
    return EXIT_OK


_COMMANDS = {
    "b": cmd_b,
    "ruin-surface": cmd_ruin_surface,
    "simulate": cmd_simulate,
    "benchmark": cmd_benchmark,
    "scale-fn": cmd_scale_fn,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _merge_settings(args)
        return _COMMANDS[args.command](settings)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (InversionError, PhiConvergenceError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
