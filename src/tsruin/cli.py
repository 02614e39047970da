"""Command-line interface: the subcommands listed below.

B(t) and P(ruin ever) are inverted in double precision on shifted
hyperbolic contours at two node counts, N=24 and N=32; a value whose two
counts disagree fails the command with exit code 3.  So does any value
that is not a positive normal double (B, P, the rft and tulta estimates,
and the simulated column s of ``benchmark``, whose ratios divide by it),
or a P, rft or tulta value above 1, named by its cell.  There is no engine
to choose and no inversion setting.
``ruin-surface`` and ``benchmark`` compute each estimate on the whole
(u, t)-grid in one call, with B and P(ruin ever) inverted once per grid.

All outputs are TSV: UTF-8, LF line endings, tab separators, a '#'-prefixed
header line, numbers at 9 significant digits.  Files are written to a
temporary name and atomically renamed, so a failed run leaves no partial
output.  Identical inputs yield byte-identical outputs.

Monte Carlo commands run their batches on ``--threads`` worker threads, by
default one per usable core and at most one per batch, with the same result
at any count.  A measure-change cell whose weight is 0 or rests on under 1%
of its hit paths in a batch fails with exit code 3.

Exit codes: 0 success, 2 usage error (a ``ValueError``), 3 numerical failure
(an ``ArithmeticError``), 4 regime precondition violation (``RegimeError``).
"""
from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
import tempfile

import numpy as np

from .model import (ClaimsModel, RegimeTag, _require_int, _require_positive,
                    _require_reportable)
from .ruin import (
    BFunction,
    RegimeError,
    b_infinity,
    estimate_infinite_horizon,
    estimate_rft,
    estimate_tulta,
    prob_eventual_ruin,
    require_subcritical,
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

# settings key -> (type, choices, help): each is both a --flag (key with
# '-' for '_') and a config-file key, converted and checked the same way
_OPTIONS = {
    "preset": (str, tuple(sorted(PRESETS)), "named model preset"),
    "c": (float, None, "jump-measure scale c > 0"),
    "alpha": (float, None, "tempering rate alpha > 0"),
    "rho": (float, None, "stability index in (0,1)"),
    "p": (float, None, "premium rate (exclusive with --xi)"),
    "xi": (float, None, "safety loading (exclusive with --p)"),
    "u_min": (float, None, None),
    "u_max": (float, None, None),
    "u_steps": (int, None, None),
    "t_min": (float, None, None),
    "t_max": (float, None, None),
    "t_steps": (int, None, None),
    "h": (float, None, "simulation time step"),
    "paths": (int, None, "paths per batch"),
    "batches": (int, None, "number of batches N (at least 2)"),
    "seed": (int, None, None),
    "threads": (int, None, "worker threads (default: usable cores, at most --batches)"),
    "method": (str, ("rft", "tulta", "infinite"), None),
    "approach": (str, ("naive", "mc"), None),
    "out": (str, None, "output TSV path (stdout when omitted)"),
}


# every float the CLI prints: 9 significant digits
_FLOAT_FORMAT = "%.9g"


@functools.cache  # one parser per process: main may run many commands
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tsruin", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="flat key=value settings file; flags override")
        for key, (type_, choices, help_) in _OPTIONS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=type_,
                           choices=choices, help=help_)
    return parser


def _parse_config(path: str) -> dict:
    """The settings of a flat key=value file, each converted with its flag's
    type and checked against its flag's choices; a nested ``config=`` is an
    unknown key."""
    settings: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _OPTIONS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        type_, choices, _ = _OPTIONS[key]
        try:
            settings[key] = type_(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key}: invalid {type_.__name__} value: "
                             f"{value!r}") from None
        if choices is not None and settings[key] not in choices:
            raise ValueError(f"{path}:{lineno}: {key}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, choices))})")
    return settings


def _merge_settings(args: argparse.Namespace) -> dict:
    merged: dict = {"h": 0.01, "paths": 4096, "batches": 30, "seed": 12345}
    config = _parse_config(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key in _OPTIONS if getattr(args, key) is not None}
    # layers preset < file < flags, where a --preset flag replaces the file's
    # preset; a layer's premium (p or xi) replaces both of the layers below
    preset = PRESETS.get(args.preset or config.get("preset"), {})
    for layer in (preset, config, flags):
        if "p" in layer or "xi" in layer:
            merged.pop("p", None)
            merged.pop("xi", None)
        merged.update(layer)
    return merged


def _resolve_model(s: dict) -> ClaimsModel:
    for key in ("c", "alpha", "rho"):
        if key not in s:
            raise ValueError(f"missing model parameter --{key} (or use --preset/--config)")
    has_p, has_xi = "p" in s, "xi" in s
    if has_p == has_xi:
        raise ValueError("exactly one of --p and --xi must be given")
    if has_p:
        return ClaimsModel(c=s["c"], alpha=s["alpha"], rho=s["rho"], p=s["p"])
    return ClaimsModel.from_loading(c=s["c"], alpha=s["alpha"], rho=s["rho"], xi=s["xi"])


def _grid(s: dict, axis: str) -> np.ndarray:
    lo, hi, steps = s.get(f"{axis}_min"), s.get(f"{axis}_max"), s.get(f"{axis}_steps")
    if lo is None:
        raise ValueError(f"missing --{axis}-min")
    if steps is None:
        if hi is not None:
            raise ValueError(f"missing --{axis}-steps")
        steps = 1
    steps = _require_int(f"--{axis}-steps", steps, 1)
    if hi is None:
        if steps > 1:
            raise ValueError(f"--{axis}-steps {steps} needs --{axis}-max")
        hi = lo
    _require_positive(**{f"--{axis}-min": lo, f"--{axis}-max": hi})  # left-open at 0
    if hi < lo:
        raise ValueError(f"--{axis}-max must be >= --{axis}-min")
    return np.linspace(lo, hi, steps)


def _usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sim_plan(s: dict) -> SimPlan:
    """The plan of a Monte Carlo command: without ``threads``, one worker per
    usable core, at most one per batch (the bits are the same at any count)."""
    threads = s.get("threads", min(_usable_cores(), s["batches"]))
    return SimPlan(h=s["h"], n=s["paths"], N=s["batches"], seed=s["seed"], threads=threads)


def _write_tsv(path: str | None, *sections) -> None:
    """Emit the ``(header, rows)`` ``sections`` as TSV, a blank line between
    two, atomically (temp file + rename) to a new or regular file, in place
    to an existing FIFO or device (never replaced); stdout when path is
    None.  Each section is one format operation, whose column types are
    those of its first row: a float column is written by ``_FLOAT_FORMAT``,
    any other as ``str``.  A path that cannot be written is a
    ``ValueError``, and leaves no temp file."""
    texts = []
    for head, rws in sections:
        text = "# " + "\t".join(head) + "\n"
        if rws:
            line = "\t".join(_FLOAT_FORMAT if isinstance(v, float) else "%s" for v in rws[0])
            text += (line + "\n") * len(rws) % tuple(itertools.chain.from_iterable(rws))
        texts.append(text)
    text = "\n".join(texts)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
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
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


def _info(s: dict, line: str) -> None:
    """Print an info ``line``: to stdout beside ``--out``, else to stderr, clear of the TSV."""
    print(line, file=sys.stdout if s.get("out") else sys.stderr)


def cmd_b(s: dict) -> int:
    model = _resolve_model(s)
    ts = _grid(s, "t")
    rows = np.column_stack((ts, BFunction(model).grid(ts))).tolist()
    _write_tsv(s.get("out"), (["t", "B"], rows))
    if model.regime is RegimeTag.SUBCRITICAL:
        _info(s, f"regime: {model.regime.value}")
        _info(s, f"B(inf) = {_FLOAT_FORMAT % b_infinity(model)}")
    else:
        print(f"warning: regime is {model.regime.value}; B(inf) is undefined (B grows without bound)",
              file=sys.stderr)
    return EXIT_OK


def _cell_rows(us: np.ndarray, ts: np.ndarray, *surfaces) -> list:
    """One row (u, t, then each surface's value) per cell of the (u, t)-grid,
    u-major, as Python floats; each surface broadcasts to (len(us), len(ts))."""
    shape = (us.size, ts.size)
    return np.column_stack((np.repeat(us, ts.size), np.tile(ts, us.size),
                            *(np.broadcast_to(v, shape).ravel() for v in surfaces))).tolist()


def cmd_ruin_surface(s: dict) -> int:
    model = _resolve_model(s)
    method = s.get("method")
    if method is None:
        raise ValueError("--method is required (rft, tulta, infinite)")
    us, ts = _grid(s, "u"), _grid(s, "t")
    # the estimators return the whole (u, t) surface; they are looked up at
    # call time, where perfbench spans them
    estimate = {"rft": estimate_rft, "tulta": estimate_tulta,
                "infinite": estimate_infinite_horizon}[method]
    _write_tsv(s.get("out"), (["u", "t", "value"], _cell_rows(us, ts, estimate(model, us, ts))))
    return EXIT_OK


def cmd_simulate(s: dict) -> int:
    model = _resolve_model(s)
    approach = s.get("approach")
    if approach is None:
        raise ValueError("--approach is required (naive or mc)")
    plan = _sim_plan(s)
    us, ts = _grid(s, "u"), _grid(s, "t")
    simulate = simulate_ruin_mc if approach == "mc" else simulate_ruin_naive
    res = simulate(model, us, ts, plan)
    run = [plan.n, plan.N, plan.h, plan.seed]
    rows = [row + run for row in _cell_rows(us, ts, res.mean, res.stderr)]
    _write_tsv(s.get("out"), (["u", "t", "mean", "stderr", "n", "N", "h", "seed"], rows))
    _info(s, f"elapsed = {_FLOAT_FORMAT % res.elapsed_seconds} s")
    return EXIT_OK


def cmd_benchmark(s: dict) -> int:
    model = _resolve_model(s)
    require_subcritical(model, "benchmark")
    plan = _sim_plan(s)
    us, ts = _grid(s, "u"), _grid(s, "t")
    # both asymptotic columns before the costly simulation
    i = prob_eventual_ruin(model, us)[:, None]
    a = estimate_tulta(model, us, ts)
    sim = _require_reportable("simulated estimate s", simulate_ruin_mc(model, us, ts, plan).mean,
                              u=us, t=ts)
    rows = _cell_rows(us, ts, a, sim, i, a / sim, i / sim, np.abs(a - sim) / sim,
                      np.abs(i - sim) / sim)
    _write_tsv(s.get("out"), (["u", "t", "a", "s", "i", "a/s", "i/s", "|a-s|/s", "|i-s|/s"], rows))
    return EXIT_OK


def cmd_scale_fn(s: dict) -> int:
    model = _resolve_model(s)
    us = _grid(s, "u")
    p_rows = list(zip(us.tolist(), prob_eventual_ruin(model, us).tolist()))
    # one call per u: perfbench's span on scale_function reads a scalar u
    w_rows = [(u, scale_function(model, u, p_ruin=p)) for u, p in p_rows]
    _write_tsv(s.get("out"), (["u", "W"], w_rows), (["u", "P_ruin"], p_rows))
    return EXIT_OK


# subcommand -> (handler, help): the one list of commands, for the parser and main
_COMMANDS = {
    "b": (cmd_b, "ruin-time profile B(t) on a t-grid (plus its limit when finite)"),
    "ruin-surface": (cmd_ruin_surface, "rft, tulta or infinite-horizon estimates on a (u, t)-grid"),
    "simulate": (cmd_simulate, "Monte Carlo estimates on a (u, t)-grid"),
    "benchmark": (cmd_benchmark, "asymptotic vs simulated vs infinite-horizon comparison table"),
    "scale-fn": (cmd_scale_fn, "scale function and eventual-ruin probability on a u-grid"),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _merge_settings(args)
        return _COMMANDS[args.command][0](settings)
    except (ValueError, ArithmeticError) as exc:  # RegimeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_REGIME if isinstance(exc, RegimeError) else
                EXIT_NUMERICAL if isinstance(exc, ArithmeticError) else EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
