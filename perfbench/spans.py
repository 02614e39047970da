"""Spans around the package's layer boundaries, for the traced run only.

``Tracer.install`` replaces each public entry point where its caller looks
it up (module globals and class attributes) with a wrapper that records a
span: id, name, start, end, parent, the traced iteration it belongs to and
a little metadata.  ``uninstall`` puts the originals back, so untraced
iterations run the package exactly as imported.  Spans stay in memory
until ``layer_metrics`` derives the per-layer numbers and the caller writes
them out.

``ClaimsModel.psi_x`` is counted rather than spanned: it runs tens of
thousands of times per iteration and a span each would cost more than the
call.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# (lookup site below the package, span name).  A function looked up in two
# modules is installed at both, under one name.
SPANNED = [
    ("cli.main", "cli.main"),
    ("cli.estimate_rft", "ruin.estimate_rft"),
    ("cli.estimate_tulta", "ruin.estimate_tulta"),
    ("cli.estimate_infinite_horizon", "ruin.estimate_infinite_horizon"),
    ("cli.prob_eventual_ruin", "ruin.prob_eventual_ruin"),
    ("cli.scale_function", "ruin.scale_function"),
    ("cli.simulate_ruin_mc", "sim.simulate_ruin_mc"),
    ("cli.simulate_ruin_naive", "sim.simulate_ruin_naive"),
    ("ruin.BFunction.value", "ruin.BFunction.value"),
    ("ruin.prob_eventual_ruin", "ruin.prob_eventual_ruin"),
    ("ruin.scale_function", "ruin.scale_function"),
    ("ruin.levy_tail", "model.levy_tail"),
    ("ruin.talbot_invert", "laplace.talbot_invert"),
    ("ruin.levin_invert", "laplace.levin_invert"),
    ("model.phi", "model.phi"),
    ("sim.run_batches", "sim.run_batches"),
    ("_kernels.mc_weight_scan", "kernels.mc_weight_scan"),
    ("_kernels.stable_standard", "kernels.stable_standard"),
    ("_kernels.first_passage_scan", "kernels.first_passage_scan"),
]

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "run", "meta")

_INVERSIONS = ("laplace.talbot_invert", "laplace.levin_invert")

# span name -> metadata kept from (args, result)
_META = {
    "ruin.scale_function": lambda a, r: {"u": float(a[1])},
    "sim.run_batches": lambda a, r: {"mean": r.mean, "stderr": r.stderr},
    "kernels.mc_weight_scan": lambda a, r: {"rows": a[0].shape[0], "elems": a[0].size,
                                            "hits": int(r[1])},
    "kernels.stable_standard": lambda a, r: {"elems": int(np.size(a[0]))},
    "kernels.first_passage_scan": lambda a, r: {"rows": a[0].shape[0], "elems": a[0].size,
                                                "hits": int(r)},
}


def _resolve(package, path):
    *owners, attr = path.split(".")
    owner = package
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []
        self.psi_x_calls = Counter()  # name of the enclosing span -> calls
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _record(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1][0] if stack else 0
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        meta = _META[name](args, result) if name in _META else None
        self.spans.append((sid, name, start, end, parent, self.run, meta))
        return result

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in _INVERSIONS:
                args = (tracer._wrap("laplace.transform", args[0]),) + args[1:]
            elif name == "sim.run_batches":
                return tracer._record(name, tracer._batches(fn), args, kwargs)
            return tracer._record(name, fn, args, kwargs)

        return wrapper

    def _batches(self, run_batches):
        """Batch jobs may run on worker threads, so their parent is fixed
        to the enclosing run_batches span when the call starts."""
        tracer = self

        def call(job, *rest, **kwargs):
            parent = tracer._stack()[-1][0]

            def batch(rng):
                return tracer._record("sim.batch", job, (rng,), {}, parent=parent)

            return run_batches(batch, *rest, **kwargs)

        return call

    def install(self, package) -> None:
        for path, name in SPANNED:
            owner, attr = _resolve(package, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        model_cls = package.model.ClaimsModel
        original = model_cls.psi_x
        self._saved.append((model_cls, "psi_x", original))
        tracer = self

        @functools.wraps(original)
        def psi_x(model, theta):
            stack = tracer._stack()
            tracer.psi_x_calls[stack[-1][1] if stack else ""] += 1
            return original(model, theta)

        model_cls.psi_x = psi_x

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(tracer: Tracer, iterations: int) -> dict:
    """Per-layer numbers from the recorded spans, per traced iteration."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    parent_of = {}
    for span in tracer.spans:
        sid, name, start, end, parent = span[:5]
        by_name[name].append(span)
        children[parent].append(span)
        parent_of[sid] = (parent, name)
    n = max(iterations, 1)

    def dur(name):
        return [s[3] - s[2] for s in by_name[name]]

    def self_time(name):
        return sum(
            (s[3] - s[2]) - _covered([(max(c[2], s[2]), min(c[3], s[3])) for c in children[s[0]]])
            for s in by_name[name])

    def root_main(sid):
        while sid:
            parent, name = parent_of[sid]
            if name == "cli.main":
                return sid
            sid = parent
        return 0

    inverted = {s[4] for name in _INVERSIONS for s in by_name[name]}
    values = by_name["ruin.BFunction.value"]
    hits = sum(1 for s in values if s[0] not in inverted)
    w_calls = by_name["ruin.scale_function"]
    distinct_u = {(root_main(s[0]), s[6]["u"]) for s in w_calls}
    talbot_s = sum(dur("laplace.talbot_invert"))
    phi_in_talbot = 0.0
    for s in by_name["model.phi"]:
        sid = s[4]
        while sid and parent_of[sid][1] != "laplace.talbot_invert":
            sid = parent_of[sid][0]
        if sid:
            phi_in_talbot += s[3] - s[2]

    mc_scans = [s[6] for s in by_name["kernels.mc_weight_scan"]]
    fp_scans = [s[6] for s in by_name["kernels.first_passage_scan"]]
    path_steps = sum(m["elems"] for m in mc_scans) + sum(m["elems"] for m in fp_scans)
    proposals = sum(s[6]["elems"] for s in by_name["kernels.stable_standard"])
    batch_s = sum(dur("sim.batch"))
    results = [s[6] for s in by_name["sim.run_batches"]]

    return {
        "cli.self_s": self_time("cli.main") / n,
        "ruin.BFunction.value.calls": len(values) / n,
        "ruin.BFunction.value.ms.p50": 1e3 * _pct(dur("ruin.BFunction.value"), 50),
        "ruin.BFunction.value.ms.p90": 1e3 * _pct(dur("ruin.BFunction.value"), 90),
        "ruin.bf_memo_hit_ratio": _ratio(hits, len(values)),
        "ruin.scale_function.calls": len(w_calls) / n,
        "ruin.scale_function.ms.p50": 1e3 * _pct(dur("ruin.scale_function"), 50),
        "ruin.w_useful_ratio": _ratio(len(distinct_u), len(w_calls)),
        "laplace.talbot_invert.calls": len(by_name["laplace.talbot_invert"]) / n,
        "laplace.talbot_invert.ms.p50": 1e3 * _pct(dur("laplace.talbot_invert"), 50),
        "laplace.talbot_invert.ms.p90": 1e3 * _pct(dur("laplace.talbot_invert"), 90),
        "laplace.talbot_invert.self_s": self_time("laplace.talbot_invert") / n,
        "laplace.transform_evals": len(by_name["laplace.transform"]) / n,
        "laplace.transform_s": sum(dur("laplace.transform")) / n,
        "laplace.levin_invert.calls": len(by_name["laplace.levin_invert"]) / n,
        "model.phi.calls": len(by_name["model.phi"]) / n,
        "model.phi.us_p50": 1e6 * _pct(dur("model.phi"), 50),
        "model.phi.share_of_talbot": _ratio(phi_in_talbot, talbot_s),
        "model.psi_x_per_phi": _ratio(tracer.psi_x_calls["model.phi"], len(by_name["model.phi"])),
        "model.levy_tail.calls": len(by_name["model.levy_tail"]) / n,
        "model.levy_tail.s": sum(dur("model.levy_tail")) / n,
        "sim.path_steps": path_steps / n,
        "sim.ns_per_path_step": 1e9 * _ratio(batch_s, path_steps),
        "sim.batch_ms.p50": 1e3 * _pct(dur("sim.batch"), 50),
        "sim.batch_ms.p90": 1e3 * _pct(dur("sim.batch"), 90),
        "sim.batch_self_s": self_time("sim.batch") / n,
        "sim.hit_frac": _ratio(sum(m["hits"] for m in mc_scans), sum(m["rows"] for m in mc_scans)),
        "sim.tilt_accept_ratio": _ratio(sum(m["elems"] for m in fp_scans), proposals),
        "sim.rel_stderr": _pct([r["stderr"] / r["mean"] for r in results if r["mean"] > 0], 50),
    }
