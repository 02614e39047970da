"""``perfbench/spans.py`` wraps package functions where their callers look
them up, by name.  These tests fail when a change renames or removes such a
lookup site, which would otherwise break only the traced benchmark run."""
import tsruin
import tsruin.cli

from conftest import load_perfbench

spans = load_perfbench("spans")


def _lookup(path):
    owner, attr = spans._resolve(tsruin, path)
    return getattr(owner, attr)


def test_install_wraps_every_site_and_uninstall_restores_it():
    originals = {path: _lookup(path) for path, _ in spans.SPANNED}
    psi_x = tsruin.model.ClaimsModel.psi_x
    tracer = spans.Tracer()
    tracer.install(tsruin)
    try:
        assert all(_lookup(path) is not fn for path, fn in originals.items())
        assert tsruin.model.ClaimsModel.psi_x is not psi_x
    finally:
        tracer.uninstall()
    assert all(_lookup(path) is fn for path, fn in originals.items())
    assert tsruin.model.ClaimsModel.psi_x is psi_x


def test_one_estimate_span_per_surface_command(tmp_path):
    grid = ["--u-min", "0.5", "--u-max", "2", "--u-steps", "3",
            "--t-min", "1", "--t-max", "20", "--t-steps", "4"]
    tracer = spans.Tracer()
    tracer.install(tsruin)
    try:
        for method in ("rft", "tulta", "infinite"):
            argv = ["ruin-surface", "--preset", "paper-ref", "--method", method, *grid,
                    "--out", str(tmp_path / f"{method}.tsv")]
            assert tsruin.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    names = [span[1] for span in tracer.spans]
    for method in ("rft", "tulta", "infinite_horizon"):
        assert names.count(f"ruin.estimate_{method}") == 1
    assert names.count("model.levy_tail") == 3  # one per u, for rft only
    assert names.count("ruin.BFunction.value") == 0


def test_kernel_spans_carry_metadata_on_monte_carlo_commands(tmp_path):
    # a kernel argument without .shape or .size (a draw source, say) breaks
    # the traced benchmark's metadata, not the untraced commands
    point = ["--preset", "paper-ref", "--u-min", "0.1", "--t-min", "2", "--h", "0.05",
             "--paths", "256", "--batches", "2"]
    tracer = spans.Tracer()
    tracer.install(tsruin)
    try:
        for argv in (["simulate", "--approach", "mc"], ["simulate", "--approach", "naive"],
                     ["benchmark"]):
            assert tsruin.cli.main([*argv, *point, "--out", str(tmp_path / "out.tsv")]) == 0
    finally:
        tracer.uninstall()
    keys = {"kernels.mc_weight_scan": {"rows", "elems", "hits"},
            "kernels.stable_standard": {"elems"},
            "kernels.first_passage_scan": {"rows", "elems", "hits"}}
    elems = {}
    for name, want in keys.items():
        metas = [span[6] for span in tracer.spans if span[1] == name]
        assert metas, name
        for meta in metas:
            assert set(meta) == want, name
            assert all(isinstance(v, int) and v >= 0 for v in meta.values()), (name, meta)
        elems[name] = sum(meta["elems"] for meta in metas)
    # the naive sampler proposes every increment it scans at least once
    assert elems["kernels.stable_standard"] >= elems["kernels.first_passage_scan"] > 0


def test_b_and_scale_fn_run_traced(tmp_path):
    # perfbench's metadata on ruin.scale_function reads one float u per call
    us = [0.5, 1.25, 2.0]
    tracer = spans.Tracer()
    tracer.install(tsruin)
    try:
        for argv in (["b", "--t-min", "1", "--t-max", "20", "--t-steps", "4"],
                     ["scale-fn", "--u-min", "0.5", "--u-max", "2", "--u-steps", "3"]):
            out = str(tmp_path / f"{argv[0]}.tsv")
            assert tsruin.cli.main([*argv, "--preset", "paper-ref", "--out", out]) == 0
    finally:
        tracer.uninstall()
    metas = [span[6] for span in tracer.spans if span[1] == "ruin.scale_function"]
    assert metas == [{"u": u} for u in us]
    assert all(type(meta["u"]) is float for meta in metas)
