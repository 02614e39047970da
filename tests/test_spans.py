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
