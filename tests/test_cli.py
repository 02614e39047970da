"""Command-line contract tests: TSV shape, determinism, exit codes."""
import contextlib
import io
import math
import os
import re
import stat
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsruin import cli, sim

from conftest import MODELS, Oracle


CLI = [sys.executable, "-m", "tsruin"]


def run_cli(*args, check=False):
    res = subprocess.run(CLI + list(args), capture_output=True, text=True)
    if check and res.returncode != 0:
        raise AssertionError(f"cli failed ({res.returncode}): {res.stderr}")
    return res


def read_tsv(path):
    header, rows = None, []
    sections = []
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw, "output must use LF line endings"
    for line in raw.decode("utf-8").splitlines():
        if not line:
            if header is not None:
                sections.append((header, rows))
                header, rows = None, []
            continue
        if line.startswith("#"):
            header = line.lstrip("# ").split("\t")
        else:
            rows.append(line.split("\t"))
    if header is not None:
        sections.append((header, rows))
    return sections


class TestCmdB:
    def test_profile_and_limit(self, tmp_path):
        out = tmp_path / "b.tsv"
        res = run_cli("b", "--preset", "paper-ref", "--t-min", "0.5", "--t-max", "13",
                      "--t-steps", "8", "--out", str(out), check=True)
        [(header, rows)] = read_tsv(out)
        assert header == ["t", "B"]
        vals = [float(r[1]) for r in rows]
        assert len(vals) == 8
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 5.5777103247127044  # below the finite limit
        assert "subcritical" in res.stdout
        assert "5.57771032" in res.stdout  # B(inf) printed at 9 significant digits

    def test_supercritical_warns(self, tmp_path):
        out = tmp_path / "b.tsv"
        res = run_cli("b", "--c", "0.01", "--alpha", "1", "--rho", "0.5", "--xi", "0.2",
                      "--t-min", "1", "--t-max", "5", "--t-steps", "3", "--out", str(out))
        assert res.returncode == 0
        assert "supercritical" in res.stderr

    def test_missing_grid_is_usage_error(self):
        res = run_cli("b", "--preset", "paper-ref")
        assert res.returncode == 2

    @pytest.mark.parametrize("axis, argv", [
        ("t", ["b", "--preset", "paper-ref"]),
        ("u", ["ruin-surface", "--preset", "paper-ref", "--method", "rft",
               "--t-min", "1"]),
    ])
    def test_steps_without_max_is_usage_error(self, tmp_path, capsys, axis, argv):
        # several steps from one end would print the same point each time
        assert cli.main(argv + [f"--{axis}-min", "1", f"--{axis}-steps", "3"]) == 2
        assert f"error: --{axis}-steps 3 needs --{axis}-max" in capsys.readouterr().err
        assert cli.main(argv + [f"--{axis}-min", "1", f"--{axis}-steps", "1",
                                "--out", str(tmp_path / "one.tsv")]) == 0

    @pytest.mark.parametrize("axis, argv", [
        ("t", ["b", "--preset", "paper-ref"]),
        ("u", ["scale-fn", "--preset", "paper-ref"]),
    ])
    def test_max_without_steps_is_usage_error(self, capsys, axis, argv):
        assert cli.main(argv + [f"--{axis}-min", "1", f"--{axis}-max", "5"]) == 2
        assert f"error: missing --{axis}-steps" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["b", "--preset", "paper-ref", "--c", "nan", "--t-min", "1"], "c"),
        (["b", "--preset", "paper-ref", "--xi", "nan", "--t-min", "1"], "xi"),
        (["b", "--preset", "paper-ref", "--p", "inf", "--t-min", "1"], "p"),
        (["b", "--preset", "paper-ref", "--alpha=-inf", "--t-min", "1"], "alpha"),
        (["b", "--preset", "paper-ref", "--t-min", "inf"], "--t-min"),
        (["b", "--preset", "paper-ref", "--t-min", "1", "--t-max", "nan", "--t-steps", "3"],
         "--t-max"),
        (["scale-fn", "--preset", "paper-ref", "--u-min", "nan"], "--u-min"),
        (["simulate", "--preset", "paper-ref", "--approach", "mc", "--u-min", "1",
          "--t-min", "1", "--h", "nan"], "h"),
    ])
    def test_non_finite_is_usage_error(self, capsys, argv, name):
        # NaN passes every ordered check, so each is named before it is used
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be finite, got ")
        assert "Warning" not in err

    def test_explicit_premium_overrides_preset_loading(self):
        # --p replaces the preset's xi rather than colliding with it
        res = run_cli("b", "--preset", "paper-ref", "--p", "1.2",
                      "--t-min", "1", "--t-steps", "1")
        assert res.returncode == 0

    @pytest.mark.parametrize("text, flags", [
        ("preset=paper-ref\np=1.5\n", []),
        ("p=1.5\n", ["--preset", "paper-ref"]),
    ], ids=["file-preset", "flag-preset"])
    def test_config_premium_overrides_preset_loading(self, tmp_path, capsys, text, flags):
        # a file's p replaces the preset's xi, as --p does
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert cli.main(["b", "--config", str(cfg), *flags, "--t-min", "1"]) == 0
        from_file = capsys.readouterr()
        assert cli.main(["b", "--preset", "paper-ref", "--p", "1.5", "--t-min", "1"]) == 0
        assert from_file == capsys.readouterr()

    def test_both_premiums_in_one_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=1.5\nxi=0.3\n")
        assert cli.main(["b", "--preset", "paper-ref", "--config", str(cfg), "--t-min", "1"]) == 2
        assert capsys.readouterr().err == "error: exactly one of --p and --xi must be given\n"

    def test_both_premium_flags_rejected(self):
        res = run_cli("b", "--preset", "paper-ref", "--p", "1.2", "--xi", "0.3",
                      "--t-min", "1", "--t-steps", "1")
        assert res.returncode == 2

    def test_large_t_passes_self_check(self, tmp_path):
        # the contour nodes of t >= 1000 reach |delta/alpha| ~ 1e-4, where the
        # direct form of psi_X cancels: with it, B(7000)'s gap on the former
        # fixed-Talbot rules (M=18 and M=24) was 1.3e-8
        out = tmp_path / "b.tsv"
        run_cli("b", "--c", "5", "--alpha", "3", "--rho", "0.95", "--xi", "0.3",
                "--t-min", "1000", "--t-max", "10000", "--t-steps", "4", "--out", str(out),
                check=True)
        [(_, rows)] = read_tsv(out)
        oracle = Oracle(*MODELS["large_t_model"])
        assert len(rows) == 4
        for t, b in rows:
            assert abs(float(b) - float(oracle.b(float(t), 32))) <= 1e-9, f"B({t})"


class TestCmdRuinSurface:
    def test_tulta_reference_cell(self, tmp_path):
        out = tmp_path / "s.tsv"
        run_cli("ruin-surface", "--preset", "paper-ref", "--method", "tulta",
                "--u-min", "1", "--u-max", "1", "--u-steps", "1",
                "--t-min", "10", "--t-max", "10", "--t-steps", "1",
                "--out", str(out), check=True)
        [(header, rows)] = read_tsv(out)
        assert header == ["u", "t", "value"]
        assert abs(float(rows[0][2]) / 0.00330802 - 1.0) < 5e-3

    def test_row_major_t_fastest(self, tmp_path):
        out = tmp_path / "s.tsv"
        run_cli("ruin-surface", "--preset", "paper-ref", "--method", "infinite",
                "--u-min", "1", "--u-max", "2", "--u-steps", "2",
                "--t-min", "5", "--t-max", "10", "--t-steps", "2",
                "--out", str(out), check=True)
        [(_, rows)] = read_tsv(out)
        coords = [(float(r[0]), float(r[1])) for r in rows]
        assert coords == [(1.0, 5.0), (1.0, 10.0), (2.0, 5.0), (2.0, 10.0)]
        # infinite-horizon value repeats across t within a u-block
        assert rows[0][2] == rows[1][2] and rows[2][2] == rows[3][2]
        assert abs(float(rows[2][2]) / 0.000646473 - 1.0) < 5e-3

    def test_rft_exceeds_one_small_u(self, tmp_path):
        # tail(u) * B(t) is no probability at small u: a cell above 1 fails
        # the command, named, and nothing is written
        out = tmp_path / "s.tsv"
        res = run_cli("ruin-surface", "--preset", "paper-ref", "--method", "rft",
                      "--u-min", "0.01", "--u-max", "0.05", "--u-steps", "2",
                      "--t-min", "10", "--t-max", "10", "--t-steps", "1", "--out", str(out))
        assert res.returncode == 3
        assert "rft estimate at u=0.01, t=10.0 is " in res.stderr
        assert "not a positive normal double <= 1" in res.stderr
        assert not out.exists()

    def test_rft_underflow_exit_code(self, tmp_path):
        # no 0 or subnormal printed: the Levy tail underflows past alpha u ~ 700,
        # and P(690) is normal but B(1e-12)/B(inf) takes tulta below the range
        out = tmp_path / "s.tsv"
        for method, u_grid, t_min in [
                ("rft", ["--u-min", "700", "--u-max", "800", "--u-steps", "2"], "1"),
                ("tulta", ["--u-min", "690"], "1e-12")]:
            res = run_cli("ruin-surface", "--preset", "paper-ref", "--method", method, *u_grid,
                          "--t-min", t_min, "--t-steps", "1", "--out", str(out))
            assert res.returncode == 3
            assert "not a positive normal double" in res.stderr
            assert not out.exists()

    def test_mc_is_not_a_method(self, capsys):
        # Monte Carlo surfaces come from simulate --approach mc alone
        with pytest.raises(SystemExit) as exc:
            cli.main(["ruin-surface", "--preset", "paper-ref", "--method", "mc",
                      "--u-min", "1", "--t-min", "1"])
        assert exc.value.code == 2
        assert "invalid choice: 'mc' (choose from 'rft', 'tulta', 'infinite')" in \
            capsys.readouterr().err

    def test_tulta_supercritical_exit_code(self):
        res = run_cli("ruin-surface", "--c", "0.01", "--alpha", "1", "--rho", "0.5",
                      "--xi", "0.2", "--method", "tulta",
                      "--u-min", "1", "--u-steps", "1", "--t-min", "5", "--t-steps", "1")
        assert res.returncode == 4
        assert "supercritical" in res.stderr

    def test_method_required(self):
        res = run_cli("ruin-surface", "--preset", "paper-ref",
                      "--u-min", "1", "--u-steps", "1", "--t-min", "5", "--t-steps", "1")
        assert res.returncode == 2


class TestCmdSimulate:
    def test_deterministic_bytes(self, tmp_path):
        args = ["simulate", "--preset", "paper-ref", "--approach", "mc",
                "--u-min", "0.2", "--u-steps", "1", "--t-min", "1", "--t-steps", "1",
                "--h", "0.1", "--paths", "128", "--batches", "3", "--seed", "42"]
        out1, out2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        run_cli(*args, "--out", str(out1), check=True)
        run_cli(*args, "--out", str(out2), check=True)
        assert out1.read_bytes() == out2.read_bytes()

    def test_header_and_columns(self, tmp_path):
        out = tmp_path / "sim.tsv"
        run_cli("simulate", "--preset", "paper-ref", "--approach", "naive",
                "--u-min", "0.2", "--u-steps", "1", "--t-min", "1", "--t-steps", "1",
                "--h", "0.1", "--paths", "128", "--batches", "3", "--seed", "42",
                "--out", str(out), check=True)
        [(header, rows)] = read_tsv(out)
        assert header == ["u", "t", "mean", "stderr", "n", "N", "h", "seed"]
        assert rows[0][4] == "128" and rows[0][5] == "3" and rows[0][7] == "42"

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_elapsed_info_line(self, tmp_path, capsys, to_file):
        # the grid run's wall time is one info line, on the stream b uses
        # for its regime lines: stdout beside --out, stderr beside the TSV
        out = ["--out", str(tmp_path / "sim.tsv")] if to_file else []
        assert cli.main(["simulate", "--preset", "paper-ref", "--approach", "mc",
                         "--u-min", "0.2", "--u-steps", "1", "--t-min", "1", "--t-steps", "1",
                         "--h", "0.1", "--paths", "64", "--batches", "2", *out]) == 0
        std = capsys.readouterr()
        info, tsv = (std.out, std.err) if to_file else (std.err, std.out)
        assert re.fullmatch(r"elapsed = \S+ s\n", info) and float(info.split()[2]) >= 0.0
        assert (tsv == "") if to_file else tsv.startswith("# u\tt\tmean\tstderr\tn\tN\th\tseed\n")

    def test_h_not_dividing_t(self, tmp_path):
        res = run_cli("simulate", "--preset", "paper-ref", "--approach", "mc",
                      "--u-min", "0.2", "--u-steps", "1", "--t-min", "1", "--t-steps", "1",
                      "--h", "0.3", "--paths", "16", "--batches", "2", "--seed", "1")
        assert res.returncode == 2
        assert "divide" in res.stderr
        # t = 0.3 is a multiple of h, the last t = 1 is not: no row may be written
        out = tmp_path / "sim.tsv"
        res = run_cli("simulate", "--preset", "paper-ref", "--approach", "mc",
                      "--u-min", "0.2", "--u-steps", "1", "--t-min", "0.3", "--t-max", "1",
                      "--t-steps", "2", "--h", "0.3", "--paths", "16", "--batches", "2",
                      "--seed", "1", "--out", str(out))
        assert res.returncode == 2
        assert "divide" in res.stderr and "t=1.0" in res.stderr
        assert not out.exists()

    def test_grid_rows_share_one_run(self, tmp_path):
        out = tmp_path / "sim.tsv"
        res = run_cli("simulate", "--preset", "paper-ref", "--approach", "naive",
                      "--u-min", "0.2", "--u-max", "0.4", "--u-steps", "2", "--t-min", "0.5",
                      "--t-max", "1", "--t-steps", "2", "--h", "0.1", "--paths", "128",
                      "--batches", "3", "--seed", "42", "--out", str(out), check=True)
        [(_, rows)] = read_tsv(out)
        assert [(r[0], r[1]) for r in rows] == [("0.2", "0.5"), ("0.2", "1"),
                                                ("0.4", "0.5"), ("0.4", "1")]
        assert res.stdout.count("elapsed = ") == 1  # the grid run's time, once

    @pytest.mark.parametrize("model, t, h, value", [
        # psi_X(alpha) t = -755: the factor underflows to 0, where the mean printed 0
        (["--preset", "paper-ref"], "4000", "10", "0.000000e+00"),
        # psi_X(alpha) t = 879: math.exp overflowed, "math range error" naming nothing
        (["--c", "1", "--alpha", "2", "--rho", "0.3", "--xi", "0.5"], "300", "1", "inf"),
    ], ids=["underflow", "overflow"])
    def test_mc_factor_out_of_range_exit_code(self, tmp_path, model, t, h, value):
        out = tmp_path / "sim.tsv"
        res = run_cli("simulate", *model, "--approach", "mc", "--u-min", "1", "--t-min", t,
                      "--h", h, "--paths", "64", "--batches", "2", "--seed", "1",
                      "--out", str(out))
        assert res.returncode == 3
        assert (f"measure-change factor exp(psi_X(alpha) t) at t={float(t)} is {value}"
                in res.stderr)
        assert not out.exists()

    def test_mc_cell_without_positive_weight_exit_code(self, capsys):
        # psi_X(alpha) t = 100.9: every hit path's weight exp(-alpha Z_t) is
        # 0.0, where the cell printed mean 0 and stderr 0 (exact: 0.246031)
        argv = ["simulate", "--c", "1", "--alpha", "2", "--rho", "0.05", "--xi", "0.1",
                "--approach", "mc", "--u-min", "1", "--t-min", "5", "--h", "0.01",
                "--paths", "1024", "--batches", "4"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == ("error: every weight of the 1024 hit paths at u=1.0, "
                                           "t=5.0 is 0 in double precision\n")

    def test_mc_weight_on_few_hit_paths_exit_code(self, capsys):
        # psi_X(alpha) t = -136.8: one hit path in a batch carries nearly all
        # of the weight; the cell printed 1.62153204e-15 +- 1.62128739e-15
        # (exact: 6.606e-4)
        argv = ["simulate", "--c", "5", "--alpha", "3", "--rho", "0.95", "--xi", "0.3",
                "--approach", "mc", "--u-min", "1", "--t-min", "2", "--h", "0.01",
                "--paths", "1024", "--batches", "4"]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: the weight of the ") and "hit paths at u=1.0, t=2.0 " in err
        assert err.endswith(" of the hits (below 0.01)\n")

    @pytest.mark.parametrize("cores, argv, config, want", [
        (2, [], None, 2),
        (8, ["--batches", "3"], None, 3),
        (1, [], None, 1),
        (2, ["--threads", "1"], None, 1),
        (2, ["--threads", "5"], None, 5),
        (2, [], "threads=1\n", 1),
    ], ids=["cores", "batches", "one-core", "flag", "flag-above-cores", "config"])
    def test_threads_default_to_usable_cores(self, tmp_path, monkeypatch, cores, argv, config,
                                             want):
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        if config is not None:
            (tmp_path / "cfg").write_text(config)
            argv = [*argv, "--config", str(tmp_path / "cfg")]
        args = cli.build_parser().parse_args(["simulate", *argv])
        assert cli._sim_plan(cli._merge_settings(args)).threads == want

    @pytest.mark.parametrize("approach", ["mc", "naive"])
    def test_default_threads_same_bytes(self, tmp_path, approach):
        args = ["simulate", "--preset", "paper-ref", "--approach", approach,
                "--u-min", "0.2", "--u-max", "0.4", "--u-steps", "2", "--t-min", "0.5",
                "--t-max", "1", "--t-steps", "2", "--h", "0.1", "--paths", "256",
                "--batches", "4", "--seed", "7"]

        def tsv(extra):
            out = tmp_path / "sim.tsv"
            assert cli.main([*args, *extra, "--out", str(out)]) == 0
            return out.read_bytes()

        assert tsv([]) == tsv(["--threads", "1"])

    def test_naive_rejects_rho_above_one(self):
        res = run_cli("simulate", "--c", "0.01", "--alpha", "1", "--rho", "1.5",
                      "--xi", "0.2", "--approach", "naive",
                      "--u-min", "0.2", "--u-steps", "1", "--t-min", "1", "--t-steps", "1",
                      "--h", "0.1", "--paths", "16", "--batches", "2", "--seed", "1")
        assert res.returncode == 2


class TestCmdBenchmark:
    def test_single_cell(self, tmp_path):
        out = tmp_path / "bench.tsv"
        run_cli("benchmark", "--preset", "paper-ref",
                "--u-min", "1", "--u-steps", "1", "--t-min", "10", "--t-steps", "1",
                "--h", "0.1", "--paths", "1024", "--batches", "5", "--seed", "3",
                "--out", str(out), check=True)
        [(header, rows)] = read_tsv(out)
        assert header == ["u", "t", "a", "s", "i", "a/s", "i/s", "|a-s|/s", "|i-s|/s"]
        assert len(rows) == 1
        u, t, a, s, i = (float(v) for v in rows[0][:5])
        assert abs(a / 0.00330802 - 1.0) < 5e-3
        assert abs(i / 0.00393118 - 1.0) < 5e-3
        assert abs(float(rows[0][5]) - a / s) < 1e-9

    def test_ratio_constant_across_u(self, tmp_path):
        out = tmp_path / "bench.tsv"
        run_cli("benchmark", "--preset", "paper-ref",
                "--u-min", "1", "--u-max", "2", "--u-steps", "2",
                "--t-min", "10", "--t-steps", "1",
                "--h", "0.5", "--paths", "64", "--batches", "2", "--seed", "3",
                "--out", str(out), check=True)
        [(_, rows)] = read_tsv(out)
        ratios = [float(r[2]) / float(r[4]) for r in rows]  # a/i per u
        assert abs(ratios[0] / ratios[1] - 1.0) < 1e-5

    def test_zero_simulated_cell_is_named(self, tmp_path):
        # two batches of two paths at h = 0.5: no path reaches u = 2 by t = 1
        out = tmp_path / "bench.tsv"
        res = run_cli("benchmark", "--preset", "paper-ref", "--u-min", "2", "--u-steps", "1",
                      "--t-min", "1", "--t-steps", "1", "--h", "0.5", "--paths", "2",
                      "--batches", "2", "--seed", "1", "--out", str(out))
        assert res.returncode == 3
        assert "s at u=2.0, t=1.0 is 0.000000e+00, not a positive normal double" in res.stderr
        assert not out.exists()

    def test_supercritical_exit(self):
        res = run_cli("benchmark", "--c", "0.01", "--alpha", "1", "--rho", "0.5",
                      "--xi", "0.2", "--u-min", "1", "--u-steps", "1",
                      "--t-min", "10", "--t-steps", "1")
        assert res.returncode == 4


class TestCmdScaleFn:
    def test_two_sections(self, tmp_path):
        out = tmp_path / "w.tsv"
        run_cli("scale-fn", "--preset", "paper-ref",
                "--u-min", "0.1", "--u-max", "8", "--u-steps", "12",
                "--out", str(out), check=True)
        sections = read_tsv(out)
        assert len(sections) == 2
        (wh, wrows), (ph, prows) = sections
        assert wh == ["u", "W"] and ph == ["u", "P_ruin"]
        w = [float(r[1]) for r in wrows]
        p = [float(r[1]) for r in prows]
        assert all(b >= a for a, b in zip(w, w[1:]))         # W nondecreasing
        assert abs(w[-1] - 5.0285318) < 1e-3                  # toward 1/|E X_1|
        assert all(b < a for a, b in zip(p, p[1:]))           # ruin prob decreasing
        assert p[0] < 1.0 and p[-1] < 1e-4

    def test_zero_u_rejected(self):
        res = run_cli("scale-fn", "--preset", "paper-ref",
                      "--u-min", "0", "--u-max", "1", "--u-steps", "3")
        assert res.returncode == 2


class TestConfigAndIO:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reference model\nc=0.01\nalpha=1.0\nrho=0.99\nxi=0.2\n"
            "t-min=1.0\nt-max=5.0\nt-steps=2\n"
        )
        out = tmp_path / "b.tsv"
        run_cli("b", "--config", str(cfg), "--t-steps", "3", "--out", str(out), check=True)
        [(_, rows)] = read_tsv(out)
        assert len(rows) == 3  # flag overrides the config's t-steps=2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        res = run_cli("b", "--config", str(cfg), "--t-min", "1", "--t-steps", "1")
        assert res.returncode == 2
        assert "bogus" in res.stderr

    def test_numbers_are_nine_significant_digits(self, tmp_path):
        out = tmp_path / "b.tsv"
        run_cli("b", "--preset", "paper-ref", "--t-min", "0.123456789123", "--t-steps", "1",
                "--out", str(out), check=True)
        [(_, rows)] = read_tsv(out)
        assert rows[0][0] == "0.123456789"

    def test_fifo_written_in_place(self, tmp_path):
        # a FIFO given as --out stays a FIFO, and its reader gets the bytes
        # a regular file gets
        argv = ["b", "--preset", "paper-ref", "--t-min", "1", "--t-max", "5", "--t-steps", "3"]
        regular = tmp_path / "b.tsv"
        assert cli.main(argv + ["--out", str(regular)]) == 0
        fifo = tmp_path / "b.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert cli.main(argv + ["--out", str(fifo)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert got == [regular.read_bytes()]

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, where):
        out = tmp_path / "no" / "such" / "b.tsv" if where == "missing directory" else tmp_path
        argv = ["b", "--preset", "paper-ref", "--t-min", "1", "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write --out {out}: ")
        assert not list(tmp_path.rglob(".tsruin-*"))

    def test_failed_rename_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli.os, "replace", refuse)
        out = tmp_path / "b.tsv"
        argv = ["b", "--preset", "paper-ref", "--t-min", "1", "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: cannot write --out {out}: Permission denied\n"
        assert not list(tmp_path.iterdir())

    def test_no_partial_file_on_failure(self, tmp_path):
        out = tmp_path / "never.tsv"
        res = run_cli("ruin-surface", "--c", "0.01", "--alpha", "1", "--rho", "0.5",
                      "--xi", "0.2", "--method", "tulta",
                      "--u-min", "1", "--u-steps", "1", "--t-min", "5", "--t-steps", "1",
                      "--out", str(out))
        assert res.returncode == 4
        assert not out.exists()
        assert not list(tmp_path.glob(".tsruin-*"))

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # P(ruin ever) at u = 800 is below the smallest positive normal double
        res = run_cli("scale-fn", "--preset", "paper-ref", "--u-min", "800", "--u-steps", "1",
                      "--out", str(tmp_path / "x.tsv"))
        assert res.returncode == 3
        assert "not a positive normal double" in res.stderr
        # the tilting rejection cap: an ArithmeticError, not a traceback
        monkeypatch.setattr(sim, "_MAX_REJECTION_ROUNDS", 1)
        assert cli.main(["simulate", "--preset", "paper-ref", "--approach", "naive",
                         "--u-min", "0.1", "--t-min", "2", "--paths", "64", "--batches", "2",
                         "--out", str(tmp_path / "y.tsv")]) == 3
        assert capsys.readouterr().err == "error: tilting rejection exceeded 1 rounds\n"

    @pytest.mark.parametrize("argv", [
        ["ruin-surface", "--method", "tulta", "--t-min", "1"],
        ["ruin-surface", "--method", "infinite", "--t-min", "1"],
        ["scale-fn"],
    ], ids=["tulta", "infinite", "scale-fn"])
    def test_non_finite_transform_names_u(self, capsys, argv):
        # P's contour at u = 1e-300 is out of range: the refusal names the
        # u the user gave, not the engine's own axis t
        assert cli.main(argv + ["--preset", "paper-ref", "--u-min", "1e-300"]) == 3
        assert capsys.readouterr().err == ("error: transform is not finite on the hyperbolic "
                                           "contour (u=1e-300)\n")

    @pytest.mark.parametrize("argv", [
        ["b"],
        ["ruin-surface", "--method", "rft", "--u-min", "1"],
        ["ruin-surface", "--method", "tulta", "--u-min", "1"],
    ], ids=["b", "rft", "tulta"])
    def test_phi_stall_names_t(self, capsys, argv):
        # B's contour at t = 1e-200 reaches nodes ~3e200 where Halley stalls:
        # the refusal names the t the user gave, not a contour node alone
        assert cli.main(argv + ["--preset", "paper-ref", "--t-min", "1e-200"]) == 3
        assert re.fullmatch(r"error: Halley iteration stalled for phi\(\(\S+j\)\) after 50 "
                            r"iterations \(58 of 58 nodes unconverged\) \(t=1e-200\)\n",
                            capsys.readouterr().err)

    @pytest.mark.parametrize("command, line, message", [
        # an unchecked approach=MC falls through to the naive simulator
        ("simulate", "approach=MC",
         "approach: invalid choice: 'MC' (choose from 'naive', 'mc')"),
        ("ruin-surface", "method=MC",
         "method: invalid choice: 'MC' (choose from 'rft', 'tulta', 'infinite')"),
        ("b", "preset=nope", "preset: invalid choice: 'nope' (choose from 'paper-ref')"),
        ("b", "c=abc", "c: invalid float value: 'abc'"),
        ("simulate", "paths=1.5", "paths: invalid int value: '1.5'"),
        ("b", "config=other.cfg", "unknown key 'config'"),
    ])
    def test_config_values_checked_as_flags(self, tmp_path, capsys, command, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# model\n" + line + "\n")
        argv = [command, "--config", str(cfg), "--u-min", "1", "--t-min", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["b", "--config", "{missing}", "--t-min", "1"], "cannot read config {missing}: "),
        (["b", "--config", "{cfg}", "--t-min", "1"], "{cfg}:2: expected key=value, got 'c 0.01'"),
        (["b", "--alpha", "1", "--rho", "0.99", "--xi", "0.2", "--t-min", "1"],
         "missing model parameter --c (or use --preset/--config)"),
        (["scale-fn", "--preset", "paper-ref", "--u-min", "2", "--u-max", "1", "--u-steps", "3"],
         "--u-max must be >= --u-min"),
        (["simulate", "--preset", "paper-ref", "--u-min", "0.1", "--t-min", "2"],
         "--approach is required (naive or mc)"),
        (["ruin-surface", "--preset", "paper-ref", "--u-min", "1", "--t-min", "5"],
         "--method is required (rft, tulta, infinite)"),
        (["scale-fn", "--preset", "paper-ref", "--u-max", "2", "--u-steps", "3"],
         "missing --u-min"),
        # large_t_model: refused before any draw, where it spun for a minute
        (["simulate", "--c", "5", "--alpha", "3", "--rho", "0.95", "--xi", "0.3",
          "--approach", "naive", "--u-min", "0.1", "--t-min", "0.5", "--h", "0.05"],
         "naive step h=0.05 accepts a tilting proposal with mean probability "
         "exp(-h k alpha^rho) = 4.8e-07, k = -c Gamma(-rho); the largest step that passes "
         "is h=0.031651641242279385"),
        # one batch has no spread to give a stderr
        (["simulate", "--preset", "paper-ref", "--approach", "mc", "--u-min", "0.1",
          "--t-min", "2", "--batches", "1"], "N must be >= 2, got 1"),
        (["benchmark", "--preset", "paper-ref", "--u-min", "1", "--t-min", "1",
          "--batches", "1"], "N must be >= 2, got 1"),
    ], ids=["unreadable-config", "line-without-equals", "missing-c", "u-max-below-u-min",
            "no-approach", "no-method", "no-u-min", "naive-hopeless-step", "one-batch",
            "benchmark-one-batch"])
    def test_usage_errors(self, tmp_path, capsys, argv, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# model\nc 0.01\n")
        paths = {"cfg": cfg, "missing": tmp_path / "missing.cfg"}
        assert cli.main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(**paths)}") and err.endswith("\n")

    def test_config_preset_beneath_file_keys_and_flag(self, tmp_path, monkeypatch):
        critical = dict(zip(("c", "alpha", "rho", "xi"), MODELS["critical_model"]))
        monkeypatch.setitem(cli.PRESETS, "alt", critical)
        monkeypatch.setitem(cli._OPTIONS, "preset", (str, ("alt", "paper-ref"), None))
        cli.build_parser.cache_clear()
        try:
            def run(*argv):
                out = tmp_path / "b.tsv"
                assert cli.main(["b", "--t-min", "2", *argv, "--out", str(out)]) == 0
                return out.read_bytes()

            def config(text):
                cfg = tmp_path / "run.cfg"
                cfg.write_text(text)
                return "--config", str(cfg)

            assert run(*config("preset=alt\n")) == run("--preset", "alt")
            assert run(*config("preset=alt\n"), "--preset", "paper-ref") == run(
                "--preset", "paper-ref")
            assert run(*config("rho=0.99\npreset=alt\n")) == run(
                "--preset", "alt", "--rho", "0.99")
        finally:
            cli.build_parser.cache_clear()

    @pytest.mark.parametrize("flag", [("--engine", "levin"), ("--nodes", "32"), ("--eps", "0.5")])
    def test_no_inversion_flags(self, flag):
        res = run_cli("b", "--preset", "paper-ref", "--t-min", "1", "--t-steps", "1", *flag)
        assert res.returncode == 2

    @pytest.mark.parametrize("line", ["engine=levin", "nodes=32", "eps=0.5"])
    def test_no_inversion_config_keys(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        res = run_cli("b", "--preset", "paper-ref", "--config", str(cfg),
                      "--t-min", "1", "--t-steps", "1")
        assert res.returncode == 2
        assert "unknown key" in res.stderr

    @pytest.mark.parametrize("argv", [
        ["ruin-surface", "--method", "tulta", "--u-min", "0.5", "--u-max", "2", "--u-steps", "3",
         "--t-min", "1", "--t-max", "20", "--t-steps", "4"],
        ["benchmark", "--u-min", "1", "--u-max", "2", "--u-steps", "2", "--t-min", "1",
         "--t-max", "2", "--t-steps", "2", "--h", "0.1", "--paths", "256", "--batches", "4"],
        ["simulate", "--approach", "naive", "--u-min", "0.2", "--u-max", "0.4", "--u-steps", "2",
         "--t-min", "0.5", "--t-max", "1", "--t-steps", "2", "--h", "0.1", "--paths", "256",
         "--batches", "4"],
    ], ids=["tulta", "benchmark", "naive"])
    def test_rerun_same_bytes(self, tmp_path, argv):
        # two runs of one command write the same bytes, every column included
        outs = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
        for out in outs:
            run_cli(*argv, "--preset", "paper-ref", "--seed", "5", "--out", str(out), check=True)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_stdout_when_no_out(self):
        res = run_cli("b", "--preset", "paper-ref", "--t-min", "1", "--t-steps", "1")
        assert res.returncode == 0
        assert res.stdout.startswith("# t\tB\n")


def _tsv_per_value(*sections) -> str:
    """The TSV text of ``sections`` formatted one value at a time."""
    chunks = []
    for head, rows in sections:
        chunks.append("# " + "\t".join(head) + "\n")
        for row in rows:
            chunks.append("\t".join(f"{v:.9g}" if isinstance(v, float) else str(v)
                                    for v in row) + "\n")
        chunks.append("\n")
    return "".join(chunks[:-1])


_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, 1e300,
                -1e300, 1e-300, -1e-300]


@st.composite
def _tsv_sections(draw):
    """One to three sections, each of columns of one type (float or int) and
    zero or more rows."""
    sections = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = draw(st.lists(st.booleans(), min_size=1, max_size=6))
        column = {True: st.floats() | st.sampled_from(_EDGE_FLOATS), False: st.integers()}
        rows = draw(st.lists(st.tuples(*(column[k] for k in kinds)), max_size=8))
        sections.append(([f"c{i}" for i in range(len(kinds))], rows))
    return sections


class TestWriteTsv:
    @given(sections=_tsv_sections())
    @settings(max_examples=200, deadline=None)
    def test_same_text_as_per_value_formatting(self, sections):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write_tsv(None, *sections)
        assert out.getvalue() == _tsv_per_value(*sections)

    def test_empty_section(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write_tsv(None, (["u", "W"], []), (["u", "P"], [(1.0, -0.0)]))
        assert out.getvalue() == "# u\tW\n\n# u\tP\n1\t-0\n"


class TestInProcess:
    def test_parser_reused_across_commands(self, tmp_path, capsys):
        b = ["b", "--preset", "paper-ref", "--t-min", "0.5", "--t-max", "20", "--t-steps", "5"]
        scale = ["scale-fn", "--preset", "paper-ref", "--u-min", "0.5", "--u-max", "9",
                 "--u-steps", "6"]

        def run(argv, name):
            out = tmp_path / name
            assert cli.main(argv + ["--out", str(out)]) == 0
            return out.read_bytes()

        cli.build_parser.cache_clear()
        first_b = run(b, "b0.tsv")
        cli.build_parser.cache_clear()
        first_scale = run(scale, "s0.tsv")
        cli.build_parser.cache_clear()
        assert run(b, "b1.tsv") == first_b
        with pytest.raises(SystemExit) as exc:
            cli.main(["b", "--no-such-flag"])
        assert exc.value.code == 2
        assert cli.main(["simulate", "--preset", "paper-ref", "--approach", "mc",
                         "--u-min", "1", "--t-min", "1", "--threads", "0"]) == 2
        assert "threads" in capsys.readouterr().err
        assert run(scale, "s1.tsv") == first_scale
        assert cli.build_parser() is cli.build_parser()


class TestCommandTable:
    def test_help_lists_each_command_once(self):
        # `tsruin --help` lists each subcommand of cli._COMMANDS once, in
        # order, beside its help text (argparse wraps it at COLUMNS; its
        # lines rejoin)
        res = subprocess.run(CLI + ["--help"], capture_output=True, text=True, check=True,
                             env=dict(os.environ, COLUMNS="80"))
        listed = []
        for line in res.stdout.split("positional arguments:")[1].splitlines()[2:]:
            if entry := re.match(r"^    (\S+)\s\s+(\S.*)$", line):
                listed.append(list(entry.groups()))
            elif listed and (more := re.match(r"^\s{8,}(\S.*)$", line)):
                listed[-1][1] += " " + more.group(1)
            else:
                break
        assert listed == [[name, help_] for name, (_, help_) in cli._COMMANDS.items()]
