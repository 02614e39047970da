"""Command-line contract tests: TSV shape, determinism, exit codes."""
import subprocess
import sys

import pytest

from tsruin import cli

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

    def test_explicit_premium_overrides_preset_loading(self):
        # --p replaces the preset's xi rather than colliding with it
        res = run_cli("b", "--preset", "paper-ref", "--p", "1.2",
                      "--t-min", "1", "--t-steps", "1")
        assert res.returncode == 0

    def test_both_premium_flags_rejected(self):
        res = run_cli("b", "--preset", "paper-ref", "--p", "1.2", "--xi", "0.3",
                      "--t-min", "1", "--t-steps", "1")
        assert res.returncode == 2

    def test_large_t_passes_self_check(self, tmp_path):
        # the Talbot nodes of t >= 1000 reach |delta/alpha| ~ 1e-3, where the
        # direct form of psi_X cancels: B(7000)'s M=18/M=24 gap was 1.3e-8
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
        out = tmp_path / "s.tsv"
        run_cli("ruin-surface", "--preset", "paper-ref", "--method", "rft",
                "--u-min", "0.01", "--u-max", "0.05", "--u-steps", "2",
                "--t-min", "10", "--t-max", "10", "--t-steps", "1",
                "--out", str(out), check=True)
        [(_, rows)] = read_tsv(out)
        assert any(float(r[2]) > 1.0 for r in rows)

    def test_rft_underflow_exit_code(self, tmp_path):
        # the Levy tail underflows past alpha u ~ 700: no 0 or subnormal printed
        out = tmp_path / "s.tsv"
        res = run_cli("ruin-surface", "--preset", "paper-ref", "--method", "rft",
                      "--u-min", "700", "--u-max", "800", "--u-steps", "2",
                      "--t-min", "1", "--t-steps", "1", "--out", str(out))
        assert res.returncode == 3
        assert "not a positive normal double" in res.stderr
        assert not out.exists()

    def test_mc_emits_stderr_column(self, tmp_path):
        out = tmp_path / "s.tsv"
        run_cli("ruin-surface", "--preset", "paper-ref", "--method", "mc",
                "--u-min", "0.2", "--u-steps", "1",
                "--t-min", "1", "--t-steps", "1",
                "--h", "0.1", "--paths", "256", "--batches", "3", "--seed", "5",
                "--out", str(out), check=True)
        [(header, rows)] = read_tsv(out)
        assert header == ["u", "t", "value", "stderr"]
        assert float(rows[0][3]) >= 0.0

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
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        # the elapsed column is wall-clock; everything else must be identical
        r1 = [ln.split(b"\t") for ln in b1.splitlines()]
        r2 = [ln.split(b"\t") for ln in b2.splitlines()]
        for a, b in zip(r1, r2):
            for i, (x, y) in enumerate(zip(a, b)):
                if i != 4:  # elapsed
                    assert x == y

    def test_header_and_columns(self, tmp_path):
        out = tmp_path / "sim.tsv"
        run_cli("simulate", "--preset", "paper-ref", "--approach", "naive",
                "--u-min", "0.2", "--u-steps", "1", "--t-min", "1", "--t-steps", "1",
                "--h", "0.1", "--paths", "128", "--batches", "3", "--seed", "42",
                "--out", str(out), check=True)
        [(header, rows)] = read_tsv(out)
        assert header == ["u", "t", "mean", "stderr", "elapsed", "n", "N", "h", "seed"]
        assert rows[0][5] == "128" and rows[0][6] == "3" and rows[0][8] == "42"

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
        run_cli("simulate", "--preset", "paper-ref", "--approach", "naive",
                "--u-min", "0.2", "--u-max", "0.4", "--u-steps", "2", "--t-min", "0.5",
                "--t-max", "1", "--t-steps", "2", "--h", "0.1", "--paths", "128",
                "--batches", "3", "--seed", "42", "--out", str(out), check=True)
        [(_, rows)] = read_tsv(out)
        assert [(r[0], r[1]) for r in rows] == [("0.2", "0.5"), ("0.2", "1"),
                                                ("0.4", "0.5"), ("0.4", "1")]
        assert len({r[4] for r in rows}) == 1  # elapsed: the grid run's time

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
        assert "s = 0 at u=2.0, t=1.0" in res.stderr
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

    def test_no_partial_file_on_failure(self, tmp_path):
        out = tmp_path / "never.tsv"
        res = run_cli("ruin-surface", "--c", "0.01", "--alpha", "1", "--rho", "0.5",
                      "--xi", "0.2", "--method", "tulta",
                      "--u-min", "1", "--u-steps", "1", "--t-min", "5", "--t-steps", "1",
                      "--out", str(out))
        assert res.returncode == 4
        assert not out.exists()
        assert not list(tmp_path.glob(".tsruin-*"))

    def test_numerical_failure_exit_code(self, tmp_path):
        # P(ruin ever) at u = 800 is below the smallest positive normal double
        res = run_cli("scale-fn", "--preset", "paper-ref", "--u-min", "800", "--u-steps", "1",
                      "--out", str(tmp_path / "x.tsv"))
        assert res.returncode == 3
        assert "not a positive normal double" in res.stderr

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

    def test_stdout_when_no_out(self):
        res = run_cli("b", "--preset", "paper-ref", "--t-min", "1", "--t-steps", "1")
        assert res.returncode == 0
        assert res.stdout.startswith("# t\tB\n")


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
