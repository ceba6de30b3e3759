"""Command-line interface: reports, exit codes, determinism."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fhn_torus import _rk, bifurcation, cli
from fhn_torus.cli import parse_and_dispatch


def run_cli(args, tmp_path, name="out.json", fmt=None):
    """Dispatch in-process, writing the report to a temp file."""
    path = tmp_path / name
    argv = list(args) + ["--output", str(path)]
    if fmt:
        argv += ["--format", fmt]
    code = parse_and_dispatch(argv)
    return code, path


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestCritical:
    def test_synchronized_example(self, tmp_path):
        code, path = run_cli(
            ["critical", "--n", "3", "--gamma", "-1", "--delta", "-1", "--b", "1"],
            tmp_path,
        )
        assert code == 0
        doc = load_json(path)
        assert doc["a_star"] == 0.0
        assert doc["K"] == "Gamma"
        assert doc["pattern"] == ["-", "-"]
        assert doc["numeric_cross_check"]["abs_diff"] < 1e-8

    def test_row_pattern_example(self, tmp_path):
        code, path = run_cli(
            ["critical", "--n", "3", "--gamma", "1", "--delta", "-1", "--b", "1"],
            tmp_path,
        )
        assert code == 0
        doc = load_json(path)
        assert doc["a_star"] == pytest.approx(1.5, rel=1e-12)
        assert doc["K"] == "Z(0,1)"
        modes = [(m["r"], m["s"]) for m in doc["crossing"]]
        assert modes[0] == (2, 0)

    def test_runs_critical_a_once(self, tmp_path, monkeypatch):
        calls = []
        original = bifurcation.critical_a

        def counted(lp):
            calls.append(lp)
            return original(lp)

        # the command module holds its own binding of the name
        monkeypatch.setattr(bifurcation, "critical_a", counted)
        monkeypatch.setattr(cli, "critical_a", counted)
        code, _ = run_cli(["critical", "--n", "3", "--gamma", "1", "--delta", "-1"],
                          tmp_path, fmt="csv")
        assert code == 0
        assert len(calls) == 1


class TestSpectrum:
    ARGS = ["spectrum", "--n", "3", "--a", "0", "--b", "1", "--c", "0",
            "--gamma", "-0.5", "--delta", "-0.5"]

    def test_record_count_and_residuals(self, tmp_path):
        code, path = run_cli(self.ARGS, tmp_path)
        assert code == 0
        doc = load_json(path)
        assert len(doc["records"]) == 18
        assert all(rec["residual"] < 1e-10 for rec in doc["records"])
        assert doc["max_residual"] < 1e-10

    def test_csv_contains_frozen_eigenvalue(self, tmp_path):
        code, path = run_cli(self.ARGS, tmp_path, name="spec.csv", fmt="csv")
        assert code == 0
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 18
        hit = next(r for r in rows if (r["r"], r["s"], r["branch"]) == ("1", "0", "+"))
        assert float(hit["re"]) == pytest.approx(-0.29005151144365582, rel=1e-14)
        assert float(hit["im"]) == pytest.approx(-0.73924793008432721, rel=1e-14)

    def test_byte_identical_reruns(self, tmp_path):
        _, first = run_cli(self.ARGS, tmp_path, name="a.json")
        _, second = run_cli(self.ARGS, tmp_path, name="b.json")
        assert first.read_bytes() == second.read_bytes()


class TestHopf:
    def test_crossing_report(self, tmp_path):
        code, path = run_cli(
            ["hopf", "--n", "3", "--b", "1", "--c", "0.05",
             "--gamma", "1", "--delta", "0.7"],
            tmp_path,
        )
        assert code == 0
        doc = load_json(path)
        rep = doc["report"]
        assert rep["type"] == "HopfReport"
        assert rep["a_hat"] < rep["a_star"]
        assert tuple(rep["mode"]) == (2, 2)
        assert rep["omega_hopf"] > 0.0
        assert doc["K"] == "Z(1,2)"

    def test_rejects_zero_c(self, tmp_path, capsys):
        code = parse_and_dispatch(
            ["hopf", "--n", "3", "--b", "1", "--c", "0",
             "--gamma", "1", "--delta", "0.7"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestSimulateClassify:
    def test_round_trip_recovers_synchronized_symmetry(self, tmp_path):
        code, traj_path = run_cli(
            ["simulate", "--n", "3", "--a", "-0.05", "--b", "1", "--c", "0",
             "--gamma", "-1", "--delta", "-1", "--ic", "uniform-x",
             "--amplitude", "0.25", "--t-end", "400"],
            tmp_path, name="traj.csv", fmt="csv",
        )
        assert code == 0
        code, path = run_cli(
            ["classify", "--input", str(traj_path), "--a", "-0.05",
             "--gamma", "-1", "--delta", "-1"],
            tmp_path, name="cls.json",
        )
        assert code == 0
        doc = load_json(path)
        assert doc["symmetry"]["spatial"] == "Gamma"
        assert doc["symmetry"]["fixing"] == "Gamma"
        period = doc["orbit"]["period"]
        assert abs(period - 2.0 * math.pi) < 0.1 * 2.0 * math.pi

    def test_simulate_json_carries_stats(self, tmp_path):
        code, path = run_cli(
            ["simulate", "--n", "3", "--t-end", "5"], tmp_path, name="sim.json"
        )
        assert code == 0
        doc = load_json(path)
        assert doc["accepted_nodes"] >= 2
        assert len(doc["final_state"]) == 18

    def test_random_ic_reproducible_with_seed(self, tmp_path):
        args = ["simulate", "--n", "3", "--t-end", "2", "--ic", "random",
                "--seed", "11"]
        _, first = run_cli(args, tmp_path, name="r1.csv", fmt="csv")
        _, second = run_cli(args, tmp_path, name="r2.csv", fmt="csv")
        assert first.read_bytes() == second.read_bytes()

    def test_classify_lattice_size_mismatch(self, tmp_path, capsys):
        _, traj_path = run_cli(
            ["simulate", "--n", "3", "--t-end", "2"], tmp_path,
            name="traj.csv", fmt="csv",
        )
        code = parse_and_dispatch(
            ["classify", "--input", str(traj_path), "--n", "5"]
        )
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows", [0, 1])
    def test_classify_too_few_rows(self, rows, tmp_path, capsys):
        _, traj_path = run_cli(["simulate", "--n", "3", "--t-end", "2"], tmp_path,
                               name="traj.csv", fmt="csv")
        short = tmp_path / "short.csv"
        short.write_text("".join(traj_path.read_text().splitlines(True)[:1 + rows]))
        code = parse_and_dispatch(["classify", "--input", str(short)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(short) in err

    def test_classify_missing_file(self, tmp_path, capsys):
        code = parse_and_dispatch(
            ["classify", "--input", str(tmp_path / "nope.csv")]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error:")


class TestSweep:
    HEADER = "N,a,b,c,gamma,delta,a_star,a_hat,mode_r,mode_s,omega,K,criticality"

    def test_grid_rows_in_order(self, tmp_path):
        code, path = run_cli(
            ["sweep", "--n", "3", "--b", "1", "--c", "0",
             "--gamma-range=-1.5:-0.5:2", "--delta-range=-1.5:-0.5:2"],
            tmp_path, name="sweep.csv", fmt="csv",
        )
        assert code == 0
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == self.HEADER
        assert len(lines) == 5
        gammas = [float(l.split(",")[4]) for l in lines[1:]]
        deltas = [float(l.split(",")[5]) for l in lines[1:]]
        assert gammas == [-1.5, -1.5, -0.5, -0.5]
        assert deltas == [-1.5, -0.5, -1.5, -0.5]

    def test_degenerate_point_marked_invalid(self, tmp_path):
        code, path = run_cli(
            ["sweep", "--n", "3", "--b", "1", "--c", "0",
             "--gamma-range=-1:1:3", "--delta-range=-1:-1:1"],
            tmp_path, name="sweep.csv", fmt="csv",
        )
        assert code == 0
        rows = path.read_text(encoding="utf-8").strip().split("\n")[1:]
        assert len(rows) == 3
        assert rows[1].endswith("invalid")
        assert rows[0].endswith("undetermined") and rows[2].endswith("undetermined")

    def test_parallel_output_matches_serial(self, tmp_path):
        base = ["sweep", "--n", "3", "--b", "1", "--c", "0",
                "--gamma-range=-1.2:0.8:2", "--delta-range=-1.2:0.8:2"]
        _, serial = run_cli(base + ["--jobs", "1"], tmp_path, name="s1.csv", fmt="csv")
        _, parallel = run_cli(base + ["--jobs", "2"], tmp_path, name="s2.csv", fmt="csv")
        assert serial.read_bytes() == parallel.read_bytes()


class TestConfigFile:
    def test_config_supplies_parameters(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\ngamma = -1  # associative\ndelta = -1\nb = 1\n")
        code, path = run_cli(["critical", "--config", str(cfg)], tmp_path)
        assert code == 0
        assert load_json(path)["a_star"] == 0.0

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = -1\ndelta = -1\nb = 1\n")
        code, path = run_cli(
            ["critical", "--config", str(cfg), "--gamma", "1"], tmp_path
        )
        assert code == 0
        doc = load_json(path)
        assert doc["a_star"] == pytest.approx(1.5, rel=1e-12)
        assert doc["K"] == "Z(0,1)"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau = 2\n")
        code = parse_and_dispatch(["critical", "--config", str(cfg)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert parse_and_dispatch(["critical", "--bogus", "1"]) == 2
        capsys.readouterr()

    def test_missing_command(self, capsys):
        assert parse_and_dispatch([]) == 2
        capsys.readouterr()

    def test_composite_lattice_side(self, capsys):
        code = parse_and_dispatch(["critical", "--n", "9", "--gamma", "-1",
                                   "--delta", "-1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_range_syntax(self, capsys):
        code = parse_and_dispatch(["sweep", "--gamma-range", "1:2"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [
        ["--t-end", "nan"],
        ["--t-end", "inf"],
        ["--amplitude", "nan"],
        ["--rtol=0", "--atol=0"],
    ])
    def test_invalid_integration_input(self, flags, capsys, monkeypatch):
        # a small step budget makes a run that loops on rejected steps
        # fail fast instead of hanging
        monkeypatch.setattr(_rk, "_MAX_STEPS", 100)
        assert parse_and_dispatch(["simulate"] + flags) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_span_below_smallest_step(self, capsys):
        assert parse_and_dispatch(["simulate", "--t-end", "1e-20"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_tiny_span_above_smallest_step_integrates(self, tmp_path):
        code, _ = run_cli(["simulate", "--t-end", "1e-12"], tmp_path)
        assert code == 0

    @pytest.mark.parametrize("ranges", [
        ["--gamma-range=-1:1:1000000000", "--delta-range=-1:-1:1"],
        ["--gamma-range=-1:1:1000", "--delta-range=-1:1:101"],
    ])
    def test_sweep_grid_over_limit(self, ranges, capsys):
        assert parse_and_dispatch(["sweep"] + ranges) == 2
        assert "100000" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_sweep_jobs_below_one(self, jobs, capsys):
        assert parse_and_dispatch(["sweep", "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_negative_classify_tolerance(self, capsys):
        code = parse_and_dispatch(["simulate", "--a", "-0.05", "--amplitude", "0.25",
                                   "--t-end", "400", "--classify", "--tol=-1"])
        assert code == 2
        assert "tol" in capsys.readouterr().err


class TestSelftest:
    def test_quick_battery_passes(self, capsys):
        code = parse_and_dispatch(["selftest", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checks passed" in out
        assert "[FAIL]" not in out

    def test_report_goes_to_file_when_asked(self, tmp_path):
        code, path = run_cli(["selftest", "--quick"], tmp_path, name="st.json")
        assert code == 0
        doc = load_json(path)
        assert all(entry["ok"] for entry in doc["results"])


@pytest.mark.skipif(shutil.which("fhn-torus") is None,
                    reason="console script not on PATH")
def test_console_script_smoke(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        ["fhn-torus", "critical", "--n", "3", "--gamma", "-1", "--delta", "-1",
         "--b", "1", "--output", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["K"] == "Gamma"


def test_module_entry_point_matches_in_process_report(capsys):
    args = ["critical", "--n", "3", "--gamma", "1", "--delta", "0.7"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "fhn_torus"] + args,
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert parse_and_dispatch(args) == 0
    assert proc.stdout == capsys.readouterr().out.encode("utf-8")
