"""Command-line interface: reports, exit codes, determinism."""

import concurrent.futures
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fhn_torus import LatticeParams, _rk, bifurcation, cli
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

    def test_csv_read_back_finds_the_orbit_of_the_run(self, tmp_path, monkeypatch):
        # a ring wave: classify retakes the steps between the CSV's
        # nodes for the solver's dense output, so the read-back must
        # find the orbit of the integrated run to rounding (degree-7
        # Hermite on the nodes left a residual of 1.9e-9, a period
        # 4.6e-10 off and a match residual of 1.2e-7)
        made = []
        real = cli.integrate
        monkeypatch.setattr(cli, "integrate",
                            lambda *args, **kw: made.append(real(*args, **kw)) or made[-1])
        params = ["--gamma", "1", "--delta", "-1", "--a", "1.42"]
        code, traj_path = run_cli(
            ["simulate", "--n", "3", *params, "--ic", "mode", "--t-end", "450"],
            tmp_path, name="traj.csv", fmt="csv",
        )
        assert code == 0
        code, path = run_cli(["classify", "--input", str(traj_path), *params],
                             tmp_path, name="cls.json")
        assert code == 0
        doc = load_json(path)
        (traj,) = made
        period = cli.detect_periodic_orbit(traj).period
        assert doc["orbit"]["residual"] < 1e-10
        assert abs(doc["orbit"]["period"] - period) < 1e-12 * period
        assert doc["symmetry"]["spatial"] == "Gamma"
        assert doc["symmetry"]["fixing"] == "Z(0,1)"
        assert doc["symmetry"]["match_residual"] < 1e-8
        # each generator of K shifts by zero, which reads near 0, not near P
        fixing = [g for g, f in doc["symmetry"]["phase_fractions"].items() if f == "0/1"]
        assert fixing == ["0,1"]
        for g in fixing:
            assert abs(doc["symmetry"]["phases"][g]) < doc["orbit"]["period"] / (2 * 3)

    def test_simulate_json_carries_stats(self, tmp_path):
        code, path = run_cli(
            ["simulate", "--n", "3", "--t-end", "5"], tmp_path, name="sim.json"
        )
        assert code == 0
        doc = load_json(path)
        assert doc["accepted_nodes"] >= 2
        assert len(doc["final_state"]) == 18

    def test_csv_gives_the_trajectory_back_bit_for_bit(self, tmp_path, monkeypatch):
        made = []
        real = cli.integrate
        monkeypatch.setattr(cli, "integrate",
                            lambda *args, **kw: made.append(real(*args, **kw)) or made[-1])
        code, path = run_cli(
            ["simulate", "--n", "3", "--gamma", "1", "--delta", "-1", "--a", "1.42",
             "--ic", "random", "--seed", "5", "--t-end", "30"],
            tmp_path, name="traj.csv", fmt="csv",
        )
        assert code == 0
        (traj,) = made
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (len(traj.times), 19)
        assert data[:, 0].tobytes() == traj.times.tobytes()
        assert data[:, 1:].tobytes() == traj.states.tobytes()

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

    def test_classify_derivatives_in_bounded_memory(self):
        # the rebuild ``classify --input`` makes of 5,000 nodes of an
        # N=11 run, 48.4 MB of derivatives and coefficients: the steps
        # go a block at a time, 3.1 MB above them when this bound was
        # set; one field call on the whole file gathers five times its size
        lp = LatticeParams(n=11, a=-0.05, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
        z0 = 0.3 * np.random.default_rng(11).standard_normal(242)
        ts, ys, fs, ks, _ = _rk.solve(cli.make_rhs(lp), 0.0, z0, 60.0)
        tq = np.linspace(0.0, 60.0, 5000)
        nodes = _rk.dense_eval(ts, ys, fs, ks, tq)
        del ys, fs, ks
        tracemalloc.start()
        try:
            got_fs, got_ks = _rk.dense_from_nodes(cli.make_rhs(lp), tq, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - got_fs.nbytes - got_ks.nbytes <= 3.5e6
        assert np.isfinite(got_ks).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("states", [
        lambda rng: np.full((5, 18), 1e120),
        lambda rng: rng.standard_normal((5000, 242)),
    ], ids=["huge-n3", "noise-n11"])
    def test_classify_refuses_states_the_field_cannot_step(self, states, rng,
                                                           tmp_path, capsys):
        # unit-spaced rows: the cubic field overflows on the first file,
        # the retaken steps on the second; no RuntimeWarning may show
        data = states(rng)
        path = tmp_path / "bad.csv"
        np.savetxt(path, np.column_stack([np.arange(len(data)), data]), delimiter=",",
                   header="t," + ",".join(["z"] * data.shape[1]), comments="")
        code = parse_and_dispatch(["classify", "--input", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert "not finite" in err


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

    def test_jobs_capped_by_points_and_cpus(self, tmp_path, monkeypatch):
        # the pool forks all its workers at the first submit; a stand-in
        # records how many and maps in this process
        made = []

        class Recorder:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        base = ["sweep", "--n", "3", "--b", "1", "--c", "0"]
        grid = ["--gamma-range=-1.2:0.8:2", "--delta-range=-1.2:0.8:2"]
        for jobs, ranges, want in (("100000", [], []),
                                   ("100000", grid[:1], [2]),
                                   ("100000", grid, [3]),
                                   ("2", grid, [2])):
            made.clear()
            code, _ = run_cli(base + ranges + ["--jobs", jobs], tmp_path,
                              name="sweep.csv", fmt="csv")
            assert code == 0 and made == want, (jobs, ranges)

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
