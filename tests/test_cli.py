"""Command-line interface: reports, exit codes, determinism."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import coefficients
from fhn_torus import (BracketError, DomainError, LatticeParams, _rk, bifurcation, cli,
                       hopf_crossing, selftest)
from fhn_torus.cli import parse_and_dispatch
from fhn_torus.selftest import run_selftest


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


def load_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _sine_csv(row, column, text) -> str:
    """A 60-row N=3 trajectory CSV of sines at unit-spaced times, with
    text in place of one entry; column 0 holds the times."""
    rows = [[f"{t}"] + [repr(math.sin(t + k)) for k in range(18)] for t in range(60)]
    rows[row][column] = text
    return "t" + ",s" * 18 + "\n" + "".join(",".join(row) + "\n" for row in rows)


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

    def test_no_s_star_for_a_crossing_that_is_not_synchronized(self, tmp_path):
        code, path = run_cli(
            ["hopf", "--n", "23", "--c", "0.16", "--gamma", "-1", "--delta", "-1"], tmp_path)
        assert code == 0
        rep = load_json(path)["report"]
        assert tuple(rep["mode"]) == (0, 1)
        assert "s_star" in rep and rep["s_star"] is None

    def test_probe_verdict_is_the_reported_criticality(self, tmp_path):
        args = ["hopf", "--n", "3", "--gamma", "1", "--delta", "-1", "--c", "0.05",
                "--probe"]
        code, path = run_cli(args, tmp_path)
        assert code == 0
        doc = load_json(path)
        code, path = run_cli(args, tmp_path, name="hopf.csv", fmt="csv")
        assert code == 0
        (row,) = load_csv(path)
        verdict = doc["probe"]["classification"]
        assert verdict == doc["report"]["criticality"] == row["criticality"]
        assert len(doc["probe"]["runs"]) == 4

    def test_rejects_zero_c(self, tmp_path, capsys):
        code = parse_and_dispatch(
            ["hopf", "--n", "3", "--b", "1", "--c", "0",
             "--gamma", "1", "--delta", "0.7"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("c", [[], ["--c=-0.05"]], ids=["default", "negative"])
    def test_refusal_of_c_names_the_option_and_the_command(self, c, capsys):
        # the default c is 0; the library's refusal names critical_a,
        # which the CLI cannot run
        code = parse_and_dispatch(["hopf", "--gamma", "1", "--delta", "-1"] + c)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: hopf needs --c > 0; at c = 0 run fhn-torus critical\n")
        with pytest.raises(DomainError, match="^hopf_crossing requires c > 0; use critical_a"):
            hopf_crossing(LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=1.0, delta=-1.0))


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

    def test_simulate_classify_agrees_with_classify_of_its_csv(self, tmp_path):
        # the CSV gives the nodes back bit for bit, and detection reads
        # spans and crossings from the nodes, so only the retaken steps'
        # rounding separates the two
        params = ["--n", "3", "--gamma", "1", "--delta", "-1", "--a", "1.42"]
        run = ["simulate", *params, "--ic", "mode", "--t-end", "450"]
        code, sim_path = run_cli([*run, "--classify"], tmp_path, name="sim.json")
        assert code == 0
        code, traj_path = run_cli(run, tmp_path, name="traj.csv", fmt="csv")
        assert code == 0
        code, cls_path = run_cli(["classify", "--input", str(traj_path), *params],
                                 tmp_path, name="cls.json")
        assert code == 0
        sim, cls = load_json(sim_path), load_json(cls_path)
        for key in ("spatial", "fixing", "phase_fractions"):
            assert sim["symmetry"][key] == cls["symmetry"][key]
        assert (sim["symmetry"]["spatial"], sim["symmetry"]["fixing"]) == ("Gamma", "Z(0,1)")
        for key in ("orbit", "symmetry"):
            period = sim[key]["period"]
            assert abs(cls[key]["period"] - period) <= 1e-12 * period

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
        # N=11 run, 48.4 MB of derivatives and coefficients: with every
        # step taken again, the derivatives and the steps go a block at
        # a time, 3.17 MB above them (3.1 MB when this bound was set);
        # one field call on the whole file gathers five times its size
        lp = LatticeParams(n=11, a=-0.05, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
        z0 = 0.3 * np.random.default_rng(11).standard_normal(242)
        sol = _rk.solve(cli.make_rhs(lp), 0.0, z0, 60.0)
        tq = np.linspace(0.0, 60.0, 5000)
        nodes = sol.sample(tq)
        del sol
        tracemalloc.start()
        try:
            got = _rk.dense_from_nodes(cli.make_rhs(lp), tq, nodes)
            got_ks = coefficients(got)
            got_fs = got._fs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - got_fs.nbytes - got_ks.nbytes <= 3.5e6
        assert np.isfinite(got_ks).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("states", [
        lambda rng: 1e120 * np.sin(np.arange(100.0))[:, None] * np.ones(18),
        lambda rng: rng.standard_normal((5000, 242)),
    ], ids=["huge-n3", "noise-n11"])
    def test_classify_refuses_states_the_field_cannot_step(self, states, rng,
                                                           tmp_path, capsys):
        # unit-spaced rows: the cubic field overflows at the nodes of the
        # steps the first file's report samples, the retaken steps on the
        # second; no RuntimeWarning may show
        data = states(rng)
        path = tmp_path / "bad.csv"
        np.savetxt(path, np.column_stack([np.arange(len(data)), data]), delimiter=",",
                   header="t," + ",".join(["z"] * data.shape[1]), comments="")
        code = parse_and_dispatch(["classify", "--input", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert "not finite" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("states", [
        # an equilibrium: its report samples no step, so the field is
        # never evaluated
        np.full((5, 18), 1e120),
        # the steps the recurrence search takes again are finite, but
        # their distances to the anchor pass 1e154, where the 2-norm's
        # dot product overflows
        np.random.default_rng(0).standard_normal((50, 18)),
    ], ids=["huge-equilibrium", "noise-n3"])
    def test_classify_reports_no_orbit_with_no_warning(self, states, tmp_path, capsys):
        path = tmp_path / "data.csv"
        np.savetxt(path, np.column_stack([np.arange(len(states)), states]), delimiter=",",
                   header="t," + ",".join(["z"] * states.shape[1]), comments="")
        assert parse_and_dispatch(["classify", "--input", str(path)]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["orbit"] is None and err == ""


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

    def test_huge_coupling_marked_invalid(self, tmp_path):
        code, path = run_cli(
            ["sweep", "--n", "5", "--b", "1e-300", "--c", "1e-160",
             "--gamma-range", "1:1e100:2", "--delta=-1"],
            tmp_path, name="sweep.csv", fmt="csv",
        )
        assert code == 0
        rows = load_csv(path)
        assert [r["criticality"] for r in rows] == ["undetermined", "invalid"]
        assert (rows[0]["mode_r"], rows[0]["mode_s"]) == ("3", "0")

    def test_probe_fills_the_criticality_column(self, tmp_path):
        # the refused point between the two probed ones stays invalid
        code, path = run_cli(
            ["sweep", "--n", "3", "--c", "0", "--gamma-range=-1:1:3", "--delta=-1",
             "--probe"],
            tmp_path, name="sweep.csv", fmt="csv",
        )
        assert code == 0
        assert [r["criticality"] for r in load_csv(path)] == [
            "subcritical", "invalid", "supercritical"]

    def test_point_whose_search_fails_is_marked_failed(self, tmp_path, monkeypatch):
        base = ["sweep", "--n", "3", "--c", "0.05", "--gamma-range=-1.2:-0.8:2",
                "--delta=-1"]
        _, path = run_cli(base, tmp_path, name="clean.csv", fmt="csv")
        clean = load_csv(path)
        real = cli.hopf_crossing

        def refuse_first(lp):
            if lp.gamma == -1.2:
                raise BracketError("no bracket", a_lo=0.0, a_hi=1.0)
            return real(lp)

        monkeypatch.setattr(cli, "hopf_crossing", refuse_first)
        code, path = run_cli(base, tmp_path, name="sweep.csv", fmt="csv")
        assert code == 0
        rows = load_csv(path)
        assert math.isnan(float(rows[0]["a_hat"])) and rows[0]["criticality"] == "failed"
        assert clean[0]["criticality"] != "failed" and rows[1] == clean[1]

    def test_error_of_no_row_stops_the_sweep(self, tmp_path, monkeypatch, capsys):
        # only the package's typed errors make invalid or failed rows
        def boom(lp):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "hopf_crossing", boom)
        code, path = run_cli(["sweep", "--n", "3", "--c", "0.05",
                              "--gamma-range=-1.2:-0.8:2", "--delta=-1"],
                             tmp_path, name="sweep.csv", fmt="csv")
        assert code == 2 and not path.exists()
        assert capsys.readouterr().err == "error: boom\n"


# The README's lattice defaults, spelled out.
README_DEFAULTS = ["--n", "3", "--a", "0", "--b", "1", "--c", "0", "--gamma", "-1",
                   "--delta", "-1"]


class TestDefaults:
    @pytest.mark.parametrize("command, kept, spelled", [
        ("spectrum", [], []),
        ("critical", [], []),
        ("hopf", ["--c", "0.05"], []),
        ("simulate", [], ["--t-end", "200", "--rtol", "1e-9", "--atol", "1e-11"]),
        ("classify", ["--input", "traj.csv"], []),
        ("sweep", [], []),
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_absent_flags_take_the_readme_defaults(self, command, kept, spelled, fmt,
                                                   tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(["simulate", "--t-end", "20"], tmp_path, name="traj.csv", fmt="csv")
        codes, paths = zip(run_cli([command, *kept], tmp_path, name="implicit", fmt=fmt),
                           run_cli([command, *README_DEFAULTS, *kept, *spelled], tmp_path,
                                   name="explicit", fmt=fmt))
        assert codes == (0, 0)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_classify_takes_n_from_the_file(self, tmp_path):
        _, traj_path = run_cli(["simulate", "--n", "5", "--t-end", "2"], tmp_path,
                               name="traj.csv", fmt="csv")
        code, path = run_cli(["classify", "--input", str(traj_path)], tmp_path)
        assert code == 0
        assert load_json(path)["params"]["n"] == 5


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert parse_and_dispatch(["critical", "--bogus", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", [["critical"], ["classify", "--input", "t.csv"]],
                             ids=["critical", "classify"])
    def test_config_is_an_unknown_argument(self, command, capsys):
        # parameters come from flags alone
        assert parse_and_dispatch(command + ["--config", "run.cfg"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fhn-torus")
        assert "error: unrecognized arguments: --config run.cfg" in err

    def test_missing_command(self, capsys):
        assert parse_and_dispatch([]) == 2
        capsys.readouterr()

    def test_composite_lattice_side(self, capsys):
        code = parse_and_dispatch(["critical", "--n", "9", "--gamma", "-1",
                                   "--delta", "-1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", [["critical"], ["hopf", "--c", "1e-160"]])
    def test_huge_coupling(self, command, capsys):
        # the smaller crossing frequency, b over the larger, underflows
        # to 0 at b = 1e-300, gamma = 1e100
        code = parse_and_dispatch(command + ["--n", "5", "--b", "1e-300",
                                             "--gamma", "1e100", "--delta=-1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: crossing frequency of mode (2, 0) rounds to 0.0: "
            "the couplings are too large against b\n")

    @pytest.mark.parametrize("command", [
        ["spectrum", "--delta", "1"], ["critical", "--delta=-1"],
        ["hopf", "--delta=-1", "--c", "0.05"]])
    def test_overflowing_eigenvalues(self, command, capsys):
        # (A + c)^2 overflows at gamma = 1e200: spectrum reported NaN
        # eigenvalues after two numpy warnings, the others failed after
        # them
        code = parse_and_dispatch(command + ["--gamma", "1e200"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: the closed-form eigenvalues overflow: "
            "the couplings are too large against b\n")

    def test_overflowing_coupling_symbols(self, capsys):
        # the symbols overflow at gamma = delta = -1e308: one error line,
        # where four numpy warnings from the symbols and the crossing
        # frequencies came ahead of it
        code = parse_and_dispatch(["hopf", "--n", "5", "--gamma=-1e308",
                                   "--delta=-1e308", "--c", "0.05"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_range_syntax(self, capsys):
        code = parse_and_dispatch(["sweep", "--gamma-range", "1:2"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("text, error", [
        ("t,x\n0,1\n1,2\n", "expected t plus 2*N^2 state columns"),
        ("t" + ",s" * 18 + "\n" + "".join(f"{t}" + ",0" * 18 + "\n" for t in (0, 1, 1)),
         "times must increase strictly"),
        ("t" + ",s" * 18 + "\n" + "".join(f"{t}" + ",0" * 18 + "\n" for t in (0, 2, 1)),
         "times must increase strictly"),
        # a NaN compares false in the strict-increase test, and these files
        # were reported with no orbit, exit 0
        pytest.param(_sine_csv(10, 0, "nan"), "times and states must be finite",
                     id="nan-time"),
        pytest.param(_sine_csv(59, 0, "inf"), "times and states must be finite",
                     id="inf-last-time"),
        pytest.param(_sine_csv(10, 4, "nan"), "times and states must be finite",
                     id="nan-state"),
    ])
    def test_classify_malformed_file(self, text, error, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code = parse_and_dispatch(["classify", "--input", str(bad)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: {error}\n"

    @pytest.mark.parametrize("text, error", [
        ("a:b:3", "range must be lo:hi:count, got 'a:b:3'"),
        ("-1:1:0", "range count must be at least 1"),
        # finite ends whose difference overflows: numpy warned twice and
        # wrote rows at nan, inf and 1e308
        ("-1e308:1e308:3", "range span overflows, got '-1e308:1e308:3'"),
    ])
    def test_range_refused(self, text, error, capsys):
        code = parse_and_dispatch(["sweep", "--n", "3", "--c", "0.05",
                                   f"--delta-range={text}"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("flag", ["--gamma-range", "--delta-range"])
    @pytest.mark.parametrize("text", ["nan:1:2", "1:nan:2", "inf:1:2", "1:inf:2",
                                      "-inf:1:2", "1:-inf:2"])
    def test_nonfinite_range_end(self, flag, text, capsys):
        code = parse_and_dispatch(["sweep", "--n", "3", "--c", "0.05",
                                   f"{flag}={text}"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: range ends must be finite")

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

    @pytest.mark.parametrize("amplitude, code, error", [
        pytest.param("1e100", 3, "error: step size underflow", id="1e100"),
        pytest.param("1e300", 3, "error: step size underflow", id="1e300"),
        # the start itself overflows to inf, with no numpy warning
        pytest.param("1e308", 2, "error: t_end and the initial state must be finite",
                     id="1e308"),
    ])
    def test_start_whose_derivative_overflows(self, amplitude, code, error):
        # a process with a timeout: the NaN starting step of 1e300 once
        # made the integrator loop forever
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "fhn_torus", "simulate", "--n", "3", "--t-end", "5",
             "--ic", "random", "--amplitude", amplitude],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == code
        assert proc.stderr.startswith(error)
        assert proc.stderr.count("\n") == 1

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

    @pytest.mark.parametrize("jobs", ["0", "-1", "2"])
    def test_sweep_jobs_is_an_unknown_argument(self, jobs, capsys):
        assert parse_and_dispatch(["sweep", "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fhn-torus")
        assert err.endswith(f"error: unrecognized arguments: --jobs {jobs}\n")

    def test_negative_classify_tolerance(self, capsys):
        code = parse_and_dispatch(["simulate", "--a", "-0.05", "--amplitude", "0.25",
                                   "--t-end", "400", "--classify", "--tol=-1"])
        assert code == 2
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["simulate", "classify"])
    def test_classify_tolerance_refused_without_an_orbit(self, command, tol,
                                                         tmp_path, capsys):
        # a run this short finds no orbit, so nothing else reads tol
        code, path = run_cli(["simulate", "--t-end", "3"], tmp_path,
                             name="short.csv", fmt="csv")
        assert code == 0
        args = (["simulate", "--t-end", "3", "--classify"] if command == "simulate"
                else ["classify", "--input", str(path)])
        assert parse_and_dispatch(args + [f"--tol={tol}"]) == 2
        assert capsys.readouterr().err.startswith("error: tol must be positive and finite")


class TestWarnings:
    @pytest.mark.parametrize("args", [
        ["critical", "--n", "3", "--gamma", "1", "--delta", "1"],
        ["hopf", "--n", "3", "--gamma", "1", "--delta", "1", "--c", "0.05", "--probe"],
    ])
    def test_one_line_per_distinct_warning(self, args, tmp_path, capsys):
        # hopf --probe warns from hopf_crossing and again from the probe;
        # a second call in one process prints the warning again
        for name in ("first.json", "second.json"):
            code, _ = run_cli(args, tmp_path, name=name)
            assert code == 0
            err = capsys.readouterr().err
            assert err == ("warning: gamma == delta collapses mode frequencies "
                           "in the (+,+) case\n")
            assert ".py" not in err

    def test_warning_filters_restored(self, tmp_path, capsys):
        before = list(warnings.filters)
        run_cli(["critical", "--n", "3", "--gamma", "1", "--delta", "1"], tmp_path)
        capsys.readouterr()
        assert warnings.filters == before

    def test_warning_precedes_error(self, tmp_path, capsys):
        # the report is computed, with its warning, then cannot be written
        code = parse_and_dispatch(["critical", "--n", "3", "--gamma", "1", "--delta", "1",
                                   "--output", str(tmp_path / "missing" / "out.json")])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("warning: gamma == delta")
        assert lines[1].startswith("error: ")


class TestSelftest:
    def test_quick_battery_passes(self, capsys):
        code = parse_and_dispatch(["selftest", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checks passed" in out
        assert "[FAIL]" not in out
        assert "[ok ] crossing satisfies the psi identity" in out

    def test_full_battery_passes(self):
        results = run_selftest()
        assert len(results) == 10
        assert all(ok for _, ok, _ in results), results

    def test_failing_check_is_marked_and_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(selftest, "_CHECKS",
                            [lambda rng: ("always fails", False, "by design")])
        code = parse_and_dispatch(["selftest"])
        out = capsys.readouterr().out
        assert code == 3
        assert out == "[FAIL] always fails  by design\n0/1 checks passed\n"

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
