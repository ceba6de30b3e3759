"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selfcheck.py

Every output check passes on the current package for the default seed
and two others; corrupted results fail their check; the computed RHS
count matches a counted one; the tracer nests spans and restores the
package; and the runner refuses to run without the package.  The file
name keeps these tests out of the package's own test collection: they
take about a minute and a half.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
import fhn_torus as ft  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def failures_of(results):
    return [(label, f) for label, fails, _ in results for f in fails]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["orbit", "probe", "analysis", "cli"])
def test_checks_pass_on_current_code(name, seed, tmp_path):
    wl = WORKLOADS[name](seed, HERE.parent, tmp_path)
    try:
        bench.set_up(wl)
        # the default seed also runs one traced pass through the same checks
        traced = seed == 0
        tracer = Tracer()
        results = bench.run_pass(wl, 0, False, tracer)
        if name == "cli" or traced:
            results += bench.run_pass(wl, 1, traced, tracer)
        assert failures_of(results) == []
        assert wl.finish() == []
    finally:
        wl.close()


# ---------------------------------------------------------- negative controls

@pytest.fixture(scope="module")
def sync_orbit():
    lp = ft.LatticeParams(n=3, a=-0.05, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
    z0 = ft.from_grids(np.full((3, 3), 0.25), np.zeros((3, 3)))
    orbit = ft.detect_periodic_orbit(ft.integrate(z0, lp, 400.0))
    sym = ft.classify_spatiotemporal(orbit, lp)
    ref, _ = checks.single_cell_cycle(lp.a, lp.b, lp.c)
    good = {"found": True, "period": orbit.period,
            "spatial": sym.spatial.label(), "fixing": sym.fixing.label()}
    return good, ref, orbit, lp


def test_orbit_check_rejects_corruption(sync_orbit):
    good, ref, _, _ = sync_orbit
    assert checks.check_orbit(good, ref) == []
    assert checks.check_orbit(dict(good, period=good["period"] + 1e-3), ref)
    assert checks.check_orbit(dict(good, fixing="Z(0,1)"), ref)
    assert checks.check_orbit(dict(good, spatial="1"), ref)
    assert checks.check_orbit({"found": False}, ref)


def test_probe_checks_reject_corruption():
    sync = {"verdict": "subcritical", "samples": [(-0.08, 0.4)],
            "runs": [("below", "orbit"), ("above", "decay")]}
    assert checks.check_probe_sync(sync) == []
    assert checks.check_probe_sync(dict(sync, verdict="supercritical"))
    assert checks.check_probe_sync(dict(sync, samples=[]))
    assert checks.check_probe_sync(dict(sync, runs=[("below", "orbit"),
                                                    ("above", "orbit")]))

    lp = ft.LatticeParams(n=5, a=0.0, b=1.0, c=0.05, gamma=1.02, delta=-0.97)
    rep = ft.hopf_crossing(lp)
    ref = dict(dataclasses.asdict(lp), mode=checks.wave_primary_mode(5),
               a_star=checks.a_star(5, lp.gamma, lp.delta))
    assert ref["mode"] == ft.critical_a(dataclasses.replace(lp, c=0.0)).primary.mode
    wave = {"mode": rep.mode, "a_hat": rep.a_hat, "verdict": "undetermined"}
    assert checks.check_probe_wave(wave, ref) == []
    assert checks.check_probe_wave(dict(wave, mode=(2, 0)), ref)
    assert checks.check_probe_wave(dict(wave, a_hat=ref["a_star"] + 1e-3), ref)
    assert checks.check_probe_wave(dict(wave, a_hat=rep.a_hat + 1e-6), ref)
    assert checks.check_probe_wave(dict(wave, verdict="stable"), ref)


def test_analysis_checks_reject_corruption():
    lp = ft.LatticeParams(n=5, a=0.0, b=1.0, c=0.0, gamma=1.3, delta=-0.6)
    p = dataclasses.asdict(lp)
    recs = ft.spectrum_report(lp)
    eig = np.array([r.eigenvalue for r in recs]).reshape(5, 5, 2)
    good = {"eig": eig, "max_residual": max(r.residual for r in recs)}
    assert checks.check_spectrum(good, p) == []
    bad = eig.copy()
    bad[2, 3, 0] += 1e-6
    assert len(checks.check_spectrum(dict(good, eig=bad), p)) == 2
    assert checks.check_spectrum(dict(good, max_residual=1e-9), p)

    a_star = ft.critical_a(lp).a_star
    crit = {"a_star": a_star, "a_bisect": ft.locate_stability_loss(
        lp, a_star - 1.0, a_star + 1.0), "violations": 0}
    assert checks.check_critical(crit, p) == []
    assert checks.check_critical(dict(crit, a_bisect=a_star + 1e-7), p)
    assert checks.check_critical(dict(crit, a_star=a_star * (1 + 1e-9)), p)
    assert checks.check_critical(dict(crit, violations=1), p)

    lpc = dataclasses.replace(lp, c=0.05)
    rep = ft.hopf_crossing(lpc)
    cross = {"a_hat": rep.a_hat, "mode": rep.mode}
    pc = dataclasses.asdict(lpc)
    assert checks.check_crossing(cross, pc) == []
    assert checks.check_crossing(dict(cross, a_hat=rep.a_hat - 1e-6), pc)
    assert checks.check_crossing(dict(cross, a_hat=a_star + 0.1), pc)


def test_cli_checks_reject_corruption():
    wave = {"symmetry": {"fixing": "Z(0,1)", "phase_fractions": {"1,0": "1/3"}}}
    assert checks.check_cli("classify", 0, wave, {}) == []
    assert checks.check_cli("classify", 0, {"symmetry": {
        "fixing": "Z(1,0)", "phase_fractions": {"1,0": "1/3"}}}, {})
    assert checks.check_cli("classify", 0, {"symmetry": {
        "fixing": "Z(0,1)", "phase_fractions": {"1,0": "0/1"}}}, {})
    assert checks.check_cli("classify", 0, {"symmetry": None}, {})
    assert checks.check_cli("classify", 3, wave, {})
    rows = [["5", "0", "1", "0.05", "1", "-1", "x", "x", "3", "0", "x", "Z(0,1)",
             "undetermined"]] * 4
    assert checks.check_cli("sweep", 0, {"rows": rows}, {"points": 4}) == []
    assert checks.check_cli("sweep", 0, {"rows": rows[:3] + [rows[0][:-1] + ["failed"]]},
                            {"points": 4})
    assert checks.check_cli("sweep", 0, {"rows": rows[:3]}, {"points": 4})
    lp = ft.LatticeParams(n=3, a=0.0, b=1.0, c=0.05, gamma=1.04, delta=0.71)
    p = dataclasses.asdict(lp)
    rep = dataclasses.asdict(ft.hopf_crossing(lp))
    assert checks.check_cli("hopf", 0, {"report": rep}, p) == []
    assert checks.check_cli("hopf", 0, {"report": dict(
        rep, omega_hopf=rep["omega_hopf"] * (1 + 1e-6))}, p)
    assert checks.check_cli("hopf", 0, {"report": dict(
        rep, a_hat=rep["a_hat"] - 1e-6)}, p)
    lp = dataclasses.replace(lp, c=0.0, gamma=-1.04)
    p = dataclasses.asdict(lp)
    recs = [{"eigenvalue": {"re": r.eigenvalue.real, "im": r.eigenvalue.imag}}
            for r in ft.spectrum_report(lp)]
    spec = {"records": recs, "max_residual": 1e-15}
    assert checks.check_cli("spectrum", 0, spec, p) == []
    recs[5] = {"eigenvalue": {"re": recs[5]["eigenvalue"]["re"] + 1e-7,
                              "im": recs[5]["eigenvalue"]["im"]}}
    assert checks.check_cli("spectrum", 0, spec, p)
    assert checks.check_cli("spectrum", 0, {"records": recs[:-2],
                                            "max_residual": 1e-15}, p)
    assert checks.check_same_bytes({"hopf": ["ab", "ab"]}) == []
    assert checks.check_same_bytes({"hopf": ["ab", "ac"]})


def test_run_exits_nonzero_when_a_check_fails(tmp_path, monkeypatch, capsys):
    wl = WORKLOADS["probe"](0, HERE.parent, tmp_path)
    monkeypatch.setattr(wl, "PASSES", 1)
    monkeypatch.setattr(checks, "PSI_TOL", -1.0)
    args = bench.argparse.Namespace(workload="probe", seed=0, seconds=30.0, trace=0)
    monkeypatch.setattr(bench, "OUT", tmp_path)
    code = bench.measure(args, wl, bench.set_up(wl), [(1.0, 1.0)], Tracer())
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and last["correct"] is False and last["failed"] == 1


def test_normalized_time_scales_with_host_speed():
    kinds = ("interpreted", "streaming")
    ref = [bench.CAL_REF_S[k] for k in kinds]
    slow = [2 * x for x in ref]
    assert bench.normalized(2.0, kinds, ref, ref) == pytest.approx(2.0)
    assert bench.normalized(2.0, kinds, slow, slow) == pytest.approx(1.0)
    assert bench.normalized(2.0, kinds, ref, slow) == pytest.approx(2.0 / 1.5)
    assert all(t > 0 for t in bench.host_speed(kinds))


# ------------------------------------------------------------ tracer, counts

def test_computed_rhs_evals_match_counted_calls(monkeypatch):
    calls = [0]
    orig = ft.simulate.make_rhs

    def counting_make_rhs(lp):
        rhs = orig(lp)

        def counted(t, z):
            calls[0] += 1
            return rhs(t, z)
        return counted

    monkeypatch.setattr(ft.simulate, "make_rhs", counting_make_rhs)
    lp = ft.LatticeParams(n=3, a=-0.05, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
    z0 = ft.from_grids(np.full((3, 3), 0.25), np.zeros((3, 3)))
    tracer = Tracer()
    tracer.install()
    try:
        ft.integrate(z0, lp, 30.0)
        ft.reduced_integrate_fix(ft.IsotropySubgroup.full(3), z0, lp, 30.0)
    finally:
        tracer.uninstall()
    m = bench.layer_metrics(tracer.spans)
    assert m["rk.rhs_evals_computed"] == calls[0]
    assert m["rk.integrate.steps"] > 0


def test_tracer_nests_spans_and_restores_package(sync_orbit):
    originals = (ft.integrate, ft.simulate.integrate, ft.simulate.state_permutation,
                 ft.simulate.Trajectory.__dict__["sample"], ft.cli.spectrum_report)
    _, _, orbit, lp = sync_orbit
    z0 = ft.from_grids(np.full((3, 3), 0.25), np.zeros((3, 3)))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.task = "t0"
        with tracer.span("task"):
            ft.integrate(z0, lp, 10.0)
            ft.classify_spatiotemporal(orbit, lp)
    finally:
        tracer.uninstall()
    assert originals == (ft.integrate, ft.simulate.integrate,
                         ft.simulate.state_permutation,
                         ft.simulate.Trajectory.__dict__["sample"],
                         ft.cli.spectrum_report)
    spans = tracer.as_dicts()
    assert all(s["task"] == "t0" and s["end"] >= s["start"] for s in spans)
    names = {s["id"]: s["name"] for s in spans}
    assert [s["parent"] for s in spans if s["name"] == "task"] == [None]
    assert {names[s["parent"]] for s in spans if s["name"] == "integrate"} == {"task"}
    assert bench.layer_metrics(tracer.spans)["classify.group_tests_computed"] == 9


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable if c == "python3" else c for c in cmd]
        + ["--workload", "orbit", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
