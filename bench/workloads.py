"""The four benchmark workloads: seeded inputs, set-up, tasks and checks.

Each workload is a closed loop with a single client: a task starts when
the previous one has finished.  A pass is the workload's fixed task
list.  Inputs come only from the seed; the package receives the
generated parameters and states, never the seed.  Package functions
are looked up on the module at call time, so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

import checks

CHILD_TIMEOUT_S = 150.0


class Task:
    """One unit of work: timed steps, then an untimed output check.

    ``steps`` is a list of (name, fn); each fn takes the previous step's
    result (None for the first) and the last result goes to ``check``.
    """

    def __init__(self, label, steps, check):
        self.label, self.steps, self.check = label, steps, check


class Workload:
    name = ""
    rhs_n = 3  # lattice size of the rhs and dense-output micro-timings
    PASSES: int  # passes over the task list in one run
    CALIBRATION = ("interpreted",)  # host-speed units that match the work

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.seed = seed
        self.root = root
        self.out_dir = out_dir
        self.rng = np.random.default_rng(seed)
        self.ft = None

    def setup(self) -> dict:
        """Import, inputs, references and warm-up; returns phase times."""
        t0 = time.perf_counter()
        import fhn_torus

        self.ft = fhn_torus
        t1 = time.perf_counter()
        self.make_inputs()
        t2 = time.perf_counter()
        self.references()
        t3 = time.perf_counter()
        self.warm_up()
        t4 = time.perf_counter()
        return {"import_s": t1 - t0, "inputs_s": t2 - t1,
                "references_s": t3 - t2, "warm_up_s": t4 - t3}

    def make_inputs(self):
        raise NotImplementedError

    def references(self):
        pass

    def warm_up(self):
        raise NotImplementedError

    def tasks(self, traced: bool, tracer=None) -> list:
        raise NotImplementedError

    def finish(self) -> list:
        """Run-level checks after the last pass."""
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_extras(self) -> dict:
        """Per-layer values only this workload measures (CLI report sizes)."""
        return {"cli.simulate.bytes_out": 0.0, "cli.classify.rows_in": 0.0}

    def close(self):
        pass


class Orbit(Workload):
    """Noisy near-synchronous start at N=7, integrate, detect, classify."""

    name = "orbit"
    rhs_n = 7
    PASSES = 8
    T_END = 400.0

    def make_inputs(self):
        n = self.rhs_n
        self.lp = self.ft.LatticeParams(n=n, a=-0.05, b=1.0, c=0.0,
                                        gamma=-1.0, delta=-1.0)
        self.z0 = self.ft.from_grids(0.25 + 1e-3 * self.rng.standard_normal((n, n)),
                                     1e-3 * self.rng.standard_normal((n, n)))

    def references(self):
        lp = self.lp
        self.ref_period, self.on_cycle = checks.single_cell_cycle(lp.a, lp.b, lp.c)

    def warm_up(self):
        # a synchronized N=3 lattice started on the cell's cycle is periodic
        ft, n = self.ft, 3
        lp = ft.LatticeParams(n=n, a=self.lp.a, b=self.lp.b, c=self.lp.c,
                              gamma=-1.0, delta=-1.0)
        z0 = np.tile(self.on_cycle, n * n)
        traj = ft.integrate(z0, lp, 3 * self.ref_period)
        ft.detect_periodic_orbit(traj)
        orbit = ft.PeriodicOrbit(self.ref_period, 0.5 * self.ref_period,
                                 traj.sample(0.5 * self.ref_period), traj, 0.0)
        ft.classify_spatiotemporal(orbit, lp)

    def tasks(self, traced, tracer=None):
        ft, lp = self.ft, self.lp

        def classify(orbit):
            return orbit, (None if orbit is None
                           else ft.classify_spatiotemporal(orbit, lp))

        return [Task("start", [
            ("integrate", lambda _: ft.integrate(self.z0, lp, self.T_END)),
            ("detect", lambda traj: ft.detect_periodic_orbit(traj)),
            ("classify", classify)], self.check)]

    def check(self, result):
        orbit, sym = result
        s = {"found": orbit is not None and sym is not None}
        if s["found"]:
            s.update(period=orbit.period, spatial=sym.spatial.label(),
                     fixing=sym.fixing.label())
        return checks.check_orbit(s, self.ref_period)


def probe_summary(res) -> dict:
    return {"verdict": res.classification,
            "samples": [tuple(x) for x in res.samples],
            "runs": [(r.side, r.outcome) for r in res.runs]}


class Probe(Workload):
    """Branch criticality probe at N=5: (-,-) at c=0 and (+,-) at c=0.05."""

    name = "probe"
    rhs_n = 5
    PASSES = 4  # 5-7.5 s a pass, so 4 fit under the 35 s cap on a loaded host

    def make_inputs(self):
        LP = self.ft.LatticeParams
        g, d, g2, d2 = self.rng.uniform(0.9, 1.1, size=4)
        self.sync = LP(n=5, a=0.0, b=1.0, c=0.0, gamma=-g, delta=-d)
        self.wave = LP(n=5, a=0.0, b=1.0, c=0.05, gamma=g2, delta=-d2)

    def references(self):
        p = asdict(self.wave)
        self.wave_ref = dict(p, mode=checks.wave_primary_mode(p["n"]),
                             a_star=checks.a_star(p["n"], p["gamma"], p["delta"]))

    def warm_up(self):
        ft = self.ft
        lp = ft.LatticeParams(n=3, a=0.0, b=1.0, c=0.05, gamma=1.0, delta=-1.0)
        rep = ft.hopf_crossing(lp)
        ft.branch_criticality_probe(rep, lp, ft.ProbeSettings(horizon_periods=2.0))
        ft.hopf_report_at_critical(ft.LatticeParams(n=3, a=0.0, b=1.0, c=0.0,
                                                    gamma=-1.0, delta=-1.0))

    def tasks(self, traced, tracer=None):
        ft = self.ft

        def probe(lp):
            return lambda rep: (rep, ft.branch_criticality_probe(rep, lp))

        def check_sync(result):
            return checks.check_probe_sync(probe_summary(result[1]))

        def check_wave(result):
            rep, res = result
            s = dict(probe_summary(res), mode=rep.mode, a_hat=rep.a_hat)
            return checks.check_probe_wave(s, self.wave_ref)

        return [
            Task("sync", [("report", lambda _: ft.hopf_report_at_critical(self.sync)),
                          ("probe", probe(self.sync))], check_sync),
            Task("wave", [("report", lambda _: ft.hopf_crossing(self.wave)),
                          ("probe", probe(self.wave))], check_wave),
        ]


class Analysis(Workload):
    """Closed-form layers only at N in {11, 13, 23}, c in {0, 0.05}."""

    name = "analysis"
    rhs_n = 23
    PASSES = 3
    # N=23 spectra spend most of their time in dense products on matrices
    # larger than the caches, which host contention slows less
    CALIBRATION = ("interpreted", "streaming")
    SIZES = (11, 13, 23)
    LEAKS = (0.0, 0.05)

    def make_inputs(self):
        self.points = []
        for n in self.SIZES:
            for c in self.LEAKS:
                while True:
                    g, d = self.rng.uniform(0.5, 2.0, size=2) * self.rng.choice(
                        (-1.0, 1.0), size=2)
                    if not 0.8 <= abs(g / d) <= 1.25:  # keep the crossing generic
                        break
                self.points.append(self.ft.LatticeParams(
                    n=n, a=0.0, b=1.0, c=c, gamma=float(g), delta=float(d)))

    def warm_up(self):
        ft = self.ft
        lp = ft.LatticeParams(n=11, a=0.0, b=1.0, c=0.0, gamma=1.3, delta=-0.7)
        ft.spectrum_report(lp)
        cp = ft.critical_a(lp)
        ft.locate_stability_loss(lp, cp.a_star - 1.0, cp.a_star + 1.0)
        ft.genericity_violations(lp)
        ft.hopf_crossing(ft.LatticeParams(n=3, a=0.0, b=1.0, c=0.05,
                                          gamma=1.0, delta=-1.0))

    def tasks(self, traced, tracer=None):
        ft = self.ft
        out = []
        for lp in self.points:
            p = asdict(lp)
            spectrum = ("spectrum", lambda _, lp=lp: ft.spectrum_report(lp))
            if lp.c == 0.0:
                def critical(recs, lp=lp):
                    cp = ft.critical_a(lp)
                    a_num = ft.locate_stability_loss(lp, cp.a_star - 1.0,
                                                     cp.a_star + 1.0)
                    return recs, cp, a_num, ft.genericity_violations(lp)
                steps = [spectrum, ("critical", critical)]

                def check(result, p=p):
                    recs, cp, a_num, viol = result
                    return (self.check_records(recs, p) + checks.check_critical(
                        {"a_star": cp.a_star, "a_bisect": a_num,
                         "violations": len(viol)}, p))
            else:
                steps = [spectrum,
                         ("hopf", lambda recs, lp=lp: (recs, ft.hopf_crossing(lp)))]

                def check(result, p=p):
                    recs, rep = result
                    return (self.check_records(recs, p) + checks.check_crossing(
                        {"a_hat": rep.a_hat, "mode": rep.mode}, p))
            out.append(Task(f"n{lp.n}-c{lp.c:g}", steps, check))
        return out

    @staticmethod
    def check_records(recs, p):
        n = p["n"]
        keys = [(r.r, r.s, r.branch) for r in recs]
        want = [(r, s, b) for r in range(n) for s in range(n) for b in "+-"]
        if keys != want:
            return ["spectrum records are not ordered by (r, s, branch)"]
        eig = np.array([r.eigenvalue for r in recs]).reshape(n, n, 2)
        max_res = max(r.residual for r in recs)
        return checks.check_spectrum({"eig": eig, "max_residual": max_res}, p)


def run_child(argv, cwd, env, stdout_path, stderr_path):
    """Run one process to completion; returns (exit code, its max RSS in kB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def _num(x: float) -> str:
    return format(float(x), ".6f")


class Cli(Workload):
    """The README command sequence, one ``fhn-torus`` process at a time."""

    name = "cli"
    rhs_n = 3
    PASSES = 5
    SWEEP_COUNT = 8

    def setup(self):
        self.work = self.out_dir / f"cli-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.digests = {}
        self.child_rss_kb = 0
        self.bytes_out = self.rows_in = 0
        return super().setup()

    def make_inputs(self):
        u = self.rng.uniform
        sign = self.rng.choice((-1.0, 1.0), size=2)
        ranges = []
        for _ in range(2):
            while True:
                lo, hi = -u(1.2, 1.8), u(1.2, 1.8)
                grid = np.linspace(float(_num(lo)), float(_num(hi)), self.SWEEP_COUNT)
                if np.min(np.abs(grid)) > 0.05:  # zero coupling is not a lattice
                    break
            ranges.append(f"{_num(lo)}:{_num(hi)}:{self.SWEEP_COUNT}")
        crit = (u(0.5, 1.5), -u(0.5, 1.5))
        spec = (sign[0] * u(0.5, 1.5), sign[1] * u(0.5, 1.5))
        hopf = (u(0.9, 1.1), u(0.6, 0.8))
        self.commands = [
            ("critical", ["critical", "--n", "3", "--gamma", _num(crit[0]),
                          "--delta", _num(crit[1]), "--b", "1"]),
            ("spectrum", ["spectrum", "--n", "11", "--gamma", _num(spec[0]),
                          "--delta", _num(spec[1])]),
            ("hopf", ["hopf", "--gamma", _num(hopf[0]), "--delta", _num(hopf[1]),
                      "--c", "0.05"]),
            ("simulate", ["simulate", "--n", "3", "--gamma", "1", "--delta", "-1",
                          "--a", "1.42", "--ic", "mode", "--t-end", "450",
                          "--format", "csv", "--output", "traj.csv"]),
            ("classify", ["classify", "--input", "traj.csv", "--gamma", "1",
                          "--delta", "-1", "--a", "1.42"]),
            ("sweep", ["sweep", "--n", "5", "--c", "0.05",
                       f"--gamma-range={ranges[0]}", f"--delta-range={ranges[1]}",
                       "--format", "csv"]),
        ]
        self.cmd_params = {
            "critical": {"n": 3, "gamma": float(_num(crit[0])),
                         "delta": float(_num(crit[1]))},
            "spectrum": {"n": 11, "a": 0.0, "b": 1.0, "c": 0.0,
                         "gamma": float(_num(spec[0])),
                         "delta": float(_num(spec[1]))},
            "hopf": {"n": 3, "a": 0.0, "b": 1.0, "c": 0.05,
                     "gamma": float(_num(hopf[0])),
                     "delta": float(_num(hopf[1]))},
            "simulate": {"n": 3},
            "classify": {},
            "sweep": {"points": self.SWEEP_COUNT ** 2},
        }

    def warm_up(self):
        code, _ = run_child([sys.executable, "-m", "fhn_torus", "critical"],
                            self.work, self.env, self.work / "warm.out",
                            self.work / "warm.err")
        if code != 0:
            raise RuntimeError(f"warm-up `fhn-torus critical` exited with {code}")

    def tasks(self, traced, tracer=None):
        out = []
        for cmd, args in self.commands:
            def run(_, cmd=cmd, args=args):
                files = (self.work, self.env, self.work / f"{cmd}.out",
                         self.work / f"{cmd}.err")
                if not traced:
                    code, rss = run_child([sys.executable, "-m", "fhn_torus"] + args,
                                          *files)
                else:
                    trace_path = self.work / f"{cmd}.trace.json"
                    shim = [sys.executable, str(self.root / "bench" / "cli_shim.py"),
                            str(trace_path)]
                    with tracer.span(f"cli.{cmd}") as sid:
                        code, rss = run_child(shim + args, *files)
                    if trace_path.exists():
                        with open(trace_path, encoding="utf-8") as fh:
                            tracer.adopt(json.load(fh)["spans"], sid)
                        trace_path.unlink()
                self.child_rss_kb = max(self.child_rss_kb, rss)
                return code

            def check(code, cmd=cmd):
                return self.check_output(cmd, code)

            out.append(Task(cmd, [(cmd, run)], check))
        return out

    def check_output(self, cmd, code):
        report = self.work / ("traj.csv" if cmd == "simulate" else f"{cmd}.out")
        data = report.read_bytes() if report.exists() else b""
        self.digests.setdefault(cmd, []).append(hashlib.sha256(data).hexdigest())
        if code != 0:
            return checks.check_cli(cmd, code, {}, self.cmd_params[cmd])
        if cmd == "simulate":
            lines = data.splitlines()
            self.bytes_out = len(data)
            self.rows_in = len(lines) - 1
            out = {"rows": len(lines) - 1,
                   "columns": len(lines[0].split(b",")) if lines else 0}
        elif cmd == "sweep":
            out = {"rows": [ln.split(",") for ln in data.decode().splitlines()[1:]]}
        else:
            out = json.loads(data)
        return checks.check_cli(cmd, code, out, self.cmd_params[cmd])

    def finish(self):
        return checks.check_same_bytes(self.digests)

    def peak_rss_mb(self):
        return self.child_rss_kb / 1024.0

    def layer_extras(self):
        return {"cli.simulate.bytes_out": float(self.bytes_out),
                "cli.classify.rows_in": float(self.rows_in)}

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Orbit, Probe, Analysis, Cli)}
