"""Benchmark of the fhn_torus package: four closed-loop workloads.

    python3 bench/run.py --workload {orbit,probe,analysis,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its
``src`` directory.  Set-up (import, seeded inputs, references, warm-up)
is timed in fresh processes and reported as the median.  Then the
workload's fixed task list runs a fixed number of passes (``--seconds``
only caps the run on a slow host), and every task's output is checked.
Every timed step is preceded by a short calibration loop that measures
how fast the host runs at that moment, and the gated times are
normalized by it (see ``host_speed``).  With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics; with ``--trace 1`` untraced and
traced passes alternate, and it carries the per-layer metrics measured
from spans around the package's public calls, plus the tracing
overhead.  Results and spans are also written under ``bench/out``.
The exit code is 0 only when every output check passed.
"""

import os

# One BLAS thread in this process and every child, in every run: the
# dense matvecs here are too small to gain from threads, and a second
# thread makes the first large matvec cost up to a second at random.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5

# Host-speed calibration: units of fixed work, timed in blocks of
# CAL_UNITS.  "interpreted" is a pure-Python loop with small dense
# products, like the integrator and the classifier; "streaming" is a few
# products with a matrix larger than the caches, like the dense spectral
# residuals.  Each workload names the kinds that match its work.  The
# reference times are the unit times on an idle core of the 2-core
# x86-64 development host, so normalized times read as seconds on that
# host at full speed.
CAL_UNITS = 20
CAL_REF_S = {"interpreted": 1.4e-3, "streaming": 1.0e-3}
_CAL_SMALL = np.random.default_rng(0).standard_normal((60, 60))

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
CLI_COMMANDS = ("critical", "spectrum", "hopf", "simulate", "classify", "sweep")
PER_LAYER = dict(
    [("rk.integrate.busy_s", "s"), ("rk.integrate.steps", "count"),
     ("rk.integrate.rejected", "count"), ("rk.integrate.us_per_step", "us"),
     ("rk.rhs_evals_computed", "count"), ("rhs.call_us", "us"),
     ("detect.busy_s", "s"), ("classify.busy_s", "s"),
     ("classify.group_tests_computed", "count"), ("dense.sample_us", "us"),
     ("probe.busy_s", "s"), ("probe.runs", "count"), ("probe.s_per_run", "s"),
     ("hopf.busy_s", "s"), ("spectrum_report.busy_s", "s"),
     ("critical_a.busy_s", "s"), ("locate_stability_loss.busy_s", "s"),
     ("genericity.busy_s", "s"), ("hopf_crossing.busy_s", "s"),
     ("hopf_crossing.calls", "count"), ("serialize.busy_s", "s"),
     ("cli.startup_s", "s")]
    + [(f"cli.{c}.{k}", "s") for c in CLI_COMMANDS for k in ("wall_s", "dispatch_s")]
    + [("cli.simulate.bytes_out", "bytes"), ("cli.classify.rows_in", "count"),
       ("trace.overhead_s", "s"), ("trace.spans", "count")]
)


def median(xs, default=0.0):
    return float(statistics.median(xs)) if xs else default


def _cal_interpreted():
    s = 0
    for i in range(20000):
        s += i * i
    m = _CAL_SMALL
    for _ in range(20):
        m = _CAL_SMALL @ m
        m /= np.abs(m).max()
    return s


@functools.lru_cache(maxsize=None)
def _cal_large():
    return np.random.default_rng(1).standard_normal((1024, 1024)), np.ones(1024)


def _cal_streaming():
    m, v = _cal_large()
    for _ in range(3):
        m @ v


CAL_UNIT = {"interpreted": _cal_interpreted, "streaming": _cal_streaming}


def host_speed(kinds) -> list:
    """Seconds per calibration unit of each kind right now, block medians.

    Other tenants of a shared host slow every process on it in phases
    that last from milliseconds to minutes, by up to a factor of two;
    CPU time slows as much as wall time, so it does not help.  A step's
    time divided by the unit time measured just before and after it
    varies much less than its wall time.
    """
    times = [[] for _ in kinds]
    for _ in range(CAL_UNITS):
        for ts, kind in zip(times, kinds):
            t0 = time.perf_counter()
            CAL_UNIT[kind]()
            ts.append(time.perf_counter() - t0)
    return [median(ts) for ts in times]


def normalized(wall: float, kinds, before, after) -> float:
    """Wall seconds scaled to the reference speed of the calibration kinds."""
    ref = sum(CAL_REF_S[k] for k in kinds)
    return wall * ref / (0.5 * (sum(before) + sum(after)))


def environment() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": model,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def setup_in_child(args) -> tuple:
    """Raw and normalized wall time of one fresh process that sets up the workload.

    Set-up is mostly imports, so it is calibrated as interpreted work.
    """
    kinds = ("interpreted",)
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    before = host_speed(kinds)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("set-up process failed:\n" + proc.stderr.decode())
    return wall, normalized(wall, kinds, before, host_speed(kinds))


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have ended."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def run_steps(task, kinds, speeds, times):
    """Run a task's steps, each after a calibration block.

    Appends to ``speeds`` every block and to ``times`` every completed
    step as [name, wall, cpu, index of the block before it]; returns the
    last step's result.
    """
    out = None
    for name, fn in task.steps:
        speeds.append(host_speed(kinds))
        c0, t0 = cpu_seconds(), time.perf_counter()
        out = fn(out)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        times.append([name, wall, cpu, len(speeds) - 1])
    return out


def run_pass(wl, index, traced, tracer):
    """One pass over the task list.

    Returns per task (label, failures, [[step, wall, cpu, normalized,
    unit times]]); the unit times are those of ``host_speed`` for the
    workload's calibration kinds, averaged over the blocks before and
    after the step.
    CPU time includes the task's child processes.
    """
    results, speeds = [], []
    if traced:
        tracer.install()
    try:
        for task in wl.tasks(traced, tracer):
            if traced:
                tracer.task = f"{index}:{task.label}"
            steps = []
            try:
                with tracer.span("task") if traced else nullcontext():
                    out = run_steps(task, wl.CALIBRATION, speeds, steps)
                err = None
            except Exception:
                err = traceback.format_exc()
            if err is None:
                try:
                    failures = task.check(out)
                except Exception:
                    failures = ["output check raised:\n" + traceback.format_exc()]
            else:
                failures = ["task raised:\n" + err]
            results.append((task.label, failures, steps))
    finally:
        if traced:
            tracer.uninstall()
            tracer.task = None
    speeds.append(host_speed(wl.CALIBRATION))
    # a step's speed is the mean of the blocks just before and after it
    for _, _, steps in results:
        for st in steps:
            before, after = speeds[st[3]], speeds[st[3] + 1]
            st[3] = normalized(st[1], wl.CALIBRATION, before, after)
            st.append({k: 0.5 * (x + y)
                       for k, x, y in zip(wl.CALIBRATION, before, after)})
    return results


def pass_totals(results) -> tuple:
    """(raw wall, CPU, normalized) seconds of one pass."""
    return tuple(sum(st[i] for _, _, steps in results for st in steps)
                 for i in (1, 2, 3))


def task_times(passes) -> dict:
    """Each task's normalized time, as a median over the passes."""
    per = {}
    for results in passes:
        for label, _, steps in results:
            per.setdefault(label, []).append(sum(st[3] for st in steps))
    return {label: median(ts) for label, ts in per.items()}


def layer_metrics(spans: list) -> dict:
    """Per-layer values of one traced pass from its spans."""
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp[1], []).append(sp)
    names = {sp[0]: sp[1] for sp in spans}

    def busy(*keys):
        return sum(sp[3] - sp[2] for k in keys for sp in by_name.get(k, ()))

    def attr_sum(key, attr):
        return sum(sp[6][attr] for sp in by_name.get(key, ()) if sp[6])

    acc = attr_sum("integrate", "accepted") + attr_sum("reduced_integrate_fix", "accepted")
    rej = attr_sum("integrate", "rejected") + attr_sum("reduced_integrate_fix", "rejected")
    rk_busy = busy("integrate", "reduced_integrate_fix")
    # Dormand-Prince with first-same-as-last: 2 start-up evaluations per
    # solve, 6 per attempted step, 1 more per accepted step when a
    # projection hook replaces the state (reduced_integrate_fix).
    evals = (6 * (acc + rej) + 2 * (len(by_name.get("integrate", ()))
                                    + len(by_name.get("reduced_integrate_fix", ())))
             + attr_sum("reduced_integrate_fix", "accepted"))
    probe_busy, probe_runs = busy("probe"), attr_sum("probe", "runs")
    m = {
        "rk.integrate.busy_s": rk_busy,
        "rk.integrate.steps": acc,
        "rk.integrate.rejected": rej,
        "rk.integrate.us_per_step": 1e6 * rk_busy / (acc + rej) if acc + rej else 0.0,
        "rk.rhs_evals_computed": evals,
        "detect.busy_s": busy("detect"),
        "classify.busy_s": busy("classify"),
        "classify.group_tests_computed": sum(
            1 for sp in by_name.get("state_permutation", ())
            if names.get(sp[4]) == "classify"),
        "probe.busy_s": probe_busy,
        "probe.runs": probe_runs,
        "probe.s_per_run": probe_busy / probe_runs if probe_runs else 0.0,
        "hopf.busy_s": busy("hopf_report_at_critical", "hopf_crossing"),
        "spectrum_report.busy_s": busy("spectrum_report"),
        "critical_a.busy_s": busy("critical_a"),
        "locate_stability_loss.busy_s": busy("locate_stability_loss"),
        "genericity.busy_s": busy("genericity"),
        "hopf_crossing.busy_s": busy("hopf_crossing"),
        "hopf_crossing.calls": len(by_name.get("hopf_crossing", ())),
        "serialize.busy_s": busy("serialize"),
        "trace.spans": len(spans),
    }
    startups = []
    for cmd in CLI_COMMANDS:
        walls = by_name.get(f"cli.{cmd}", ())
        wall = sum(sp[3] - sp[2] for sp in walls)
        ids = {sp[0] for sp in walls}
        dispatch = sum(sp[3] - sp[2] for sp in by_name.get("parse_and_dispatch", ())
                       if sp[4] in ids)
        m[f"cli.{cmd}.wall_s"] = wall
        m[f"cli.{cmd}.dispatch_s"] = dispatch
        if walls:
            startups.append(wall - dispatch)
    m["cli.startup_s"] = median(startups)
    return m


def micro_timings(wl) -> dict:
    """rhs call and dense-output sample cost at the workload's lattice size."""
    ft, n = wl.ft, wl.rhs_n
    lp = ft.LatticeParams(n=n, a=-0.05, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
    z = 0.25 + 1e-3 * wl.rng.standard_normal(2 * n * n)
    rhs = ft.simulate.make_rhs(lp)
    per_call = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(500):
            rhs(0.0, z)
        per_call.append((time.perf_counter() - t0) / 500)
    traj = ft.integrate(z, lp, 20.0)
    tq = traj.times[0] + (traj.t_end - traj.times[0]) * wl.rng.random(n * 64)
    per_sample = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(20):
            traj.sample(tq)
        per_sample.append((time.perf_counter() - t0) / 20)
    return {"rhs.call_us": 1e6 * median(per_call),
            "dense.sample_us": 1e6 * median(per_sample)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("orbit", "probe", "analysis", "cli"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="stop starting passes after this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up in this process and exit")
    args = ap.parse_args(argv)

    if not (SRC / "fhn_torus" / "__init__.py").is_file():
        print(f"error: no fhn_torus package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS

    # one CPU for this process and its children, so that the calibration
    # blocks measure the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, ROOT, OUT)
    try:
        if args.setup_only:
            print(json.dumps(set_up(wl)))
            return 0
        setups = ([] if args.trace
                  else [setup_in_child(args) for _ in range(SETUP_SAMPLES)])
        return measure(args, wl, set_up(wl), setups, Tracer())
    finally:
        wl.close()


def set_up(wl) -> dict:
    phases = wl.setup()
    where = Path(wl.ft.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"fhn_torus imported from {where}, not from {SRC}")
    return phases


def measure(args, wl, phases, setups, tracer) -> int:
    passes = []  # (traced, run_pass results, spans of the pass)
    t_start = time.perf_counter()
    # a fixed number of passes, so that a faster program is not measured
    # over more samples; --seconds only stops a run on a slow host from
    # starting a pass that would end after it
    while len(passes) < wl.PASSES:
        index = len(passes)
        traced = bool(args.trace) and index % 2 == 1
        first_span = len(tracer.spans)
        p0 = time.perf_counter()
        results = run_pass(wl, index, traced, tracer)
        passes.append((traced, results, tracer.spans[first_span:]))
        if index == 0:
            # later passes repeat the same work; what they add to the
            # peak is heap fragmentation, which varied by 3 MB between
            # runs of the same seed
            peak_rss_mb = wl.peak_rss_mb()
        now = time.perf_counter()
        if len(passes) >= 2 and now + (now - p0) - t_start > args.seconds:
            break
    run_failures = wl.finish()

    tasks = [t for _, results, _ in passes for t in results]
    attempted = len(tasks)
    failed = sum(1 for _, f, _ in tasks if f)
    untraced = [r for traced, r, _ in passes if not traced]
    traced_passes = [(r, s) for traced, r, s in passes if traced]
    totals = [pass_totals(r) for r in untraced]  # (raw, cpu, normalized)

    # printed and recorded, not gated: fail_frac is 0 on a correct run;
    # the raw times are what the host gave this run
    ungated = {
        "fail_frac": (failed / attempted, "1"),
        "task_p50_s": (median(list(task_times(untraced).values())), "s"),
        "raw_wall_s": (median([t[0] for t in totals]), "s"),
        "cpu_s": (median([t[1] for t in totals]), "s"),
    }
    if args.trace:
        per_pass = [layer_metrics(s) for _, s in traced_passes]
        metrics = {k: median([m[k] for m in per_pass]) for k in per_pass[0]}
        metrics.update(micro_timings(wl))
        metrics.update(wl.layer_extras())
        metrics["trace.overhead_s"] = (
            median([pass_totals(r)[2] for r, _ in traced_passes])
            - median([t[2] for t in totals]))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": median([norm for _, norm in setups]),
            "wall_s": median([t[2] for t in totals]),
            "peak_rss_mb": peak_rss_mb,
        }
        ungated["raw_setup_s"] = (median([raw for raw, _ in setups]), "s")
        units = END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")

    correct = failed == 0 and not run_failures
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "calibration": {"units": CAL_UNITS, "kinds": wl.CALIBRATION,
                        "ref_s": CAL_REF_S},
        "correct": correct, "attempted": attempted, "failed": failed,
        "ungated": {k: {"value": v, "unit": u} for k, (v, u) in ungated.items()},
        "setup_s": [{"raw": raw, "normalized": norm} for raw, norm in setups],
        "setup_phases_s": phases,
        "passes": [{"traced": traced, "tasks": [
            {"label": lb, "failures": f,
             "steps": [dict(zip(("step", "wall_s", "cpu_s", "normalized_s",
                                 "unit_s"), st))
                       for st in steps]}
            for lb, f, steps in r]}
            for traced, r, _ in passes],
        "run_failures": run_failures,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(OUT / f"trace-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.as_dicts(), fh)

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"tasks={attempted} ({attempted // len(passes)} per pass) failed={failed}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for _, results, _ in passes:
        for label, fails, _ in results:
            for msg in fails:
                print(f"# FAIL {label}: {msg}")
    for msg in run_failures:
        print(f"# FAIL run: {msg}")
    for k, u in units.items():
        print(f"{k:34s} {metrics[k]:.6g} {u}")
    for k, (v, u) in ungated.items():
        print(f"{k:34s} {v:.6g} {u} (not gated)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
