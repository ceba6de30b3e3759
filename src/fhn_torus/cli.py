"""Command-line front end.

Subcommands
-----------
spectrum   closed-form origin spectrum with residual checks
critical   critical coupling table entry with a numeric cross-check
hopf       first stability loss for c > 0
simulate   integrate the network, optionally classify the attractor
classify   orbit symmetry from a saved trajectory CSV
sweep      grid over (gamma, delta) emitting one CSV row per point
selftest   built-in invariant battery

Exit codes: 0 success, 2 invalid input, 3 numerical failure or I/O
error.  All floats in reports carry 17 significant digits, so repeated
runs with the same inputs, numpy build and floating-point hardware give
byte-identical files.  Integrated results are only as reproducible as
that arithmetic: a run that starts near the unstable origin, such as
``simulate --ic mode``, amplifies a last-bit change anywhere in the
field or the solver into the last digits of its node times and states.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import _rk, _serialize
from .bifurcation import (
    HopfReport,
    _hopf_report,
    branch_criticality_probe,
    critical_a,
    hopf_crossing,
    hopf_report_at_critical,
    locate_stability_loss,
    origin_stability,
)
from .errors import BracketError, DomainError, InvarianceError, StiffnessError
from .model import LatticeParams, infer_n, state_dim
from .simulate import (
    Trajectory,
    _require_tol,
    classify_spatiotemporal,
    detect_periodic_orbit,
    integrate,
    make_rhs,
)
from .spectral import analytic_eigenvector, spectrum_report
from .symmetry import predict_hopf_symmetries

__all__ = ["Report", "parse_and_dispatch", "emit_report", "main"]

# The most grid points one sweep runs; a larger grid is refused before
# any point is built.
_MAX_SWEEP_POINTS = 100_000

_TOL_HELP = ("classification tolerance: the largest RMS, relative to the "
             "orbit's, of the part that breaks a matched symmetry (default 0.01)")

_SWEEP_HEADER = (
    "N", "a", "b", "c", "gamma", "delta", "a_star", "a_hat",
    "mode_r", "mode_s", "omega", "K", "criticality",
)


@dataclass(frozen=True)
class Report:
    """A command's result: the JSON payload and, for commands with a
    CSV form, its header and rows.  ``csv_rows`` is a tuple of rows or
    a 2-D float array (the trajectory of ``simulate``), as
    ``_serialize.csv_text`` takes them."""

    payload: object
    csv_header: tuple | None = None
    csv_rows: tuple | np.ndarray | None = None


def _parse_range(text: str) -> tuple:
    """(lo, hi, count) of a LO:HI:COUNT range."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"range must be lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"range must be lo:hi:count, got {text!r}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError(f"range ends must be finite, got {text!r}")
    if not np.isfinite(hi - lo):
        raise DomainError(f"range span overflows, got {text!r}")
    if count < 1:
        raise DomainError("range count must be at least 1")
    return lo, hi, count


def _range_values(lo: float, hi: float, count: int) -> tuple:
    return tuple(np.linspace(lo, hi, count).tolist())


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=None, help="lattice side, an odd prime")
    p.add_argument("--a", type=float, default=0.0, help="cubic cell parameter")
    p.add_argument("--b", type=float, default=1.0, help="recovery gain")
    p.add_argument("--c", type=float, default=0.0, help="recovery leak")
    p.add_argument("--gamma", type=float, default=-1.0, help="column coupling weight")
    p.add_argument("--delta", type=float, default=-1.0, help="row coupling weight")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="write the report here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fhn-torus",
        description="Hopf bifurcations and symmetric periodic orbits of a "
        "torus of unidirectionally coupled FitzHugh-Nagumo cells.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="closed-form origin spectrum")
    _add_param_flags(sp)

    cr = sub.add_parser("critical", help="critical a and crossing symmetry (c = 0)")
    _add_param_flags(cr)

    ho = sub.add_parser("hopf", help="first stability loss for c > 0")
    _add_param_flags(ho)
    ho.add_argument("--probe", action="store_true",
                    help="run the branch criticality probe (slow)")

    si = sub.add_parser("simulate", help="integrate the network")
    _add_param_flags(si)
    si.add_argument("--t-end", type=float, default=200.0)
    si.add_argument("--rtol", type=float, default=_rk._RTOL)
    si.add_argument("--atol", type=float, default=_rk._ATOL)
    si.add_argument("--ic", choices=("uniform-x", "random", "mode"),
                    default="uniform-x", help="initial condition family")
    si.add_argument("--amplitude", type=float, default=1e-3)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--classify", action="store_true",
                    help="detect a periodic orbit and classify its symmetry")
    si.add_argument("--tol", type=float, default=1e-2, help=_TOL_HELP)

    cl = sub.add_parser("classify", help="orbit symmetry from a trajectory CSV")
    _add_param_flags(cl)
    cl.add_argument("--input", required=True, metavar="FILE",
                    help="trajectory CSV written by `simulate --format csv`")
    cl.add_argument("--tol", type=float, default=1e-2, help=_TOL_HELP)

    sw = sub.add_parser("sweep", help="grid over gamma and delta")
    _add_param_flags(sw)
    sw.add_argument("--gamma-range", default=None, metavar="LO:HI:COUNT")
    sw.add_argument("--delta-range", default=None, metavar="LO:HI:COUNT")
    sw.add_argument("--probe", action="store_true")

    st = sub.add_parser("selftest", help="run the invariant battery")
    st.add_argument("--quick", action="store_true", help="skip the slow checks")
    st.add_argument("--format", choices=("json", "csv"), default="json")
    st.add_argument("--output", default=None, metavar="FILE")

    return ap


def _resolve(args: argparse.Namespace):
    """Set ``args.params``, the lattice of the flags, with N = 3 unless
    --n was given; ``args.n`` stays None when it was not, so that
    classify takes N from its file."""
    if "a" in args:  # selftest takes no lattice flags
        args.params = LatticeParams(3 if args.n is None else args.n, args.a, args.b,
                                    args.c, args.gamma, args.delta)


def _crossing_row(lp: LatticeParams, rep: HopfReport) -> tuple:
    """One crossing as a row under _SWEEP_HEADER."""
    return (
        lp.n, lp.a, lp.b, lp.c, lp.gamma, lp.delta, rep.a_star, rep.a_hat,
        rep.mode[0], rep.mode[1], rep.omega_hopf,
        predict_hopf_symmetries(rep.mode, lp.n).fixing.label(), rep.criticality,
    )


def _orbit_report(traj: Trajectory, lp: LatticeParams, tol: float):
    """Detect and classify the orbit of a trajectory.

    Returns (orbit, symmetry, entries), where entries holds the "orbit"
    and "symmetry" members of a report, None where nothing was found.
    """
    orbit = detect_periodic_orbit(traj)
    sym = None if orbit is None else classify_spatiotemporal(orbit, lp, tol=tol)
    entries = {
        "orbit": None if orbit is None else {
            "period": orbit.period,
            "anchor_time": orbit.anchor_time,
            "residual": orbit.residual,
        },
        "symmetry": None if sym is None else {
            "period": sym.period,
            "spatial": sym.spatial.label(),
            "fixing": sym.fixing.label(),
            "phases": sym.phases,
            "phase_fractions": sym.phase_fractions,
            "match_residual": sym.match_residual,
        },
    }
    return orbit, sym, entries


def _cmd_spectrum(args):
    records = spectrum_report(args.params)
    payload = {
        "command": "spectrum",
        "params": asdict(args.params),
        "records": records,
        "max_residual": max(rec.residual for rec in records),
    }
    rows = tuple(
        (rec.r, rec.s, rec.branch, rec.eigenvalue.real, rec.eigenvalue.imag,
         rec.residual)
        for rec in records
    )
    return Report(payload, ("r", "s", "branch", "re", "im", "residual"), rows), 0


def _cmd_critical(args):
    lp = args.params
    cp = critical_a(lp)
    a_num = locate_stability_loss(lp, cp.a_star - 1.0, cp.a_star + 1.0)
    payload = {
        "command": "critical",
        "params": asdict(lp),
        "a_star": cp.a_star,
        "theta": cp.theta,
        "pattern": list(cp.pattern),
        "K": cp.predicted_K.label(),
        "crossing": cp.crossing,
        "mode_symmetries": {k: v.label() for k, v in cp.mode_symmetries.items()},
        "numeric_cross_check": {"a": a_num, "abs_diff": abs(a_num - cp.a_star)},
    }
    # hopf_report_at_critical's row from the cp already in hand: calling
    # it would run critical_a a second time
    rep = _hopf_report(lp, cp, cp.a_star, cp.primary.mode, cp.primary.omega)
    return Report(payload, _SWEEP_HEADER, (_crossing_row(lp, rep),)), 0


def _cmd_hopf(args):
    lp = args.params
    if lp.c <= 0.0:
        raise DomainError("hopf needs --c > 0; at c = 0 run fhn-torus critical")
    rep = hopf_crossing(lp)
    payload = {"command": "hopf", "params": asdict(lp), "report": rep,
               "K": predict_hopf_symmetries(rep.mode, lp.n).fixing.label()}
    if args.probe:
        probe = branch_criticality_probe(rep, lp)
        rep.criticality = probe.classification
        payload["probe"] = probe
    return Report(payload, _SWEEP_HEADER, (_crossing_row(lp, rep),)), 0


def _initial_state(args) -> np.ndarray:
    lp = args.params
    dim = state_dim(lp.n)
    if args.ic == "uniform-x":
        z0 = np.zeros(dim)
        z0[0::2] = args.amplitude
        return z0
    if args.ic == "random":
        rng = np.random.default_rng(args.seed)
        # an amplitude near the float limit overflows to inf, which
        # integrate refuses with its one typed error; Python floats
        # overflow with no warning, and round as numpy's product does
        return np.array([args.amplitude * v for v in rng.standard_normal(dim).tolist()])
    # "mode": excite the eigenvector of largest real part, whose first
    # cell has a real positive x
    lead = origin_stability(lp).leading[0]
    vec = np.real(analytic_eigenvector(lead.r, lead.s, lead.branch, lp))
    return args.amplitude * vec / np.max(np.abs(vec))


def _traj_header(n: int) -> tuple:
    cols = ["t"]
    for p in range(n * n):
        i, j = p % n, p // n
        cols.append(f"x_{i + 1}_{j + 1}")
        cols.append(f"y_{i + 1}_{j + 1}")
    return tuple(cols)


def _cmd_simulate(args):
    if args.classify:
        _require_tol(args.tol)
    lp = args.params
    z0 = _initial_state(args)
    traj = integrate(z0, lp, args.t_end, rtol=args.rtol, atol=args.atol)
    entries = {"orbit": None, "symmetry": None}
    if args.classify:
        _, _, entries = _orbit_report(traj, lp, args.tol)
    payload = {
        "command": "simulate",
        "params": asdict(lp),
        "t_end": args.t_end,
        "ic": args.ic,
        "amplitude": args.amplitude,
        "stats": traj.stats,
        "accepted_nodes": int(traj.times.size),
        "final_state": traj.final_state,
        **entries,
    }
    rows = np.column_stack([traj.times, traj.states])
    return Report(payload, _traj_header(lp.n), rows), 0


def _cmd_classify(args):
    _require_tol(args.tol)
    with warnings.catch_warnings():  # an empty file is refused just below
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(args.input, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] < 2:
        raise DomainError(
            f"{args.input}: need at least two trajectory rows, got {data.shape[0]}"
        )
    if data.shape[1] < 3:
        raise DomainError(f"{args.input}: expected t plus 2*N^2 state columns")
    if not np.isfinite(data).all():
        raise DomainError(f"{args.input}: times and states must be finite")
    times = data[:, 0]
    states = data[:, 1:]
    n_file = infer_n(states[0])
    lp = args.params
    if args.n is not None and lp.n != n_file:
        raise DomainError(f"n = {lp.n} from --n does not match "
                          f"the {n_file}x{n_file} trajectory file")
    if lp.n != n_file:
        lp = replace(lp, n=n_file)
    if np.any(np.diff(times) <= 0.0):
        raise DomainError(f"{args.input}: times must increase strictly")
    try:  # states the field cannot step are refused as they are stepped
        traj = _rk.dense_from_nodes(make_rhs(lp), times, states)
        orbit, sym, entries = _orbit_report(traj, lp, args.tol)
    except DomainError as exc:
        raise DomainError(f"{args.input}: {exc}") from None
    payload = {
        "command": "classify",
        "params": asdict(lp),
        "input": args.input,
        **entries,
    }
    rows = ()
    if sym is not None:
        rows = ((lp.n, orbit.period, sym.spatial.label(), sym.fixing.label(),
                 sym.match_residual),)
    return Report(payload, ("N", "period", "spatial", "fixing", "residual"), rows), 0


def _sweep_row(lp: LatticeParams, probe: bool) -> tuple:
    """The row of one grid point.  A point the analysis refuses is
    marked invalid, one whose search or probe fails is marked failed;
    any other error stops the sweep."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = hopf_report_at_critical(lp) if lp.c == 0.0 else hopf_crossing(lp)
            if probe:
                rep.criticality = branch_criticality_probe(rep, lp).classification
            return _crossing_row(lp, rep)
    except (DomainError, BracketError, StiffnessError, InvarianceError) as exc:
        verdict = "invalid" if isinstance(exc, DomainError) else "failed"
        nan = float("nan")
        return (lp.n, lp.a, lp.b, lp.c, lp.gamma, lp.delta, nan, nan, -1, -1, nan, "",
                verdict)


def _cmd_sweep(args):
    lp = args.params
    ranges = [_parse_range(text) if text else (value, value, 1)
              for text, value in ((args.gamma_range, lp.gamma),
                                  (args.delta_range, lp.delta))]
    size = ranges[0][2] * ranges[1][2]
    if size > _MAX_SWEEP_POINTS:
        raise DomainError(
            f"sweep grid of {size} points exceeds the limit of {_MAX_SWEEP_POINTS}"
        )
    gammas, deltas = (_range_values(*rng) for rng in ranges)
    rows = [_sweep_row(replace(lp, gamma=g, delta=d), args.probe)
            for g in gammas for d in deltas]
    payload = {
        "command": "sweep",
        "header": list(_SWEEP_HEADER),
        "rows": [dict(zip(_SWEEP_HEADER, row)) for row in rows],
    }
    return Report(payload, _SWEEP_HEADER, tuple(rows)), 0


def _cmd_selftest(args):
    from .selftest import format_results, run_selftest

    results = run_selftest(quick=args.quick)
    sys.stdout.write(format_results(results) + "\n")
    payload = {
        "command": "selftest",
        "results": [
            {"name": name, "ok": ok, "detail": detail}
            for name, ok, detail in results
        ],
    }
    rows = tuple((name, ok, detail) for name, ok, detail in results)
    report = Report(payload, ("name", "ok", "detail"), rows)
    code = 0 if all(ok for _, ok, _ in results) else 3
    if args.output is None:
        return None, code  # plain-text summary already printed
    return report, code


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "critical": _cmd_critical,
    "hopf": _cmd_hopf,
    "simulate": _cmd_simulate,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "selftest": _cmd_selftest,
}


def emit_report(result: Report, format: str = "json", path: str | None = None):
    """Serialize a Report deterministically to a path or stdout."""
    if format == "json":
        text = _serialize.dumps_json(result.payload)
    elif format == "csv":
        if result.csv_header is None:
            raise DomainError("this command has no CSV form")
        text = _serialize.csv_text(result.csv_rows, result.csv_header)
    else:
        raise DomainError(f"unknown format {format!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def parse_and_dispatch(argv=None) -> int:
    """Parse arguments, run the requested command, emit its report.

    Returns the process exit code instead of raising: 2 for anything
    rooted in bad input, 3 for numerical failures (lost brackets, step
    size underflow, a start outside an invariant subspace) and I/O errors.
    Each distinct warning message of the run goes to stderr once, as
    ``warning: <message>``, ahead of any ``error:`` line; the warning
    filters are restored on return.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            _resolve(args)
            report, code = _COMMANDS[args.command](args)
            if report is not None:
                emit_report(report, args.format, args.output)
        except ValueError as exc:
            error, code = exc, 2
        except (RuntimeError, OSError) as exc:
            error, code = exc, 3
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
