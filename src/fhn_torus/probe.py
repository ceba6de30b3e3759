"""The criticality probe: numerical evidence of a Hopf branch's direction.

It integrates the lattice inside Fix(K) of the crossing mode a little
below and above the crossing that ``bifurcation`` finds in closed form
(``hopf_crossing`` for c > 0, ``hopf_report_at_critical`` at c = 0),
and reads from the amplitudes whether the branch is sub- or
supercritical.  ``bifurcation`` holds the closed forms; this module
holds the one analysis that integrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bifurcation import HopfReport, _upper_branch, sign_pattern
from .errors import DomainError, StiffnessError
from .model import LatticeParams
from .simulate import _quotient_solve
from .spectral import analytic_eigenvalues, analytic_eigenvector
from .symmetry import predict_hopf_symmetries

__all__ = ["ProbeSettings", "ProbeRun", "ProbeResult", "branch_criticality_probe"]

# Criticality probe: spacing of the probed values of a around a_hat, the
# multiples of it below a_hat that are run, the start amplitude in units
# of sqrt(b), and the growth over that start an oscillation needs to
# count as settled at branch scale.
_PROBE_DELTA_A = 0.04
_PROBE_FRACTIONS = (1.0, 1.5, 2.0)
_PROBE_PERTURBATION = 1e-3
_PROBE_GROWTH = 10.0
# The probe reads the amplitudes of a run's second half from the dense
# output at this many evenly spaced times per crossing period, so that
# they do not depend on where the steps fall; the escape test reads the
# nodes.
_PROBE_SAMPLES_PER_PERIOD = 64
# The probe solves at this rtol, and at the default atol of integrate:
# its outcomes read amplitudes against 10 % and 50 % thresholds and
# factors of 10, and at the default rtol of 1e-9 DOP853 takes about 1.7
# times the steps for digits that no outcome reads.
_PROBE_RTOL = 1e-7


@dataclass(frozen=True)
class ProbeSettings:
    """How long the criticality probe integrates.

    Each run lasts ``horizon_periods`` periods of the crossing, which
    must be finite and more than 1/64, so that each of the run's last
    two quarters holds a time of its grid of 64 per period, else
    DomainError.  Where the runs are placed is fixed: at
    a_hat - f * 0.04 for f = 1, 1.5 and 2, and at a_hat + 0.04.
    """

    horizon_periods: float = 50.0

    def __post_init__(self):
        h = self.horizon_periods
        if not (h * _PROBE_SAMPLES_PER_PERIOD > 1.0 and math.isfinite(h)):
            raise DomainError(f"horizon_periods must be finite and more than "
                              f"1/{_PROBE_SAMPLES_PER_PERIOD}, got {h!r}")


@dataclass(frozen=True)
class ProbeRun:
    a: float
    side: str  # "below" or "above"
    outcome: str  # "decay" | "orbit" | "distant" | "escape" | "transient"
    amplitude: float


@dataclass(frozen=True)
class ProbeResult:
    classification: str  # "subcritical" | "supercritical" | "undetermined"
    samples: tuple  # (a - a_hat, tail amplitude) of runs that found an orbit
    runs: tuple


def branch_criticality_probe(report: HopfReport, lp: LatticeParams,
                             settings: ProbeSettings | None = None) -> ProbeResult:
    """Numerical side check of the branch direction.

    Integrates inside Fix(K) of the crossing mode at a_hat - f * 0.04
    for f = 1, 1.5 and 2 and at a_hat + 0.04, for
    ``settings.horizon_periods`` crossing periods each.  Every run
    starts at amplitude 1e-3 * sqrt(b) along the real part of the
    crossing eigenvector whose eigenvalue at a_hat has the larger
    imaginary part.  The runs are one state on the quotient flow of
    Fix(K), their four lattices laid end to end, with one step sequence
    whose error is the RMS over all their slots, solved at rtol 1e-7
    (atol 1e-11), coarser than the 1e-9 of ``integrate``: the outcomes
    read amplitudes only against the thresholds below.  If that solve
    is stiff, each run is redone alone, and a run that is stiff alone
    has escaped.  The escape test reads the sup norm of the run's node
    states, exact solution points; the other amplitudes are sup norms
    of the dense output at 64 evenly spaced times per crossing period
    over each of the run's last two quarters, so only the steps of the
    second half are taken again.  With scale = max(1, sqrt(b)),
    outcomes per run:

    decay      back below the start amplitude
    orbit      settled oscillation, at least 10 times the start
               amplitude and at most 0.5 * scale (the branch cap)
    distant    settled bounded motion beyond the branch cap
    escape     a node beyond 10 * scale, or a stiff abort
    transient  still growing or bursting at the horizon

    A branch-scale orbit on the unstable side with decay on the stable
    side is reported as subcritical (branch where the origin is
    unstable, per the sign convention of a); only distant attractors or
    escape there as supercritical.  Heuristic evidence, not a proof:
    the probe stays inside Fix(K), so it cannot see transversal
    instability, and a coexisting attractor can shadow the branch.
    """
    st = settings or ProbeSettings()
    sign_pattern(lp)
    K = predict_hopf_symmetries(report.mode, lp.n).fixing
    lp_hat = replace(lp, a=report.a_hat)
    branch = _upper_branch(*analytic_eigenvalues(*report.mode, lp_hat))
    vec = np.real(analytic_eigenvector(*report.mode, branch, lp_hat))
    vec = vec / np.max(np.abs(vec))
    eps = _PROBE_PERTURBATION * math.sqrt(lp.b)
    scale = max(1.0, math.sqrt(lp.b))
    escape = 10.0 * scale
    cap = 0.5 * scale  # branch amplitude cap
    t_end = st.horizon_periods * 2.0 * math.pi / report.omega_hopf

    grid = np.linspace(0.0, t_end,
                       math.ceil(st.horizon_periods * _PROBE_SAMPLES_PER_PERIOD) + 1)
    # the grid's times in the run's second half, the only ones sampled
    tail = grid[np.searchsorted(grid, 0.5 * t_end):]
    in_last = tail >= 0.75 * t_end

    def outcome(run):
        """Outcome and tail amplitude of one run, a view of the quotient
        trajectory: the escape test reads its nodes, the rest its
        samples on the tail of the grid; the lift only copies cells, so
        the amplitudes are the lattice's."""
        qs = run.sample(tail)
        last, prev = qs[in_last], qs[~in_last]
        amp_tail = float(np.max(np.abs(last)))
        amp_prev = float(np.max(np.abs(prev)))
        amp_max = float(np.max(np.abs(run.states)))
        ptp_tail = float(np.max(last.max(axis=0) - last.min(axis=0)))
        settled = abs(amp_tail - amp_prev) <= 0.1 * max(amp_tail, eps)
        if amp_max > escape:
            return "escape", amp_tail
        if amp_tail < eps:
            return "decay", amp_tail
        if not (settled and ptp_tail >= 0.5 * amp_tail
                and amp_tail >= _PROBE_GROWTH * eps):
            return "transient", amp_tail
        return ("orbit" if amp_tail <= cap else "distant"), amp_tail

    def batch(lps):
        """Outcomes of runs on the lattices lps, solved as one state; a
        stiff solve is redone run by run, and a stiff run has escaped."""
        try:
            _, sol = _quotient_solve(K, eps * vec, lps, t_end, _PROBE_RTOL)
        except StiffnessError:
            if len(lps) == 1:
                return [("escape", math.inf)]
            return [batch([lpa])[0] for lpa in lps]
        q = sol.states.shape[1] // len(lps)  # quotient slots of one run
        # one run at a time: the samples of all four would add several
        # MB to the peak
        return [outcome(sol.slots(slice(j * q, (j + 1) * q))) for j in range(len(lps))]

    sides = ["below"] * len(_PROBE_FRACTIONS) + ["above"]
    lps = [replace(lp, a=report.a_hat - f * _PROBE_DELTA_A) for f in _PROBE_FRACTIONS]
    lps.append(replace(lp, a=report.a_hat + _PROBE_DELTA_A))
    results = batch(lps)
    runs = [ProbeRun(lpa.a, side, out, amp)
            for lpa, side, (out, amp) in zip(lps, sides, results)]
    above = runs[-1]

    below = [r for r in runs if r.side == "below"]
    if above.outcome != "decay":
        verdict = "undetermined"
    elif any(r.outcome == "orbit" for r in below):
        verdict = "subcritical"
    elif any(r.outcome in ("escape", "distant") for r in below):
        verdict = "supercritical"
    else:
        verdict = "undetermined"
    samples = tuple(
        (r.a - report.a_hat, r.amplitude)
        for r in below
        if r.outcome == "orbit"
    )
    return ProbeResult(classification=verdict, samples=samples, runs=tuple(runs))
