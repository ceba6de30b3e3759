"""Critical parameter values, branch symmetry and criticality evidence.

With c = 0 and b > 0 the origin loses stability as the cubic parameter
``a`` decreases through a critical value fixed by the signs of the two
coupling weights.  Writing theta = (N-1)*pi/N:

    gamma < 0, delta < 0 :  a* = 0                        (synchronized)
    gamma > 0, delta < 0 :  a* = gamma*(1 - cos theta)
    gamma < 0, delta > 0 :  a* = delta*(1 - cos theta)
    gamma > 0, delta > 0 :  a* = (gamma + delta)*(1 - cos theta)

The crossing eigenvalues sit at frequency (0, 0) in the first case and
at the frequencies nearest the half turn, r = (N -+ 1)/2, in the
others.  For small c > 0 the origin is stable at a = a* and the first
crossing moves to a_hat < a*; the crossing frequency is the c = 0 mode
of largest imaginary part.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BracketError, DegenerateCouplingWarning, DomainError
from .model import CellParams, LatticeParams
from .spectral import (
    EigenRecord,
    analytic_eigenvalues,
    analytic_eigenvector,
    eigenvalue_grids,
)
from .symmetry import (
    IsotropySubgroup,
    canonical_mode,
    predict_hopf_symmetries,
)

__all__ = [
    "CriticalPoint",
    "CrossingMode",
    "StabilityVerdict",
    "HopfReport",
    "Resonance",
    "DulacCertificate",
    "ProbeSettings",
    "ProbeRun",
    "ProbeResult",
    "theta_n",
    "sign_pattern",
    "critical_a",
    "origin_stability",
    "locate_stability_loss",
    "lyapunov_coefficient_sync",
    "dulac_certificate",
    "resonance_check",
    "resonant_coupling",
    "psi",
    "hopf_crossing",
    "hopf_report_at_critical",
    "branch_criticality_probe",
]


def theta_n(n: int) -> float:
    """(N-1)*pi/N, the angle of the frequencies nearest the half turn."""
    return (n - 1) * math.pi / n


def sign_pattern(lp: LatticeParams):
    if lp.gamma == 0.0 or lp.delta == 0.0:
        raise DomainError("bifurcation analysis requires gamma*delta != 0")
    return ("+" if lp.gamma > 0 else "-", "+" if lp.delta > 0 else "-")


def _warn_if_degenerate(lp: LatticeParams):
    if lp.gamma == lp.delta:
        warnings.warn(
            "gamma == delta collapses mode frequencies in the (+,+) case",
            DegenerateCouplingWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class CrossingMode:
    r: int
    s: int
    branch: str
    omega: float  # imaginary part at the critical point

    @property
    def mode(self):
        return (self.r, self.s)


@dataclass(frozen=True)
class CriticalPoint:
    a_star: float
    theta: float
    pattern: tuple
    crossing: tuple  # CrossingMode entries, primary first
    predicted_K: IsotropySubgroup
    mode_symmetries: dict = field(default_factory=dict, compare=False)

    @property
    def primary(self) -> CrossingMode:
        return self.crossing[0]


def _require_c0(lp: LatticeParams, what: str):
    if lp.c != 0.0:
        raise DomainError(f"{what} requires c = 0")
    if lp.b <= 0.0:
        raise DomainError(f"{what} requires b > 0")


def critical_a(lp: LatticeParams) -> CriticalPoint:
    """Critical value of ``a`` and the symmetry data of the crossing.

    Parameters
    ----------
    lp : LatticeParams with c = 0, b > 0 and nonzero couplings.

    Returns
    -------
    CriticalPoint
        Closed-form a*, the crossing frequencies ordered by decreasing
        imaginary part, and the subgroup predicted to fix the branch of
        the leading one pointwise.
    """
    _require_c0(lp, "critical_a")
    pat = sign_pattern(lp)
    if pat == ("+", "+"):
        _warn_if_degenerate(lp)
    n = lp.n
    th = theta_n(n)
    factor = 1.0 - math.cos(th)
    rp, rm = (n + 1) // 2, (n - 1) // 2
    if pat == ("-", "-"):
        a_star = 0.0
        modes = [(0, 0)]
    elif pat == ("+", "-"):
        a_star = lp.gamma * factor
        modes = [(rp, 0), (rm, 0)]
    elif pat == ("-", "+"):
        a_star = lp.delta * factor
        modes = [(0, rp), (0, rm)]
    else:
        a_star = (lp.gamma + lp.delta) * factor
        modes = [(rp, rp), (rp, rm), (rm, rp), (rm, rm)]
    lp_c = replace(lp, a=a_star)
    crossing = []
    for r, s in modes:
        lam_p, _ = analytic_eigenvalues(r, s, lp_c)
        crossing.append(CrossingMode(r, s, "+", float(lam_p.imag)))
    crossing.sort(key=lambda cm: (-cm.omega, cm.r, cm.s))
    full = IsotropySubgroup.full(n)
    mode_syms = {
        (cm.r, cm.s): predict_hopf_symmetries(
            full, canonical_mode(cm.r, cm.s, n), n
        ).fixing
        for cm in crossing
    }
    primary = crossing[0]
    return CriticalPoint(
        a_star=a_star,
        theta=th,
        pattern=pat,
        crossing=tuple(crossing),
        predicted_K=mode_syms[(primary.r, primary.s)],
        mode_symmetries=mode_syms,
    )


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    margin: float
    leading: tuple  # EigenRecord entries attaining the margin


def origin_stability(lp: LatticeParams) -> StabilityVerdict:
    """Linear stability of the origin from the closed-form spectrum."""
    lam = np.stack(eigenvalue_grids(lp))
    margin = float(lam.real.max())
    tol = 1e-12 * max(1.0, abs(margin))
    leading = [
        EigenRecord(int(r), int(s), "+-"[k], complex(lam[k, r, s]))
        for k, r, s in zip(*np.nonzero(lam.real >= margin - tol))
    ]
    leading.sort(key=lambda rec: (rec.r, rec.s, rec.branch))
    return StabilityVerdict(stable=margin < 0.0, margin=margin, leading=tuple(leading))


def locate_stability_loss(lp: LatticeParams, a_lo: float, a_hi: float,
                          xtol: float = 1e-12) -> float:
    """Root of a -> stability margin on a bracket, bisection plus secant.

    The margin must change sign between a_lo and a_hi; raises
    BracketError with both endpoint values otherwise.
    """

    def f(a):
        return origin_stability(replace(lp, a=a)).margin

    lo, hi = float(a_lo), float(a_hi)
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketError(
            f"stability margin does not change sign on [{lo}, {hi}]",
            a_lo=lo, a_hi=hi, f_lo=f_lo, f_hi=f_hi,
        )
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    # secant polish inside the final bracket
    x0, x1, f0, f1 = lo, hi, f_lo, f_hi
    for _ in range(4):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (lo <= x2 <= hi):
            break
        x0, f0, x1, f1 = x1, f1, x2, f(x2)
    return x1 if abs(f1) <= abs(f0) else x0


def lyapunov_coefficient_sync(p: CellParams) -> float:
    """First Lyapunov quantity of the synchronized branch at a = c = 0.

    The cell is brought to normal form x' = -w*y + F, y' = w*x + G with
    w = sqrt(b) by rescaling y; the standard planar combination of the
    nonlinear partials then gives the sign of the branch.  Negative
    means the orbit is stable inside the synchronized plane.
    """
    if p.a != 0.0 or p.c != 0.0:
        raise DomainError("synchronized branch coefficient is defined at a = c = 0")
    if p.b <= 0.0:
        raise DomainError("requires b > 0")
    w = math.sqrt(p.b)
    # F(x, Y) = f1(x, w*Y) + w*Y is the pure nonlinearity of the cell:
    # the cubic -x^3 + (a+1)x^2 - a x with a = 0.  G vanishes since the
    # recovery line is linear.  Nonzero partials at the origin:
    F_xx = 2.0 * (p.a + 1.0)
    F_xxx = -6.0
    F_xy = F_yy = F_xyy = 0.0
    G_xx = G_xy = G_yy = G_xxy = G_yyy = 0.0
    sixteen_s = (
        F_xxx + F_xyy + G_xxy + G_yyy
        + (F_xy * (F_xx + F_yy) - G_xy * (G_xx + G_yy) - F_xx * G_xx + F_yy * G_yy) / w
    )
    return sixteen_s / 16.0


@dataclass(frozen=True)
class DulacCertificate:
    """Sign certificate ruling out cell-level periodic orbits for c = 0.

    With weight exp(-2y/b) the weighted divergence of the cell field is
    q(x) * exp(-2y/b), q(x) = -3x^2 + 2ax - a; the certificate holds
    when q never becomes positive, i.e. 0 <= a <= 3.
    """

    holds: bool
    discriminant: float
    a: float
    b: float

    def divergence(self, x, y):
        q = -3.0 * np.asarray(x) ** 2 + 2.0 * self.a * np.asarray(x) - self.a
        return q * np.exp(-2.0 * np.asarray(y) / self.b)

    def __bool__(self) -> bool:
        return self.holds


def dulac_certificate(p: CellParams) -> DulacCertificate:
    if p.c != 0.0:
        raise DomainError("certificate is for c = 0")
    if p.b <= 0.0:
        raise DomainError("requires b > 0")
    disc = 4.0 * p.a * p.a - 12.0 * p.a
    return DulacCertificate(holds=disc <= 0.0, discriminant=disc, a=p.a, b=p.b)


@dataclass(frozen=True)
class Resonance:
    k: int
    larger: tuple  # (r, s, branch) of the faster crossing pair
    smaller: tuple
    ratio: float


def resonance_check(lp: LatticeParams, k_max: int = 10,
                    rel_tol: float = 1e-9):
    """Integer ratios among the crossing frequencies at a*.

    Returns Resonance entries for every ordered pair of crossing
    frequencies whose ratio is within rel_tol of an integer k with
    2 <= k <= k_max.  A single crossing pair cannot resonate, so the
    synchronized pattern always yields an empty list.
    """
    cp = critical_a(lp)
    out = []
    for big in cp.crossing:
        for small in cp.crossing:
            if small is big or small.omega >= big.omega:
                continue
            ratio = big.omega / small.omega
            k = round(ratio)
            if 2 <= k <= k_max and abs(ratio - k) <= rel_tol * k:
                out.append(
                    Resonance(
                        k=int(k),
                        larger=(big.r, big.s, big.branch),
                        smaller=(small.r, small.s, small.branch),
                        ratio=float(ratio),
                    )
                )
    return out


def resonant_coupling(n: int, b: float, k: int) -> float:
    """gamma making the two crossing frequencies of the (+,-) pattern
    resonate exactly with ratio k, from gamma^2 sin^2(theta) = b (k-1)^2 / k."""
    if k < 2:
        raise DomainError("resonance order must be at least 2")
    s = math.sin(theta_n(n))
    return math.sqrt(b * (k - 1) ** 2 / (k * s * s))


def psi(x: float, b: float, c: float) -> float:
    """Crossing curve for c > 0: the squared imaginary part of the
    coupling symbol at which an eigenvalue reaches the axis, as a
    function of x = a* - a_hat.  Positive and strictly decreasing on
    0 < x < c when c**2 < b."""
    if c <= 0.0:
        raise DomainError("psi requires c > 0")
    if x <= 0.0:
        raise DomainError(f"psi requires x > 0, got x={x!r}")
    return (b - c * x) * (c - x) ** 2 / (c * x)


@dataclass
class HopfReport:
    a_hat: float
    mode: tuple  # (r, s) of the eigenvalue with positive imaginary part
    omega_hopf: float
    resonances: tuple
    criticality: str = "undetermined"
    s_star: float | None = None
    a_star: float | None = None
    pattern: tuple | None = None
    matches_c0_prediction: bool | None = None


def hopf_crossing(lp: LatticeParams, xtol: float = 1e-12,
                  axis_tol: float = 1e-10) -> HopfReport:
    """First loss of stability of the origin for small c > 0.

    Locates a_hat < a* by a bracketed search on the stability margin
    and reports the unique eigenvalue pair on the imaginary axis there.

    Parameters
    ----------
    lp : LatticeParams with c > 0, c^2 < b and nonzero couplings.
    xtol : float
        Tolerance of the root search in a.

    Returns
    -------
    HopfReport
    """
    if lp.c <= 0.0:
        raise DomainError("hopf_crossing requires c > 0; use critical_a at c = 0")
    if lp.b <= 0.0:
        raise DomainError("hopf_crossing requires b > 0")
    if lp.c * lp.c >= lp.b:
        raise DomainError("hopf_crossing requires c^2 < b")
    if sign_pattern(lp) == ("+", "+"):
        _warn_if_degenerate(lp)
    if lp.c > 0.2 * math.sqrt(lp.b):
        warnings.warn(
            "c is not small against sqrt(b); the crossing analysis may be inaccurate",
            stacklevel=2,
        )
    lp0 = replace(lp, c=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCouplingWarning)
        cp = critical_a(lp0)
    lo = cp.a_star - max(1.0, 10.0 * lp.c)
    a_hat = locate_stability_loss(lp, lo, cp.a_star, xtol=xtol)

    lam_p, lam_m = eigenvalue_grids(replace(lp, a=a_hat))
    on_axis = []
    for branch, grid in (("+", lam_p), ("-", lam_m)):
        hits = np.argwhere(np.abs(grid.real) <= axis_tol)
        for r, s in hits:
            on_axis.append((int(r), int(s), branch, complex(grid[r, s])))
    positive = [rec for rec in on_axis if rec[3].imag > 0.0]
    if not positive:
        raise BracketError(
            f"no eigenvalue within {axis_tol} of the axis at a={a_hat!r}",
            a_lo=lo, a_hi=cp.a_star,
        )
    r, s, branch, lam = max(positive, key=lambda rec: rec[3].imag)
    return _hopf_report(lp0, cp, a_hat, (r, s), lam.imag, (r, s) == cp.primary.mode)


def hopf_report_at_critical(lp: LatticeParams) -> HopfReport:
    """HopfReport built directly from the c = 0 closed form, for the
    criticality probe and sweeps at c = 0."""
    cp = critical_a(lp)
    primary = cp.primary
    return _hopf_report(lp, cp, cp.a_star, primary.mode, primary.omega, True)


def _hopf_report(lp0: LatticeParams, cp: CriticalPoint, a_hat, mode, omega,
                 matches: bool) -> HopfReport:
    """HopfReport of a crossing whose c = 0 lattice lp0 has critical
    point cp; adds the resonances at a* and, for the synchronized
    pattern, s_star."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCouplingWarning)
        resonances = tuple(resonance_check(lp0))
    s_star = None
    if cp.pattern == ("-", "-"):
        s_star = lyapunov_coefficient_sync(CellParams(0.0, lp0.b, 0.0))
    return HopfReport(
        a_hat=float(a_hat),
        mode=mode,
        omega_hopf=float(omega),
        resonances=resonances,
        s_star=s_star,
        a_star=cp.a_star,
        pattern=cp.pattern,
        matches_c0_prediction=matches,
    )


@dataclass(frozen=True)
class ProbeSettings:
    delta_a: float = 0.04
    fractions: tuple = (1.0, 1.5, 2.0)
    perturbation_scale: float = 1e-3
    horizon_periods: float = 50.0
    growth_factor: float = 10.0
    branch_amplitude_cap: float | None = None  # default 0.5*max(1, sqrt(b))
    escape_amplitude: float | None = None  # default 10*max(1, sqrt(b))
    rtol: float = 1e-9
    atol: float = 1e-11


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

    Integrates inside Fix(K) of the crossing mode at a few values of a
    below and one above a_hat, starting from a small perturbation along
    the crossing eigenvector.  Outcomes per run:

    decay      back to the origin
    orbit      settled oscillation at branch scale (below the cap)
    distant    settled bounded motion far beyond branch scale
    escape     amplitude beyond the escape threshold
    transient  still growing or bursting at the horizon

    A branch-scale orbit on the unstable side with decay on the stable
    side is reported as subcritical (branch where the origin is
    unstable, per the sign convention of a); only distant attractors or
    escape there as supercritical.  Heuristic evidence, not a proof:
    the probe stays inside Fix(K), so it cannot see transversal
    instability, and a coexisting attractor can shadow the branch.
    """
    from .simulate import reduced_integrate_fix
    from .errors import StiffnessError

    st = settings or ProbeSettings()
    if sign_pattern(lp) == ("+", "+"):
        _warn_if_degenerate(lp)
    n = lp.n
    K = predict_hopf_symmetries(
        IsotropySubgroup.full(n), canonical_mode(*report.mode, n), n
    ).fixing
    vec = np.real(
        analytic_eigenvector(*report.mode, "+", replace(lp, a=report.a_hat))
    )
    vec = vec / np.max(np.abs(vec))
    eps = st.perturbation_scale * math.sqrt(lp.b)
    scale = max(1.0, math.sqrt(lp.b))
    escape = st.escape_amplitude if st.escape_amplitude is not None else 10.0 * scale
    cap = (st.branch_amplitude_cap if st.branch_amplitude_cap is not None
           else 0.5 * scale)
    t_end = st.horizon_periods * 2.0 * math.pi / report.omega_hopf

    def run(a_value, side):
        lpa = replace(lp, a=a_value)
        try:
            traj = reduced_integrate_fix(
                K, eps * vec, lpa, t_end, rtol=st.rtol, atol=st.atol
            )
        except StiffnessError:
            return ProbeRun(a_value, side, "escape", math.inf)
        quarter = 0.25 * (traj.times[-1] - traj.times[0])
        last = traj.states[traj.times >= traj.times[-1] - quarter]
        prev = traj.states[
            (traj.times >= traj.times[-1] - 2.0 * quarter)
            & (traj.times < traj.times[-1] - quarter)
        ]
        amp_tail = float(np.max(np.abs(last)))
        amp_prev = float(np.max(np.abs(prev)))
        amp_max = float(np.max(np.abs(traj.states)))
        ptp_tail = float(np.max(last.max(axis=0) - last.min(axis=0)))
        settled = abs(amp_tail - amp_prev) <= 0.1 * max(amp_tail, eps)
        if amp_max > escape:
            outcome = "escape"
        elif amp_tail < eps:
            outcome = "decay"
        elif not (settled and ptp_tail >= 0.5 * amp_tail
                  and amp_tail >= st.growth_factor * eps):
            outcome = "transient"
        elif amp_tail <= cap:
            outcome = "orbit"
        else:
            outcome = "distant"
        return ProbeRun(a_value, side, outcome, amp_tail)

    runs = [run(report.a_hat - f * st.delta_a, "below") for f in st.fractions]
    above = run(report.a_hat + st.delta_a, "above")
    runs.append(above)

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
