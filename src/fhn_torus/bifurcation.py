"""Critical parameter values, branch symmetry and crossings, in closed form.

With c = 0 and b > 0 the origin loses stability as the cubic parameter
``a`` decreases through a critical value fixed by the signs of the two
coupling weights.  Writing theta = (N-1)*pi/N:

    gamma < 0, delta < 0 :  a* = 0                        (synchronized)
    gamma > 0, delta < 0 :  a* = gamma*(1 - cos theta)
    gamma < 0, delta > 0 :  a* = delta*(1 - cos theta)
    gamma > 0, delta > 0 :  a* = (gamma + delta)*(1 - cos theta)

that is, a* = (max(gamma, 0) + max(delta, 0))*(1 - cos theta).  The
crossing frequencies are the pairs (r, s) with r in R(gamma) and s in
R(delta), where R(w) holds the two frequencies nearest the half turn,
(N + 1)/2 and (N - 1)/2, for w > 0 and only 0 otherwise.  For small
c > 0 the origin is stable at a = a* and the first crossing moves to
a_hat < a*, the largest a at which a mode with coupling symbol sigma
meets the paper's curve (Im sigma)^2 = psi(Re sigma - a).

The criticality probe, which integrates the lattice near a crossing to
read the branch's direction, is in ``probe``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BracketError, DegenerateCouplingWarning, DomainError
from .model import CellParams, LatticeParams, _require_odd_prime
from .spectral import EigenRecord, _entries, _roots, eigenvalue_grids, symbol_grid
from .symmetry import IsotropySubgroup, predict_hopf_symmetries

__all__ = [
    "CriticalPoint",
    "CrossingMode",
    "StabilityVerdict",
    "HopfReport",
    "Resonance",
    "theta_n",
    "sign_pattern",
    "critical_a",
    "origin_stability",
    "locate_stability_loss",
    "lyapunov_coefficient_sync",
    "resonant_coupling",
    "psi",
    "hopf_crossing",
    "hopf_report_at_critical",
]


def theta_n(n: int) -> float:
    """(N-1)*pi/N, the angle of the frequencies nearest the half turn.
    Refuses an n that is not an odd prime (LatticeSizeError)."""
    _require_odd_prime(n)
    return (n - 1) * math.pi / n


def sign_pattern(lp: LatticeParams):
    if lp.gamma == 0.0 or lp.delta == 0.0:
        raise DomainError("bifurcation analysis requires gamma*delta != 0")
    return ("+" if lp.gamma > 0 else "-", "+" if lp.delta > 0 else "-")


# The root search in a stops at a bracket of 4 * _EPS * max(1, |a|).
_EPS = float(np.finfo(float).eps)

# Integer frequency ratios k, 2 <= k <= _RESONANCE_K_MAX, are resonant
# within a relative error of _RESONANCE_REL_TOL * k.
_RESONANCE_K_MAX = 10
_RESONANCE_REL_TOL = 1e-9


def _upper_branch(lam_p, lam_m) -> str:
    """The branch of a root pair whose root has the larger imaginary part.

    At c = 0 and a = a* both roots of a crossing mode lie on the
    imaginary axis, where the radicand sits on the branch cut up to
    rounding, so rounding, not the mode, decides which root is '+'.
    """
    return "-" if lam_m.imag > lam_p.imag else "+"


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
        the leading one pointwise.  Each crossing names the branch whose
        root has the larger imaginary part, omega > 0 (else DomainError).
    """
    if lp.c != 0.0:
        raise DomainError("critical_a requires c = 0")
    if lp.b <= 0.0:
        raise DomainError("critical_a requires b > 0")
    pat = sign_pattern(lp)
    n = lp.n
    th = theta_n(n)
    factor = 1.0 - math.cos(th)
    # the table as its product rule (module docstring)
    near_half = ((n + 1) // 2, (n - 1) // 2)
    rs, ss = (near_half if w > 0.0 else (0,) for w in (lp.gamma, lp.delta))
    a_star = (max(lp.gamma, 0.0) + max(lp.delta, 0.0)) * factor
    modes = [(r, s) for r in rs for s in ss]
    # the roots of the crossing modes' grid entries alone: those of
    # other modes overflow first (gamma = delta = -1e300)
    _, A = _entries(replace(lp, a=a_star), *modes)
    crossing = []
    for (r, s), lam_p, lam_m in zip(modes, *(x.tolist() for x in _roots(A, lp.b, lp.c))):
        branch = _upper_branch(lam_p, lam_m)
        omega = float((lam_p if branch == "+" else lam_m).imag)
        if not omega > 0.0:
            raise DomainError(f"crossing frequency of mode ({r}, {s}) rounds to "
                              f"{omega!r}: the couplings are too large against b")
        crossing.append(CrossingMode(r, s, branch, omega))
    crossing.sort(key=lambda cm: (-cm.omega, cm.r, cm.s))
    mode_syms = {cm.mode: predict_hopf_symmetries(cm.mode, n).fixing for cm in crossing}
    return CriticalPoint(
        a_star=a_star,
        theta=th,
        pattern=pat,
        crossing=tuple(crossing),
        predicted_K=mode_syms[crossing[0].mode],
        mode_symmetries=mode_syms,
    )


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    margin: float
    leading: tuple  # EigenRecord entries attaining the margin


def _stability_margin(lp: LatticeParams):
    """(margin, lam): the largest real part of the closed-form spectrum
    and the grids (lambda_+, lambda_-) stacked, which it is read from;
    the one evaluation of the margin, for the verdict and the root
    search alike."""
    lam = np.stack(eigenvalue_grids(lp))
    return float(lam.real.max()), lam


def origin_stability(lp: LatticeParams) -> StabilityVerdict:
    """Linear stability of the origin from the closed-form spectrum."""
    margin, lam = _stability_margin(lp)
    tol = 1e-12 * max(1.0, abs(margin))
    leading = [
        EigenRecord(int(r), int(s), "+-"[k], complex(lam[k, r, s]))
        for k, r, s in zip(*np.nonzero(lam.real >= margin - tol))
    ]
    leading.sort(key=lambda rec: (rec.r, rec.s, rec.branch))
    return StabilityVerdict(stable=margin < 0.0, margin=margin, leading=tuple(leading))


def locate_stability_loss(lp: LatticeParams, a_lo: float, a_hi: float) -> float:
    """Root of a -> stability margin on a bracket, by Chandrupatla's
    method (a variant of Brent's; Adv. Eng. Softw. 28 (1997) 145-149).

    Each new point is the inverse quadratic interpolation of the last
    three where the margin looks quadratic there, else the midpoint, and
    lies at least the tolerance inside the bracket, which always holds a
    sign change.  Stops at an exact zero or once the bracket is narrower
    than 4 eps max(1, |a|), and returns the end with the smaller
    |margin|: about seven margin evaluations per call, against some
    forty for bisection to that width.  The margin must change sign
    between a_lo and a_hi; raises BracketError with both endpoint
    values otherwise.
    """

    def f(a):
        return _stability_margin(replace(lp, a=a))[0]

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
    # a is the newest point and b the other end of the bracket; c is the
    # point that a or b replaced; the next point is a + t * (b - a)
    a, fa, b, fb = hi, f_hi, lo, f_lo
    t = 0.5
    while True:
        x = a + t * (b - a)
        fx = f(x)
        if (fx > 0.0) == (fa > 0.0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = x, fx
        best, f_best = (a, fa) if abs(fa) < abs(fb) else (b, fb)
        t_min = 2.0 * _EPS * max(1.0, abs(best)) / abs(b - a)
        if f_best == 0.0 or t_min > 0.5:
            return best
        xi = (a - b) / (c - b)
        phi = (fa - fb) / (fc - fb)
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
        else:
            t = 0.5
        t = min(1.0 - t_min, max(t_min, t))


def lyapunov_coefficient_sync(p: CellParams) -> float:
    """First Lyapunov quantity of the synchronized branch at a = c = 0.

    The cell is brought to normal form x' = -w*y + F, y' = w*x + G with
    w = sqrt(b) by rescaling y.  At a = c = 0, F = x^2 - x^3 and G = 0
    (the recovery line is linear), so in the standard planar combination
    16 l1 = F_xxx + F_xyy + G_xxy + G_yyy + (F_xy (F_xx + F_yy)
    - G_xy (G_xx + G_yy) - F_xx G_xx + F_yy G_yy) / w every term but
    F_xxx = -6 vanishes, and l1 = -6/16 for every b > 0.  Negative means
    the orbit is stable inside the synchronized plane.
    """
    if p.a != 0.0 or p.c != 0.0:
        raise DomainError("synchronized branch coefficient is defined at a = c = 0")
    if p.b <= 0.0:
        raise DomainError("requires b > 0")
    return -6.0 / 16.0


@dataclass(frozen=True)
class Resonance:
    k: int
    larger: tuple  # (r, s, branch) of the faster crossing pair
    smaller: tuple
    ratio: float


def _resonances(crossing) -> list:
    """Integer ratios among the crossing frequencies of one critical point.

    Returns Resonance entries for every ordered pair of CrossingMode
    entries whose frequency ratio is within 1e-9 * k of an integer k
    with 2 <= k <= 10.  A single crossing pair cannot resonate, so the
    synchronized pattern always yields an empty list.
    """
    out = []
    for big in crossing:
        for small in crossing:
            if small is big or small.omega >= big.omega:
                continue
            ratio = big.omega / small.omega
            k = round(ratio)
            if 2 <= k <= _RESONANCE_K_MAX and abs(ratio - k) <= _RESONANCE_REL_TOL * k:
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
    resonate exactly with ratio k, from gamma^2 sin^2(theta) = b (k-1)^2 / k.
    Refuses an n that is not an odd prime (LatticeSizeError), and a b
    that is not finite and positive or a k that is not an integer (numpy
    integers are) of at least 2 (DomainError)."""
    _require_odd_prime(n)
    if not (b > 0.0 and math.isfinite(b)):
        raise DomainError(f"resonant_coupling requires finite b > 0, got b={b!r}")
    if not (isinstance(k, (int, np.integer)) and k >= 2):
        raise DomainError(f"resonance order must be an integer of at least 2, got {k!r}")
    s = math.sin(theta_n(n))
    return math.sqrt(b * (k - 1) ** 2 / (k * s * s))


def psi(x: float, b: float, c: float) -> float:
    """Crossing curve for c > 0: the squared imaginary part of the
    coupling symbol at which an eigenvalue reaches the axis, as a
    function of x = a* - a_hat.  Positive and strictly decreasing on
    0 < x < c when c**2 < b.  Requires finite x, b and c with x > 0,
    b > 0 and c > 0, else DomainError."""
    for name, v in (("x", x), ("b", b), ("c", c)):
        if not (v > 0.0 and math.isfinite(v)):
            raise DomainError(f"psi requires finite {name} > 0, got {name}={v!r}")
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


def _crossing_frequencies(beta, b: float, c: float):
    """Positive root omega of omega^3 - beta omega^2 - (b - c^2) omega - c^2 beta
    for each beta >= 0, by Newton's method from omega0 = (beta + sqrt(beta^2
    + 4b))/2, above it where the cubic is convex, until no step moves down."""
    c2 = c * c
    omega = 0.5 * (beta + np.hypot(beta, 2.0 * math.sqrt(b)))
    while True:
        # the cubic and its slope, both divided by omega to stay finite
        f = (omega - beta) * omega - (b - c2) - c2 * beta / omega
        df = 3.0 * omega - 2.0 * beta - (b - c2) / omega
        nxt = omega - f / df
        if not np.any(nxt < omega):
            return omega
        omega = np.minimum(omega, nxt)


def hopf_crossing(lp: LatticeParams) -> HopfReport:
    """First loss of stability of the origin for c > 0, in closed form on
    the paper's crossing curve :func:`psi`.

    A mode with coupling symbol sigma at a = 0 and beta = Im sigma >= 0
    has an eigenvalue i*omega at a = Re sigma - c (1 - beta/omega), where
    omega is the one positive root of omega^3 - beta omega^2 - (b - c^2)
    omega - c^2 beta; eliminating omega gives beta^2 = psi(Re sigma - a).
    a_hat is the largest such a over the modes (the conjugate mode, with
    Im sigma < 0, carries -i*omega), ties going to the larger omega, then
    to the smaller (r, s).  Requires c > 0, c^2 < b and nonzero couplings;
    warns where the crossing is double (gamma == delta, r != s) or its
    mode is not the c = 0 one the signs predict.
    """
    if lp.c <= 0.0:
        raise DomainError("hopf_crossing requires c > 0; use critical_a at c = 0")
    if lp.b <= 0.0:
        raise DomainError("hopf_crossing requires b > 0")
    if lp.c * lp.c >= lp.b:
        raise DomainError("hopf_crossing requires c^2 < b")
    cp = critical_a(replace(lp, c=0.0))
    sigma = symbol_grid(replace(lp, a=0.0)).ravel()
    up = np.flatnonzero(sigma.imag >= 0.0)
    beta = sigma.imag[up]
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        omega = _crossing_frequencies(beta, lp.b, lp.c)
        a_k = sigma.real[up] - lp.c * (1.0 - beta / omega)
    if not np.isfinite(a_k).all():
        raise DomainError("the couplings overflow the coupling symbols")
    k = np.lexsort((-omega, -a_k))[0]  # stable: the smaller (r, s) wins ties
    return _hopf_report(lp, cp, a_k[k], divmod(int(up[k]), lp.n), omega[k])


def hopf_report_at_critical(lp: LatticeParams) -> HopfReport:
    """HopfReport built directly from the c = 0 closed form, for reports
    and sweeps at c = 0; warns where the crossing is double."""
    cp = critical_a(lp)
    return _hopf_report(lp, cp, cp.a_star, cp.primary.mode, cp.primary.omega)


def _hopf_report(lp: LatticeParams, cp: CriticalPoint, a_hat, mode, omega) -> HopfReport:
    """HopfReport of a crossing of lp, whose c = 0 copy has critical
    point cp; adds the resonances of cp's crossing at a*, whether the
    mode is cp's primary and, for a crossing of the synchronized mode
    (0, 0) in the (-, -) pattern, s_star.  Warns, at the caller's
    caller, where the mode departs from cp's primary and, first, where
    gamma == delta and a crossing mode (r, s) (each of cp's at c = 0,
    the reported one at c > 0) has r != s: it has the symbol of its
    transpose (s, r), so the two cross as one double pair."""
    modes = [cm.mode for cm in cp.crossing] if lp.c == 0.0 else [mode]
    double = next(((r, s) for r, s in modes if r != s), None)
    if lp.gamma == lp.delta and double:
        warnings.warn(f"gamma == delta: the crossing mode {double} crosses together "
                      f"with its transpose {double[::-1]}", DegenerateCouplingWarning, stacklevel=3)
    if mode != cp.primary.mode:
        warnings.warn(f"the crossing mode {mode} departs from the c = 0 prediction "
                      f"{cp.primary.mode}; the sign rule does not hold at this c", stacklevel=3)
    s_star = None
    if mode == (0, 0) and cp.pattern == ("-", "-"):
        s_star = lyapunov_coefficient_sync(CellParams(0.0, lp.b, 0.0))
    return HopfReport(
        a_hat=float(a_hat),
        mode=mode,
        omega_hopf=float(omega),
        resonances=tuple(_resonances(cp.crossing)),
        s_star=s_star,
        a_star=cp.a_star,
        pattern=cp.pattern,
        matches_c0_prediction=mode == cp.primary.mode,
    )


# The benchmark's tracer wraps the probe as fhn_torus.bifurcation.branch_criticality_probe,
# replacing every binding of that same object, so the names stay bound here until its
# target moves to fhn_torus.probe; last, because probe imports from this module.
from .probe import (  # noqa: E402,F401
    ProbeResult, ProbeRun, ProbeSettings, branch_criticality_probe)
