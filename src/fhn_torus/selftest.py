"""Built-in invariant checks, runnable from the CLI.

Each check returns (name, ok, detail).  These are smoke-level
verifications of the library's own consistency, not a test suite.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .bifurcation import (
    critical_a,
    locate_stability_loss,
    lyapunov_coefficient_sync,
    hopf_crossing,
    psi,
)
from .model import CellParams, LatticeParams, _mode_vector, assemble_jacobian_origin
from .simulate import detect_periodic_orbit, integrate
from .spectral import (
    analytic_eigenvector,
    coupling_symbol,
    eigenvalue_grids,
    spectrum_report,
)
from .symmetry import (IsotropySubgroup, act, fix_modes, fix_projection, isotropy_of,
                       mode_index_set)


def _check_spectrum(rng):
    lp = LatticeParams(5, a=rng.normal(), b=abs(rng.normal()) + 0.5,
                       c=abs(rng.normal()) * 0.1,
                       gamma=rng.normal(), delta=rng.normal())
    M = assemble_jacobian_origin(lp)
    dense = list(np.linalg.eigvals(M))
    lam_p, lam_m = eigenvalue_grids(lp)
    closed = np.concatenate([lam_p.ravel(), lam_m.ravel()])
    # nearest-neighbour matching; sorting misorders near-coincident reals
    err = 0.0
    for lam in closed:
        gaps = [abs(lam - mu) for mu in dense]
        idx = int(np.argmin(gaps))
        err = max(err, gaps[idx])
        dense.pop(idx)
    return "closed-form spectrum matches dense eigenvalues", err < 1e-8, f"max |diff| = {err:.3e}"


def _check_residuals(rng):
    lp = LatticeParams(3, a=rng.normal(), b=abs(rng.normal()) + 0.5,
                       c=0.0, gamma=rng.normal(), delta=rng.normal())
    recs = spectrum_report(lp)
    worst = max(rec.residual for rec in recs)
    ok = worst < 1e-10  # the bound, not digits at rounding level
    return "eigenvector residuals small", ok, f"max residual {'<' if ok else '>='} 1e-10"


def _check_rotation(rng):
    n = 5
    z = rng.normal(size=2 * n * n)
    ok = True
    detail = ""
    for k in mode_index_set(n):
        e = _mode_vector(*k, n)  # the phases w^(i*k1 + j*k2) of the cells
        for g in ((1, 0), (0, 1), (2, 3)):
            lhs = np.vdot(e, act(g, z, n)[0::2])
            rhs = np.vdot(e, z[0::2]) * np.exp(
                2j * np.pi * (g[0] * k[0] + g[1] * k[1]) / n
            )
            err = abs(lhs - rhs)
            if err > 1e-10:
                ok = False
                detail = f"k={k} g={g} err={err:.3e}"
                break
    return "rotations act on mode coordinates by phases", ok, detail or "all phases exact"


def _check_dimensions(_rng):
    for n in (3, 5, 7):
        total = sum(1 if k == (0, 0) else 2 for k in mode_index_set(n))
        if total != n * n:
            return "isotypic dimensions sum to N^2", False, f"N={n}: {total}"
        for g in IsotropySubgroup.full(n).elements():
            if g == (0, 0):
                continue
            d = sum(1 if k == (0, 0) else 2 for k in fix_modes(g, n))
            if d != n:
                return "fixed spaces have dimension N", False, f"N={n} g={g}: {d}"
    return "isotypic dimensions sum to N^2, fixed spaces have dimension N", True, "N in {3,5,7}"


def _check_isotropy(rng):
    n = 5
    z = rng.normal(size=2 * n * n)
    subs = {IsotropySubgroup.cyclic(g, n) for g in IsotropySubgroup.full(n).elements()
            if g != (0, 0)}
    subs |= {IsotropySubgroup.full(n), IsotropySubgroup.trivial(n)}
    wrong = [K.label() for K in subs if isotropy_of(fix_projection(z, K)) != K]
    detail = f"wrong for {sorted(wrong)}" if wrong else f"all {len(subs)} subgroups at N={n}"
    return "isotropy_of recovers every subgroup from its Fix(K)", not wrong, detail


def _check_critical(rng):
    lp = LatticeParams(5, a=0.0, b=1.0, c=0.0,
                       gamma=0.8 + 0.4 * rng.random(),
                       delta=-0.9 + 0.3 * rng.random())
    cp = critical_a(lp)
    a_num = locate_stability_loss(lp, cp.a_star - 1.0, cp.a_star + 1.0)
    err = abs(a_num - cp.a_star)
    return "closed-form a* agrees with bisection", err < 1e-8, f"|diff| = {err:.3e}"


def _check_fix_membership(rng):
    lp = LatticeParams(3, a=0.0, b=1.0, c=0.0, gamma=1.0, delta=0.7)
    cp = critical_a(lp)
    lp_c = replace(lp, a=cp.a_star)
    xi = analytic_eigenvector(*cp.primary.mode, cp.primary.branch, lp_c)
    worst = 0.0
    for g in cp.predicted_K.elements():
        phase = np.exp(2j * np.pi * (g[0] * cp.primary.r + g[1] * cp.primary.s) / lp.n)
        worst = max(worst, float(np.max(np.abs(act(g, xi, lp.n) - phase * xi))))
    return "crossing eigenvector lies in Fix(K) up to phase", worst < 1e-9, f"max drift = {worst:.3e}"


def _check_lyapunov(_rng):
    vals = [lyapunov_coefficient_sync(CellParams(0.0, b, 0.0)) for b in (0.25, 1.0, 4.0)]
    ok = all(abs(v + 0.375) < 1e-14 for v in vals)
    return "synchronized branch coefficient is -3/8", ok, f"values = {vals}"


def _check_psi(_rng):
    lp = LatticeParams(3, a=0.0, b=1.0, c=0.05, gamma=1.0, delta=0.7)
    rep = hopf_crossing(lp)
    y = coupling_symbol(rep.mode[0], rep.mode[1], replace(lp, a=rep.a_hat)).imag
    x = rep.a_star - rep.a_hat
    err = abs(y * y - psi(x, lp.b, lp.c))
    return "crossing satisfies the psi identity", err < 1e-8, f"|y^2 - psi| = {err:.3e}"


def _check_orbit(_rng):
    lp = LatticeParams(3, a=-0.05, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
    z0 = np.zeros(18)
    z0[0::2] = 0.25  # growth from tiny seeds is too slow for the horizon
    traj = integrate(z0, lp, 400.0, rtol=1e-8, atol=1e-10)
    orbit = detect_periodic_orbit(traj)
    if orbit is None:
        return "synchronized orbit detected", False, "no orbit found"
    rel = abs(orbit.period - 2.0 * math.pi) / (2.0 * math.pi)
    return "synchronized orbit detected", rel < 0.1, f"period = {orbit.period:.6f}"


_CHECKS = [
    _check_spectrum,
    _check_residuals,
    _check_rotation,
    _check_dimensions,
    _check_critical,
    _check_isotropy,
    _check_fix_membership,
    _check_lyapunov,
    _check_psi,
    _check_orbit,
]

_QUICK_SKIP = {"_check_orbit"}


def run_selftest(quick: bool = False):
    """Run the battery; returns a list of (name, ok, detail)."""
    rng = np.random.default_rng(20240901)
    results = []
    for fn in _CHECKS:
        if quick and fn.__name__ in _QUICK_SKIP:
            continue
        results.append(fn(rng))
    return results


def format_results(results) -> str:
    lines = []
    width = max(len(name) for name, _, _ in results)
    for name, ok, detail in results:
        mark = "ok " if ok else "FAIL"
        lines.append(f"[{mark}] {name.ljust(width)}  {detail}")
    passed = sum(1 for _, ok, _ in results if ok)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
