"""End-to-end acceptance battery.

Each test checks one numbered claim about the package as a whole and
prints a single PASS/FAIL line so the battery can be read off the
terminal even under default capture.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import time
import warnings

import numpy as np

from fhn_torus import (
    CellParams,
    DegenerateCouplingWarning,
    LatticeParams,
    ProbeSettings,
    act,
    analytic_eigenvector,
    assemble_jacobian_origin,
    branch_criticality_probe,
    classify_spatiotemporal,
    coupling_symbol,
    critical_a,
    detect_periodic_orbit,
    fix_modes,
    from_grids,
    genericity_violations,
    hopf_crossing,
    hopf_report_at_critical,
    integrate,
    locate_stability_loss,
    lyapunov_coefficient_sync,
    mode_index_set,
    psi,
    spectrum_report,
    to_grids,
)

SEED = 20240901

PATTERNS = {
    ("-", "-"): (-1.0, -1.0),
    ("+", "-"): (1.0, -1.0),
    ("-", "+"): (-1.0, 1.0),
    ("+", "+"): (1.0, 1.0),
}


def announce(capsys, num, label, ok, detail):
    with capsys.disabled():
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] criterion {num}: {label} ({detail})")
    return ok


def fix_drift(vec, sub, n):
    """Relative deviation of vec from Fix(sub) under the group action."""
    scale = np.max(np.abs(vec))
    worst = 0.0
    for g in sub.elements():
        worst = max(worst, np.max(np.abs(act(g, vec, n) - vec)) / scale)
    return worst


def test_criterion_1_eigen_residuals(capsys):
    from conftest import random_lattice

    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for n in (3, 5, 7):
        for _ in range(100):
            lp = random_lattice(rng, n=n)
            mat = assemble_jacobian_origin(lp)
            recs = spectrum_report(lp)
            # one eigenvector per column, one product per lattice
            V = np.stack([analytic_eigenvector(rec.r, rec.s, rec.branch, lp)
                          for rec in recs], axis=1)
            lam = np.array([rec.eigenvalue for rec in recs])
            res = np.max(np.abs(mat @ V - V * lam), axis=0)
            worst = max(worst, float(np.max(res / np.max(np.abs(V), axis=0))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    assert announce(
        capsys, 1, "analytic eigenpairs match the dense Jacobian",
        ok, f"worst residual {worst:.2e}, {elapsed:.1f}s for 300 lattices",
    )


def test_criterion_2_decomposition_counts(capsys):
    ok = True
    for n in (3, 5, 7, 11):
        total = sum(1 if k == (0, 0) else 2 for k in mode_index_set(n))
        ok = ok and total == n * n
        for g1 in range(n):
            for g2 in range(n):
                if (g1, g2) == (0, 0):
                    continue
                via_modes = sum(1 if k == (0, 0) else 2 for k in fix_modes((g1, g2), n))
                # independent count: frequencies annihilated by g
                direct = sum(
                    1
                    for r in range(n)
                    for s in range(n)
                    if (r * g1 + s * g2) % n == 0
                )
                ok = ok and via_modes == n and direct == n
    assert announce(
        capsys, 2, "isotypic dimensions sum to N^2 and dim Fix = N",
        ok, "exact integer checks for N in {3,5,7,11}",
    )


def test_criterion_3_critical_values_and_fix(capsys):
    rng = np.random.default_rng(SEED)
    bs = (0.5, 1.0, 2.0)
    t0 = time.perf_counter()
    worst_a = 0.0
    worst_drift = 0.0
    for signs in PATTERNS.values():
        for i in range(20):
            gamma = signs[0] * rng.uniform(0.2, 2.0)
            delta = signs[1] * rng.uniform(0.2, 2.0)
            b = bs[i % 3]
            lp = LatticeParams(n=3, a=0.0, b=b, c=0.0, gamma=gamma, delta=delta)
            cp = critical_a(lp)
            located = locate_stability_loss(lp, cp.a_star - 0.5, cp.a_star + 0.5)
            worst_a = max(worst_a, abs(located - cp.a_star))
            at_star = LatticeParams(n=3, a=cp.a_star, b=b, c=0.0,
                                    gamma=gamma, delta=delta)
            vec = analytic_eigenvector(cp.primary.r, cp.primary.s, "+", at_star)
            worst_drift = max(worst_drift, fix_drift(vec, cp.predicted_K, 3))
    elapsed = time.perf_counter() - t0
    ok = worst_a <= 1e-8 and worst_drift <= 1e-9 and elapsed < 30.0
    assert announce(
        capsys, 3, "bisection recovers a_* and eigenvectors lie in Fix(K)",
        ok, f"|a-a_*| <= {worst_a:.2e}, drift <= {worst_drift:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_lyapunov_coefficient(capsys):
    worst = max(
        abs(lyapunov_coefficient_sync(CellParams(a=0.0, b=b, c=0.0)) + 0.375)
        for b in (0.25, 1.0, 4.0)
    )
    ok = worst <= 1e-14
    assert announce(
        capsys, 4, "synchronized first Lyapunov coefficient is -3/8",
        ok, f"max deviation {worst:.1e} over b in (0.25, 1, 4)",
    )


def test_criterion_5_synchronized_branch(capsys):
    lp = LatticeParams(n=3, a=-0.05, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
    t0 = time.perf_counter()
    z0 = from_grids(np.full((3, 3), 0.25), np.zeros((3, 3)))
    traj = integrate(z0, lp, t_end=400.0)
    orbit = detect_periodic_orbit(traj)
    ok = orbit is not None
    detail = "no periodic orbit detected"
    if ok:
        sym = classify_spatiotemporal(orbit, lp)
        xg, yg = to_grids(traj.final_state, 3)
        spread = max(np.ptp(xg), np.ptp(yg))
        expected = 2.0 * np.pi / np.sqrt(lp.b)
        elapsed = time.perf_counter() - t0
        ok = (
            sym.spatial.kind == "full"
            and sym.fixing.kind == "full"
            and abs(orbit.period - expected) <= 0.1 * expected
            and spread <= 1e-7
            and elapsed < 10.0
        )
        detail = (f"period {orbit.period:.4f} vs {expected:.4f}, "
                  f"H=K={sym.fixing.label()}, cell spread {spread:.1e}, "
                  f"{elapsed:.1f}s")
    assert announce(
        capsys, 5, "synchronized orbit with full symmetry emerges",
        ok, detail,
    )


def test_criterion_6_crossing_persists_for_small_c(capsys):
    t0 = time.perf_counter()
    ok = True
    details = []
    for signs, (gamma, delta) in PATTERNS.items():
        if signs == ("+", "+"):
            gamma, delta = 1.0, 0.7  # unequal to stay generic
        cp = critical_a(LatticeParams(n=3, a=0.0, b=1.0, c=0.0,
                                      gamma=gamma, delta=delta))
        gaps = []
        for c in (0.05, 0.01):
            lp = LatticeParams(n=3, a=0.0, b=1.0, c=c, gamma=gamma, delta=delta)
            rep = hopf_crossing(lp)
            gaps.append(abs(rep.a_hat - cp.a_star))
            at_hat = LatticeParams(n=3, a=rep.a_hat, b=1.0, c=c,
                                   gamma=gamma, delta=delta)
            records = spectrum_report(at_hat)
            on_axis = [r for r in records if abs(r.eigenvalue.real) <= 1e-10]
            off_axis = [r for r in records if abs(r.eigenvalue.real) > 1e-10]
            ok = ok and rep.a_hat < cp.a_star
            ok = ok and len(on_axis) == 2
            ok = ok and all(r.eigenvalue.real < 0.0 for r in off_axis)
            ok = ok and rep.mode == cp.primary.mode
            ok = ok and rep.matches_c0_prediction
        ok = ok and gaps[1] < gaps[0]
        details.append(f"{''.join(signs)}: gap {gaps[0]:.1e}->{gaps[1]:.1e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    assert announce(
        capsys, 6, "c>0 crossing approaches a_* on the predicted mode",
        ok, "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_7_crossing_frequency_identity(capsys):
    lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.05, gamma=1.0, delta=0.7)
    rep = hopf_crossing(lp)
    x = rep.a_star - rep.a_hat
    y = coupling_symbol(rep.mode[0], rep.mode[1], lp).imag
    gap = abs(y * y - psi(x, lp.b, lp.c))
    ok = gap <= 1e-8
    assert announce(
        capsys, 7, "crossing frequency satisfies y^2 = psi(a_* - a-hat)",
        ok, f"|y^2 - psi| = {gap:.1e}",
    )


def test_criterion_8_genericity_detector(capsys):
    degenerate = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=1.0, delta=1.0)
    hits = genericity_violations(degenerate)
    ok = len(hits) > 0
    rng = np.random.default_rng(SEED)
    false_alarms = 0
    for _ in range(50):
        delta = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
        ratio = 10.0 ** rng.uniform(-2.0, 2.0)
        gamma = delta * ratio * rng.choice((-1.0, 1.0))
        lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=gamma, delta=delta)
        false_alarms += bool(genericity_violations(lp))
    ok = ok and false_alarms == 0
    assert announce(
        capsys, 8, "degenerate couplings flagged, generic ones clean",
        ok, f"{len(hits)} hits at gamma=delta, {false_alarms}/50 false alarms",
    )


def test_criterion_9_criticality_probe_runs(capsys):
    outcomes = []
    ok = True
    t0 = time.perf_counter()
    for n in (3, 5):
        lp = LatticeParams(n=n, a=0.0, b=1.0, c=0.0, gamma=1.0, delta=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateCouplingWarning)
            rep = hopf_report_at_critical(lp)
            result = branch_criticality_probe(rep, lp, ProbeSettings())
        ok = ok and result.classification in (
            "subcritical", "supercritical", "undetermined"
        )
        ok = ok and len(result.runs) > 0
        outcomes.append(f"N={n}: {result.classification}"
                        f" ({len(result.samples)} orbit samples)")
    elapsed = time.perf_counter() - t0
    assert announce(
        capsys, 9, "branch criticality probe completes and classifies",
        ok, "; ".join(outcomes) + f", {elapsed:.1f}s",
    )
