"""Critical parameter values, stability, criticality diagnostics."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import dense_spectrum, random_lattice
from fhn_torus import (
    BracketError,
    CellParams,
    DegenerateCouplingWarning,
    DomainError,
    IsotropySubgroup,
    LatticeParams,
    LatticeSizeError,
    act,
    analytic_eigenvalues,
    analytic_eigenvector,
    branch_criticality_probe,
    critical_a,
    eigenvalue_grids,
    hopf_crossing,
    integrate,
    locate_stability_loss,
    lyapunov_coefficient_sync,
    origin_stability,
    predict_hopf_symmetries,
    psi,
    reduced_integrate_fix,
    spectrum_report,
    StiffnessError,
    symbol_grid,
    theta_n,
)
from fhn_torus import _rk, bifurcation, probe, spectral
from fhn_torus.bifurcation import hopf_report_at_critical, resonant_coupling, sign_pattern
from fhn_torus.probe import ProbeResult, ProbeRun, ProbeSettings
from fhn_torus.symmetry import _cell_classes


def lattice(n=3, a=0.0, b=1.0, c=0.0, gamma=-1.0, delta=-1.0):
    return LatticeParams(n=n, a=a, b=b, c=c, gamma=gamma, delta=delta)


def probe_bench_inputs(seed):
    """The N=5 sync and wave inputs of the benchmark's probe workload."""
    g, d, g2, d2 = np.random.default_rng(seed).uniform(0.9, 1.1, size=4)
    return [lattice(n=5, gamma=-g, delta=-d), lattice(n=5, c=0.05, gamma=g2, delta=-d2)]


def eigvec_fix_drift(cp, lp):
    """Largest deviation of the primary crossing eigenvector from the
    fixed-point space of the predicted subgroup."""
    pm = cp.primary
    lp_c = replace(lp, a=cp.a_star)
    xi = analytic_eigenvector(pm.r, pm.s, pm.branch, lp_c)
    scale = float(np.max(np.abs(xi)))
    worst = 0.0
    for g in cp.predicted_K.elements():
        worst = max(worst, float(np.max(np.abs(act(g, xi, lp.n) - xi))))
    return worst / scale


class TestThetaN:
    @pytest.mark.parametrize("n", [3, 5, 7, 11])
    def test_obtuse_angle(self, n):
        th = theta_n(n)
        assert th == pytest.approx((n - 1) * math.pi / n)
        assert math.pi / 2 < th < math.pi
        assert math.cos(th) < 0.0 < math.sin(th)

    # theta_n(4) returned 2.356... and theta_n(0) raised ZeroDivisionError
    @pytest.mark.parametrize("n", [4, 9, 2, 1, 0, -3, 3.0])
    def test_lattice_side_not_an_odd_prime_is_refused(self, n):
        with pytest.raises(LatticeSizeError):
            theta_n(n)


class TestSignPattern:
    def test_patterns(self):
        assert sign_pattern(lattice(gamma=-1, delta=-1)) == ("-", "-")
        assert sign_pattern(lattice(gamma=2, delta=-3)) == ("+", "-")
        assert sign_pattern(lattice(gamma=-0.1, delta=0.2)) == ("-", "+")
        assert sign_pattern(lattice(gamma=1, delta=1)) == ("+", "+")

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            sign_pattern(lattice(gamma=0.0, delta=1.0))


class TestCriticalA:
    def test_associative_pair_bifurcates_at_zero(self):
        for n in (3, 5, 7):
            cp = critical_a(lattice(n=n, gamma=-1.3, delta=-0.4))
            assert cp.a_star == 0.0
            assert cp.predicted_K.label() == "Gamma"
            assert [m.mode for m in cp.crossing] == [(0, 0)]

    def test_row_pattern(self):
        cp = critical_a(lattice(gamma=1.0, delta=-1.0))
        assert cp.a_star == pytest.approx(1.5, rel=1e-12)
        assert cp.predicted_K.label() == "Z(0,1)"
        assert {m.mode for m in cp.crossing} == {(1, 0), (2, 0)}

    def test_column_pattern(self):
        cp = critical_a(lattice(gamma=-1.0, delta=1.0))
        assert cp.a_star == pytest.approx(1.5, rel=1e-12)
        assert cp.predicted_K.label() == "Z(1,0)"
        assert {m.mode for m in cp.crossing} == {(0, 1), (0, 2)}

    def test_doubly_dissociative_pattern(self):
        # all four corner modes share the same real part, so they hit
        # the axis together; the diagonal plane leads in frequency
        with pytest.warns(DegenerateCouplingWarning):
            cp = critical_a(lattice(gamma=1.0, delta=1.0))
        assert cp.a_star == pytest.approx(3.0, rel=1e-12)
        assert {m.mode for m in cp.crossing} == {(1, 1), (2, 2), (1, 2), (2, 1)}
        assert cp.primary.mode == (2, 2)
        # the fixing subgroup must fix the crossing plane pointwise
        assert cp.predicted_K == IsotropySubgroup.cyclic((1, 2), 3)

    def test_unequal_dissociative_couplings_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cp = critical_a(lattice(gamma=1.0, delta=0.7))
        assert cp.a_star == pytest.approx(1.7 * 1.5, rel=1e-12)

    def test_primary_mode_has_largest_frequency(self):
        cp = critical_a(lattice(gamma=1.0, delta=-1.0))
        omegas = [m.omega for m in cp.crossing]
        assert omegas[0] == max(omegas)
        assert all(w > 0.0 for w in omegas)

    def test_crossing_eigenvector_in_fix_subspace(self):
        for gd in [(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 0.7)]:
            cp = critical_a(lattice(gamma=gd[0], delta=gd[1]))
            assert eigvec_fix_drift(cp, lattice(gamma=gd[0], delta=gd[1])) <= 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            critical_a(lattice(c=0.1))
        with pytest.raises(DomainError):
            critical_a(lattice(gamma=0.0))
        with pytest.raises(DomainError):
            critical_a(lattice(b=-1.0))

    def test_huge_coupling_is_a_domain_error(self):
        # the two crossing frequencies of the (+,-) pattern multiply to
        # b; at b = 1 the smaller is still 1.7e-9 at gamma = 1e9, but at
        # b = 1e-300, gamma = 1e100 it underflows to 0, and the
        # resonance ratios would divide by it
        for gamma in (1e8, 1e9):
            big, small = critical_a(lattice(n=5, gamma=gamma, delta=-1.0)).crossing
            assert small.omega > 0.0
            assert big.omega * small.omega == pytest.approx(1.0, rel=1e-14)
            assert hopf_crossing(lattice(n=5, c=0.05, gamma=gamma, delta=-1.0)).mode == (3, 0)
        for gamma, delta in [(1e100, -1.0), (-1.0, 1e100)]:
            with pytest.raises(DomainError, match="rounds to 0.0"):
                critical_a(lattice(n=5, b=1e-300, gamma=gamma, delta=delta))
            with pytest.raises(DomainError, match="rounds to 0.0"):
                hopf_crossing(lattice(n=5, b=1e-300, c=1e-160, gamma=gamma, delta=delta))


def per_mode_critical(lp):
    """(a*, crossing, mode_symmetries) of critical_a, or the message of
    its DomainError, by the per-mode loop it ran before it read its
    crossing modes from one grid: one analytic_eigenvalues call, and so
    one symbol grid, per crossing mode; crossing entries are (r, s,
    branch, the bytes of omega), ordered as CriticalPoint.crossing."""
    n = lp.n
    near_half = ((n + 1) // 2, (n - 1) // 2)
    rs, ss = (near_half if w > 0.0 else (0,) for w in (lp.gamma, lp.delta))
    a_star = (max(lp.gamma, 0.0) + max(lp.delta, 0.0)) * (1.0 - math.cos(theta_n(n)))
    lp_star = replace(lp, a=a_star)
    crossing = []
    try:
        for r in rs:
            for s in ss:
                lam_p, lam_m = analytic_eigenvalues(r, s, lp_star)
                branch = "-" if lam_m.imag > lam_p.imag else "+"
                omega = float((lam_p if branch == "+" else lam_m).imag)
                if not omega > 0.0:
                    raise DomainError(f"crossing frequency of mode ({r}, {s}) rounds to "
                                      f"{omega!r}: the couplings are too large against b")
                crossing.append((r, s, branch, omega))
    except DomainError as exc:
        return str(exc)
    crossing.sort(key=lambda m: (-m[3], m[0], m[1]))
    syms = {m[:2]: predict_hopf_symmetries(m[:2], n).fixing for m in crossing}
    return a_star, [m[:3] + (np.float64(m[3]).tobytes(),) for m in crossing], syms


def critical_lattices(count, seed):
    """count seeded c = 0 lattices: N an odd prime up to 23, the four sign
    patterns in turn, b in [0.2, 3], and each coupling's modulus in
    [0.05, 3] or, at even odds, log-uniform in [1e100, 1e308]; every
    seventh has gamma = delta, whose mixed crossing modes have symbols
    near 0."""
    rng = np.random.default_rng(seed)
    sizes = (3, 5, 7, 11, 13, 17, 19, 23)
    signs = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
    for k in range(count):
        mod = [10.0 ** rng.uniform(100.0, 308.0) if rng.random() < 0.5
               else rng.uniform(0.05, 3.0) for _ in range(2)]
        gamma, delta = (sg * m for sg, m in zip(signs[k % 4], mod))
        yield LatticeParams(n=int(rng.choice(sizes)), a=float(rng.uniform(-1.0, 1.0)),
                            b=float(rng.uniform(0.2, 3.0)), c=0.0, gamma=float(gamma),
                            delta=float(gamma if k % 7 == 0 else delta))


class TestCriticalAFromOneGrid:
    def test_matches_the_per_mode_loop(self):
        refused = 0
        for lp in critical_lattices(3000, 45):
            want = per_mode_critical(lp)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateCouplingWarning)
                try:
                    cp = critical_a(lp)
                except DomainError as exc:
                    assert str(exc) == want, lp
                    refused += 1
                    continue
            a_star, crossing, syms = want
            assert np.float64(cp.a_star).tobytes() == np.float64(a_star).tobytes(), lp
            assert [(m.r, m.s, m.branch, np.float64(m.omega).tobytes())
                    for m in cp.crossing] == crossing, lp
            assert cp.mode_symmetries == syms, lp
            assert cp.predicted_K == syms[crossing[0][:2]], lp
        assert 500 <= refused <= 2500  # both outcomes are exercised

    def test_one_grid_and_one_root_call(self, monkeypatch):
        grids, roots = [], []
        real_grid, real_roots = spectral.symbol_grid, bifurcation._roots

        def grid(lp):
            grids.append(lp.n)
            return real_grid(lp)

        def counted_roots(A, b, c):
            roots.append(np.shape(A))
            return real_roots(A, b, c)

        monkeypatch.setattr(spectral, "symbol_grid", grid)
        monkeypatch.setattr(bifurcation, "_roots", counted_roots)
        for (gamma, delta), count in zip([(1.0, 0.7), (1.0, -0.7), (-1.0, 0.7), (-1.0, -0.7)],
                                         (4, 2, 2, 1)):
            grids.clear()
            roots.clear()
            cp = critical_a(lattice(n=5, gamma=gamma, delta=delta))
            assert len(cp.crossing) == count
            assert grids == [5]
            assert roots == [(count,)]


class TestCrossingFrequencies:
    # At c = 0 and a = a* both roots of a crossing mode sit on the
    # imaginary axis, so the radicand lies on the branch cut up to
    # rounding; omega must not depend on which side rounding picks.
    GRID = [(n, g, d) for n in (3, 5, 7, 23)
            for g in (-1.3, 0.7, 1.0, 1.5) for d in (-0.9, 0.8, 1.2, 2.0)]

    def test_c0_frequencies_positive(self):
        for n, g, d in self.GRID:
            cp = critical_a(lattice(n=n, gamma=g, delta=d))
            assert all(cm.omega > 0.0 for cm in cp.crossing), (n, g, d)

    def test_small_c_crossing_is_c0_primary(self):
        for n, g, d in self.GRID:
            rep = hopf_crossing(lattice(n=n, c=0.02, gamma=g, delta=d))
            assert rep.matches_c0_prediction, (n, g, d)

    def test_branch_label_names_the_root_at_omega(self):
        # first case where rounding puts the '+' root at -i*omega':
        # N=5, gamma=0.2, delta=0.4, primary (3, 3)
        steps = [round(0.2 * k, 1) for k in range(-10, 11) if k != 0]
        for n in (3, 5, 7):
            for g in steps:
                for d in steps:
                    lp = lattice(n=n, gamma=g, delta=d)
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", DegenerateCouplingWarning)
                        cp = critical_a(lp)
                    lp_star = replace(lp, a=cp.a_star)
                    for cm in cp.crossing:
                        lam = analytic_eigenvalues(cm.r, cm.s, lp_star)
                        assert lam["+-".index(cm.branch)].imag == cm.omega, (n, g, d, cm)


class TestStabilityScan:
    def test_bisection_agrees_with_formula(self, rng):
        for gd in [(-1.2, -0.5), (0.8, -1.1), (-0.6, 1.4), (0.9, 1.7)]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cp = critical_a(lattice(gamma=gd[0], delta=gd[1]))
            a_num = locate_stability_loss(
                lattice(gamma=gd[0], delta=gd[1]), cp.a_star - 1.0, cp.a_star + 1.0
            )
            assert abs(a_num - cp.a_star) < 1e-8

    @pytest.mark.parametrize("n", [5, 7, 11])
    def test_formula_holds_on_larger_lattices(self, rng, n):
        for _ in range(3):
            lp = random_lattice(rng, n=n, c_zero=True)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cp = critical_a(lp)
            a_num = locate_stability_loss(lp, cp.a_star - 1.0, cp.a_star + 1.0)
            assert abs(a_num - cp.a_star) < 1e-8

    def test_root_search_needs_at_most_twelve_margins(self, rng, monkeypatch):
        # counted where every margin is evaluated, so that a search that
        # evaluates none cannot pass
        calls = []
        counted = bifurcation._stability_margin

        def counting(lp):
            calls.append(lp.a)
            return counted(lp)

        monkeypatch.setattr(bifurcation, "_stability_margin", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n in (3, 5, 7, 11, 23):
                for c in (0.0, 0.02, 0.05, 0.1):
                    lp = random_lattice(rng, n=n, c_zero=True)
                    lp = replace(lp, c=c, b=max(lp.b, 1.0))
                    cp = critical_a(replace(lp, c=0.0))
                    lo, hi = ((cp.a_star - 1.0, cp.a_star + 1.0) if c == 0.0
                              else (cp.a_star - 1.0, cp.a_star))
                    calls.clear()
                    a_num = locate_stability_loss(lp, lo, hi)
                    assert 3 <= len(calls) <= 12
                    if c == 0.0:
                        assert abs(a_num - cp.a_star) < 1e-8
                    else:
                        margin = origin_stability(replace(lp, a=a_num)).margin
                        assert abs(margin) <= 1e-12

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 0.0)])
    def test_endpoint_of_zero_margin_is_returned(self, lo, hi):
        # the synchronized mode of the (-,-) lattice crosses at a = 0,
        # where the margin is exactly 0
        assert origin_stability(lattice()).margin == 0.0
        assert locate_stability_loss(lattice(), lo, hi) == 0.0

    def test_bracket_error_carries_endpoints(self):
        lp = lattice()
        with pytest.raises(BracketError) as exc:
            locate_stability_loss(lp, 0.5, 1.5)
        err = exc.value
        assert err.a_lo == 0.5 and err.a_hi == 1.5
        assert err.f_lo < 0.0 and err.f_hi < 0.0

    def test_margin_matches_dense_spectrum(self, rng):
        for _ in range(5):
            lp = random_lattice(rng, n=3)
            dense = float(np.max(dense_spectrum(lp).real))
            assert origin_stability(lp).margin == pytest.approx(dense, abs=1e-10)


class TestOriginStability:
    def test_stable_above_critical(self):
        verdict = origin_stability(lattice(a=0.1))
        assert verdict.stable and verdict.margin < 0.0

    def test_unstable_below_critical_with_leading_mode(self):
        verdict = origin_stability(lattice(a=-0.1))
        assert not verdict.stable
        assert verdict.margin == pytest.approx(0.05, abs=1e-12)
        assert {rec.mode for rec in verdict.leading} == {(0, 0)}

    def test_small_positive_c_above_critical(self):
        lp = lattice(a=3.1, c=0.1, gamma=1.0, delta=1.0)
        verdict = origin_stability(lp)
        assert verdict.stable
        assert float(np.max(dense_spectrum(lp).real)) < 0.0


class TestLyapunovCoefficient:
    @pytest.mark.parametrize("b", [0.25, 1.0, 4.0])
    def test_value_is_minus_three_eighths(self, b):
        val = lyapunov_coefficient_sync(CellParams(a=0.0, b=b, c=0.0))
        assert abs(val + 0.375) <= 1e-14

    def test_requires_critical_cell(self):
        with pytest.raises(DomainError):
            lyapunov_coefficient_sync(CellParams(a=0.1, b=1.0, c=0.0))
        with pytest.raises(DomainError):
            lyapunov_coefficient_sync(CellParams(a=0.0, b=1.0, c=0.1))
        with pytest.raises(DomainError):
            lyapunov_coefficient_sync(CellParams(a=0.0, b=0.0, c=0.0))


class TestResonance:
    def test_resonant_coupling_value(self):
        g2 = resonant_coupling(3, 1.0, 2)
        assert g2 == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)
        assert g2 == pytest.approx(0.81649658092772592, abs=1e-16)

    def test_order_below_two_is_refused(self):
        with pytest.raises(DomainError):
            resonant_coupling(3, 1.0, 1)

    @pytest.mark.parametrize("k", [2.5, 2.0, np.float64(3.0), "2"])
    def test_order_not_an_integer_is_refused(self, k):
        # 2.5 gave 1.6139964287134971 at n = 5, and "2" a TypeError
        with pytest.raises(DomainError, match="must be an integer"):
            resonant_coupling(5, 1.0, k)

    def test_numpy_integer_orders_are_accepted(self):
        want = resonant_coupling(5, 1.0, 3)
        assert resonant_coupling(5, 1.0, np.int64(3)) == want
        assert resonant_coupling(5, 1.0, np.int32(3)) == want

    @pytest.mark.parametrize("b", [-1.0, 0.0, math.inf, math.nan])
    def test_b_not_finite_and_positive_is_refused(self, b):
        # b = -1 raised an untyped math domain error, 0 gave a zero
        # coupling and inf an infinite one
        with pytest.raises(DomainError):
            resonant_coupling(3, b, 2)

    @pytest.mark.parametrize("n", [4, 9, 2, 1, 3.0])
    def test_lattice_side_not_an_odd_prime_is_refused(self, n):
        with pytest.raises(LatticeSizeError):
            resonant_coupling(n, 1.0, 2)

    def test_flagged_at_engineered_coupling(self):
        lp = lattice(gamma=resonant_coupling(3, 1.0, 2), delta=-1.0)
        hits = hopf_report_at_critical(lp).resonances
        assert len(hits) == 1
        assert hits[0].k == 2
        assert hits[0].ratio == pytest.approx(2.0, rel=1e-12)

    def test_generic_coupling_clean(self):
        assert hopf_report_at_critical(lattice(gamma=1.0, delta=-1.0)).resonances == ()

    def test_single_crossing_pair_trivially_clean(self):
        assert hopf_report_at_critical(lattice()).resonances == ()

    @pytest.mark.parametrize("report, lp", [
        (hopf_crossing, lattice(n=5, c=0.05, gamma=1.0, delta=0.7)),
        (hopf_report_at_critical, lattice(n=5, gamma=1.0, delta=0.7)),
    ])
    def test_one_critical_point_per_report(self, report, lp, monkeypatch):
        calls = []
        real = bifurcation.critical_a
        monkeypatch.setattr(bifurcation, "critical_a",
                            lambda lp: calls.append(lp) or real(lp))
        rep = report(lp)
        assert len(calls) == 1
        want = bifurcation._resonances(critical_a(replace(lp, c=0.0)).crossing)
        assert rep.resonances == tuple(want)


class TestPsi:
    def test_worked_value(self):
        assert psi(0.05, 1.0, 0.1) == pytest.approx(0.4975, rel=1e-12)

    def test_zero_at_x_equal_c(self):
        assert psi(0.1, 1.0, 0.1) == 0.0

    def test_strictly_decreasing_inside(self):
        xs = np.linspace(0.001 * 0.1, 0.999 * 0.1, 1000)
        vals = np.array([psi(float(x), 1.0, 0.1) for x in xs])
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals > 0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            psi(0.05, 1.0, 0.0)
        with pytest.raises(DomainError):
            psi(0.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            psi(-0.01, 1.0, 0.1)

    @pytest.mark.parametrize("x, b, c", [
        (math.nan, 1.0, 0.1),  # x <= 0 is false for NaN
        (0.05, 1.0, math.inf),
        (math.inf, 1.0, 0.1),
        (0.05, math.nan, 0.1),
        (0.05, -1.0, 0.1),  # gave -0.5025
        (0.05, 0.0, 0.1),
        (0.05, 1.0, math.nan),
    ])
    def test_nonfinite_input_and_nonpositive_b_are_refused(self, x, b, c):
        with pytest.raises(DomainError):
            psi(x, b, c)


class TestHopfCrossing:
    @pytest.mark.parametrize("b", [0.0, -1.0])
    def test_refuses_b_not_positive(self, b):
        with pytest.raises(DomainError, match="b > 0"):
            hopf_crossing(lattice(b=b, c=0.05))

    def test_synchronized_crossing_is_exactly_minus_c(self):
        # the (0, 0) symbol is 0, so beta = 0 and x = c(1 - beta/omega) = c
        for c in (0.01, 0.05, 0.2):
            lp = lattice(c=c)
            rep = hopf_crossing(lp)
            assert rep.mode == (0, 0)
            assert rep.a_hat == -lp.c
            assert rep.a_hat < rep.a_star == 0.0
            assert rep.omega_hopf > 0.0

    def test_s_star_only_for_a_synchronized_crossing(self):
        # (-, -) at N=23: the synchronized mode is the c = 0 primary, but
        # at c = 0.16 the (0, 1) mode crosses first
        assert hopf_crossing(lattice(c=0.05)).s_star == pytest.approx(-0.375, abs=1e-14)
        with pytest.warns(UserWarning, match="departs"):
            rep = hopf_crossing(lattice(n=23, c=0.16))
        assert (rep.mode, rep.pattern) == ((0, 1), ("-", "-"))
        assert rep.s_star is None

    def test_doubly_dissociative_crossing(self):
        lp = lattice(c=0.05, gamma=1.0, delta=0.7)
        rep = hopf_crossing(lp)
        assert rep.mode == (2, 2)
        assert rep.a_hat < rep.a_star
        lp_hat = replace(lp, a=rep.a_hat)
        margins = [rec.eigenvalue.real for rec in spectrum_report(lp_hat)]
        assert max(abs(m) for m in margins if abs(m) <= 1e-10) <= 1e-10
        assert sum(1 for m in margins if abs(m) <= 1e-10) == 2

    def test_gap_shrinks_with_c(self):
        gaps = []
        for c in (0.05, 0.01):
            rep = hopf_crossing(lattice(c=c, gamma=1.0, delta=-1.0))
            gaps.append(abs(rep.a_star - rep.a_hat))
        assert gaps[1] < gaps[0]

    def test_crossing_mode_matches_zero_c_primary(self):
        for gd in [(1.0, -1.0), (-1.0, 1.0), (1.0, 0.7)]:
            rep = hopf_crossing(lattice(c=0.02, gamma=gd[0], delta=gd[1]))
            cp = critical_a(lattice(gamma=gd[0], delta=gd[1]))
            assert rep.mode == cp.primary.mode
            assert rep.matches_c0_prediction

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hopf_crossing(lattice(c=0.0))
        with pytest.raises(DomainError):
            hopf_crossing(lattice(c=-0.1))
        with pytest.raises(DomainError):
            hopf_crossing(lattice(c=1.5, b=1.0))

    def test_overflowing_symbols_are_a_domain_error(self):
        # finite couplings whose symbols overflow, refused with no numpy
        # warning; the synchronized critical point itself stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                hopf_crossing(lattice(n=5, c=0.05, gamma=-1e308, delta=-1e308))
            rep = hopf_crossing(lattice(n=5, c=0.05, gamma=-1e300, delta=-1e300))
        assert rep.mode == (0, 0) and rep.a_hat == -0.05

    def test_warns_when_the_crossing_mode_departs(self):
        # the crossing is exact for any c^2 < b, so the warning follows
        # the mode, not the size of c: at N=23 in (-, -) the (0, 1) mode
        # crosses first from c = 0.156, well below 0.2 sqrt(b)
        with pytest.warns(UserWarning, match=r"mode \(0, 1\) departs .* prediction \(0, 0\)"):
            rep = hopf_crossing(lattice(n=23, c=0.16))
        assert not rep.matches_c0_prediction
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = hopf_crossing(lattice(n=3, c=0.5, b=1.0, gamma=0.3, delta=-0.2))
        assert rep.matches_c0_prediction

    def test_crossing_identity_links_gap_to_frequency(self):
        # y^2 = psi(a* - a_hat) at the crossing, y the imaginary part
        # of the coupling symbol on the crossing mode
        from fhn_torus import coupling_symbol

        lp = lattice(c=0.05, gamma=1.0, delta=0.7)
        rep = hopf_crossing(lp)
        x = rep.a_star - rep.a_hat
        y = coupling_symbol(*rep.mode, replace(lp, a=rep.a_hat)).imag
        assert abs(y * y - psi(x, lp.b, lp.c)) < 1e-8


def searched_crossing(lp):
    """(a_hat, mode, omega) as a search on the spectrum finds them: the
    root of the stability margin on [a* - max(1, 10c), a*], then the
    eigenvalue of largest positive imaginary part within 1e-10 of the
    axis there, the first in grid order among equals."""
    cp = critical_a(replace(lp, c=0.0))
    a_hat = locate_stability_loss(lp, cp.a_star - max(1.0, 10.0 * lp.c), cp.a_star)
    lam_p, lam_m = eigenvalue_grids(replace(lp, a=a_hat))
    hits = [(grid[r, s].imag, (int(r), int(s))) for grid in (lam_p, lam_m)
            for r, s in np.argwhere(np.abs(grid.real) <= 1e-10)
            if grid[r, s].imag > 0.0]
    omega, mode = max(hits, key=lambda hit: hit[0])
    return a_hat, mode, omega


class TestClosedFormCrossing:
    GRID = [(n, g, d, c) for n in (3, 5, 7, 11, 23)
            for g in (-1.7, -0.6, 0.4, 1.0, 2.3)
            for d in (-1.2, -0.3, 0.5, 1.0, 1.4, 2.6)
            for c in (0.02, 0.05, 0.1, 0.2)]

    def test_agrees_with_the_searched_crossing(self):
        # some points of the grid cross on a mode the signs do not predict
        with pytest.warns(UserWarning, match="departs"), warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateCouplingWarning)
            for n, g, d, c in self.GRID:
                lp = lattice(n=n, c=c, gamma=g, delta=d)
                a_hat, mode, omega = searched_crossing(lp)
                rep = hopf_crossing(lp)
                assert rep.mode == mode, (n, g, d, c)
                assert abs(rep.omega_hopf - omega) <= 1e-15 * omega, (n, g, d, c)
                assert abs(rep.a_hat - a_hat) <= 8 * np.spacing(abs(a_hat)), (n, g, d, c)

    def test_exact_ties_go_to_the_smaller_mode(self, monkeypatch):
        # two modes with one symbol cross at one a with one omega
        grid = np.full((3, 3), -5.0 + 0.0j)
        grid[2, 1] = grid[1, 2] = 1.0 + 0.5j
        real = spectral.symbol_grid
        # only the c > 0 lattice whose grid hopf_crossing reads is faked:
        # the c = 0 prediction of critical_a stays the real one
        monkeypatch.setattr(bifurcation, "symbol_grid",
                            lambda lp: grid - lp.a if lp.c > 0.0 else real(lp))
        with pytest.warns(UserWarning, match="departs"):
            assert hopf_crossing(lattice(c=0.05, gamma=1.0, delta=-1.0)).mode == (1, 2)

    @pytest.mark.parametrize("n, g, d", [
        (5, 1.0, 1.0), (3, -1.0, -1.0), (7, 2.3, -0.6), (23, 0.4, 1.4)])
    def test_newton_reaches_the_largest_positive_root(self, n, g, d):
        sigma = symbol_grid(lattice(n=n, gamma=g, delta=d)).ravel()
        if (n, g, d) == (5, 1.0, 1.0):  # (2, 3) has Im sigma = 0 up to rounding
            assert abs(sigma[2 * n + 3].imag) <= 1e-15
        beta = np.abs(sigma.imag)
        for c in (0.02, 0.05, 0.2):
            omega = bifurcation._crossing_frequencies(beta, 1.0, c)
            for bk, w in zip(beta, omega):
                companion = np.array([[bk, 1.0 - c * c, c * c * bk],
                                      [1.0, 0.0, 0.0],
                                      [0.0, 1.0, 0.0]])
                roots = np.linalg.eigvals(companion)
                top = roots[np.argmax(roots.real)]
                assert abs(top.imag) <= 1e-12 * w, (bk, c)
                assert w == pytest.approx(top.real, rel=1e-13), (bk, c)


class TestCriticalityProbe:
    def test_synchronized_branch_is_subcritical(self):
        lp = lattice()
        rep = hopf_report_at_critical(lp)
        assert rep.s_star == pytest.approx(-0.375, abs=1e-14)
        res = branch_criticality_probe(rep, lp)
        assert res.classification == "subcritical"
        below = [r for r in res.runs if r.side == "below"]
        above = [r for r in res.runs if r.side == "above"]
        assert any(r.outcome == "orbit" for r in below)
        assert all(r.outcome == "decay" for r in above)
        assert res.samples and all(da < 0.0 for da, _ in res.samples)

    def test_samples_report_orbit_amplitudes(self):
        lp = lattice()
        rep = hopf_report_at_critical(lp)
        res = branch_criticality_probe(rep, lp)
        amps = dict(res.samples)
        # amplitude grows with the distance below the crossing
        das = sorted(amps)
        assert all(amps[das[i]] >= amps[das[i + 1]] for i in range(len(das) - 1))

    @staticmethod
    def solve_shapes(monkeypatch):
        """The start-state shape of every ``_rk.solve`` call from now on."""
        shapes = []
        real = _rk.solve
        monkeypatch.setattr(_rk, "solve", lambda f, t0, y0, *args, **kw:
                            shapes.append(y0.shape) or real(f, t0, y0, *args, **kw))
        return shapes

    def test_runs_share_one_solve(self, monkeypatch):
        shapes = self.solve_shapes(monkeypatch)
        lp = lattice()
        res = branch_criticality_probe(hopf_report_at_critical(lp), lp,
                                       ProbeSettings(horizon_periods=10.0))
        assert shapes == [(8,)]  # four quotients of one cell end to end
        assert len(res.runs) == 4

    def test_stiff_batch_reruns_each_run_alone(self, monkeypatch):
        shapes = self.solve_shapes(monkeypatch)
        monkeypatch.setattr(_rk, "_MAX_STEPS", 10)
        lp = lattice()
        res = branch_criticality_probe(hopf_report_at_critical(lp), lp)
        assert shapes == [(8,)] + [(2,)] * 4
        assert [(r.side, r.outcome, r.amplitude) for r in res.runs] == (
            [("below", "escape", math.inf)] * 3 + [("above", "escape", math.inf)])
        assert res.classification == "undetermined" and res.samples == ()

    @pytest.mark.parametrize("lp", [lattice(), lattice(n=5, c=0.05, gamma=1.0, delta=-1.0)],
                             ids=["sync", "wave"])
    def test_amplitudes_do_not_depend_on_the_step_sequence(self, lp, monkeypatch):
        # the four runs share one step sequence and a run alone takes its
        # own; maxima over the accepted nodes moved the decay amplitude
        # by 0.6 % between the two
        rep = hopf_report_at_critical(lp) if lp.c == 0.0 else hopf_crossing(lp)
        batched = branch_criticality_probe(rep, lp)
        real = _rk.solve
        K = predict_hopf_symmetries(rep.mode, lp.n).fixing
        q = 2 * len(_cell_classes(K, lp.n)[0])  # quotient slots of one run

        def refuse_batches(f, t0, y0, *args, **kw):
            if np.size(y0) > q:
                raise StiffnessError("batch refused", t=t0)
            return real(f, t0, y0, *args, **kw)

        monkeypatch.setattr(_rk, "solve", refuse_batches)
        alone = branch_criticality_probe(rep, lp)
        assert [r.outcome for r in alone.runs] == [r.outcome for r in batched.runs]
        for r, s in zip(batched.runs, alone.runs):
            assert r.amplitude == pytest.approx(s.amplitude, rel=1e-4)

    def test_wave_probe_memory_peak(self):
        # the batch is kept on the quotient states, never lifted to the
        # lattice, where lifted states would take ~38 MB: 6.3 MB traced
        # while the solver's buffers grew by copies and each run's
        # outcome sampled in one piece, 4.6 MB since
        lp = lattice(n=5, c=0.05, gamma=1.0, delta=-1.0)
        rep = hopf_crossing(lp)
        tracemalloc.start()
        try:
            res = branch_criticality_probe(rep, lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.runs) == 4
        assert peak < 6.0e6


    def test_takes_again_only_steps_of_the_second_half(self, monkeypatch):
        # the escape test reads the nodes and the amplitudes the samples
        # of the last two quarters, so no step that ends by t_end / 2 is
        # taken again
        ends = []  # the end time of each step taken again, over t_end
        retake = _rk._retake

        def recorded(f, ts, ys, fs, hs, s):
            ends.extend(ts[s + 1] / ts[-1])
            return retake(f, ts, ys, fs, hs, s)

        monkeypatch.setattr(_rk, "_retake", recorded)
        lp = lattice(c=0.05, gamma=1.0, delta=-1.0)
        branch_criticality_probe(hopf_crossing(lp), lp)
        assert ends and min(ends) > 0.5

    @pytest.mark.parametrize("lp, want", [
        (lattice(), ProbeResult(
            classification="subcritical",
            samples=((-0.06, 0.3400362310171724), (-0.08, 0.4029690214444758)),
            runs=(ProbeRun(-0.04, "below", "transient", 0.2409155332324938),
                  ProbeRun(-0.06, "below", "orbit", 0.3400362310171724),
                  ProbeRun(-0.08, "below", "orbit", 0.4029690214444758),
                  ProbeRun(0.04, "above", "decay", 8.981636611039594e-06)))),
        (lattice(c=0.05, gamma=1.0, delta=-1.0), ProbeResult(
            classification="supercritical",
            samples=(),
            runs=(ProbeRun(1.4384457046949046, "below", "transient", 0.24532436292647405),
                  ProbeRun(1.4184457046949046, "below", "transient", 3.5927736970745086),
                  ProbeRun(1.3984457046949046, "below", "distant", 3.5671486144857956),
                  ProbeRun(1.5184457046949047, "above", "decay", 1.3188106459104885e-05)))),
    ], ids=["sync", "wave"])
    def test_result_is_pinned_bit_for_bit(self, lp, want, monkeypatch):
        # recorded at the library's rtol, while every run was sampled over
        # its whole length: sampling only the second half leaves every
        # bit of the result, and so does passing the rtol on explicitly
        monkeypatch.setattr(probe, "_PROBE_RTOL", _rk._RTOL)
        rep = hopf_report_at_critical(lp) if lp.c == 0.0 else hopf_crossing(lp)
        assert branch_criticality_probe(rep, lp) == want

    @pytest.mark.parametrize("lp, want", [
        (lattice(), ProbeResult(
            classification="subcritical",
            samples=((-0.06, 0.34003622619454565), (-0.08, 0.40296901748571307)),
            runs=(ProbeRun(-0.04, "below", "transient", 0.24091548151133177),
                  ProbeRun(-0.06, "below", "orbit", 0.34003622619454565),
                  ProbeRun(-0.08, "below", "orbit", 0.40296901748571307),
                  ProbeRun(0.04, "above", "decay", 8.981634922175783e-06)))),
        (lattice(c=0.05, gamma=1.0, delta=-1.0), ProbeResult(
            classification="supercritical",
            samples=(),
            runs=(ProbeRun(1.4384457046949046, "below", "transient", 0.24532431083848968),
                  ProbeRun(1.4184457046949046, "below", "transient", 3.5927817508604876),
                  ProbeRun(1.3984457046949046, "below", "distant", 3.5671484864933642),
                  ProbeRun(1.5184457046949047, "above", "decay", 1.3188105870594477e-05)))),
    ], ids=["sync", "wave"])
    def test_result_is_pinned_bit_for_bit_at_the_probe_rtol(self, lp, want):
        # recorded once at rtol 1e-7; the pins above are the same runs at
        # 1e-9: the same outcomes, amplitudes moved by at most 2.3e-6
        rep = hopf_report_at_critical(lp) if lp.c == 0.0 else hopf_crossing(lp)
        assert branch_criticality_probe(rep, lp) == want

    @pytest.mark.parametrize("lp", [
        *probe_bench_inputs(0), *probe_bench_inputs(1), *probe_bench_inputs(2),
        lattice(), lattice(c=0.05, gamma=1.0, delta=-1.0),
    ], ids=[f"n5-{kind}-seed{s}" for s in range(3) for kind in ("sync", "wave")]
        + ["n3-sync", "n3-wave"])
    def test_outcomes_do_not_depend_on_the_probe_rtol(self, lp, monkeypatch):
        # the outcomes read amplitudes against 10 % and 50 % thresholds
        # and factors of 10; settled amplitudes move by well under 1e-6
        rep = hopf_report_at_critical(lp) if lp.c == 0.0 else hopf_crossing(lp)
        coarse = branch_criticality_probe(rep, lp)
        monkeypatch.setattr(probe, "_PROBE_RTOL", _rk._RTOL)
        fine = branch_criticality_probe(rep, lp)
        assert coarse.classification == fine.classification
        assert [r.outcome for r in coarse.runs] == [r.outcome for r in fine.runs]
        for r, s in zip(coarse.runs, fine.runs):
            if r.outcome in ("orbit", "decay"):
                assert r.amplitude == pytest.approx(s.amplitude, rel=1e-6, abs=0.0)

    def test_only_the_probe_solves_at_its_rtol(self, monkeypatch):
        # (slots, rtol, atol) of every solve
        solves = []
        real = _rk.solve

        def spy(f, t0, y0, t_end, rtol=_rk._RTOL, atol=_rk._ATOL):
            solves.append((np.size(y0), rtol, atol))
            return real(f, t0, y0, t_end, rtol, atol)

        monkeypatch.setattr(_rk, "solve", spy)
        lp = lattice(a=-0.05)
        z0 = np.tile([0.25, 0.0], lp.n * lp.n)
        integrate(z0, lp, 1.0)
        reduced_integrate_fix(IsotropySubgroup.full(lp.n), z0, lp, 1.0)
        library = (_rk._RTOL, _rk._ATOL)
        assert solves == [(18, *library), (2, *library)]
        # a stiff batch: each run is redone alone, and is stiff alone too
        solves.clear()
        monkeypatch.setattr(_rk, "_MAX_STEPS", 10)
        branch_criticality_probe(hopf_report_at_critical(lattice()), lattice())
        tols = (probe._PROBE_RTOL, _rk._ATOL)
        assert solves == [(8, *tols)] + [(2, *tols)] * 4
        assert probe._PROBE_RTOL == 1e-7


class TestProbeSettings:
    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_horizon_that_is_not_positive_and_finite(self, horizon):
        with pytest.raises(DomainError):
            ProbeSettings(horizon_periods=horizon)

    def test_rejects_horizon_without_a_sample_in_each_tail_quarter(self):
        # at h <= 1/64 the grid of 64 times per period is 0 and t_end
        # alone, and numpy refused the empty third quarter untyped
        for horizon in (0.01, 1 / 64):
            with pytest.raises(DomainError, match="more than 1/64"):
                ProbeSettings(horizon_periods=horizon)
        lp = lattice(c=0.05, gamma=1.0, delta=-1.0)
        rep = hopf_crossing(lp)
        for horizon in (np.nextafter(1 / 64, 1.0), 0.02):
            res = branch_criticality_probe(rep, lp, ProbeSettings(horizon_periods=horizon))
            assert len(res.runs) == 4
