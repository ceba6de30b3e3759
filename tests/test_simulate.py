"""Integration, orbit detection, spatio-temporal classification."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fhn_torus import (
    CellParams,
    DimensionMismatchError,
    InvarianceError,
    IsotropySubgroup,
    LatticeParams,
    ModeIndex,
    PeriodicOrbit,
    Trajectory,
    act,
    analytic_eigenvector,
    classify_spatiotemporal,
    critical_a,
    detect_periodic_orbit,
    fix_projection,
    from_grids,
    integrate,
    predict_hopf_symmetries,
    reduced_integrate_fix,
    rhs_cell,
    to_grids,
)
from fhn_torus import _rk
from fhn_torus.symmetry import state_permutation

SYNC = LatticeParams(n=3, a=-0.05, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)


def integrate_cell(p: CellParams, u0, t_end):
    f = lambda t, u: np.asarray(rhs_cell(u, p))
    ts, ys, fs, stats = _rk.solve(f, 0.0, np.asarray(u0, dtype=float), t_end)
    return Trajectory(np.asarray(ts), np.asarray(ys), np.asarray(fs), stats)


def synchronized_state(x, y, n=3):
    z = np.empty(2 * n * n)
    z[0::2] = x
    z[1::2] = y
    return z


@pytest.fixture(scope="module")
def sync_orbit():
    traj = integrate(synchronized_state(0.25, 0.0), SYNC, 400.0)
    orbit = detect_periodic_orbit(traj)
    assert orbit is not None
    return orbit


class TestIntegrate:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            integrate(np.zeros(50), SYNC, 1.0)

    def test_zero_state_stays_zero(self):
        lp = LatticeParams(n=3, a=0.3, b=1.0, c=0.1, gamma=-1.0, delta=-0.5)
        traj = integrate(np.zeros(18), lp, 5.0)
        assert float(np.max(np.abs(traj.states))) == 0.0

    def test_flow_commutes_with_action(self, rng):
        z0 = 0.1 * rng.standard_normal(18)
        g = (1, 2)
        plain = integrate(z0, SYNC, 50.0)
        shifted = integrate(act(g, z0, 3), SYNC, 50.0)
        ts = np.linspace(0.0, 50.0, 201)
        perm = state_permutation(g, 3)
        dev = np.max(np.abs(plain.sample(ts)[:, perm] - shifted.sample(ts)))
        assert dev < 1e-7

    def test_small_orbit_conserves_cell_energy(self):
        # uncoupled cells at the rotation point: b*x^2 + y^2 drifts
        # only through the cubic terms, so at amplitude eps the drift
        # over one period is O(eps^3)
        lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=0.0, delta=0.0)
        eps = 1e-3
        z0 = np.zeros(18)
        z0[0] = eps
        traj = integrate(z0, lp, 2.0 * math.pi)
        ts = np.linspace(0.0, 2.0 * math.pi, 400)
        Z = traj.sample(ts)
        energy = lp.b * Z[:, 0] ** 2 + Z[:, 1] ** 2
        assert float(np.max(np.abs(energy - energy[0]))) <= 10.0 * eps**3

    def test_sample_reproduces_nodes(self, rng):
        traj = integrate(0.1 * rng.standard_normal(18), SYNC, 10.0)
        mid = traj.times[len(traj.times) // 2]
        assert np.allclose(traj.sample(mid), traj.states[len(traj.times) // 2],
                           rtol=0.0, atol=1e-14)
        assert traj.final_state.shape == (18,)
        assert traj.stats["accepted"] == len(traj.times) - 1


class TestDetectPeriodicOrbit:
    def test_equilibrium_gives_none(self):
        lp = LatticeParams(n=3, a=0.3, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
        traj = integrate(synchronized_state(0.05, 0.0), lp, 200.0)
        assert detect_periodic_orbit(traj) is None

    def test_single_cell_period_near_linear_frequency(self):
        traj = integrate_cell(CellParams(a=-0.05, b=1.0, c=0.0), (0.25, 0.0), 400.0)
        orbit = detect_periodic_orbit(traj)
        assert orbit is not None
        assert abs(orbit.period - 2.0 * math.pi) < 0.1 * 2.0 * math.pi
        assert orbit.residual < 1e-6

    def test_synchronized_lattice_matches_single_cell(self, sync_orbit):
        cell = detect_periodic_orbit(
            integrate_cell(CellParams(a=-0.05, b=1.0, c=0.0), (0.25, 0.0), 400.0)
        )
        assert abs(sync_orbit.period - cell.period) / cell.period < 1e-6


class TestClassifySpatiotemporal:
    def test_synchronized_orbit_fully_symmetric(self, sync_orbit):
        sym = classify_spatiotemporal(sync_orbit, SYNC)
        assert sym.spatial.kind == "full"
        assert sym.fixing.kind == "full"
        assert all(v == 0 for v in sym.phase_fractions.values())
        assert sym.unquantized == ()
        assert sym.match_residual < 1e-5

    def test_exact_rotating_wave(self):
        # closed-form wave on the (1, 2) frequency: shifting by g must
        # equal a time shift of (g.k mod N)/N periods
        n, k1, k2, omega = 3, 1, 2, 1.3
        period = 2.0 * math.pi / omega
        ii = np.arange(n)
        gi, gj = np.meshgrid(ii, ii, indexing="ij")
        phase = 2.0 * math.pi * (gi * k1 + gj * k2) / n

        def state(t):
            return from_grids(np.cos(omega * t + phase), np.sin(omega * t + phase))

        def deriv(t):
            return from_grids(
                -omega * np.sin(omega * t + phase), omega * np.cos(omega * t + phase)
            )

        ts = np.linspace(0.0, 3.0 * period, 901)
        traj = Trajectory(
            ts, np.stack([state(t) for t in ts]), np.stack([deriv(t) for t in ts]), {}
        )
        orbit = PeriodicOrbit(period, 0.0, traj.states[0], traj, 0.0)
        lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=1.0, delta=0.7)
        sym = classify_spatiotemporal(orbit, lp)
        assert sym.spatial.kind == "full"
        assert sym.fixing == IsotropySubgroup.cyclic((1, 1), 3)
        assert sym.phase_fractions == {
            (1, 0): Fraction(1, 3),
            (0, 1): Fraction(2, 3),
        }
        assert sym.unquantized == ()
        assert sym.match_residual < 1e-12

    def test_wave_matches_prediction_up_to_orientation(self):
        # the classifier reports the realized wave's shifts; the
        # prediction quotes the canonical orientation, so fractions
        # agree directly or as complements
        pred = predict_hopf_symmetries(IsotropySubgroup.full(3), ModeIndex(2, 1))
        measured = {(1, 0): Fraction(1, 3), (0, 1): Fraction(2, 3)}
        direct = pred.phases == measured
        complement = {
            g: (1 - f) % 1 for g, f in pred.phases.items()
        } == measured
        assert direct or complement
        assert pred.fixing == IsotropySubgroup.cyclic((1, 1), 3)


class TestReducedIntegrateFix:
    def test_full_group_reduction_replicates_cell_flow(self):
        K = IsotropySubgroup.full(3)
        traj = reduced_integrate_fix(K, synchronized_state(0.2, -0.1), SYNC, 30.0)
        xs = traj.states[:, 0::2]
        ys = traj.states[:, 1::2]
        assert float(np.max(xs.max(axis=1) - xs.min(axis=1))) < 1e-12
        assert float(np.max(ys.max(axis=1) - ys.min(axis=1))) < 1e-12
        cell = integrate_cell(CellParams(a=-0.05, b=1.0, c=0.0), (0.2, -0.1), 30.0)
        ts = np.linspace(0.0, 30.0, 101)
        dev = np.max(np.abs(traj.sample(ts)[:, :2] - cell.sample(ts)))
        assert dev < 1e-6

    @pytest.mark.parametrize("n", [3, 5])
    def test_lifted_quotient_flow_matches_full_flow(self, n, rng):
        # every subgroup of Z_N x Z_N for prime N: the whole group, the
        # trivial one and the N+1 cyclic ones
        lp = LatticeParams(n=n, a=-0.05, b=1.0, c=0.02, gamma=0.7, delta=-1.1)
        cyclic = [(1, 0)] + [(k, 1) for k in range(n)]
        subgroups = [IsotropySubgroup.full(n), IsotropySubgroup.trivial(n)]
        subgroups += [IsotropySubgroup.cyclic(g, n) for g in cyclic]
        ts = np.linspace(0.0, 10.0, 201)
        for K in subgroups:
            z0 = fix_projection(0.5 * rng.standard_normal(2 * n * n), K)
            full = integrate(z0, lp, 10.0)
            lifted = reduced_integrate_fix(K, z0, lp, 10.0)
            assert lifted.stats == full.stats
            scale = float(np.max(np.abs(full.states)))
            dev = float(np.max(np.abs(lifted.sample(ts) - full.sample(ts))))
            assert dev <= 1e-9 * scale
            assert _exactly_fixed(lifted.states, K)

    def test_rejects_state_outside_subspace(self, rng):
        K = IsotropySubgroup.cyclic((0, 1), 3)
        with pytest.raises(InvarianceError):
            reduced_integrate_fix(K, rng.standard_normal(18), SYNC, 1.0)
        with pytest.raises(DimensionMismatchError):
            reduced_integrate_fix(K, np.zeros(50), SYNC, 1.0)

    def test_ring_branch_orbit_keeps_predicted_symmetry(self):
        # one-directional coupling: integrate inside the fixed space of
        # the predicted subgroup just below the critical value; the
        # attractor is a ring pattern whose transverse shift carries a
        # third of the period
        lp0 = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=1.0, delta=-1.0)
        cp = critical_a(lp0)
        lp = LatticeParams(
            n=3, a=cp.a_star - 0.08, b=1.0, c=0.0, gamma=1.0, delta=-1.0
        )
        pm = cp.primary
        xi = np.real(analytic_eigenvector(pm.r, pm.s, pm.branch, lp))
        xi /= np.max(np.abs(xi))
        traj = reduced_integrate_fix(cp.predicted_K, 1e-3 * xi, lp, 450.0)
        assert _exactly_fixed(traj.states, cp.predicted_K)
        orbit = detect_periodic_orbit(traj)
        assert orbit is not None
        sym = classify_spatiotemporal(orbit, lp)
        assert sym.fixing == IsotropySubgroup.cyclic((0, 1), 3)
        assert sym.spatial.kind == "full"
        assert sym.phase_fractions[(0, 1)] == 0
        assert sym.phase_fractions[(1, 0)] in (Fraction(1, 3), Fraction(2, 3))
        # rings along the second lattice direction stay synchronized
        x, _ = to_grids(traj.final_state, 3)
        assert float(np.max(x.max(axis=1) - x.min(axis=1))) < 1e-9


def _exactly_fixed(states, K):
    return all(
        np.array_equal(act(g, z, K.n), z) for z in states for g in K.elements()
    )
