"""Integration, orbit detection, spatio-temporal classification."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from fhn_torus import (
    CellParams,
    ClassificationError,
    DimensionMismatchError,
    DomainError,
    InvarianceError,
    IsotropySubgroup,
    StiffnessError,
    LatticeParams,
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
from fhn_torus import simulate
from fhn_torus.cli import _initial_state, parse_and_dispatch
from fhn_torus.symmetry import state_permutation

SYNC = LatticeParams(n=3, a=-0.05, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
N11 = LatticeParams(n=11, a=-0.05, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)


def integrate_cell(p: CellParams, u0, t_end):
    f = lambda t, u: np.stack(rhs_cell((u[..., 0], u[..., 1]), p), axis=-1)
    return _rk.solve(f, 0.0, np.asarray(u0, dtype=float), t_end)


def synchronized_state(x, y, n=3):
    z = np.empty(2 * n * n)
    z[0::2] = x
    z[1::2] = y
    return z


def near_sync_start(n, seed):
    """The start of the benchmark's ``orbit`` workload: x near 0.25 and
    y near 0 in every cell, with noise of 1e-3."""
    rng = np.random.default_rng(seed)
    return from_grids(0.25 + 1e-3 * rng.standard_normal((n, n)),
                      1e-3 * rng.standard_normal((n, n)))


def full_resample_detect(traj):
    """``detect_periodic_orbit`` as it stood while it sampled every
    coordinate of the tail at 4096 times at once: the reference of the
    one that reads the tail's nodes."""
    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    t_cut = t0 + simulate._TRANSIENT_FRACTION * (t1 - t0)
    ts = np.linspace(t_cut, t1, 4096)
    Z = traj.sample(ts)
    spans = Z.max(axis=0) - Z.min(axis=0)
    amp = float(spans.max())
    if amp < 1e-8 * max(1.0, float(np.max(np.abs(Z)))):
        return None
    ref = Z[:, int(np.argmax(spans))]
    centered = ref - ref.mean()
    up = np.nonzero((centered[:-1] <= 0.0) & (centered[1:] > 0.0))[0]
    if len(up) < simulate._MIN_CROSSINGS:
        return None
    frac = -centered[up] / (centered[up + 1] - centered[up])
    t_cross = ts[up] + frac * (ts[1] - ts[0])
    p0 = simulate._median(np.diff(t_cross))
    if not np.isfinite(p0) or p0 <= 0.0:
        return None
    z_a = traj.sample(t_cut)
    period = simulate._golden_min(
        lambda p: float(np.linalg.norm(traj.sample(t_cut + p) - z_a)), 0.75 * p0, 1.25 * p0)
    residual = float(np.max(np.abs(traj.sample(t_cut + period) - z_a))) / amp
    if residual > simulate._REL_THRESHOLD:
        return None
    return PeriodicOrbit(period, t_cut, z_a, traj, residual)


@pytest.fixture(scope="module")
def n11_trajectory():
    """A near-synchronous N=11 run to t = 400, as the benchmark's
    ``orbit`` workload starts at N=7."""
    return integrate(near_sync_start(11, 11), N11, 400.0)


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

    def test_solve_rejects_empty_span(self):
        with pytest.raises(DomainError):
            _rk.solve(lambda t, y: -y, 1.0, np.ones(2), 1.0)

    @pytest.mark.parametrize("t_end, y0, rtol, atol", [
        (math.nan, 1.0, 1e-9, 1e-11),
        (math.inf, 1.0, 1e-9, 1e-11),
        (1.0, math.nan, 1e-9, 1e-11),
        (1.0, math.inf, 1e-9, 1e-11),
        (1.0, 1.0, -1e-9, 1e-11),
        (1.0, 1.0, math.inf, 1e-11),
        (1.0, 1.0, 1e-9, 0.0),
        (1.0, 1.0, 1e-9, math.nan),
    ])
    def test_solve_rejects_input_that_is_not_finite(self, t_end, y0, rtol, atol,
                                                     monkeypatch):
        monkeypatch.setattr(_rk, "_MAX_STEPS", 100)  # fail fast, not hang
        with pytest.raises(DomainError):
            _rk.solve(lambda t, y: -y, 0.0, np.full(2, y0), t_end, rtol=rtol, atol=atol)

    @pytest.mark.parametrize("t0, span", [(0.0, 1e-20), (1e3, 1e-12)])
    def test_solve_rejects_span_below_smallest_step(self, t0, span):
        with pytest.raises(DomainError, match="smallest step"):
            _rk.solve(lambda t, y: -y, t0, np.ones(2), t0 + span)

    def test_solve_accepts_zero_rtol(self):
        ys = _rk.solve(lambda t, y: -y, 0.0, np.ones(2), 1.0, rtol=0.0).states
        assert abs(ys[-1, 0] - math.exp(-1.0)) < 1e-9

    def test_finite_time_blow_up_raises_stiffness_error(self):
        # y' = y^2, y(0) = 1 blows up at t = 1
        with pytest.raises(StiffnessError) as info:
            _rk.solve(lambda t, y: y * y, 0.0, np.ones(1), 2.0)
        assert abs(info.value.t - 1.0) < 1e-6

    @pytest.mark.parametrize("amplitude", [1e100, 1e300])
    def test_start_whose_derivative_overflows_raises_stiffness_error(self, amplitude,
                                                                    monkeypatch):
        # the starting step is 0 (1e100) or NaN (1e300); NaN once made the
        # step loop reject forever at t = 0 (the small budget fails fast)
        monkeypatch.setattr(_rk, "_MAX_STEPS", 100)
        with pytest.raises(StiffnessError, match="underflow") as info:
            integrate(np.full(18, amplitude), SYNC, 5.0)
        assert info.value.t == 0.0

    def test_step_budget_raises_stiffness_error(self, monkeypatch):
        monkeypatch.setattr(_rk, "_MAX_STEPS", 10)
        with pytest.raises(StiffnessError, match="step budget") as info:
            integrate(np.full(18, 0.1), SYNC, 100.0)
        assert 0.0 < info.value.t < 100.0

    def test_memory_peak_of_the_cli_trajectory(self):
        # the ring wave of `simulate --ic mode`, 3181 steps, 2.8 MB of
        # result: 6.4 MB traced before the dense-output stages waited in
        # a block of steps, 5.5 MB while the buffers grew and were
        # trimmed by copies, 3.85 MB in place; the block must stay
        # bounded, not grow with the run (2.8 MB since the solve leaves
        # the dense output to the samples that need it)
        lp = LatticeParams(n=3, a=1.42, b=1.0, c=0.0, gamma=1.0, delta=-1.0)
        z0 = _initial_state(SimpleNamespace(params=lp, ic="mode", amplitude=1e-3))
        tracemalloc.start()
        try:
            traj = integrate(z0, lp, 450.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.stats["accepted"] > 3000
        assert peak <= 3.6e6

    def test_memory_peak_of_the_orbit_input(self):
        # the benchmark's `orbit` run, N=7 to t = 400: 1,199 nodes and
        # 5.65 MB of result, which doubled buffers held in 2,048 rows
        # (1.94 times the result traced); buffers sized from the run's
        # progress hold about 5 % more than the result (1.29 times);
        # 1.01 times since the solve leaves the dense output to the
        # samples, with the coefficients' array allocated, not written,
        # and so the derivatives' array since it leaves them too.
        # Resident, the run grows by its nodes and step sizes alone: the
        # two allocated arrays are not written until they are read.  The
        # first run of a process also grows the heap for its temporaries
        # and raises malloc's mmap threshold (1.95 MB resident for 0.96
        # kept), so a first run, kept alive, comes before the one measured
        lp = LatticeParams(n=7, a=-0.05, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
        z0 = near_sync_start(7, 12)
        first = integrate(z0, lp, 400.0)
        statm = "/proc/self/statm"
        have_statm = os.path.exists(statm)

        def resident():
            with open(statm, encoding="ascii") as fh:
                return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        tracemalloc.start()
        try:
            before = resident() if have_statm else 0
            traj = integrate(z0, lp, 400.0)
            grown = resident() - before if have_statm else 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (traj.times, traj.states, traj._sizes))
        result = sum(a.nbytes for a in (traj.times, traj.states, traj.derivs, traj.dense))
        assert traj.stats["accepted"] > 1000
        assert peak <= 1.4 * result
        if not have_statm:
            pytest.skip("no /proc/self/statm to read resident memory from")
        assert grown <= 1.1 * kept

    def test_sample_rejects_time_outside_range(self, rng):
        traj = integrate(0.1 * rng.standard_normal(18), SYNC, 1.0)
        with pytest.raises(DomainError):
            traj.sample(1.5)

    def test_sample_rejects_nan_times(self, rng):
        traj = integrate(0.1 * rng.standard_normal(18), SYNC, 1.0)
        for tq in (np.nan, np.array([0.2, np.nan, 0.7])):
            with pytest.raises(DomainError):
                traj.sample(tq)
            with pytest.raises(DomainError):
                traj.slots(slice(0, 1)).sample(tq)

    def test_sample_reproduces_nodes(self, rng):
        traj = integrate(0.1 * rng.standard_normal(18), SYNC, 10.0)
        mid = traj.times[len(traj.times) // 2]
        assert np.allclose(traj.sample(mid), traj.states[len(traj.times) // 2],
                           rtol=0.0, atol=1e-14)
        assert traj.final_state.shape == (18,)
        assert traj.stats["accepted"] == len(traj.times) - 1


class TestBatchedSolve:
    """B lattices as one block-diagonal state, lattice j in the j-th
    block of dim slots, on one step sequence."""

    LP5 = LatticeParams(n=5, a=-0.05, b=1.0, c=0.05, gamma=1.0, delta=-1.0)

    @pytest.mark.parametrize("batch", [1])
    def test_equal_columns_are_the_one_state_run_bit_for_bit(self, batch, rng):
        z0 = 0.1 * rng.standard_normal(50)
        one = _rk.solve(simulate.make_rhs(self.LP5), 0.0, z0, 30.0)
        sol = _rk.solve(simulate.make_rhs([self.LP5] * batch), 0.0, z0, 30.0)
        assert sol.stats == one.stats
        for got, want in zip((sol.times, sol.states, sol.derivs, sol.dense),
                             (one.times, one.states, one.derivs, one.dense)):
            assert np.array_equal(got, want)

    def test_columns_with_different_a_match_their_own_runs(self, rng):
        lps = [LatticeParams(n=5, a=a, b=1.0, c=0.05, gamma=1.0, delta=-1.0)
               for a in (-0.1, -0.05, 0.3)]
        z0 = 0.1 * rng.standard_normal((3, 50))
        yb = _rk.solve(simulate.make_rhs(lps), 0.0, z0.reshape(-1), 30.0).states
        for j, lp in enumerate(lps):
            ys = _rk.solve(simulate.make_rhs(lp), 0.0, z0[j], 30.0).states
            # both runs meet rtol 1e-9 per step; their end states sit
            # up to about 1.5e-9 apart at |z| ~ 2.5
            assert np.max(np.abs(yb[-1, 50 * j:50 * (j + 1)] - ys[-1])) < 1e-8

    @pytest.mark.parametrize("shape", [(50,), (1001,)])
    def test_rms_is_the_mean_formula_bit_for_bit(self, shape, rng):
        v = rng.standard_normal(shape) * np.exp(rng.uniform(-30, 30, shape))
        assert _rk._rms(v) == float(np.sqrt(np.mean(v * v)))

    def test_one_column_blowing_up_stops_the_batch(self):
        # y' = y^2 blows up at t = 1/y0: at t = 1 in the second slot,
        # after t_end in the others
        with pytest.raises(StiffnessError) as info:
            _rk.solve(lambda t, y: y * y, 0.0, np.array([0.25, 1.0, -1.0]), 2.0)
        assert abs(info.value.t - 1.0) < 1e-6

    def test_rejects_state_of_three_axes(self):
        with pytest.raises(DomainError):
            _rk.solve(lambda t, y: -y, 0.0, np.ones((2, 2, 2)), 1.0)

    def test_batched_field_rejects_lattices_of_different_size(self):
        with pytest.raises(DimensionMismatchError):
            simulate.make_rhs([self.LP5, SYNC])

    def test_sample_of_a_batch_at_as_many_times_as_slots(self):
        # q == dim: weights of shape (q,) would broadcast along the
        # slot axis instead of the time axis.  f rotates each block's (u, v)
        def f(t, y):
            v = y.reshape(y.shape[:-1] + (-1, 2))
            return np.stack([v[..., 1], -v[..., 0]], axis=-1).reshape(y.shape)

        traj = _rk.solve(f, 0.0, np.array([1.0, 0.0, 0.0, 1.0, 2.0, -1.0]), 3.0)
        tq = np.linspace(0.7, 2.2, 6)
        got = traj.sample(tq)
        assert got.shape == (6, 6)
        for j in range(3):
            block = slice(2 * j, 2 * j + 2)
            assert np.array_equal(got[:, block], traj.slots(block).sample(tq))
        for i, t in enumerate(tq):
            assert np.array_equal(traj.sample(t), got[i])
        assert np.allclose(got[:, 0], np.cos(tq), rtol=0.0, atol=1e-9)

    def test_quotient_batch_checks_every_column(self):
        # every lattice's column starts from the one full state, which
        # must lie in Fix(K); a start per lattice is refused
        K = IsotropySubgroup.full(3)
        z0 = synchronized_state(0.2, -0.1)
        z0[4] += 1e-3
        with pytest.raises(InvarianceError):
            simulate._quotient_solve(K, z0, [SYNC, SYNC], 1.0)
        with pytest.raises(DimensionMismatchError):
            simulate._quotient_solve(K, np.tile(z0, (2, 1)), [SYNC, SYNC], 1.0)


class TestDetectPeriodicOrbit:
    @pytest.mark.parametrize("size", [1, 2, 5, 6, 99, 100])
    def test_median_is_numpy_median_bit_for_bit(self, size, rng):
        for _ in range(20):
            d = rng.standard_normal(size) * np.exp(rng.uniform(-20.0, 20.0, size))
            got = simulate._median(d)
            assert type(got) is float and got == float(np.median(d))
        d[size // 2] = np.nan
        assert math.isnan(simulate._median(d)) and math.isnan(np.median(d))

    @pytest.mark.parametrize("t_end", [400.0, 40.0])
    def test_agrees_with_the_full_resample(self, t_end):
        # the benchmark's N=7 orbit input; to t = 40 the tail holds too
        # few crossings, and to t = 400 an orbit is found.  Crossings
        # read between nodes instead of 4096 samples move only the golden
        # section's first bracket, so the periods agree to its rounding
        lp = LatticeParams(n=7, a=-0.05, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
        traj = integrate(near_sync_start(7, 7), lp, t_end)
        got, want = detect_periodic_orbit(traj), full_resample_detect(traj)
        assert (got is None) == (want is None) == (t_end < 100.0)
        if got is not None:
            assert abs(got.period - want.period) <= 1e-12 * want.period
            assert got.anchor_time == want.anchor_time
            assert np.array_equal(got.anchor_state, want.anchor_state)
            a, b = (classify_spatiotemporal(o, lp) for o in (got, want))
            assert (a.spatial, a.fixing, a.phase_fractions) == \
                (b.spatial, b.fixing, b.phase_fractions)

    def test_memory_peak_at_n11(self, n11_trajectory):
        # the whole resample of the tail, 4096 states of 242 floats, and
        # its temporaries traced 32 MB; by blocks and one coordinate,
        # 1.42 MB; from the tail's nodes, 0.03 MB when this bound was set,
        # 0.08 MB since the steps it samples are taken again
        traj = n11_trajectory
        tracemalloc.start()
        try:
            orbit = detect_periodic_orbit(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert orbit is not None
        assert peak <= 0.2e6

    @pytest.mark.filterwarnings("error")
    def test_a_recurrence_past_the_float_range_is_no_orbit(self):
        # 50 unit-spaced noise rows of an N=3 lattice: the retaken steps
        # are finite, but their distances to the anchor overflow the
        # 2-norm's dot product, with no RuntimeWarning
        lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
        ys = np.random.default_rng(0).standard_normal((50, 18))
        traj = _rk.dense_from_nodes(simulate.make_rhs(lp), np.arange(50.0), ys)
        assert detect_periodic_orbit(traj) is None

    def test_detect_and_classify_take_few_steps_again(self, monkeypatch):
        # the benchmark's `orbit` input: the recurrence search and the
        # classifier's period read the interpolant on a few steps of the
        # tail, and only those are taken again, each block of them in
        # one call for the derivatives at its steps' nodes, a slice of
        # the nodes where the steps are contiguous, else each step's two,
        # then 14 stacked stages
        stacked = []  # the states of each stacked call
        blocks = []  # the steps of each block taken again
        real, retake = simulate.make_rhs, _rk._retake

        def counting_make_rhs(lp, K=None):
            f = real(lp, K)

            def counted(t, z):
                if z.ndim == 2:
                    stacked.append(len(z))
                return f(t, z)

            return counted

        def recorded(f, ts, ys, fs, hs, s):
            blocks.append(s.tolist())
            return retake(f, ts, ys, fs, hs, s)

        monkeypatch.setattr(simulate, "make_rhs", counting_make_rhs)
        monkeypatch.setattr(_rk, "_retake", recorded)
        lp = LatticeParams(n=7, a=-0.05, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
        traj = integrate(near_sync_start(7, 12), lp, 400.0)
        assert stacked == []
        orbit = detect_periodic_orbit(traj)
        assert classify_spatiotemporal(orbit, lp).spatial.kind == "full"
        want = []
        for s in blocks:
            p = len(s)
            want += [p + 1 if s[-1] - s[0] == p - 1 else 2 * p] + [p] * 14
        assert stacked == want
        steps = sorted(i for s in blocks for i in s)
        assert steps == np.flatnonzero(~traj._todo).tolist()
        assert 0 < len(steps) < 0.05 * traj.stats["accepted"]

    def test_classify_input_takes_few_steps_again(self, monkeypatch, tmp_path, capsys):
        # the README's N=3 ring wave read back from CSV: its report
        # samples 90 of the 3,181 steps, and only those are taken again,
        # the check for states the field cannot step included
        path = str(tmp_path / "ring.csv")
        wave = ["--n", "3", "--gamma", "1", "--delta", "-1", "--a", "1.42"]
        assert parse_and_dispatch(["simulate", *wave, "--ic", "mode", "--t-end", "450",
                                   "--format", "csv", "--output", path]) == 0
        rebuilt = []
        real = _rk.dense_from_nodes

        def kept(f, ts, ys):
            rebuilt.append(real(f, ts, ys))
            return rebuilt[-1]

        monkeypatch.setattr(_rk, "dense_from_nodes", kept)
        assert parse_and_dispatch(["classify", "--input", path, *wave]) == 0
        assert '"symmetry": null' not in capsys.readouterr().out
        (traj,) = rebuilt
        taken = np.count_nonzero(~traj._todo)
        assert 0 < taken < 0.05 * len(traj._todo)

    def test_detect_and_classify_leave_numpy_ma_unimported(self):
        # np.median imports numpy.ma, about 20 ms, in every process
        # that calls it first
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from fhn_torus import (LatticeParams, classify_spatiotemporal,\n"
            "                       detect_periodic_orbit, integrate)\n"
            "lp = LatticeParams(n=3, a=-0.05, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)\n"
            "z = np.zeros(18)\n"
            "z[0::2] = 0.25\n"
            "orbit = detect_periodic_orbit(integrate(z, lp, 400.0))\n"
            "classify_spatiotemporal(orbit, lp)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(simulate.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"

    def test_equilibrium_gives_none(self):
        lp = LatticeParams(n=3, a=0.3, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
        traj = integrate(synchronized_state(0.05, 0.0), lp, 200.0)
        assert detect_periodic_orbit(traj) is None

    def test_decayed_tail_gives_none(self):
        # the whole tail lies within 1e-8 of the origin: an equilibrium
        lp = LatticeParams(n=3, a=1.0, b=1.0, c=1.0, gamma=-1.0, delta=-1.0)
        traj = integrate(synchronized_state(0.05, 0.0), lp, 100.0)
        tail = traj.sample(np.linspace(50.0, 100.0, 101))
        assert np.max(np.ptp(tail, axis=0)) < 1e-8
        assert detect_periodic_orbit(traj) is None

    def test_tail_of_fewer_than_five_periods_gives_none(self):
        # the synchronized orbit (period about 6.35) at full amplitude,
        # but the tail of a run to t = 40 holds about three periods
        traj = integrate(synchronized_state(0.25, 0.0), SYNC, 40.0)
        tail = traj.sample(np.linspace(20.0, 40.0, 101))
        assert np.max(np.ptp(tail, axis=0)) > 0.1
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
    @pytest.mark.parametrize("n_orbit, n_lattice", [(3, 5), (5, 3)])
    def test_rejects_an_orbit_of_another_lattice_size(self, n_orbit, n_lattice):
        orbit = wave_orbit(n_orbit, [((1, 2), 1, 1.0)])
        with pytest.raises(DimensionMismatchError):
            classify_spatiotemporal(orbit, wave_lattice(n_lattice))

    def test_rejects_a_constant_orbit(self):
        # the origin is an equilibrium: every sample of the orbit is zero
        traj = integrate(np.zeros(18), SYNC, 10.0)
        orbit = PeriodicOrbit(2.0, 0.0, traj.states[0], traj, 0.0)
        with pytest.raises(ClassificationError, match="zero amplitude"):
            classify_spatiotemporal(orbit, SYNC)

    def test_synchronized_orbit_fully_symmetric(self, sync_orbit):
        sym = classify_spatiotemporal(sync_orbit, SYNC)
        assert sym.spatial.kind == "full"
        assert sym.fixing.kind == "full"
        assert all(v == 0 for v in sym.phase_fractions.values())
        assert sym.match_residual < 1e-5
        assert_symmetry_holds(sync_orbit, sym)

    def test_exact_rotating_wave(self):
        # closed-form wave on the (1, 2) frequency: shifting by g must
        # equal a time shift of (g.k mod N)/N periods
        orbit = wave_orbit(3, [((1, 2), 1, 1.0)])
        sym = classify_spatiotemporal(orbit, wave_lattice(3))
        assert sym.spatial.kind == "full"
        assert sym.fixing == IsotropySubgroup.cyclic((1, 1), 3)
        assert sym.phase_fractions == {
            (1, 0): Fraction(1, 3),
            (0, 1): Fraction(2, 3),
        }
        assert sym.match_residual < 1e-12
        assert_symmetry_holds(orbit, sym)

    def test_cyclic_spatial_group_with_rotating_phase(self):
        # harmonic 1 on (1, 0) and harmonic 2 on (0, 1): a shift g is
        # matched by a time shift only when g.(0,1) = 2 g.(1,0) mod 5,
        # that is on the line through (1, 2), which turns 1/5 of a period
        orbit = wave_orbit(5, [((1, 0), 1, 1.0), ((0, 1), 2, 0.5)])
        sym = classify_spatiotemporal(orbit, wave_lattice(5))
        assert sym.spatial == IsotropySubgroup.cyclic((1, 2), 5)
        assert sym.fixing == IsotropySubgroup.trivial(5)
        assert sym.phase_fractions == {(1, 2): Fraction(1, 5)}
        assert sym.match_residual < 1e-6
        assert_symmetry_holds(orbit, sym)

    def test_cyclic_spatial_group_fixing_pointwise(self):
        # harmonics 1 and 3 on the same frequency (1, 0): only shifts
        # along the second index, which leave every term unchanged
        orbit = wave_orbit(5, [((1, 0), 1, 1.0), ((1, 0), 3, 0.5)])
        sym = classify_spatiotemporal(orbit, wave_lattice(5))
        assert sym.spatial == IsotropySubgroup.cyclic((0, 1), 5)
        assert sym.fixing == sym.spatial
        assert sym.phase_fractions == {(0, 1): Fraction(0)}
        assert sym.match_residual < 1e-6
        assert_symmetry_holds(orbit, sym)

    def test_trivial_spatial_group(self):
        # a third term, harmonic 2 on (1, 1), demands g.(1,1) = g.(0,1),
        # which leaves only the identity
        orbit = wave_orbit(
            5, [((1, 0), 1, 1.0), ((0, 1), 2, 0.5), ((1, 1), 2, 0.5)]
        )
        sym = classify_spatiotemporal(orbit, wave_lattice(5))
        assert sym.spatial == IsotropySubgroup.trivial(5)
        assert sym.fixing == IsotropySubgroup.trivial(5)
        assert sym.phases == {} and sym.phase_fractions == {}
        assert sym.match_residual == 0.0
        assert_symmetry_holds(orbit, sym)

    def test_orbit_over_three_periods_is_classified_on_one(self):
        # the wave is handed over with three times its period, so its
        # transform holds only harmonics 3, 6, ...: it is classified on
        # the least period, where a shift along the first index turns
        # 1/3 of it
        orbit = wave_orbit(3, [((1, 0), 1, 1.0)], reported_periods=3)
        sym = classify_spatiotemporal(orbit, wave_lattice(3))
        assert sym.period == orbit.period / 3
        assert sym.spatial.kind == "full"
        assert sym.phase_fractions == {(1, 0): Fraction(1, 3), (0, 1): Fraction(0)}
        assert sym.fixing == IsotropySubgroup.cyclic((0, 1), 3)
        assert sym.match_residual < 1e-6
        assert_symmetry_holds(orbit, sym)

    def test_fixing_group_from_each_generators_own_shift(self):
        # one harmonic-2 term, so the orbit is handed over with twice its
        # least period: on the least period the shifts along (1, 0) and
        # (0, 1) turn 1/5 of it, while (1, 4), orthogonal to the
        # frequency (1, 1), fixes the orbit at zero shift
        orbit = wave_orbit(5, [((1, 1), 2, 1.0)])
        sym = classify_spatiotemporal(orbit, wave_lattice(5))
        assert sym.period == orbit.period / 2
        assert sym.spatial.kind == "full"
        assert sym.phase_fractions == {(1, 0): Fraction(1, 5), (0, 1): Fraction(1, 5)}
        assert sym.fixing == IsotropySubgroup.cyclic((1, 4), 5)
        assert sym.match_residual < 1e-6
        assert_symmetry_holds(orbit, sym)

    @pytest.mark.parametrize("th", [lambda P: -1e-17, lambda P: -1e-9,
                                    lambda P: P - 1e-17],
                             ids=["hair-below-0", "below-0", "hair-below-P"])
    def test_zero_shift_reads_near_zero(self, sync_orbit, th):
        # every shift of the synchronized orbit is zero; sampled from a
        # hair below its anchor or a hair below one period on, it must
        # read 0, not near P: a phase is q P/N with q an integer
        P = sync_orbit.period
        orbit = PeriodicOrbit(P, sync_orbit.anchor_time + th(P), sync_orbit.anchor_state,
                              sync_orbit.trajectory, sync_orbit.residual)
        sym = classify_spatiotemporal(orbit, SYNC)
        assert sym.spatial.kind == "full" and sym.fixing.kind == "full"
        assert sym.phase_fractions == {(1, 0): Fraction(0), (0, 1): Fraction(0)}
        assert all(abs(v) < P / (2 * SYNC.n) for v in sym.phases.values())
        assert sym.phases == {(1, 0): 0.0, (0, 1): 0.0}

    @pytest.mark.parametrize("rel", [-1e-6, 1e-6])
    def test_period_off_by_a_millionth_still_classifies(self, rel):
        # a period estimate off by 1e-6 relative leaks about 1e-6 of the
        # amplitude into every bin, far below tol: the labels, fractions
        # and the period handed over stay
        exact = wave_orbit(3, [((1, 2), 1, 1.0)])
        orbit = PeriodicOrbit(exact.period * (1.0 + rel), exact.anchor_time,
                              exact.anchor_state, exact.trajectory, 0.0)
        sym = classify_spatiotemporal(orbit, wave_lattice(3))
        assert sym.period == orbit.period
        assert sym.spatial.kind == "full"
        assert sym.fixing == IsotropySubgroup.cyclic((1, 1), 3)
        assert sym.phase_fractions == {(1, 0): Fraction(1, 3), (0, 1): Fraction(2, 3)}
        assert sym.match_residual < 1e-4

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_tolerance_that_is_not_positive_and_finite(self, tol):
        orbit = wave_orbit(3, [((1, 0), 1, 1.0)])
        with pytest.raises(DomainError):
            classify_spatiotemporal(orbit, wave_lattice(3), tol=tol)

    def test_memory_peak_at_n11(self, n11_trajectory):
        # per generator a shifted copy of the sample, its inverse FFT and
        # their difference traced 12.3 MB; one real transform of the x
        # coordinates and its energy, 2.05 MB when this bound was set
        orbit = detect_periodic_orbit(n11_trajectory)
        assert orbit is not None
        tracemalloc.start()
        try:
            sym = classify_spatiotemporal(orbit, N11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sym.spatial.kind == sym.fixing.kind == "full"
        assert peak < 4.1e6

    def test_one_sample_call_and_one_test_per_cyclic_subgroup(self, monkeypatch):
        calls = dict.fromkeys(("perm", "dense", "golden", "rfftn", "ifft"), 0)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        # the N+1 generator tests read one table of the sample's Fourier
        # energy: no permuted copy of the sample, no inverse transform
        monkeypatch.setattr(simulate, "state_permutation",
                            counted("perm", simulate.state_permutation))
        monkeypatch.setattr(Trajectory, "sample", counted("dense", Trajectory.sample))
        monkeypatch.setattr(simulate, "_golden_min",
                            counted("golden", simulate._golden_min))
        for name in ("rfftn", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        orbit = wave_orbit(5, [((1, 0), 1, 1.0), ((0, 1), 2, 0.5)])
        classify_spatiotemporal(orbit, wave_lattice(5))
        assert calls == {"perm": 0, "dense": 1, "golden": 0, "rfftn": 1, "ifft": 0}

    def test_wave_matches_prediction_up_to_orientation(self):
        # the classifier reports the realized wave's shifts; the
        # prediction quotes the orientation it is given, so fractions
        # agree directly or as complements
        pred = predict_hopf_symmetries((2, 1), 3)
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

    def test_rejects_subgroup_of_another_lattice_size(self):
        K = IsotropySubgroup.cyclic((0, 1), 5)
        with pytest.raises(DimensionMismatchError, match="sizes disagree"):
            reduced_integrate_fix(K, np.zeros(18), SYNC, 1.0)

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
        assert_symmetry_holds(orbit, sym)


def _exactly_fixed(states, K):
    return all(
        np.array_equal(act(g, z, K.n), z) for z in states for g in K.elements()
    )


def wave_orbit(n, waves, omega=1.3, reported_periods=1):
    """Closed-form orbit over three periods, sampled at 300 nodes each.

    Each wave ((k1, k2), h, A) adds A cos and A sin of
    h*omega*t + 2*pi*(i*k1 + j*k2)/n to the x and y lattices, so the
    shift g maps it onto itself after h*t/P = g.k/n periods.  The dense
    output is rebuilt from the closed-form time derivative, taken as a
    field of t alone.
    """
    period = 2.0 * math.pi / omega
    ii = np.arange(n)
    gi, gj = np.meshgrid(ii, ii, indexing="ij")
    is_x = np.arange(2 * n * n) % 2 == 0

    def node(t):
        # states and derivatives at the times t, one row each
        t = np.asarray(t)[:, None]
        z = dz = 0.0
        for (k1, k2), h, A in waves:
            grid = 2.0 * math.pi * (gi * k1 + gj * k2) / n
            ph = h * omega * t + from_grids(grid, grid)
            z = z + A * np.where(is_x, np.cos(ph), np.sin(ph))
            dz = dz + A * h * omega * np.where(is_x, -np.sin(ph), np.cos(ph))
        return z, dz

    ts = np.linspace(0.0, 3.0 * period, 901)
    ys = node(ts)[0]
    traj = _rk.dense_from_nodes(lambda t, z: node(t)[1], ts, ys)
    return PeriodicOrbit(reported_periods * period, 0.0, ys[0], traj, 0.0)


def wave_lattice(n):
    """Parameters to classify a closed-form orbit with; only n is read."""
    return LatticeParams(n=n, a=0.0, b=1.0, c=0.0, gamma=1.0, delta=0.7)


def assert_symmetry_holds(orbit, sym, tol=1e-2):
    """O(N^2) check of a classification against the orbit itself.

    Every member g1^e1 g2^e2 of H, at the time shift e1*theta1 +
    e2*theta2 its generators' phases imply, and every member of K, at
    no shift, must map the orbit onto itself within tol times its
    amplitude.  K must be maximal: a member of H whose implied shift is
    a whole number of periods, to 1e-3 of a period, lies in K.
    """
    n, P = sym.spatial.n, sym.period
    traj, t0 = orbit.trajectory, orbit.anchor_time
    ts = t0 + P * np.arange(256) / 256
    Z = traj.sample(ts)
    amp = float(np.max(np.abs(Z - Z.mean(axis=0))))
    gens = list(sym.phases)
    for es in itertools.product(range(n), repeat=len(gens)):
        g = tuple(sum(e * h[c] for e, h in zip(es, gens)) % n for c in (0, 1))
        shift = sum(e * sym.phases[h] for e, h in zip(es, gens))
        moved = traj.sample(t0 + np.mod(ts - t0 + shift, P))
        assert np.max(np.abs(Z[:, state_permutation(g, n)] - moved)) <= tol * amp
        if abs(shift / P - round(shift / P)) <= 1e-3:
            assert sym.fixing.contains(g)
    for g in sym.fixing.elements():
        assert sym.spatial.contains(g)
        assert np.max(np.abs(Z[:, state_permutation(g, n)] - Z)) <= tol * amp
