"""The DOP853 tables, step counters and dense output of ``_rk``, and the
dense output rebuilt from node-only data."""

import cProfile
import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import IN_PLACE_FIELDS, in_place_field
from fhn_torus import (DomainError, IsotropySubgroup, LatticeParams, Trajectory, _rk,
                       detect_periodic_orbit, fix_projection, reduced_integrate_fix,
                       simulate)
from fhn_torus.cli import _initial_state
from fhn_torus.simulate import make_rhs

LP = LatticeParams(n=3, a=-0.05, b=1.0, c=0.05, gamma=1.0, delta=-1.0)
# three N=3 lattices, one block-diagonal lattice of 54 slots
THREE = [LatticeParams(n=3, a=a, b=1.0, c=0.05, gamma=1.0, delta=-1.0)
         for a in (-0.1, -0.05, 0.3)]


def rotation(t, y):
    return np.stack([y[..., 1], -y[..., 0]], axis=-1)


def arrays(sol):
    """A solution's four arrays, in the order of its fields."""
    return sol.times, sol.states, sol.derivs, sol.dense


def one_shot_dense_eval(ts, ys, fs, ks, tq):
    """``Trajectory.sample``'s formula on all queries at once, as it stood
    before the queries went in blocks: the oracle of the blocked one."""
    t = np.clip(np.atleast_1d(np.asarray(tq, dtype=float)), ts[0], ts[-1])
    idx = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
    h = ts[idx + 1] - ts[idx]
    s = ((t - ts[idx]) / h)[:, None]
    h = h[:, None]
    s1 = 1.0 - s
    out = ks[idx, 3]
    out *= s
    for j, w in ((2, s1), (1, s), (0, s1)):
        out += ks[idx, j]
        out *= w
    ydiff = ys[idx + 1]
    ydiff -= ys[idx]
    bspl = fs[idx]
    bspl *= h
    bspl -= ydiff
    r4 = fs[idx + 1]
    r4 *= -h
    r4 += ydiff
    r4 -= bspl
    out += r4
    out *= s
    out += bspl
    out *= s1
    out += ydiff
    out *= s
    out += ys[idx]
    return out if np.ndim(tq) else out[0]


class TestTables:
    def test_tables_match_scipy(self):
        pytest.importorskip("scipy")
        from scipy.integrate._ivp import dop853_coefficients as ref

        assert np.array_equal(_rk._C, ref.C)
        assert np.array_equal(_rk._A, ref.A)
        assert np.array_equal(_rk._B, ref.B)
        assert np.array_equal(_rk._E5, ref.E5[:12]) and ref.E5[12] == 0.0
        assert np.array_equal(_rk._E3, ref.E3[:12]) and ref.E3[12] == 0.0
        assert np.array_equal(_rk._D, ref.D)

    def test_step_weights_hold_the_stage_rows(self):
        # the rows ``solve`` scales by h, after its column of ones: the
        # a_ij of each stage input, then zeros, and the b_j in row 12
        w = _rk._A_STEP
        assert w.shape == (13, 13)
        for i in range(13):
            assert np.array_equal(w[i, :i], _rk._A[i, :i]), i
            assert not w[i, i:].any(), i
        assert np.array_equal(w[12, :12], _rk._B)
        assert np.array_equal(_rk._E, np.stack([_rk._E5, _rk._E3]))

    def test_row_sums_are_the_nodes(self):
        for i in range(1, 16):
            a = _rk._A[i, :i]
            assert abs(a.sum() - _rk._C[i]) <= 4e-16 * max(1.0, np.abs(a).sum()), i

    @pytest.mark.parametrize("k", range(1, 9))
    def test_weights_integrate_polynomials_to_order_8(self, k):
        # sum_i b_i c_i^(k-1) = 1/k
        terms = _rk._B * _rk._C[:12] ** (k - 1)
        assert abs(terms.sum() - 1.0 / k) <= 4e-16 * np.abs(terms).sum()


def old_error(h, e):
    """``_rk._error`` as array arithmetic, the formula it must match."""
    s5, s3 = np.add.reduce(e * e, axis=-1).T
    den = s5 + 0.01 * s3
    r = h * s5 / np.sqrt((den + (den == 0.0)) * e.shape[-1])
    return float(np.max(r))


# an N=3 lattice, one cell, the synchronized and the wave probe's four
# quotients end to end, an N=5 lattice and a state larger than any caller runs
ERROR_SHAPES = [(2, 18), (2, 2), (2, 8), (2, 40), (2, 50), (2, 1000)]


class TestError:
    @pytest.mark.parametrize("shape", ERROR_SHAPES)
    def test_matches_the_array_formula_bit_for_bit(self, shape, rng):
        for _ in range(50):
            e = rng.standard_normal(shape) * np.exp(rng.uniform(-25.0, 5.0, shape))
            h = float(np.exp(rng.uniform(-12.0, 1.0)))
            err = _rk._error(h, e)
            assert type(err) is float and err == old_error(h, e)

    @pytest.mark.parametrize("shape", ERROR_SHAPES)
    def test_zero_denominator_stands_for_one(self, shape, rng):
        e = np.zeros(shape)
        assert _rk._error(0.5, e) == old_error(0.5, e) == 0.0
        # a zero 5th-order estimate next to a nonzero 3rd-order one
        e[1] = rng.standard_normal(shape[1])
        assert _rk._error(0.5, e) == old_error(0.5, e) == 0.0

    @pytest.mark.parametrize("shape", ERROR_SHAPES)
    @pytest.mark.parametrize("row", [0, -1])
    def test_nan_estimate_rejects(self, shape, row, rng):
        # a NaN in the 5th-order (row 0) or the 3rd-order estimate (row -1)
        e = 1e-3 * rng.standard_normal(shape)
        e[row, -1] = np.nan
        err = _rk._error(0.1, e)
        assert math.isnan(err) and math.isnan(old_error(0.1, e))
        assert not err <= 1.0


def start(batch, seed):
    """A start for one N=3 lattice, or for ``batch`` of them end to end."""
    return 0.3 * np.random.default_rng(seed).standard_normal(18 * (batch or 1))


class TestSolverContract:
    """f sees y0's shape, or a stack of P states of it, and nothing else."""

    @pytest.mark.parametrize("batch", [None, 3])
    def test_states_and_stacks_of_the_start_shape(self, batch):
        z0 = start(batch, 3)
        rhs = make_rhs(LP if batch is None else [LP] * batch)
        seen = []

        def checked(t, z):
            assert z.shape == z0.shape or z.shape == (len(z),) + z0.shape, z.shape
            assert np.shape(t) == z.shape[:z.ndim - z0.ndim]
            seen.append(z.ndim - z0.ndim)
            return rhs(t, z)

        ts, ys, fs, ks = arrays(_rk.solve(checked, 0.0, z0, 10.0))
        assert set(seen) == {0, 1}
        assert ys.shape == fs.shape == (len(ts),) + z0.shape
        assert ks.shape == (len(ts) - 1, 4) + z0.shape
        seen.clear()
        _, _, got_fs, got_ks = arrays(_rk.dense_from_nodes(checked, ts, ys))
        assert set(seen) == {1}
        assert np.array_equal(got_fs, fs) and got_ks.shape == ks.shape

    @pytest.mark.parametrize("name", IN_PLACE_FIELDS)
    def test_in_place_and_plain_fields_give_the_same_run(self, name):
        # make_rhs's field is stepped in place through rhs.state and
        # rhs.into; a plain function has neither and goes through the
        # solver's adapter, which calls it and copies the result
        rhs = in_place_field(name)
        z0 = 0.3 * np.random.default_rng(5).standard_normal(len(rhs.state))
        direct = _rk.solve(rhs, 0.0, z0, 40.0)
        plain = _rk.solve(lambda t, z: rhs(t, z), 0.0, z0, 40.0)
        assert direct.stats == plain.stats
        assert direct.stats["accepted"] > _rk._DENSE_BLOCK
        for a, b in zip(arrays(direct), arrays(plain)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(3, 18), (1, 2), (2, 2, 2)])
    def test_refuses_a_state_that_is_not_one_dimensional(self, shape):
        with pytest.raises(DomainError, match=r"shape \(dim,\)"):
            _rk.solve(lambda t, y: -y, 0.0, np.ones(shape), 1.0)


class TestStats:
    @pytest.mark.parametrize("batch", [None, 3])
    def test_counters_match_the_run(self, batch):
        calls, states = [0], [0]
        f = make_rhs(LP if batch is None else [LP] * batch)

        def counted(t, z):
            # one state of y0's shape, or a stack of len(z) of them
            calls[0] += 1
            states[0] += 1 if z.ndim == 1 else len(z)
            return f(t, z)

        z0 = start(batch, 3)
        sol = _rk.solve(counted, 0.0, z0, 40.0)
        ts, stats = sol.times, sol.stats
        n_acc = stats["accepted"]
        assert n_acc == len(ts) - 1
        # the solve calls f on one state at a time: 2 to start, 11 per
        # attempt and the end derivative of each accepted step
        assert stats["rhs_evals"] == states[0] == calls[0]
        assert states[0] == 2 + 11 * (n_acc + stats["rejected"]) + n_acc
        assert set(stats) == {"accepted", "rejected", "rhs_evals"}
        # steps taken again for the interpolant are not counted
        sol.sample(np.linspace(0.0, 40.0, 101))
        assert states[0] > stats["rhs_evals"] and sol.stats == stats

    @pytest.mark.parametrize("batch", [None, 3])
    def test_counters_match_a_quotient_run(self, batch, monkeypatch):
        # the flow on Fix(K), one run through reduced_integrate_fix and
        # several lattices from one start through _quotient_solve, as the
        # criticality probe runs them
        K = IsotropySubgroup.cyclic((1, 2), 5)
        lps = [LatticeParams(n=5, a=a, b=1.0, c=0.05, gamma=1.0, delta=-1.0)
               for a in (-0.1, -0.05, 0.3)]
        calls, states = [0], [0]
        real = simulate.make_rhs

        def counting_make_rhs(lp, K=None):
            f = real(lp, K)

            def counted(t, z):
                calls[0] += 1
                states[0] += 1 if z.ndim == 1 else len(z)
                return f(t, z)

            return counted

        monkeypatch.setattr(simulate, "make_rhs", counting_make_rhs)
        z0 = 0.3 * fix_projection(np.random.default_rng(9).standard_normal(50), K)
        if batch is None:
            stats = reduced_integrate_fix(K, z0, lps[0], 30.0).stats
        else:
            stats = simulate._quotient_solve(K, z0, lps[:batch], 30.0)[1].stats
        assert stats["accepted"] > _rk._DENSE_BLOCK
        assert stats["rhs_evals"] == states[0] == calls[0]

    def test_growing_buffers_keep_every_node(self, monkeypatch):
        z0 = 0.3 * np.random.default_rng(4).standard_normal(18)
        whole = _rk.solve(make_rhs(LP), 0.0, z0, 40.0)
        monkeypatch.setattr(_rk, "_FIRST_CAPACITY", 1)
        grown = _rk.solve(make_rhs(LP), 0.0, z0, 40.0)
        assert grown.stats == whole.stats and whole.stats["accepted"] > 100
        for a, b in zip(arrays(grown), arrays(whole)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("hook", ["settrace", "cprofile"])
    def test_a_tracer_or_a_profiler_changes_no_bit(self, hook):
        # a tracer that reads the frame's locals, as a debugger does,
        # holds a second name for each buffer, and so does cProfile's
        # hook; numpy's reference check then refuses to resize them in
        # place, and they are copied instead.  The `simulate --ic mode`
        # ring wave to t = 100 grows its buffers past their first
        # capacity.
        lp = LatticeParams(n=3, a=1.42, b=1.0, c=0.0, gamma=1.0, delta=-1.0)
        z0 = _initial_state(SimpleNamespace(params=lp, ic="mode", amplitude=1e-3))
        plain = _rk.solve(make_rhs(lp), 0.0, z0, 100.0)
        assert plain.stats["accepted"] > _rk._FIRST_CAPACITY

        def snapshot(frame, event, arg):
            if frame.f_code is _rk.solve.__code__:
                frame.f_locals
                return snapshot
            return None

        if hook == "settrace":
            before = sys.gettrace()
            sys.settrace(snapshot)
            try:
                hooked = _rk.solve(make_rhs(lp), 0.0, z0, 100.0)
            finally:
                sys.settrace(before)
        else:
            profile = cProfile.Profile()
            profile.enable()
            try:
                hooked = _rk.solve(make_rhs(lp), 0.0, z0, 100.0)
            finally:
                profile.disable()
        assert hooked.stats == plain.stats
        for a, b in zip(arrays(hooked), arrays(plain)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("block", [1, 3, 10**9])
    @pytest.mark.parametrize("batch", [False, True])
    def test_dense_block_size_changes_no_bit(self, monkeypatch, block, batch):
        # the steps a sample needs are taken again in chunks of
        # _DENSE_BLOCK: one step at a time, three, or all in one chunk
        rng = np.random.default_rng(8)
        lp = THREE if batch else LP
        z0 = 0.3 * rng.standard_normal(18 * (3 if batch else 1))
        tq = np.sort(rng.uniform(0.0, 40.0, 500))
        whole = _rk.solve(make_rhs(lp), 0.0, z0, 40.0)
        want = whole.sample(tq), whole.dense
        # more steps than a chunk holds, and a part of one
        assert whole.stats["accepted"] % _rk._DENSE_BLOCK and whole.stats["accepted"] > 300
        small = _rk.solve(make_rhs(lp), 0.0, z0, 40.0)
        monkeypatch.setattr(_rk, "_DENSE_BLOCK", block)
        got = small.sample(tq), small.dense
        assert small.stats == whole.stats
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def eager_dense(f, sol):
    """The coefficients of every step of a solve, as the solver computed
    them while it stepped: each accepted step taken again one state at a
    time with the solver's weight rows and f's in-place entry, then the
    three dense-output stages of all of them as one stack."""
    ts, ys, fs, hs = sol.times, sol.states, sol.derivs, sol._sizes
    k = np.empty((len(hs), 16, ys.shape[1]))
    rows = np.empty((14, ys.shape[1]))  # the start state and stages 0-12
    wts = np.zeros((13, 14))
    wts[:, 0] = 1.0
    for p, h in enumerate(hs.tolist()):
        np.multiply(_rk._A_STEP, h, wts[:, 1:])
        rows[0], rows[1] = ys[p], fs[p]
        for i in range(1, 12):
            wts[i, :i + 1].dot(rows[:i + 1], f.state)
            f.into(ts[p] + _rk._C[i] * h, rows[i + 1])
        wts[12, :13].dot(rows[:13], f.state)
        assert np.array_equal(f.state, ys[p + 1])  # the step lands on its node
        k[p, :12], k[p, 12] = rows[1:13], fs[p + 1]
    return _rk._dense_coefficients(f, ys[:-1], ts[:-1], hs, k)


class TestDenseOutput:
    @pytest.mark.parametrize("name", IN_PLACE_FIELDS)
    def test_steps_taken_again_are_the_solvers_bit_for_bit(self, name):
        rhs = in_place_field(name)
        z0 = 0.3 * np.random.default_rng(5).standard_normal(len(rhs.state))
        tq = np.linspace(0.0, 40.0, 2001)
        half = len(tq) // 2
        runs = [_rk.solve(rhs, 0.0, z0, 40.0) for _ in range(3)]
        # all at once, the tail first and the head first, then every step
        tail = runs[1].sample(tq[half:])
        got = [runs[0].sample(tq),
               np.concatenate([runs[1].sample(tq[:half]), tail]),
               np.concatenate([runs[2].sample(tq[:half]), runs[2].sample(tq[half:])])]
        want = eager_dense(rhs, runs[0])
        assert runs[0].stats["accepted"] > _rk._DENSE_BLOCK
        for sol, smp in zip(runs, got):
            assert np.array_equal(smp, got[0])
            assert np.array_equal(sol.dense, want)
            assert np.array_equal(smp, one_shot_dense_eval(*arrays(sol), tq))

    def test_a_solve_never_sampled_takes_no_step_again(self):
        stacked = []  # the states of each stacked call
        f = make_rhs(LP)

        def counted(t, z):
            if z.ndim == 2:
                stacked.append(len(z))
            return f(t, z)

        sol = _rk.solve(counted, 0.0, start(None, 3), 40.0)
        # node-only data: no field call until it is sampled
        nodes = _rk.dense_from_nodes(counted, sol.times, sol.states)
        assert stacked == []
        for traj in (sol, nodes):
            x = traj.slots(slice(0, None, 2))
            assert (traj.final_state.shape, x.states.shape) == ((18,), (len(traj.times), 9))
            assert stacked == []
            # one time inside one step: the derivatives at its two nodes
            # in one call, then its stages 1-11 and 13-15
            traj.sample(20.0)
            assert stacked == [2] + [1] * 14
            x.sample(20.0)
            assert stacked == [2] + [1] * 14
            assert np.count_nonzero(~traj._todo) == 1
            stacked.clear()

    @pytest.mark.parametrize("name", IN_PLACE_FIELDS)
    def test_derivatives_are_the_one_state_fields_bit_for_bit(self, name):
        # read in full after one sample, which computed the derivatives
        # at its step's nodes: all are computed again, _DENSE_BLOCK
        # nodes a call
        rhs = in_place_field(name)
        z0 = 0.3 * np.random.default_rng(5).standard_normal(len(rhs.state))
        sol = _rk.solve(rhs, 0.0, z0, 40.0)
        want = np.array([rhs(t, y) for t, y in zip(sol.times, sol.states)])
        assert len(want) > _rk._DENSE_BLOCK
        x = slice(0, None, 2)
        for traj in (sol, _rk.dense_from_nodes(rhs, sol.times, sol.states)):
            traj.sample(20.0)
            assert np.array_equal(traj.slots(x).derivs, want[:, x])
            assert np.array_equal(traj.derivs, want)

    def test_steps_join_at_the_nodes(self):
        z0 = 0.3 * np.random.default_rng(5).standard_normal(18)
        sol = _rk.solve(make_rhs(LP), 0.0, z0, 40.0)
        ts, ys, _, ks = arrays(sol)
        assert ks.shape == (len(ts) - 1, 4, 18)
        assert np.array_equal(sol.sample(ts[:-1]), ys[:-1])
        for i in range(len(ts) - 1):
            step = slice(i, i + 2)
            one = Trajectory(ts[step], ys[step], sol._field, sol._sizes[i:i + 1])
            ends = one.sample(ts[step])
            assert np.array_equal(ends[0], ys[i])
            assert np.max(np.abs(ends[1] - ys[i + 1])) <= 1e-14 * np.max(np.abs(ys[i + 1]))

    def test_rotation_between_the_nodes(self):
        sol = _rk.solve(rotation, 0.0, np.array([1.0, 0.0]), 50.0)
        tq = np.linspace(0.0, 50.0, 10_000)
        exact = np.stack([np.cos(tq), -np.sin(tq)], axis=1)
        assert np.max(np.abs(sol.sample(tq) - exact)) <= 1e-8
        assert sol.sample(math.pi).shape == (2,)

    @pytest.mark.parametrize("batch", [False, True])
    def test_blocks_are_the_one_shot_formula_bit_for_bit(self, batch):
        rng = np.random.default_rng(12)
        lp = THREE if batch else LP
        z0 = 0.3 * rng.standard_normal(18 * (3 if batch else 1))
        sol = _rk.solve(make_rhs(lp), 0.0, z0, 40.0)
        ts, ys, fs, ks = arrays(sol)
        q = _rk._block_len(ys)
        assert q == _rk._SAMPLE_FLOATS // ys[0].size
        for count in (0, 1, q - 1, q, q + 1, 3 * q + 7):
            # both ends, a node and times between
            tq = np.concatenate(([0.0, 40.0, ts[len(ts) // 2]],
                                 rng.uniform(0.0, 40.0, count)))[:count]
            got = sol.sample(tq)
            assert got.shape == (count,) + ys.shape[1:]
            assert np.array_equal(got, one_shot_dense_eval(ts, ys, fs, ks, tq)), count
        got = sol.sample(17.3)
        assert got.shape == ys.shape[1:]
        assert np.array_equal(got, one_shot_dense_eval(ts, ys, fs, ks, 17.3))

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2)])
    def test_rejects_query_times_of_two_axes(self, shape):
        traj = _rk.solve(make_rhs(LP), 0.0, np.full(18, 0.1), 5.0)
        with pytest.raises(DomainError, match="1-D"):
            traj.sample(np.full(shape, 1.0))


class TestDenseFromNodes:
    @pytest.mark.parametrize("nt, degree", [(2, 3), (3, 5), (4, 7), (9, 7)])
    def test_exact_on_polynomials_of_its_degree(self, nt, degree):
        # y' = p'(t): DOP853's interpolant is of degree 7, so up to
        # degree 7 it gives p back to rounding (3.5e-8 off at degree 8)
        rng = np.random.default_rng(nt)
        ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 0.6, nt - 1))])
        p = np.polynomial.Polynomial(rng.standard_normal(degree + 1))
        dp = p.deriv()
        ys = p(ts)[:, None]
        sol = _rk.dense_from_nodes(lambda t, y: dp(t)[:, None] * np.ones_like(y), ts, ys)
        tq = np.linspace(0.0, ts[-1], 1001)
        got = sol.sample(tq)
        assert np.max(np.abs(got[:, 0] - p(tq))) <= 1e-13 * np.max(np.abs(p(tq)))

    def test_gives_the_nodes_back(self):
        z0 = 0.3 * np.random.default_rng(7).standard_normal(18)
        ts, ys, _, _ = arrays(_rk.solve(make_rhs(LP), 0.0, z0, 40.0))
        sol = _rk.dense_from_nodes(make_rhs(LP), ts, ys)
        assert np.array_equal(sol.sample(ts), ys)

    def test_retakes_the_steps_of_the_solver(self):
        z0 = 0.3 * np.random.default_rng(7).standard_normal(18)
        sol = _rk.solve(make_rhs(LP), 0.0, z0, 40.0)
        ts, ys, fs, ks = arrays(sol)
        again = _rk.dense_from_nodes(make_rhs(LP), ts, ys)
        _, _, got_fs, got_ks = arrays(again)
        assert np.array_equal(got_fs, fs)
        assert got_ks.shape == ks.shape
        # a step whose node times differ by its exact size is the
        # solver's, bit for bit
        exact = np.diff(ts) == sol._sizes
        assert exact.any()
        assert np.array_equal(got_ks[exact], ks[exact])
        tq = np.linspace(0.0, 40.0, 10_000)
        want = sol.sample(tq)
        got = again.sample(tq)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_rotation_between_the_solvers_nodes(self):
        # node-only data, as read back from CSV: the solver's own
        # interpolant, where degree-7 Hermite on four nodes left 1.7e-8
        ts, ys, _, _ = arrays(_rk.solve(rotation, 0.0, np.array([1.0, 0.0]), 50.0))
        sol = _rk.dense_from_nodes(rotation, ts, ys)
        tq = np.linspace(0.0, 50.0, 10_000)
        exact = np.stack([np.cos(tq), -np.sin(tq)], axis=1)
        assert np.max(np.abs(sol.sample(tq) - exact)) <= 1e-8
        assert np.array_equal(sol.sample(ts[:-1]), ys[:-1])

    def test_a_node_close_to_the_last(self):
        # a last step of 1e-9 after steps of about 0.4, as when a run is
        # cut short to end on t_end, is one more short step
        ts = _rk.solve(rotation, 0.0, np.array([1.0, 0.0]), 50.0).times
        ts = np.append(ts, ts[-1] + 1e-9)
        ys = np.stack([np.cos(ts), -np.sin(ts)], axis=1)
        sol = _rk.dense_from_nodes(rotation, ts, ys)
        tq = np.linspace(0.0, ts[-1], 10_000)
        exact = np.stack([np.cos(tq), -np.sin(tq)], axis=1)
        assert np.max(np.abs(sol.sample(tq) - exact)) <= 1e-8

    @pytest.mark.filterwarnings("error")
    def test_refuses_states_the_field_cannot_step(self):
        # the cubic field overflows at these states: refused, with no
        # RuntimeWarning, where a read needs its values, and they stay
        # missing, so a second read is refused too
        traj = _rk.dense_from_nodes(make_rhs(LP), np.arange(5.0), np.full((5, 18), 1e120))
        for read in [lambda: traj.sample(2.5), lambda: traj.derivs, lambda: traj.dense] * 2:
            with pytest.raises(DomainError, match="its values are not finite"):
                read()
        assert traj._todo.all()

    @pytest.mark.filterwarnings("error")
    def test_a_refused_block_spoils_no_block_stored_before_it(self):
        # unit-spaced nodes, finite up to node 64 and past the cubic's
        # range after it: of the two blocks one sample needs, the first
        # is stored before the second is refused, and kept
        calls = []
        f = make_rhs(LP)

        def counted(t, z):
            calls.append(len(z))
            return f(t, z)

        ys = 0.3 * np.random.default_rng(7).standard_normal((200, 18))
        ys[_rk._DENSE_BLOCK + 1:] = 1e120
        ts = np.arange(200.0)
        first = ts[:_rk._DENSE_BLOCK] + 0.5  # one time in each step of the first block
        traj = _rk.dense_from_nodes(counted, ts, ys)
        with pytest.raises(DomainError, match="not finite"):
            traj.sample(np.concatenate([first, first + _rk._DENSE_BLOCK]))
        assert np.flatnonzero(~traj._todo).tolist() == list(range(_rk._DENSE_BLOCK))
        calls.clear()
        got = traj.sample(first)
        assert calls == []
        fresh = _rk.dense_from_nodes(f, ts, ys)
        assert np.array_equal(got, fresh.sample(first))
        assert np.array_equal(traj._dense[:_rk._DENSE_BLOCK], fresh._dense[:_rk._DENSE_BLOCK])

    def test_builds_with_no_field_call(self):
        def field(t, z):
            raise AssertionError("the field was called")

        ts, ys = np.arange(4.0), np.ones((4, 18))
        traj = _rk.dense_from_nodes(field, ts, ys)
        assert traj.times is ts and traj.states is ys
        assert traj.slots(slice(0, None, 2)).states.shape == (4, 9)
        with pytest.raises(AssertionError, match="field was called"):
            traj.sample(1.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", range(5))
    def test_refuses_steps_the_field_cannot_take_again(self, seed):
        # unit-spaced noise rows of an N=11 lattice, as the CLI's
        # defaults read them: the field is finite at every node, but the
        # steps the recurrence search samples overflow when taken again;
        # without the check, detection returns an orbit with a NaN residual
        lp = LatticeParams(n=11, a=0.0, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
        ys = np.random.default_rng(seed).standard_normal((5000, 242))
        traj = _rk.dense_from_nodes(make_rhs(lp), np.arange(5000.0), ys)
        assert np.isfinite(traj.derivs).all()
        # the refused steps stay missing, so a second search is refused too
        for _ in range(2):
            with pytest.raises(DomainError, match="not finite"):
                detect_periodic_orbit(traj)


class TestViews:
    """``Trajectory.slots`` against the hand slicing and the reshape lift
    that the readers of a solution made before the views, bit for bit."""

    TQ = np.linspace(0.0, 20.0, 333)

    @staticmethod
    def hand(sol, pick):
        """The oracle: ``pick`` applied to each array, as each reader
        sliced them; the times are shared."""
        ts, ys, fs, ks = arrays(sol)
        return ts, pick(ys), pick(fs), pick(ks)

    def check(self, view, want):
        for got, ref in zip(arrays(view), want):
            assert got.shape == ref.shape and np.array_equal(got, ref)
        assert np.array_equal(view.sample(self.TQ), one_shot_dense_eval(*want, self.TQ))

    def test_one_coordinate_of_a_one_state_run(self):
        z0 = 0.3 * np.random.default_rng(21).standard_normal(18)
        sol = _rk.solve(make_rhs(LP), 0.0, z0, 20.0)
        col = slice(5, 6)
        view = sol.slots(col)
        self.check(view, self.hand(sol, lambda a: a[..., col]))
        assert np.shares_memory(view.states, sol.states)
        assert view.stats is sol.stats

    def test_x_slots(self):
        z0 = 0.3 * np.random.default_rng(22).standard_normal(18)
        sol = _rk.solve(make_rhs(LP), 0.0, z0, 20.0)
        x = slice(0, None, 2)
        view = sol.slots(x)
        self.check(view, self.hand(sol, lambda a: a[..., x]))
        for v, a in zip(arrays(view), arrays(sol)):
            assert np.shares_memory(v, a)

    def test_lifted_fix_k_run(self):
        K = IsotropySubgroup.cyclic((1, 2), 5)
        lp = LatticeParams(n=5, a=-0.1, b=1.0, c=0.05, gamma=1.0, delta=-1.0)
        z0 = 0.3 * fix_projection(np.random.default_rng(23).standard_normal(50), K)
        cls, sol = simulate._quotient_solve(K, z0, [lp], 20.0)

        def lift(q):
            lead = q.shape[:-1]
            return q.reshape(lead + (-1, 2))[..., cls, :].reshape(lead + (-1,))

        lifted = reduced_integrate_fix(K, z0, lp, 20.0)
        self.check(lifted, self.hand(sol, lift))
        assert all(a.flags.c_contiguous for a in arrays(lifted))
        # the classifier's x slots of the lift, read from the quotient run
        x = slice(0, None, 2)
        self.check(lifted.slots(x), self.hand(sol, lambda q: lift(q)[..., x]))

    def test_lift_copies_no_derivatives_before_they_are_read(self):
        K = IsotropySubgroup.cyclic((1, 2), 5)
        lp = LatticeParams(n=5, a=-0.1, b=1.0, c=0.05, gamma=1.0, delta=-1.0)
        z0 = 0.3 * fix_projection(np.random.default_rng(23).standard_normal(50), K)
        cls, sol = simulate._quotient_solve(K, z0, [lp], 20.0)
        lift = (2 * cls[:, None] + (0, 1)).ravel()
        tracemalloc.start()
        try:
            lifted = sol.slots(lift)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the lifted states alone, and no step taken again
        assert peak <= 1.05 * lifted.states.nbytes
        assert sol._todo.all()
        # the view's sample takes its one step again in the quotient run
        lifted.sample(10.0)
        assert np.count_nonzero(~sol._todo) == 1
        assert np.array_equal(lifted.derivs, sol.derivs[:, lift])

    def test_every_row_of_a_probe_batch(self):
        # four lattices on the quotient of Fix(K), as the criticality
        # probe runs them: one state, run j in the j-th block of q slots
        K = IsotropySubgroup.cyclic((0, 1), 5)
        lps = [LatticeParams(n=5, a=a, b=1.0, c=0.05, gamma=1.0, delta=-1.0)
               for a in (-0.1, -0.05, 0.0, 0.3)]
        z0 = 0.3 * fix_projection(np.random.default_rng(24).standard_normal(50), K)
        sol = simulate._quotient_solve(K, z0, lps, 20.0)[1]
        q = 10  # two slots for each of the five cell classes
        assert sol.states.shape[1] == 4 * q
        for j in range(4):
            run = slice(j * q, (j + 1) * q)
            view = sol.slots(run)
            self.check(view, self.hand(sol, lambda a: a[..., run]))
            assert np.shares_memory(view.dense, sol.dense)
