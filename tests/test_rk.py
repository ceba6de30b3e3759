"""The DOP853 tables, step counters and dense output of ``_rk``, and the
dense output rebuilt from node-only data."""

import math

import numpy as np
import pytest

from fhn_torus import (DomainError, IsotropySubgroup, LatticeParams, Trajectory, _rk,
                       fix_projection, reduced_integrate_fix, simulate)
from fhn_torus.simulate import make_rhs

LP = LatticeParams(n=3, a=-0.05, b=1.0, c=0.05, gamma=1.0, delta=-1.0)


def rotation(t, y):
    return np.stack([y[..., 1], -y[..., 0]], axis=-1)


def one_shot_dense_eval(ts, ys, fs, ks, tq):
    """``dense_eval``'s formula on all queries at once, as it stood
    before the queries went in blocks: the oracle of the blocked one."""
    t = np.clip(np.atleast_1d(np.asarray(tq, dtype=float)), ts[0], ts[-1])
    idx = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
    h = ts[idx + 1] - ts[idx]
    s = _rk._per_state((t - ts[idx]) / h, ys)
    h = _rk._per_state(h, ys)
    s1 = 1.0 - s
    out = ks[idx, ..., 3, :]
    out *= s
    for j, w in ((2, s1), (1, s), (0, s1)):
        out += ks[idx, ..., j, :]
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


# one state, the probe's batch of four, and batches larger than any caller runs
ERROR_SHAPES = [(2, 18), (1, 2, 18), (4, 2, 10), (24, 2, 50), (25, 2, 50), (100, 2, 8)]


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
        if len(shape) == 3 and shape[0] > 1:  # a zero row next to nonzero ones
            e[1:] = rng.standard_normal((shape[0] - 1,) + shape[1:])
            assert _rk._error(0.5, e) == old_error(0.5, e) > 0.0

    @pytest.mark.parametrize("shape", ERROR_SHAPES)
    @pytest.mark.parametrize("row", [0, -1])
    def test_nan_estimate_rejects(self, shape, row, rng):
        e = 1e-3 * rng.standard_normal(shape)
        e[(row,) * (len(shape) - 2) + (1, 3)] = np.nan
        err = _rk._error(0.1, e)
        assert math.isnan(err) and math.isnan(old_error(0.1, e))
        assert not err <= 1.0


class TestSolverContract:
    """f sees y0's shape, or a stack of P states of it, and nothing else."""

    @pytest.mark.parametrize("batch", [None, 3])
    def test_states_and_stacks_of_the_start_shape(self, batch):
        z0 = 0.3 * np.random.default_rng(3).standard_normal((batch or 1, 18))
        z0 = z0[0] if batch is None else z0
        rhs = make_rhs(LP if batch is None else [LP] * batch)
        seen = []

        def checked(t, z):
            assert z.shape == z0.shape or z.shape == (len(z),) + z0.shape, z.shape
            assert np.shape(t) == z.shape[:z.ndim - z0.ndim]
            seen.append(z.ndim - z0.ndim)
            return rhs(t, z)

        ts, ys, fs, ks, _ = _rk.solve(checked, 0.0, z0, 10.0)
        assert set(seen) == {0, 1}
        assert ys.shape == fs.shape == (len(ts),) + z0.shape
        assert ks.shape == (len(ts) - 1,) + z0.shape[:-1] + (4, 18)
        seen.clear()
        got_fs, got_ks = _rk.dense_from_nodes(checked, ts, ys)
        assert set(seen) == {1}
        assert np.array_equal(got_fs, fs) and got_ks.shape == ks.shape


class TestStats:
    @pytest.mark.parametrize("batch", [None, 3])
    def test_counters_match_the_run(self, batch):
        calls, states = [0], [0]
        f = make_rhs(LP if batch is None else [LP] * batch)

        def counted(t, z):
            # one state of y0's shape, or a stack of len(z) of them
            calls[0] += 1
            states[0] += 1 if z.ndim == z0.ndim else len(z)
            return f(t, z)

        z0 = 0.3 * np.random.default_rng(3).standard_normal((batch or 1, 18))
        z0 = z0[0] if batch is None else z0
        ts, _, _, _, stats = _rk.solve(counted, 0.0, z0, 40.0)
        n_acc = stats["accepted"]
        assert n_acc == len(ts) - 1
        assert stats["rhs_evals"] == states[0]
        # the three dense-output stages of a block of steps share calls
        blocks = math.ceil(n_acc / _rk._DENSE_BLOCK)
        assert blocks > 1
        assert calls[0] == states[0] - 3 * n_acc + 3 * blocks
        assert set(stats) == {"accepted", "rejected", "rhs_evals"}

    @pytest.mark.parametrize("batch", [None, 3])
    def test_counters_match_a_quotient_run(self, batch, monkeypatch):
        # the flow on Fix(K), one run through reduced_integrate_fix and
        # a batch through _quotient_solve, as the criticality probe runs it
        K = IsotropySubgroup.cyclic((1, 2), 5)
        lps = [LatticeParams(n=5, a=a, b=1.0, c=0.05, gamma=1.0, delta=-1.0)
               for a in (-0.1, -0.05, 0.3)]
        states = [0]
        real = simulate.make_rhs

        def counting_make_rhs(lp, K=None):
            f = real(lp, K)
            ndim = 1 if isinstance(lp, LatticeParams) else 2  # of one state

            def counted(t, z):
                states[0] += 1 if z.ndim == ndim else len(z)
                return f(t, z)

            return counted

        monkeypatch.setattr(simulate, "make_rhs", counting_make_rhs)
        rng = np.random.default_rng(9)
        z0 = np.stack([0.3 * fix_projection(rng.standard_normal(50), K)
                       for _ in range(batch or 1)])
        if batch is None:
            stats = reduced_integrate_fix(K, z0[0], lps[0], 30.0).stats
        else:
            _, (_, _, _, _, stats) = simulate._quotient_solve(K, z0, lps[:batch], 30.0)
        assert stats["accepted"] > _rk._DENSE_BLOCK
        assert stats["rhs_evals"] == states[0]

    def test_growing_buffers_keep_every_node(self, monkeypatch):
        z0 = 0.3 * np.random.default_rng(4).standard_normal(18)
        whole = _rk.solve(make_rhs(LP), 0.0, z0, 40.0)
        monkeypatch.setattr(_rk, "_FIRST_CAPACITY", 1)
        grown = _rk.solve(make_rhs(LP), 0.0, z0, 40.0)
        assert grown[4] == whole[4] and whole[4]["accepted"] > 100
        for a, b in zip(grown[:4], whole[:4]):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("batch", [False, True])
    def test_dense_block_size_changes_no_bit(self, monkeypatch, block, batch):
        rng = np.random.default_rng(8)
        if batch:
            lp = [LatticeParams(n=3, a=a, b=1.0, c=0.05, gamma=1.0, delta=-1.0)
                  for a in (-0.1, -0.05, 0.3)]
            z0 = 0.3 * rng.standard_normal((3, 18))
        else:
            lp, z0 = LP, 0.3 * rng.standard_normal(18)
        whole = _rk.solve(make_rhs(lp), 0.0, z0, 40.0)
        # several full blocks and a part of one
        assert whole[4]["accepted"] % _rk._DENSE_BLOCK and whole[4]["accepted"] > 300
        monkeypatch.setattr(_rk, "_DENSE_BLOCK", block)
        small = _rk.solve(make_rhs(lp), 0.0, z0, 40.0)
        assert small[4] == whole[4]
        for a, b in zip(small[:4], whole[:4]):
            assert np.array_equal(a, b)


class TestDenseOutput:
    def test_steps_join_at_the_nodes(self):
        z0 = 0.3 * np.random.default_rng(5).standard_normal(18)
        ts, ys, fs, ks, _ = _rk.solve(make_rhs(LP), 0.0, z0, 40.0)
        assert ks.shape == (len(ts) - 1, 4, 18)
        assert np.array_equal(_rk.dense_eval(ts, ys, fs, ks, ts[:-1]), ys[:-1])
        for i in range(len(ts) - 1):
            step = slice(i, i + 2)
            ends = _rk.dense_eval(ts[step], ys[step], fs[step], ks[i:i + 1], ts[step])
            assert np.array_equal(ends[0], ys[i])
            assert np.max(np.abs(ends[1] - ys[i + 1])) <= 1e-14 * np.max(np.abs(ys[i + 1]))

    def test_rotation_between_the_nodes(self):
        ts, ys, fs, ks, _ = _rk.solve(rotation, 0.0, np.array([1.0, 0.0]), 50.0)
        tq = np.linspace(0.0, 50.0, 10_000)
        exact = np.stack([np.cos(tq), -np.sin(tq)], axis=1)
        assert np.max(np.abs(_rk.dense_eval(ts, ys, fs, ks, tq) - exact)) <= 1e-8
        assert _rk.dense_eval(ts, ys, fs, ks, math.pi).shape == (2,)

    def test_equal_columns_sample_like_the_one_state_run(self):
        z0 = 0.3 * np.random.default_rng(6).standard_normal(18)
        ts, ys, fs, ks, stats = _rk.solve(make_rhs(LP), 0.0, z0, 30.0)
        tb, yb, fb, kb, sb = _rk.solve(make_rhs([LP] * 3), 0.0, np.tile(z0, (3, 1)), 30.0)
        tq = np.linspace(0.0, 30.0, 777)
        want = Trajectory(ts, ys, fs, ks, stats).sample(tq)
        got = Trajectory(tb, yb, fb, kb, sb).sample(tq)
        for j in range(3):
            assert np.array_equal(got[:, j], want)

    @pytest.mark.parametrize("batch", [False, True])
    def test_blocks_are_the_one_shot_formula_bit_for_bit(self, batch):
        rng = np.random.default_rng(12)
        if batch:
            lp = [LatticeParams(n=3, a=a, b=1.0, c=0.05, gamma=1.0, delta=-1.0)
                  for a in (-0.1, -0.05, 0.3)]
            z0 = 0.3 * rng.standard_normal((3, 18))
        else:
            lp, z0 = LP, 0.3 * rng.standard_normal(18)
        ts, ys, fs, ks, _ = _rk.solve(make_rhs(lp), 0.0, z0, 40.0)
        q = _rk._block_len(ys)
        assert q == _rk._SAMPLE_FLOATS // ys[0].size
        for count in (0, 1, q - 1, q, q + 1, 3 * q + 7):
            # both ends, a node and times between
            tq = np.concatenate(([0.0, 40.0, ts[len(ts) // 2]],
                                 rng.uniform(0.0, 40.0, count)))[:count]
            got = _rk.dense_eval(ts, ys, fs, ks, tq)
            assert got.shape == (count,) + ys.shape[1:]
            assert np.array_equal(got, one_shot_dense_eval(ts, ys, fs, ks, tq)), count
        got = _rk.dense_eval(ts, ys, fs, ks, 17.3)
        assert got.shape == ys.shape[1:]
        assert np.array_equal(got, one_shot_dense_eval(ts, ys, fs, ks, 17.3))

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2)])
    def test_rejects_query_times_of_two_axes(self, shape):
        traj = Trajectory(*_rk.solve(make_rhs(LP), 0.0, np.full(18, 0.1), 5.0))
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
        fs, ks = _rk.dense_from_nodes(lambda t, y: dp(t)[:, None] * np.ones_like(y), ts, ys)
        tq = np.linspace(0.0, ts[-1], 1001)
        got = _rk.dense_eval(ts, ys, fs, ks, tq)
        assert np.max(np.abs(got[:, 0] - p(tq))) <= 1e-13 * np.max(np.abs(p(tq)))

    def test_gives_the_nodes_back(self):
        z0 = 0.3 * np.random.default_rng(7).standard_normal(18)
        ts, ys, _, _, _ = _rk.solve(make_rhs(LP), 0.0, z0, 40.0)
        fs, ks = _rk.dense_from_nodes(make_rhs(LP), ts, ys)
        assert np.array_equal(_rk.dense_eval(ts, ys, fs, ks, ts), ys)

    def test_retakes_the_steps_of_the_solver(self):
        z0 = 0.3 * np.random.default_rng(7).standard_normal(18)
        ts, ys, fs, ks, _ = _rk.solve(make_rhs(LP), 0.0, z0, 40.0)
        got_fs, got_ks = _rk.dense_from_nodes(make_rhs(LP), ts, ys)
        assert np.array_equal(got_fs, fs)
        assert got_ks.shape == ks.shape
        tq = np.linspace(0.0, 40.0, 10_000)
        want = _rk.dense_eval(ts, ys, fs, ks, tq)
        got = _rk.dense_eval(ts, ys, got_fs, got_ks, tq)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_rotation_between_the_solvers_nodes(self):
        # node-only data, as read back from CSV: the solver's own
        # interpolant, where degree-7 Hermite on four nodes left 1.7e-8
        ts, ys, _, _, _ = _rk.solve(rotation, 0.0, np.array([1.0, 0.0]), 50.0)
        fs, ks = _rk.dense_from_nodes(rotation, ts, ys)
        tq = np.linspace(0.0, 50.0, 10_000)
        exact = np.stack([np.cos(tq), -np.sin(tq)], axis=1)
        assert np.max(np.abs(_rk.dense_eval(ts, ys, fs, ks, tq) - exact)) <= 1e-8
        assert np.array_equal(_rk.dense_eval(ts, ys, fs, ks, ts[:-1]), ys[:-1])

    def test_a_node_close_to_the_last(self):
        # a last step of 1e-9 after steps of about 0.4, as when a run is
        # cut short to end on t_end, is one more short step
        ts, _, _, _, _ = _rk.solve(rotation, 0.0, np.array([1.0, 0.0]), 50.0)
        ts = np.append(ts, ts[-1] + 1e-9)
        ys = np.stack([np.cos(ts), -np.sin(ts)], axis=1)
        fs, ks = _rk.dense_from_nodes(rotation, ts, ys)
        tq = np.linspace(0.0, ts[-1], 10_000)
        exact = np.stack([np.cos(tq), -np.sin(tq)], axis=1)
        assert np.max(np.abs(_rk.dense_eval(ts, ys, fs, ks, tq) - exact)) <= 1e-8
