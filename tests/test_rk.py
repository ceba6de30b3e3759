"""The DOP853 tables, step counters and dense output of ``_rk``, and the
dense output rebuilt from node-only data."""

import math

import numpy as np
import pytest

from fhn_torus import LatticeParams, Trajectory, _rk
from fhn_torus.simulate import make_rhs

LP = LatticeParams(n=3, a=-0.05, b=1.0, c=0.05, gamma=1.0, delta=-1.0)


def rotation(t, y):
    return np.stack([y[1], -y[0]])


class TestTables:
    def test_tables_match_scipy(self):
        pytest.importorskip("scipy")
        from scipy.integrate._ivp import dop853_coefficients as ref

        assert np.array_equal(_rk._C, ref.C)
        for i in range(1, 16):
            assert np.array_equal(_rk._A[i], ref.A[i, :i]), i
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
            assert np.array_equal(w[i, :i], _rk._A[i]), i
            assert not w[i, i:].any(), i
        assert np.array_equal(w[12, :12], _rk._B)
        assert np.array_equal(_rk._E, np.stack([_rk._E5, _rk._E3]))

    def test_row_sums_are_the_nodes(self):
        for i in range(1, 16):
            a = _rk._A[i]
            assert abs(a.sum() - _rk._C[i]) <= 4e-16 * max(1.0, np.abs(a).sum()), i

    @pytest.mark.parametrize("k", range(1, 9))
    def test_weights_integrate_polynomials_to_order_8(self, k):
        # sum_i b_i c_i^(k-1) = 1/k
        terms = _rk._B * _rk._C[:12] ** (k - 1)
        assert abs(terms.sum() - 1.0 / k) <= 4e-16 * np.abs(terms).sum()


class TestStats:
    def test_counters_match_the_run(self):
        calls, states = [0], [0]
        f = make_rhs(LP)

        def counted(t, z):
            # a call on P stacked states evaluates P states
            calls[0] += 1
            states[0] += 1 if z.ndim == 1 else z.shape[-1]
            return f(t, z)

        z0 = 0.3 * np.random.default_rng(3).standard_normal(18)
        ts, _, _, _, stats = _rk.solve(counted, 0.0, z0, 40.0)
        n_acc = stats["accepted"]
        assert n_acc == len(ts) - 1
        assert stats["rhs_evals"] == states[0]
        # the three dense-output stages of a block of steps share calls
        blocks = math.ceil(n_acc / _rk._DENSE_BLOCK)
        assert blocks > 1
        assert calls[0] == states[0] - 3 * n_acc + 3 * blocks
        assert set(stats) == {"accepted", "rejected", "rhs_evals"}

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
            z0 = 0.3 * rng.standard_normal((18, 3))
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
        tb, yb, fb, kb, sb = _rk.solve(make_rhs([LP] * 3), 0.0,
                                       np.repeat(z0[:, None], 3, axis=1), 30.0)
        tq = np.linspace(0.0, 30.0, 777)
        want = Trajectory(ts, ys, fs, ks, stats).sample(tq)
        got = Trajectory(tb, yb, fb, kb, sb).sample(tq)
        for j in range(3):
            assert np.array_equal(got[:, :, j], want)


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
        fs, ks = _rk.dense_from_nodes(lambda t, y: dp(t) * np.ones_like(y), ts, ys)
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
