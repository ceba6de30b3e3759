"""State layout, vector field and Jacobian assembly."""

import numpy as np
import pytest

from conftest import IN_PLACE_FIELDS, in_place_field, jacobian_at
from fhn_torus import (
    CellParams,
    DimensionMismatchError,
    IsotropySubgroup,
    LatticeParams,
    LatticeSizeError,
    assemble_jacobian_origin,
    from_grids,
    infer_n,
    rhs_cell,
    state_dim,
    to_grids,
)
from fhn_torus.model import _cell_shift, _linear_weights
from fhn_torus.simulate import make_rhs
from fhn_torus.symmetry import _cell_classes


def lattice_field(z, lp):
    """The network vector field at state z (it does not depend on time)."""
    return make_rhs(lp)(0.0, z)


def reference_field(z, lp):
    """``rhs_cell`` on every cell plus the coupling written out: gamma
    times the difference to the successor in the first index, delta to
    the one in the second."""
    x, y = to_grids(z, lp.n)
    dx, dy = rhs_cell((x, y), CellParams(a=lp.a, b=lp.b, c=lp.c))
    dx = (dx + lp.gamma * (x - np.roll(x, -1, axis=0))
          + lp.delta * (x - np.roll(x, -1, axis=1)))
    return from_grids(dx, dy)


def quotient_dim(K, n):
    """State slots of the flow on Fix(K), two per K-orbit of cells."""
    return 2 * len(_cell_classes(K or IsotropySubgroup.trivial(n), n)[0])


def ordered_field(q, lp, K=None):
    """The field on Fix(K), one cell per K-orbit, with each slot's five
    weighted entries summed strictly in table order,
    (((p0 + p1) + p2) + p3) + p4, by elementwise numpy; q has the slot
    axis last and any stack axes before it."""
    n = lp.n
    reps, cls = _cell_classes(K or IsotropySubgroup.trivial(n), n)
    i, j = reps % n, reps // n  # flat cell j*N + i is cell (i, j)
    s1, s2 = cls[j * n + (i + 1) % n], cls[(j + 1) % n * n + i]
    x, y = q[..., 0::2], q[..., 1::2]
    cubic = x * x * (lp.a + 1.0 - x)
    out = np.empty_like(q)
    out[..., 0::2] = ((((lp.gamma + lp.delta - lp.a) * x + -1.0 * y)
                       + -lp.gamma * x[..., s1]) + -lp.delta * x[..., s2]) + 1.0 * cubic
    out[..., 1::2] = (((lp.b * x + -lp.c * y) + 0.0 * x[..., s1])
                      + 0.0 * x[..., s2]) + 0.0 * cubic
    return out


def fd_jacobian(fun, z, h=1e-5):
    """Central finite-difference Jacobian oracle."""
    z = np.asarray(z, dtype=float)
    cols = []
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        cols.append((fun(z + e) - fun(z - e)) / (2.0 * h))
    return np.column_stack(cols)


class TestParams:
    def test_lattice_size_must_be_odd_prime(self):
        for bad in (0, 1, 2, 4, 6, 9, 15):
            with pytest.raises(LatticeSizeError):
                LatticeParams(n=bad, a=0.0, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
        for ok in (3, 5, 7, 11, 13):
            LatticeParams(n=ok, a=0.0, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)

    def test_nonfinite_parameters_rejected(self):
        with pytest.raises(ValueError):
            LatticeParams(n=3, a=np.nan, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
        with pytest.raises(ValueError):
            CellParams(a=0.0, b=np.inf, c=0.0)


class TestLayout:
    def test_state_dim(self):
        assert state_dim(3) == 18
        assert state_dim(5) == 50

    def test_grid_round_trip(self, rng):
        x = rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3))
        z = from_grids(x, y)
        x2, y2 = to_grids(z, 3)
        assert np.array_equal(x, x2)
        assert np.array_equal(y, y2)

    def test_grids_of_different_shapes_are_refused(self):
        with pytest.raises(DimensionMismatchError):
            from_grids(np.zeros((3, 3)), np.zeros((4, 4)))

    def test_flat_order_interleaves_cells(self):
        # cell (i, j) occupies slots 2*(j*n + i) and the one after
        x = np.zeros((3, 3))
        y = np.zeros((3, 3))
        x[1, 2] = 1.0
        y[1, 2] = 2.0
        z = from_grids(x, y)
        p = 2 * (2 * 3 + 1)
        assert z[p] == 1.0 and z[p + 1] == 2.0
        assert np.count_nonzero(z) == 2

    def test_infer_n(self):
        assert infer_n(np.zeros(18)) == 3
        assert infer_n(np.zeros(50)) == 5
        with pytest.raises(DimensionMismatchError):
            infer_n(np.zeros(20))


class TestRhsCell:
    def test_origin_is_equilibrium(self):
        assert rhs_cell((0.0, 0.0), CellParams(a=0.7, b=2.0, c=0.3)) == (0.0, 0.0)

    def test_unit_point(self):
        dx, dy = rhs_cell((1.0, 0.0), CellParams(a=0.0, b=1.0, c=0.0))
        assert dx == 0.0 and dy == 1.0

    def test_second_cubic_root(self):
        # x = a is a root of the cubic, so only the y equation responds
        p = CellParams(a=0.4, b=2.5, c=0.0)
        dx, dy = rhs_cell((0.4, 0.0), p)
        assert dx == pytest.approx(0.0, abs=1e-15)
        assert dy == pytest.approx(p.b * 0.4)


class TestRhsNetwork:
    @pytest.mark.parametrize("K", [None, IsotropySubgroup.cyclic((1, 2), 5)])
    def test_stacked_states_match_row_loop(self, K, rng):
        # same element-wise arithmetic, so a stack of states must give
        # the per-state derivatives bit for bit
        lp = LatticeParams(n=5, a=0.3, b=2.0, c=0.1, gamma=-0.7, delta=1.3)
        rhs = make_rhs(lp, K)
        dim = 50 if K is None else 10
        Z = rng.standard_normal((37, dim))
        ts = np.linspace(0.0, 1.0, 37)
        rows = np.stack([rhs(t, z) for t, z in zip(ts, Z)])
        assert np.array_equal(rhs(ts, Z), rows)

    @pytest.mark.parametrize("K", [None, IsotropySubgroup.cyclic((1, 2), 5)])
    def test_batched_lattices_on_stacked_states_match_column_calls(self, K, rng):
        lps = [LatticeParams(n=5, a=a, b=2.0, c=0.1, gamma=g, delta=1.3)
               for a, g in ((0.3, -0.7), (-0.2, 0.4), (1.1, -1.5))]
        rhs = make_rhs(lps, K)
        dim = 50 if K is None else 10
        ts = np.linspace(0.0, 1.0, 7)
        # a stack of 7 states, lattice j in the j-th block of dim slots of each
        Z = rng.standard_normal((7, 3 * dim))
        got = rhs(ts, Z)
        assert got.shape == (7, 3 * dim)
        for j, lp in enumerate(lps):
            one = make_rhs(lp, K)
            block = slice(j * dim, (j + 1) * dim)
            for q in range(7):
                assert np.array_equal(got[q, block], one(ts[q], Z[q, block]))
        assert np.array_equal(rhs(0.0, Z[0]), got[0])

    @pytest.mark.parametrize("n, K", [(3, None), (5, None), (7, None),
                                      (5, IsotropySubgroup.cyclic((1, 2), 5)),
                                      (5, IsotropySubgroup.cyclic((1, 0), 5)),
                                      (3, IsotropySubgroup.full(3))])
    def test_matches_the_cell_field_plus_coupling(self, n, K, rng):
        # on Fix(K), one cell per K-orbit, the field is that of the
        # lifted state read at the orbits' first cells; Z(1,0) maps a
        # cell's first successor, the full group both, to its own class.
        # One lattice, and three end to end.
        lps = [LatticeParams(n=n, a=a, b=b, c=0.1, gamma=g, delta=1.3)
               for a, b, g in ((0.3, 2.0, -0.7), (-0.2, 0.5, 0.4), (1.1, 1.0, -1.5))]
        reps, cls = _cell_classes(K or IsotropySubgroup.trivial(n), n)
        for batch in (lps[:1], lps):
            rhs = make_rhs(batch if len(batch) > 1 else batch[0], K)
            for q in 1.5 * rng.standard_normal((5, len(batch), 2 * len(reps))):
                got = rhs(0.0, q.reshape(-1)).reshape(q.shape)
                for j, lp in enumerate(batch):
                    z = q[j].reshape(-1, 2)[cls].reshape(-1)
                    want = reference_field(z, lp).reshape(-1, 2)[reps].reshape(-1)
                    assert np.max(np.abs(got[j] - want)) <= 1e-15 * np.max(np.abs(want))

    LP5 = LatticeParams(n=5, a=0.3, b=2.0, c=0.1, gamma=-0.7, delta=1.3)
    SUBGROUPS = [None, IsotropySubgroup.cyclic((1, 2), 5), IsotropySubgroup.full(5)]

    @pytest.mark.parametrize("n, K", [(3, None), (5, None), (7, None),
                                      (5, IsotropySubgroup.cyclic((1, 2), 5)),
                                      (5, IsotropySubgroup.full(5))])
    def test_one_state_is_the_ordered_sum_bit_for_bit(self, n, K, rng):
        # full lattices, the 10-slot Fix(Z(1,2)) quotient and the one-cell
        # Fix(Gamma) quotient, whose 2 slots take the other row sum
        lp = LatticeParams(n=n, a=0.3, b=2.0, c=0.1, gamma=-0.7, delta=1.3)
        rhs = make_rhs(lp, K)
        dim = quotient_dim(K, n)
        for q in 1.5 * rng.standard_normal((20, dim)):
            assert np.array_equal(rhs(0.0, q), ordered_field(q, lp, K))

    def test_batch_is_the_ordered_sum_bit_for_bit(self, rng):
        lps = [LatticeParams(n=5, a=a, b=b, c=0.1, gamma=g, delta=1.3)
               for a, b, g in ((0.3, 2.0, -0.7), (-0.2, 0.5, 0.4), (1.1, 1.0, -1.5))]
        rhs = make_rhs(lps)
        for q in 1.5 * rng.standard_normal((20, 3, 50)):
            want = np.concatenate([ordered_field(block, lp) for block, lp in zip(q, lps)])
            assert np.array_equal(rhs(0.0, q.reshape(-1)), want)

    @pytest.mark.parametrize("K", SUBGROUPS)
    @pytest.mark.parametrize("P", [1, 7, 64])
    def test_stacks_are_the_ordered_sum_bit_for_bit(self, K, P, rng):
        rhs = make_rhs(self.LP5, K)
        dim = quotient_dim(K, 5)
        ts = np.linspace(0.0, 1.0, P)
        Z = rng.standard_normal((P, dim))
        assert np.array_equal(rhs(ts, Z), ordered_field(Z, self.LP5, K))

    @pytest.mark.parametrize("K", SUBGROUPS)
    def test_outputs_never_share_the_kept_buffer(self, K, rng):
        rhs = make_rhs(self.LP5, K)
        dim = quotient_dim(K, 5)
        z1, z2 = rng.standard_normal((2, dim))
        first = rhs(0.0, z1)
        kept = first.copy()
        second = rhs(0.0, z2)
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)
        assert np.array_equal(second, ordered_field(z2, self.LP5, K))

    @pytest.mark.parametrize("name", IN_PLACE_FIELDS)
    def test_in_place_entry_is_the_call_bit_for_bit(self, name, rng):
        # the solver writes a stage input into rhs.state and has rhs.into
        # write the derivative into a stage row; rhs(t, z) is the same
        # arithmetic on a copy of z, returned in a fresh array
        rhs = in_place_field(name)
        dim = len(rhs.state)
        z1, z2 = 1.5 * rng.standard_normal((2, dim))
        first = rhs(0.3, z1)
        kept = first.copy()
        out = np.empty(dim)
        rhs.state[...] = z2
        rhs.into(0.7, out)
        second = rhs(0.7, z2)
        assert np.array_equal(out, second)
        assert np.array_equal(first, kept)
        for got in (first, second):
            assert not np.shares_memory(got, rhs.state)

    @pytest.mark.parametrize("K", [None, IsotropySubgroup.cyclic((1, 0), 3)])
    def test_refuses_what_is_neither_a_state_nor_a_stack(self, K):
        lp = LatticeParams(n=3, a=0.3, b=2.0, c=0.1, gamma=-0.7, delta=1.3)
        dim = quotient_dim(K, 3)
        one, two = make_rhs(lp, K), make_rhs([lp, lp], K)
        # one value, a short state, a stack of short states and a scalar;
        # one lattice's state, the two states as rows, a stack of
        # one-lattice states and a stack of two-lattice states as rows
        for rhs, shape in ((one, (1,)), (one, (dim - 1,)), (one, (4, dim - 1)), (one, ()),
                           (two, (dim,)), (two, (2, dim)), (two, (4, dim)),
                           (two, (4, 2, dim))):
            with pytest.raises(DimensionMismatchError):
                rhs(0.0, np.zeros(shape))
        assert one(0.0, np.zeros(dim)).shape == (dim,)
        assert one(np.zeros(4), np.zeros((4, dim))).shape == (4, dim)
        assert two(0.0, np.zeros(2 * dim)).shape == (2 * dim,)
        assert two(np.zeros(4), np.zeros((4, 2 * dim))).shape == (4, 2 * dim)

    def test_zero_state_fixed(self):
        lp = LatticeParams(n=3, a=0.5, b=1.0, c=0.2, gamma=-1.0, delta=0.5)
        assert np.array_equal(lattice_field(np.zeros(18), lp), np.zeros(18))

    def test_synchronized_replicates_single_cell(self, rng):
        lp = LatticeParams(n=5, a=0.3, b=2.0, c=0.1, gamma=-0.7, delta=1.3)
        xv, yv = rng.standard_normal(2)
        z = np.empty(50)
        z[0::2] = xv
        z[1::2] = yv
        dx, dy = rhs_cell((xv, yv), CellParams(a=lp.a, b=lp.b, c=lp.c))
        out = lattice_field(z, lp)
        assert np.allclose(out[0::2], dx, rtol=0.0, atol=1e-14)
        assert np.allclose(out[1::2], dy, rtol=0.0, atol=1e-14)

    def test_single_excited_cell_coupling_stencil(self):
        # gamma couples each cell to its successor in the first index
        lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=1.0, delta=0.0)
        x = np.zeros((3, 3))
        x[0, 0] = 1.0
        z = from_grids(x, np.zeros((3, 3)))
        dx, dy = to_grids(lattice_field(z, lp), 3)
        expected_dx = np.zeros((3, 3))
        expected_dx[0, 0] = 1.0
        expected_dx[2, 0] = -1.0
        expected_dy = np.zeros((3, 3))
        expected_dy[0, 0] = 1.0
        assert np.array_equal(dx, expected_dx)
        assert np.array_equal(dy, expected_dy)

    def test_brute_force_double_loop(self, rng):
        lp = LatticeParams(n=5, a=0.2, b=1.5, c=0.1, gamma=0.8, delta=-0.3)
        z = rng.standard_normal(50)
        x, y = to_grids(z, 5)
        dx = np.empty((5, 5))
        dy = np.empty((5, 5))
        for i in range(5):
            for j in range(5):
                xi = x[i, j]
                dx[i, j] = (
                    xi * (lp.a - xi) * (xi - 1.0)
                    - y[i, j]
                    + lp.gamma * (xi - x[(i + 1) % 5, j])
                    + lp.delta * (xi - x[i, (j + 1) % 5])
                )
                dy[i, j] = lp.b * xi - lp.c * y[i, j]
        assert np.allclose(lattice_field(z, lp), from_grids(dx, dy), rtol=0.0, atol=1e-13)


def jacobian_blocks(lp):
    """The 2x2 blocks (D, E, F) of the assembled Jacobian in the rows of
    cell (0, 0): its own, and its coupling to its successors (1, 0) and
    (0, 1)."""
    M = assemble_jacobian_origin(lp)
    return M[:2, :2], M[:2, 2:4], M[:2, 2 * lp.n:2 * lp.n + 2]


class TestJacobianBlocks:
    def test_worked_values(self):
        lp = LatticeParams(n=3, a=1.0, b=2.0, c=3.0, gamma=4.0, delta=5.0)
        D, E, F = jacobian_blocks(lp)
        assert np.array_equal(D, [[8.0, -1.0], [2.0, -3.0]])
        assert np.array_equal(E, [[-4.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(F, [[-5.0, 0.0], [0.0, 0.0]])

    def test_uncoupled_reduces_to_cell_block(self):
        lp = LatticeParams(n=3, a=0.7, b=1.2, c=0.4, gamma=0.0, delta=0.0)
        D, E, F = jacobian_blocks(lp)
        assert np.array_equal(D, [[-0.7, -1.0], [1.2, -0.4]])
        assert not E.any() and not F.any()

    def test_associative_pair(self):
        lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
        D, E, F = jacobian_blocks(lp)
        assert np.array_equal(D, [[-2.0, -1.0], [1.0, 0.0]])
        assert np.array_equal(E, [[1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(F, E)


class TestAssembledJacobian:
    def test_pure_rotation_blocks(self):
        lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=0.0, delta=0.0)
        M = assemble_jacobian_origin(lp)
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.array_equal(M, np.kron(np.eye(9), R))

    def test_matches_finite_differences(self, rng):
        lp = LatticeParams(n=3, a=0.4, b=1.1, c=0.2, gamma=0.3, delta=-0.2)
        M = assemble_jacobian_origin(lp)
        M_fd = fd_jacobian(lambda z: lattice_field(z, lp), np.zeros(18))
        assert np.max(np.abs(M - M_fd)) < 1e-6

    def test_row_structure_against_rhs_linearity(self, rng):
        # the field is linear in y and in the coupling, so M*z equals
        # rhs minus the cellwise cubic remainder
        lp = LatticeParams(n=3, a=0.6, b=2.0, c=0.3, gamma=-0.4, delta=0.9)
        z = 1e-7 * rng.standard_normal(18)
        resid = lattice_field(z, lp) - assemble_jacobian_origin(lp) @ z
        assert np.max(np.abs(resid)) < 1e-12

    @pytest.mark.parametrize("n", [3, 5])
    def test_matrix_free_apply_matches_dense(self, rng, n):
        # the linear weights the field and the spectrum residuals share,
        # applied cell by cell through the two successor gathers, on
        # complex states as the residuals apply them
        lp = LatticeParams(n=n, a=0.4, b=1.1, c=0.2, gamma=0.3, delta=-0.7)
        w = _linear_weights(lp)
        succ_i, succ_j = _cell_shift((1, 0), n), _cell_shift((0, 1), n)
        M = assemble_jacobian_origin(lp)
        dim = 2 * n * n
        for z in rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim)):
            x, y = z[0::2], z[1::2]
            got = np.empty_like(z)
            got[0::2] = w[0] * x + w[1] * y + w[2] * x[succ_i] + w[3] * x[succ_j]
            got[1::2] = w[4] * x + w[5] * y
            want = M @ z
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestJacobianAt:
    def test_origin_matches_assembled(self):
        lp = LatticeParams(n=3, a=0.4, b=1.1, c=0.2, gamma=0.3, delta=-0.2)
        assert np.array_equal(jacobian_at(np.zeros(18), lp), assemble_jacobian_origin(lp))

    def test_synchronized_state(self, rng):
        lp = LatticeParams(n=3, a=0.4, b=1.1, c=0.2, gamma=0.3, delta=-0.2)
        z = np.empty(18)
        z[0::2] = 0.37
        z[1::2] = -0.21
        J = jacobian_at(z, lp)
        J_fd = fd_jacobian(lambda u: lattice_field(u, lp), z)
        assert np.max(np.abs(J - J_fd)) < 1e-6

    def test_random_state_matches_finite_differences(self, rng):
        lp = LatticeParams(n=3, a=-0.3, b=0.7, c=0.05, gamma=1.2, delta=0.4)
        z = rng.standard_normal(18)
        J = jacobian_at(z, lp)
        J_fd = fd_jacobian(lambda u: lattice_field(u, lp), z)
        assert np.max(np.abs(J - J_fd)) < 1e-6
