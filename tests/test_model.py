"""State layout, vector field and Jacobian assembly."""

import numpy as np
import pytest

from fhn_torus import (
    CellParams,
    DimensionMismatchError,
    IsotropySubgroup,
    LatticeParams,
    LatticeSizeError,
    assemble_jacobian_origin,
    from_grids,
    infer_n,
    jacobian_at,
    jacobian_blocks_origin,
    rhs_cell,
    state_dim,
    to_grids,
)
from fhn_torus.model import _make_jacobian_apply
from fhn_torus.simulate import make_rhs


def lattice_field(z, lp):
    """The network vector field at state z (it does not depend on time)."""
    return make_rhs(lp)(0.0, z)


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
        assert np.array_equal(rhs(ts, Z.T).T, rows)
        assert np.array_equal(rhs(0.0, Z.T.reshape(dim, 37, 1)), rows.T[:, :, None])

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


class TestJacobianBlocks:
    def test_worked_values(self):
        lp = LatticeParams(n=3, a=1.0, b=2.0, c=3.0, gamma=4.0, delta=5.0)
        D, E, F = jacobian_blocks_origin(lp)
        assert np.array_equal(D, [[8.0, -1.0], [2.0, -3.0]])
        assert np.array_equal(E, [[-4.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(F, [[-5.0, 0.0], [0.0, 0.0]])

    def test_uncoupled_reduces_to_cell_block(self):
        lp = LatticeParams(n=3, a=0.7, b=1.2, c=0.4, gamma=0.0, delta=0.0)
        D, E, F = jacobian_blocks_origin(lp)
        assert np.array_equal(D, [[-0.7, -1.0], [1.2, -0.4]])
        assert not E.any() and not F.any()

    def test_associative_pair(self):
        lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
        D, E, F = jacobian_blocks_origin(lp)
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
        lp = LatticeParams(n=n, a=0.4, b=1.1, c=0.2, gamma=0.3, delta=-0.7)
        z = rng.standard_normal(2 * n * n) + 1j * rng.standard_normal(2 * n * n)
        want = assemble_jacobian_origin(lp) @ z
        got = _make_jacobian_apply(lp)(z)
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
