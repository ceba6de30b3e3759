"""Shared oracles for the test suite."""

import numpy as np
import pytest

from fhn_torus import (IsotropySubgroup, LatticeParams, assemble_jacobian_origin,
                       from_grids, to_grids)
from fhn_torus.simulate import make_rhs


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


# Fields that take their stage inputs in a buffer of their own and write
# their derivatives in place: a full N=5 lattice, the one-cell Fix(Gamma)
# quotient, whose two slots are summed by a reduction, and four N=5
# lattices on Fix(Z(1,2)) end to end, as the criticality probe runs them.
_LP5 = LatticeParams(n=5, a=-0.05, b=1.0, c=0.05, gamma=1.0, delta=-1.0)
IN_PLACE_FIELDS = {
    "lattice": (_LP5, None),
    "fix-gamma": (_LP5, IsotropySubgroup.full(5)),
    "probe": ([LatticeParams(n=5, a=a, b=1.0, c=0.05, gamma=1.0, delta=-1.0)
               for a in (-0.1, -0.075, -0.05, 0.0)], IsotropySubgroup.cyclic((1, 2), 5)),
}


def in_place_field(name):
    """A fresh field of ``IN_PLACE_FIELDS``."""
    return make_rhs(*IN_PLACE_FIELDS[name])


def _at_slots(a, cols):
    """The slots cols of each row of a, as ``Trajectory.slots`` takes
    them: a view for a slice, a C-contiguous copy for an index array."""
    return a[..., cols] if isinstance(cols, slice) else np.take(a, cols, axis=-1)


def node_derivs(traj):
    """The field's derivative at every node of a trajectory, or of a view
    of one: one stacked call of the field on all the nodes of the
    trajectory the view was taken from, at the view's slots."""
    root = traj._root or traj
    return _at_slots(root._field(root.times, root.states), traj._cols)


def coefficients(traj):
    """The coefficients of every step of a trajectory, or of a view of
    one, shape (nt - 1, 4, slots): every missing step of the trajectory
    the view was taken from is taken again, and its array is read at the
    view's slots."""
    root = traj._root or traj
    root._take_again(slice(None))
    return _at_slots(root._dense, traj._cols)


def dense_spectrum(lp: LatticeParams) -> np.ndarray:
    """Eigenvalues of the assembled Jacobian via LAPACK."""
    return np.linalg.eigvals(assemble_jacobian_origin(lp))


def jacobian_at(z, lp: LatticeParams) -> np.ndarray:
    """Dense Jacobian of the lattice field at a state z.

    Only the cubic term varies with the state, so this is the origin
    Jacobian with cellwise corrections on the x-diagonal.
    """
    M = assemble_jacobian_origin(lp)
    x = np.asarray(z, dtype=float)[0::2]
    diag = np.arange(0, 2 * lp.n * lp.n, 2)
    # d/dx of the cubic relative to its value at 0.
    M[diag, diag] += -3.0 * x * x + 2.0 * (lp.a + 1.0) * x
    return M


def match_distance(computed, reference) -> float:
    """Largest pairing error under greedy nearest-neighbour matching.

    Sorting complex spectra pairs wrong entries when real parts tie at
    rounding level, so multisets are compared by matching instead.
    """
    ref = list(reference)
    worst = 0.0
    for lam in computed:
        j = min(range(len(ref)), key=lambda i: abs(ref[i] - lam))
        worst = max(worst, abs(ref[j] - lam))
        ref.pop(j)
    return worst


def random_lattice(rng, n: int = 3, c_zero: bool = False) -> LatticeParams:
    """Random nondegenerate parameter draw."""
    sign = lambda: float(rng.choice([-1.0, 1.0]))
    return LatticeParams(
        n=n,
        a=float(rng.uniform(-2.0, 3.0)),
        b=float(rng.uniform(0.1, 4.0)),
        c=0.0 if c_zero else float(rng.uniform(0.0, 1.0)),
        gamma=sign() * float(rng.uniform(0.2, 2.0)),
        delta=sign() * float(rng.uniform(0.2, 2.0)),
    )


def fft_projection(z, k, n):
    """Projection of a state onto the invariant plane of the mode k in
    each lattice half, by keeping the 2-D DFT bins (k1, k2) and
    (-k1, -k2) of its x and y grids."""
    x, y = to_grids(z, n)
    mask = np.zeros((n, n))
    mask[k[0] % n, k[1] % n] = 1.0
    mask[(-k[0]) % n, (-k[1]) % n] = 1.0

    def filt(g):
        return np.real(np.fft.ifft2(np.fft.fft2(g) * mask))

    return from_grids(filt(x), filt(y))
