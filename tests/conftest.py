"""Shared oracles for the test suite."""

import numpy as np
import pytest

from fhn_torus import LatticeParams, assemble_jacobian_origin, from_grids, to_grids


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


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
