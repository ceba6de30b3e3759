"""Cell dynamics and Jacobian assembly for the coupled lattice.

The network is an N x N torus of identical FitzHugh-Nagumo cells,

    x' = x(a - x)(x - 1) - y + gamma*(x[i,j] - x[i+1,j]) + delta*(x[i,j] - x[i,j+1])
    y' = b*x - c*y

with both cell indices periodic mod N and N an odd prime.  Coupling is
unidirectional: gamma feeds each cell from its successor in the first
index, delta from its successor in the second.

States are flat vectors of length 2*N^2.  Cells are grouped into N
blocks by the second index; within a block the (x, y) pair of each cell
appears in order of the first index.  With 0-based indices (i, j) the x
component of cell (i, j) sits at flat position 2*(j*N + i) and its y
component immediately after.

:func:`_cell_shift` and :func:`_mode_vector` are the only code that
knows this numbering; ``to_grids``/``from_grids``, ``rhs_cell`` and the
dense ``assemble_jacobian_origin`` stay independent of them as references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, LatticeSizeError

__all__ = [
    "CellParams",
    "LatticeParams",
    "is_odd_prime",
    "state_dim",
    "to_grids",
    "from_grids",
    "rhs_cell",
    "jacobian_blocks_origin",
    "assemble_jacobian_origin",
    "jacobian_at",
]


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _require_odd_prime(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or not is_odd_prime(int(n)):
        raise LatticeSizeError(f"lattice side must be an odd prime, got {n!r}")


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class CellParams:
    """Coefficients of a single cell: cubic parameter a, recovery b and c."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            _require_finite(name, getattr(self, name))


@dataclass(frozen=True)
class LatticeParams:
    """Full parameter set of the lattice: cell coefficients plus coupling."""

    n: int
    a: float
    b: float
    c: float
    gamma: float
    delta: float

    def __post_init__(self):
        _require_odd_prime(self.n)
        for name in ("a", "b", "c", "gamma", "delta"):
            _require_finite(name, getattr(self, name))


def state_dim(n: int) -> int:
    return 2 * n * n


def _check_state(z: np.ndarray, n: int) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (state_dim(n),):
        raise DimensionMismatchError(
            f"state must have shape ({state_dim(n)},) for n={n}, got {z.shape}"
        )
    return z


def infer_n(z: np.ndarray) -> int:
    """Lattice side from a flat state vector of length 2*N^2."""
    m = np.asarray(z).shape[0]
    n = math.isqrt(m // 2)
    if 2 * n * n != m:
        raise DimensionMismatchError(f"state length {m} is not of the form 2*N^2")
    _require_odd_prime(n)
    return n


def _cell_shift(g, n: int) -> np.ndarray:
    """Flat index of cell (i + r, j + s), indices mod N, for every flat
    cell j*N + i, with g = (r, s): (1, 0) and (0, 1) give the coupling
    successors, and any g the cell each cell reads under the shift g."""
    m = np.arange(n * n)
    r, s = int(g[0]), int(g[1])
    return ((m // n + s) % n) * n + (m % n + r) % n


def _mode_vector(r: int, s: int, n: int, d) -> np.ndarray:
    """Unit Fourier vector at (r, s) whose cell (i, j) carries (1, d) times
    w^(i*r + j*s), 0-based."""
    v = np.array([1.0, d])
    w = np.exp(2j * np.pi * np.arange(n) / n)
    xi = np.multiply.outer(w ** s, np.multiply.outer(w ** r, v)).reshape(-1)
    return xi / np.linalg.norm(xi)


def to_grids(z: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a flat state into (x, y) grids indexed [i, j]."""
    z = _check_state(z, n)
    blocks = z.reshape(n, n, 2)
    return blocks[:, :, 0].T.copy(), blocks[:, :, 1].T.copy()


def from_grids(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_grids`."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    if x.shape != (n, n) or y.shape != (n, n):
        raise DimensionMismatchError("grids must both be square of the same size")
    blocks = np.empty((n, n, 2))
    blocks[:, :, 0] = x.T
    blocks[:, :, 1] = y.T
    return blocks.reshape(-1)


def rhs_cell(xy, p: CellParams):
    """Vector field of one uncoupled cell.

    Parameters
    ----------
    xy : pair of reals
        Current (x, y) of the cell.
    p : CellParams

    Returns
    -------
    (dx, dy) : pair of floats
    """
    x, y = xy
    dx = x * (p.a - x) * (x - 1.0) - y
    dy = p.b * x - p.c * y
    return dx, dy


def jacobian_blocks_origin(lp: LatticeParams):
    """2x2 blocks (D, E, F) of the linearization at the origin.

    D is the diagonal block of each cell, E couples a cell to its
    successor in the first index, F to its successor in the second.
    """
    d = -lp.a + lp.gamma + lp.delta
    D = np.array([[d, -1.0], [lp.b, -lp.c]])
    E = np.array([[-lp.gamma, 0.0], [0.0, 0.0]])
    F = np.array([[-lp.delta, 0.0], [0.0, 0.0]])
    return D, E, F


def _shift_matrix(n: int) -> np.ndarray:
    # S[i, (i+1) mod n] = 1: picks the successor cell.
    S = np.zeros((n, n))
    S[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    return S


def assemble_jacobian_origin(lp: LatticeParams) -> np.ndarray:
    """Dense 2N^2 x 2N^2 Jacobian of ``simulate.make_rhs`` at the origin.

    Block-circulant in both lattice directions: D blocks on the cell
    diagonal, E on the first-index superdiagonal and F on the
    second-index superdiagonal, each wrapping around.
    """
    n = lp.n
    D, E, F = jacobian_blocks_origin(lp)
    eye = np.eye(n)
    S = _shift_matrix(n)
    inner = np.kron(eye, D) + np.kron(S, E)
    return np.kron(eye, inner) + np.kron(S, np.kron(eye, F))


def _make_jacobian_apply(lp: LatticeParams):
    """``z -> assemble_jacobian_origin(lp) @ z`` cell by cell, in O(N^2).

    Each cell gets D times its own (x, y) plus E and F times those of
    its successors in the first and second index; z may be complex.
    """
    D, E, F = jacobian_blocks_origin(lp)
    succ_i, succ_j = _cell_shift((1, 0), lp.n), _cell_shift((0, 1), lp.n)

    def apply(z):
        cells = np.asarray(z).reshape(-1, 2)
        return (cells @ D.T + cells[succ_i] @ E.T + cells[succ_j] @ F.T).reshape(-1)

    return apply


def jacobian_at(z: np.ndarray, lp: LatticeParams) -> np.ndarray:
    """Exact Jacobian of ``simulate.make_rhs`` at an arbitrary state.

    Only the cubic term varies with the state, so this is the origin
    Jacobian with cellwise corrections on the x-diagonal.
    """
    n = lp.n
    z = _check_state(z, n)
    M = assemble_jacobian_origin(lp)
    x = z[0::2]
    # d/dx of the cubic relative to its value at 0.
    M[np.arange(0, 2 * n * n, 2), np.arange(0, 2 * n * n, 2)] += (
        -3.0 * x * x + 2.0 * (lp.a + 1.0) * x
    )
    return M
