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

:func:`_shift_of` reads every shift or frequency (r, s), once, as its
residues mod N, and :func:`_phases` builds every cell phase, from the
N-th roots of unity w and one exponent array of their powers w^s.
:func:`_cell_shift`, :func:`_mode_vector` and :func:`_mode_blocks` are
the only code in the package's computations that knows that numbering:
the vector field, the group action, the cell classes of a subgroup and
the spectrum residuals read the first, the analytic eigenvectors the
second, and the residuals the third, one block of modes per first
frequency r.  Two readers outside this module know it too: the CSV
header of ``cli._traj_header`` names flat cell p as cell
(p mod N, p // N), and ``simulate.classify_spatiotemporal`` reshapes the
sampled x slots to a grid [t, j, i].
:func:`_linear_weights` is the only statement of a cell's linear part,
which the vector field and the spectrum residuals both apply.
``to_grids``/``from_grids``, ``rhs_cell`` and the dense
``assemble_jacobian_origin`` stay independent of them as references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, LatticeSizeError

__all__ = [
    "CellParams",
    "LatticeParams",
    "state_dim",
    "to_grids",
    "from_grids",
    "rhs_cell",
    "assemble_jacobian_origin",
]


def _require_odd_prime(n: int) -> None:
    if not (isinstance(n, (int, np.integer)) and n >= 3 and n % 2 == 1
            and all(n % d for d in range(3, math.isqrt(n) + 1, 2))):
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


def _check_state(z: np.ndarray, n: int, dtype=float) -> np.ndarray:
    """z as an array of dtype (None keeps its own), refused with
    DimensionMismatchError unless it is one state of the N x N
    lattice."""
    z = np.asarray(z, dtype=dtype)
    shape = (state_dim(n),)
    if z.shape != shape:
        raise DimensionMismatchError(f"state must have shape {shape} for n={n}, got {z.shape}")
    return z


def infer_n(z: np.ndarray) -> int:
    """Lattice side from a flat state vector of length 2*N^2."""
    m = np.asarray(z).shape[0]
    n = math.isqrt(m // 2)
    if 2 * n * n != m:
        raise DimensionMismatchError(f"state length {m} is not of the form 2*N^2")
    _require_odd_prime(n)
    return n


def _linear_weights(lp: LatticeParams) -> tuple:
    """The six weights of a cell's linear part, in the arithmetic of the
    lattice field: x' = w0 x + w1 y + w2 x_(1,0) + w3 x_(0,1) plus the
    cubic part, y' = w4 x + w5 y, with x_(1,0) and x_(0,1) the x of the
    cell's two coupling successors."""
    return (lp.gamma + lp.delta - lp.a, -1.0, -lp.gamma, -lp.delta, lp.b, -lp.c)


def _shift_of(g, n: int, what: str = "shift") -> tuple:
    """The residues mod N of the shift g = (r, s), or with what="frequency"
    of the frequency (r, s), as ints; an entry that is not an integer
    (1.5 or 1.0, which int() would truncate) raises DomainError naming
    what, and then an n that is not an odd prime LatticeSizeError."""
    if not all(isinstance(k, (int, np.integer)) for k in g[:2]):
        raise DomainError(f"a {what} has integer entries, got {tuple(g)!r}")
    _require_odd_prime(n)
    return int(g[0]) % n, int(g[1]) % n


def _cell_shift(g, n: int) -> np.ndarray:
    """Flat index of cell (i + r, j + s), indices mod N, for every flat
    cell j*N + i, with g = (r, s): (1, 0) and (0, 1) give the coupling
    successors, and any g the cell each cell reads under the shift g."""
    r, s = _shift_of(g, n)
    m = np.arange(n * n)
    return ((m // n + s) % n) * n + (m % n + r) % n


def _phases(n: int, s=()) -> tuple:
    """(w, ws): the N-th roots of unity w[k] = exp(2 pi i k / N) and their
    powers w^s for each integer in s, shape (len(s), 1, N), from one
    exponent array (a scalar exponent 2 takes np.square, whose last bits
    differ)."""
    w = np.exp(2j * np.pi * np.arange(n) / n)
    return w, w ** np.reshape(s, (-1, 1, 1))


def _mode_vector(r: int, s: int, n: int, d=None) -> np.ndarray:
    """Unit Fourier vector at the residues (r, s) whose cell (i, j)
    carries (1, d) times w^(i*r + j*s), 0-based; without d, the
    unnormalised phases of the cells alone, bit for bit row s of block
    r of :func:`_mode_blocks`."""
    v = np.array([1.0] if d is None else [1.0, d])
    w, ws = _phases(n, [s])
    xi = np.multiply.outer(ws, np.multiply.outer(w ** r, v)).reshape(-1)
    return xi if d is None else xi / np.linalg.norm(xi)


def _mode_blocks(n: int):
    """For r = 0 .. N-1 in turn, the phases of the block of modes (r, s),
    s = 0 .. N-1, shape (N, 1, N^2), from one table of powers w^s for all
    r, each block written over the last one, in one buffer."""
    w, ws = _phases(n, range(n))
    x = np.empty((n, 1, n, n), complex)
    for r in range(n):
        yield np.multiply.outer(ws, w ** r, out=x).reshape(n, 1, n * n)


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


def _shift_matrix(n: int) -> np.ndarray:
    # S[i, (i+1) mod n] = 1: picks the successor cell.
    S = np.zeros((n, n))
    S[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    return S


def assemble_jacobian_origin(lp: LatticeParams) -> np.ndarray:
    """Dense 2N^2 x 2N^2 Jacobian of ``simulate.make_rhs`` at the origin.

    Block-circulant in both lattice directions, in 2x2 blocks: D, each
    cell's own, on the cell diagonal, E, which couples a cell to its
    successor in the first index, on the first-index superdiagonal and
    F, to its successor in the second, on the second-index
    superdiagonal, each wrapping around.
    """
    n = lp.n
    D = np.array([[-lp.a + lp.gamma + lp.delta, -1.0], [lp.b, -lp.c]])
    E = np.array([[-lp.gamma, 0.0], [0.0, 0.0]])
    F = np.array([[-lp.delta, 0.0], [0.0, 0.0]])
    eye = np.eye(n)
    S = _shift_matrix(n)
    inner = np.kron(eye, D) + np.kron(S, E)
    return np.kron(eye, inner) + np.kron(S, np.kron(eye, F))
