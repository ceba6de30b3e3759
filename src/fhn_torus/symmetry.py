"""Translation symmetry of the torus lattice.

The group is Z_N x Z_N acting by cyclic index shifts: the element
g = (r, s) replaces the cell value at (i, j) with the value previously
held at (i + r, j + s).  A mode is a plain int pair: the frequency
k = (k1, k2) puts the phase w^(i*k1 + j*k2), w = exp(2*pi*1j/N), on
cell (i, j) with 0-based indices, k and -k label the same invariant
real plane of the x lattice (of dimension 1 for (0, 0), else 2), and g
multiplies the complex coordinate of that plane by w^(r*k1 + s*k2).
:func:`mode_index_set` lists one canonical pair per plane and
:func:`canonical_mode` finds the pair of any frequency.  Which flat
cell a shift reads and the Fourier vector of a frequency come from
``model._cell_shift`` and ``model._mode_vector``, the only code that
knows the cell layout.  Full states carry two copies of each plane
(one in the x slots, one in the y slots).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ClassificationError
from .model import _cell_shift, _check_state, _require_odd_prime, infer_n

__all__ = [
    "IsotropySubgroup",
    "SymmetryPrediction",
    "group_elements",
    "act",
    "state_permutation",
    "mode_index_set",
    "canonical_mode",
    "fix_modes",
    "fix_projection",
    "isotropy_of",
    "predict_hopf_symmetries",
]


def group_elements(n: int) -> list:
    _require_odd_prime(n)
    return [(r, s) for r in range(n) for s in range(n)]


def state_permutation(g, n: int) -> np.ndarray:
    """Index array perm with act(g, z) == z[perm]."""
    _require_odd_prime(n)
    return (2 * _cell_shift(g, n)[:, None] + np.arange(2)).reshape(-1)


def act(g, z: np.ndarray, n: int) -> np.ndarray:
    """Apply the shift g = (r, s) to a flat state.

    The returned state holds at cell (i, j) the old value of cell
    (i + r, j + s); x and y slots move together.  The dtype of z is
    preserved, so complex eigenvectors can be shifted as well.  A z that
    is not one state of the N x N lattice raises DimensionMismatchError.
    """
    return _check_state(z, n, dtype=None)[state_permutation(g, n)]


def mode_index_set(n: int) -> list:
    """The canonical pair (k1, k2) of every invariant plane, in order:
    (0,0); (0,k) and (k,0) and (k,k) for 1 <= k <= (N-1)/2; (k1,k2)
    with 1 <= k2 < k1 <= N-1.  Of k and -k mod N exactly one is listed.
    Dimensions (1 for (0, 0), else 2) add up to N^2."""
    _require_odd_prime(n)
    half = range(1, (n - 1) // 2 + 1)
    return ([(0, 0)] + [(0, k) for k in half] + [(k, 0) for k in half]
            + [(k, k) for k in half]
            + [(k1, k2) for k1 in range(2, n) for k2 in range(1, k1)])


def canonical_mode(r: int, s: int, n: int) -> tuple:
    """Canonical pair of the plane containing frequency (r, s):
    whichever of (r, s) and (-r, -s) mod N ``mode_index_set`` lists."""
    k = (r % n, s % n)
    return k if k in mode_index_set(n) else ((n - k[0]) % n, (n - k[1]) % n)


def fix_modes(g, n: int) -> list:
    """Canonical pairs whose planes are fixed pointwise by g."""
    return [k for k in mode_index_set(n) if (k[0] * g[0] + k[1] * g[1]) % n == 0]


@dataclass(frozen=True)
class IsotropySubgroup:
    """Subgroup descriptor: the full group, a cyclic order-N subgroup,
    or the trivial group.

    Canonical on construction: a cyclic subgroup stores the smallest
    nonzero multiple of its generator mod N, so every generator of one
    subgroup gives one equal descriptor and label; a generator that is
    0 mod N, and any generator of the full or the trivial group, raise
    ClassificationError."""

    kind: str  # "full" | "cyclic" | "trivial"
    n: int
    generator: tuple | None = None

    def __post_init__(self):
        _require_odd_prime(self.n)
        if self.kind not in ("full", "cyclic", "trivial"):
            raise ClassificationError(f"unknown subgroup kind {self.kind!r}")
        if self.kind != "cyclic":
            if self.generator is not None:
                raise ClassificationError(f"the {self.kind} group takes no generator")
            return
        n = self.n
        g = (0, 0) if self.generator is None else self.generator
        r, s = int(g[0]) % n, int(g[1]) % n
        if (r, s) == (0, 0):
            raise ClassificationError("cyclic subgroup needs a nonzero generator")
        gen = min(((m * r) % n, (m * s) % n) for m in range(1, n))
        object.__setattr__(self, "generator", gen)

    @staticmethod
    def full(n: int) -> "IsotropySubgroup":
        return IsotropySubgroup("full", n)

    @staticmethod
    def trivial(n: int) -> "IsotropySubgroup":
        return IsotropySubgroup("trivial", n)

    @staticmethod
    def cyclic(g, n: int) -> "IsotropySubgroup":
        return IsotropySubgroup("cyclic", n, g)

    def elements(self) -> list:
        if self.kind == "full":
            return group_elements(self.n)
        if self.kind == "trivial":
            return [(0, 0)]
        r, s = self.generator
        return [((m * r) % self.n, (m * s) % self.n) for m in range(self.n)]

    def contains(self, g) -> bool:
        g0, g1 = int(g[0]) % self.n, int(g[1]) % self.n
        if self.kind == "cyclic":  # g is a multiple of (r, s)
            r, s = self.generator
            return (g0 * s - g1 * r) % self.n == 0
        return self.kind == "full" or g0 == g1 == 0

    def label(self) -> str:
        if self.kind == "full":
            return "Gamma"
        if self.kind == "trivial":
            return "1"
        return f"Z({self.generator[0]},{self.generator[1]})"


def _cell_classes(K: IsotropySubgroup, n: int):
    """Label every cell by its K-orbit.

    Returns ``reps``, the smallest flat cell index of each orbit in
    increasing order, and ``cls``, the orbit number of every cell, so
    that ``cls[reps]`` is ``arange(len(reps))``.
    """
    orbits = np.array([_cell_shift(g, n) for g in K.elements()])
    return np.unique(orbits.min(axis=0), return_inverse=True)


def fix_projection(z: np.ndarray, sub: IsotropySubgroup) -> np.ndarray:
    """Orthogonal projection onto the fixed-point space of a subgroup.

    Every cell takes the mean of its orbit of cells under the subgroup,
    so the result is exactly fixed by every element.
    """
    n = sub.n
    _, cls = _cell_classes(sub, n)
    cells = _check_state(z, n).reshape(-1, 2)
    size = np.bincount(cls)
    mean = [np.bincount(cls, weights=cells[:, k]) / size for k in (0, 1)]
    return np.stack(mean, axis=1)[cls].reshape(-1)


def _generators(n: int) -> list:
    """Canonical generators of the N+1 cyclic subgroups: (1, 0), then
    that of (k, 1) for k = 0 .. N-1."""
    return [IsotropySubgroup.cyclic(g, n).generator
            for g in [(1, 0)] + [(k, 1) for k in range(n)]]


def _subgroup_of(passing: list, n: int) -> IsotropySubgroup:
    """Subgroup generated by canonical generators: the full group for
    two or more, the cyclic group of one, else the trivial group.  For
    prime N every subgroup is generated by the ones it contains."""
    if len(passing) >= 2:
        return IsotropySubgroup.full(n)
    if passing:
        return IsotropySubgroup.cyclic(passing[0], n)
    return IsotropySubgroup.trivial(n)


def isotropy_of(z: np.ndarray) -> IsotropySubgroup:
    """Largest subgroup fixing the state: the one generated by the
    cyclic generators that fix it to 1e-9 relative to max(1, max|z|)."""
    n = infer_n(z)
    z = np.asarray(z, dtype=float)
    scale = max(1.0, float(np.max(np.abs(z))))
    passing = [g for g in _generators(n)
               if float(np.max(np.abs(act(g, z, n) - z))) <= 1e-9 * scale]
    return _subgroup_of(passing, n)


@dataclass(frozen=True)
class SymmetryPrediction:
    """Predicted spatio-temporal symmetry of a bifurcating orbit.

    ``spatial`` (often called H) maps the orbit to itself up to a time
    shift; ``fixing`` (K) fixes it pointwise.  ``phases`` gives the time
    shift of each generator of ``spatial`` as a fraction of the period.
    """

    spatial: IsotropySubgroup
    fixing: IsotropySubgroup
    phases: dict = field(default_factory=dict)


def predict_hopf_symmetries(center_mode, n: int) -> SymmetryPrediction:
    """Spatio-temporal symmetries forced by a simple Hopf bifurcation of
    the origin.

    The origin is fixed by the whole group, so H is Gamma, and the
    H/K theorem (Golubitsky and Stewart) gives K as the kernel of the
    action on the crossing plane: Gamma for the (0, 0) mode, else the
    cyclic subgroup of the shifts (-s, r) perpendicular to k = (r, s).

    Parameters
    ----------
    center_mode : (int, int)
        Frequency (r, s) carrying the critical eigenvalue pair, as the
        spectrum reports it; it is read mod N and need not be canonical.
    n : int
        Lattice side.

    Returns
    -------
    SymmetryPrediction
        ``spatial`` is always Gamma.  The phases are the time shifts of
        the wave rotating with the given frequency k, so -k, the other
        orientation of the same plane, gets the complementary shifts.
        The fixing subgroup is the same for k and -k.
    """
    H = IsotropySubgroup.full(n)
    r, s = center_mode[0] % n, center_mode[1] % n
    K = H if (r, s) == (0, 0) else IsotropySubgroup.cyclic((-s, r), n)
    return SymmetryPrediction(
        spatial=H, fixing=K, phases={(1, 0): Fraction(r, n), (0, 1): Fraction(s, n)}
    )
