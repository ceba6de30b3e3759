"""Translation symmetry of the torus lattice.

The group is Z_N x Z_N acting by cyclic index shifts: the element
g = (r, s) replaces the cell value at (i, j) with the value previously
held at (i + r, j + s).  The x lattice splits into invariant planes

    V_k = { Re(z * w^(i*k1 + j*k2)) : z complex },   w = exp(2*pi*1j/N)

with 0-based cell indices i, j, indexed by k = (k1, k2) with k and -k
giving the same plane; g acts on the complex coordinate of V_k as
multiplication by w^(r*k1 + s*k2).  Which flat cell a shift reads and
which phase a frequency puts on a cell come from ``model._cell_shift``
and ``model._mode_vector``, the only code that knows the cell layout.
A canonical index set with one representative per plane is produced by
:func:`mode_index_set`.  Full states carry two copies of each plane
(one in the x slots, one in the y slots).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ClassificationError, DimensionMismatchError
from .model import (_cell_shift, _check_state, _mode_vector, _require_odd_prime,
                    infer_n)

__all__ = [
    "GroupElement",
    "ModeIndex",
    "IsotypicComponent",
    "IsotropySubgroup",
    "SymmetryPrediction",
    "group_elements",
    "act",
    "state_permutation",
    "mode_index_set",
    "canonical_mode",
    "mode_basis",
    "mode_coordinate",
    "embed_pattern",
    "isotypic_component",
    "project_isotypic",
    "fix_modes",
    "fix_projection",
    "isotropy_of",
    "predict_hopf_symmetries",
]

GroupElement = tuple  # (r, s) with entries mod N


def group_elements(n: int) -> list:
    _require_odd_prime(n)
    return [(r, s) for r in range(n) for s in range(n)]


def state_permutation(g, n: int) -> np.ndarray:
    """Index array perm with act(g, z) == z[perm]."""
    _require_odd_prime(n)
    return (2 * _cell_shift(g, n)[:, None] + np.arange(2)).reshape(-1)


def act(g, z: np.ndarray, n: int | None = None) -> np.ndarray:
    """Apply the shift g = (r, s) to a flat state.

    The returned state holds at cell (i, j) the old value of cell
    (i + r, j + s); x and y slots move together.  The dtype of z is
    preserved, so complex eigenvectors can be shifted as well.
    """
    z = np.asarray(z)
    if n is None:
        n = infer_n(z)
    return z[state_permutation(g, n)]


@dataclass(frozen=True, order=True)
class ModeIndex:
    """Canonical label (k1, k2) of an invariant plane of the x lattice."""

    k1: int
    k2: int

    @property
    def dim(self) -> int:
        return 1 if (self.k1, self.k2) == (0, 0) else 2

    def as_tuple(self):
        return (self.k1, self.k2)

    def dot(self, g) -> int:
        return self.k1 * g[0] + self.k2 * g[1]


def mode_index_set(n: int) -> list[ModeIndex]:
    """Canonical mode labels, one per invariant plane.

    Families, in order: (0,0); (0,k) and (k,0) and (k,k) for
    1 <= k <= (N-1)/2; (k1,k2) with 1 <= k2 < k1 <= N-1.  Dimensions
    add up to N^2.
    """
    _require_odd_prime(n)
    half = (n - 1) // 2
    out = [ModeIndex(0, 0)]
    out += [ModeIndex(0, k) for k in range(1, half + 1)]
    out += [ModeIndex(k, 0) for k in range(1, half + 1)]
    out += [ModeIndex(k, k) for k in range(1, half + 1)]
    out += [
        ModeIndex(k1, k2) for k1 in range(2, n) for k2 in range(1, k1)
    ]
    return out


def canonical_mode(r: int, s: int, n: int) -> ModeIndex:
    """Canonical representative of the plane containing frequency (r, s)."""
    _require_odd_prime(n)
    r, s = r % n, s % n
    for cand in ((r, s), ((n - r) % n, (n - s) % n)):
        k1, k2 = cand
        if k1 == 0 and k2 == 0:
            return ModeIndex(0, 0)
        if k1 == 0 and 1 <= k2 <= (n - 1) // 2:
            return ModeIndex(k1, k2)
        if k2 == 0 and 1 <= k1 <= (n - 1) // 2:
            return ModeIndex(k1, k2)
        if k1 == k2 and 1 <= k1 <= (n - 1) // 2:
            return ModeIndex(k1, k2)
        if 1 <= k2 < k1 <= n - 1:
            return ModeIndex(k1, k2)
    raise ClassificationError(f"no canonical representative for ({r}, {s}) mod {n}")


def _plane_vector(k: ModeIndex, n: int) -> np.ndarray:
    """x slots of the unit Fourier vector of k: w^(i*k1 + j*k2) / N."""
    return _mode_vector(k.k1, k.k2, n, 0.0)[0::2]


def mode_basis(k: ModeIndex, n: int) -> list[np.ndarray]:
    """Orthonormal x-lattice patterns spanning the plane of k.

    Returns the patterns for complex coordinate 1 and -1j, the cosine
    and sine of the phase 2*pi*(i*k1 + j*k2)/N with 0-based i, j; just
    the constant pattern for k = (0, 0).  Patterns are flat length-N^2
    arrays in the same order as the x slots of a state.
    """
    _require_odd_prime(n)
    e = _plane_vector(k, n)
    if k.dim == 1:
        return [e.real]
    return [np.sqrt(2.0) * e.real, np.sqrt(2.0) * e.imag]


def mode_coordinate(pattern: np.ndarray, k: ModeIndex, n: int) -> complex:
    """Complex coordinate z of an x-lattice pattern within the plane of k:
    the pattern's component in that plane is Re(z * w^(i*k1 + j*k2)),
    with 0-based cell indices i, j."""
    e = _plane_vector(k, n)
    return complex(k.dim * np.vdot(e, np.asarray(pattern, dtype=float)) / n)


def embed_pattern(xpat: np.ndarray, ypat: np.ndarray, n: int) -> np.ndarray:
    """Build a flat state from separate x and y lattice patterns."""
    z = np.zeros(2 * n * n)
    z[0::2] = xpat
    z[1::2] = ypat
    return z


@dataclass(frozen=True)
class IsotypicComponent:
    """The four-dimensional (two for k = 0) piece of state space built
    from two copies of the plane of k, one in x slots and one in y."""

    mode: ModeIndex
    basis: tuple


def isotypic_component(k: ModeIndex, n: int) -> IsotypicComponent:
    pats = mode_basis(k, n)
    zeros = np.zeros(n * n)
    vecs = [embed_pattern(p, zeros, n) for p in pats]
    vecs += [embed_pattern(zeros, p, n) for p in pats]
    return IsotypicComponent(mode=k, basis=tuple(vecs))


def project_isotypic(z: np.ndarray, k: ModeIndex, n: int | None = None) -> np.ndarray:
    """Orthogonal projection of a state onto the isotypic piece of k.

    The x and y halves are each projected onto the plane of k, spanned
    by the Fourier vector of k and its conjugate.
    """
    if n is None:
        n = infer_n(z)
    cells = _check_state(z, n).reshape(-1, 2)
    e = _plane_vector(k, n)
    return (k.dim * np.outer(e, e.conj() @ cells).real).reshape(-1)


def fix_modes(g, n: int) -> list[ModeIndex]:
    """Canonical modes whose planes are fixed pointwise by g."""
    _require_odd_prime(n)
    return [k for k in mode_index_set(n) if k.dot(g) % n == 0]


@dataclass(frozen=True)
class IsotropySubgroup:
    """Subgroup descriptor: the full group, a cyclic order-N subgroup
    with a canonical generator, or the trivial group."""

    kind: str  # "full" | "cyclic" | "trivial"
    n: int
    generator: tuple | None = None

    def __post_init__(self):
        _require_odd_prime(self.n)
        if self.kind not in ("full", "cyclic", "trivial"):
            raise ClassificationError(f"unknown subgroup kind {self.kind!r}")
        if self.kind == "cyclic":
            if self.generator is None or tuple(self.generator) == (0, 0):
                raise ClassificationError("cyclic subgroup needs a nonzero generator")

    @staticmethod
    def full(n: int) -> "IsotropySubgroup":
        return IsotropySubgroup("full", n)

    @staticmethod
    def trivial(n: int) -> "IsotropySubgroup":
        return IsotropySubgroup("trivial", n)

    @staticmethod
    def cyclic(g, n: int) -> "IsotropySubgroup":
        r, s = int(g[0]) % n, int(g[1]) % n
        if (r, s) == (0, 0):
            raise ClassificationError("cyclic subgroup needs a nonzero generator")
        gen = min(((m * r) % n, (m * s) % n) for m in range(1, n))
        return IsotropySubgroup("cyclic", n, gen)

    def elements(self) -> list:
        if self.kind == "full":
            return group_elements(self.n)
        if self.kind == "trivial":
            return [(0, 0)]
        r, s = self.generator
        return [((m * r) % self.n, (m * s) % self.n) for m in range(self.n)]

    def order(self) -> int:
        return {"full": self.n * self.n, "cyclic": self.n, "trivial": 1}[self.kind]

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


def _perp_generator(k: ModeIndex, n: int) -> tuple:
    return ((n - k.k2) % n, k.k1 % n)


def predict_hopf_symmetries(
    equilibrium_isotropy: IsotropySubgroup,
    center_mode: ModeIndex,
) -> SymmetryPrediction:
    """Spatio-temporal symmetries forced by a simple Hopf bifurcation.

    Parameters
    ----------
    equilibrium_isotropy : IsotropySubgroup
        Isotropy of the equilibrium undergoing the bifurcation.
    center_mode : ModeIndex
        Canonical mode carrying the critical eigenvalue pair, on the
        lattice side of the subgroup.

    Returns
    -------
    SymmetryPrediction
        The predicted time shifts are those of the wave rotating with
        the canonical exponent k; the mirror-image wave (exponent N-k,
        the same plane) realizes the complementary shifts.  The fixing
        subgroup is the same for both.
    """
    H = equilibrium_isotropy
    n = H.n
    k = canonical_mode(center_mode.k1, center_mode.k2, n)
    if k != center_mode:
        raise ClassificationError(
            f"center mode {center_mode.as_tuple()} is not canonical for n={n}"
        )

    if H.kind == "full":
        if k.as_tuple() == (0, 0):
            return SymmetryPrediction(
                spatial=H,
                fixing=H,
                phases={(1, 0): Fraction(0), (0, 1): Fraction(0)},
            )
        K = IsotropySubgroup.cyclic(_perp_generator(k, n), n)
        phases = {
            (1, 0): Fraction(k.k1 % n, n),
            (0, 1): Fraction(k.k2 % n, n),
        }
        return SymmetryPrediction(spatial=H, fixing=K, phases=phases)

    if H.kind == "trivial":
        return SymmetryPrediction(spatial=H, fixing=H, phases={})

    g = H.generator
    if k.dot(g) % n == 0:
        return SymmetryPrediction(spatial=H, fixing=H, phases={g: Fraction(0)})
    return SymmetryPrediction(
        spatial=H,
        fixing=IsotropySubgroup.trivial(n),
        phases={g: Fraction(k.dot(g) % n, n)},
    )
