"""Time integration, orbit detection and spatio-temporal classification."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _rk
from .errors import (ClassificationError, DimensionMismatchError, DomainError,
                     InvarianceError)
from .model import LatticeParams, _cell_shift, state_dim
from .symmetry import (
    IsotropySubgroup,
    _cell_classes,
    _generators,
    _subgroup_of,
    state_permutation,
)

__all__ = [
    "Trajectory",
    "PeriodicOrbit",
    "OrbitSymmetry",
    "make_rhs",
    "integrate",
    "detect_periodic_orbit",
    "classify_spatiotemporal",
    "reduced_integrate_fix",
]


@dataclass
class Trajectory:
    """Accepted integration nodes with derivatives and dense output.

    The fields are those ``_rk.solve`` returns, in its order: ``dense``
    holds the 7th-order interpolation coefficients of each step, shape
    (nt - 1, 4) + state shape; ``_rk.dense_from_nodes`` rebuilds them
    for node-only data such as a trajectory read back from CSV.
    """

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    dense: np.ndarray
    stats: dict = field(default_factory=dict)

    def sample(self, t):
        """The state at scalar or array times, by DOP853's 7th-order
        interpolant (``_rk.dense_eval``)."""
        return _rk.dense_eval(self.times, self.states, self.derivs, self.dense, t)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def make_rhs(lp: LatticeParams | Sequence[LatticeParams],
             K: IsotropySubgroup | None = None):
    """Flat-vector network field: one five-entry stencil, built once.

    Every cell is the same FitzHugh-Nagumo cell, fed by its two coupling
    successors, so the derivative of each slot is a fixed weighted sum
    of five entries of the state extended by the cells' cubic parts
    x^2 (a + 1 - x), appended after it:

        x' = (gamma + delta - a) x - y - gamma x_(1,0) - delta x_(0,1)
             + x^2 (a + 1 - x)
        y' = b x - c y

    A (5, dim) index table picks the cell's x and y, the x of its two
    successors and its cubic part for both slots of the cell, and a
    (5, dim) weight table weighs them, with zeros for the last three
    entries of a y slot.  At the lattice sizes in use a call costs
    about as much as its numpy operations' call overhead, so it makes
    few: the cubic parts, one concatenation, one gather, one product
    and one sum over the five rows, added in the table's order.

    With a subgroup K the field is the exact flow on Fix(K): one cell
    per K-orbit of cells, in the order of :func:`_cell_classes`, whose
    successors are read through the class of each successor cell.  The
    field also takes states stacked along further axes with the state
    slot first, shape (dim, ...), and returns the derivative of each in
    the same layout: a stack of row states ``Z`` goes in as ``Z.T``.
    The slot axis comes first because indexing it adds nothing to a
    one-state call, where ``z[..., idx]`` adds about a quarter.  A
    stack of P states gathers a (5, dim, P) array, five times the
    stack.

    ``lp`` is one LatticeParams, or a sequence of B with the same n;
    then the field takes states of shape (dim, B), or (dim, B, ...)
    stacked, and column j follows the lattice ``lp[j]``.  The columns
    are laid end to end as one block-diagonal lattice, column j's cells
    after those of columns 0..j-1, with one weight per entry: each
    entry sees the arithmetic of a one-state call.
    """
    batch = not isinstance(lp, LatticeParams)
    lps = list(lp) if batch else [lp]
    n = lps[0].n
    if any(p.n != n for p in lps):
        raise DimensionMismatchError("a batch of lattices must share n")
    succ = np.stack([_cell_shift((1, 0), n), _cell_shift((0, 1), n)])
    if K is not None:
        reps, cls = _cell_classes(K, n)
        succ = cls[succ[:, reps]]
    m = succ.shape[1]  # cells of one lattice
    cells = m * len(lps)
    # the lattices laid end to end, and each cell's five entries
    succ = (succ[:, None, :] + m * np.arange(len(lps))[:, None]).reshape(2, -1)
    cell = np.arange(cells)
    idx = np.repeat([2 * cell, 2 * cell + 1, 2 * succ[0], 2 * succ[1],
                     2 * cells + cell], 2, axis=1)
    a, b, c, gam, dlt = (np.repeat([getattr(p, name) for p in lps], m)
                         for name in ("a", "b", "c", "gamma", "delta"))
    one = np.ones(cells)
    w = np.zeros((5, 2 * cells))
    w[:, 0::2] = gam + dlt - a, -one, -gam, -dlt, one
    w[:2, 1::2] = b, -c
    a1 = a + 1.0
    # the operands of one state and of a stack of them, by state rank
    coef = {1: (a1, w), 2: (a1[:, None], w[:, :, None])}

    def rhs(t, z):
        if z.ndim > 2:  # further stack axes, as one
            return rhs(t, z.reshape(len(z), -1)).reshape(z.shape)
        a1, w = coef[z.ndim]
        x = z[0::2]
        g = np.concatenate((z, x * x * (a1 - x)))[idx]
        g *= w
        return np.add.reduce(g, axis=0)

    if not batch:
        return rhs

    def batched(t, z):
        # (dim, B) as (B * dim,), and (dim, B, ...) as (B * dim, P): free
        # views when z is the transpose of a C-ordered array, as
        # ``_rk.solve`` passes it
        if z.ndim == 2:
            return rhs(t, z.T.reshape(-1)).reshape(len(lps), -1).T
        out = rhs(t, z.swapaxes(0, 1).reshape(len(lps) * len(z), -1))
        return out.reshape(z.shape[1::-1] + z.shape[2:]).swapaxes(0, 1)

    return batched


def integrate(z0, lp: LatticeParams, t_end, rtol=_rk._RTOL,
              atol=_rk._ATOL) -> Trajectory:
    """Adaptive DOP853 integration of the lattice field.

    Parameters
    ----------
    z0 : ndarray, shape (2*N^2,)
    lp : LatticeParams
    t_end : float
        Final time; integration starts at t = 0.
    rtol, atol : float
        Per-step error tolerances.

    Returns
    -------
    Trajectory
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (state_dim(lp.n),):
        raise DimensionMismatchError(
            f"initial state must have shape ({state_dim(lp.n)},)"
        )
    return Trajectory(*_rk.solve(make_rhs(lp), 0.0, z0, t_end, rtol=rtol, atol=atol))


# Orbit detection: the leading share of the run discarded as transient,
# the number of samples of the tail, the fewest upward mean crossings
# that count as oscillation, and the largest accepted recurrence
# residual relative to the tail amplitude.
_TRANSIENT_FRACTION = 0.5
_RESAMPLE = 4096
_MIN_CROSSINGS = 5
_REL_THRESHOLD = 1e-6


@dataclass
class PeriodicOrbit:
    period: float
    anchor_time: float
    anchor_state: np.ndarray
    trajectory: Trajectory
    residual: float


def _golden_min(fun, lo, hi):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def detect_periodic_orbit(traj: Trajectory):
    """Locate a periodic orbit in the tail of a trajectory.

    Discards the first half of the run as transient, estimates the
    period from mean crossings of the most active coordinate, then
    refines it by minimizing the recurrence distance.  Returns a
    PeriodicOrbit, or None when the tail is an equilibrium, shows fewer
    than five upward crossings, or returns to its anchor state with a
    sup distance above 1e-6 of the tail amplitude.
    """
    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    t_cut = t0 + _TRANSIENT_FRACTION * (t1 - t0)
    ts = np.linspace(t_cut, t1, _RESAMPLE)
    Z = traj.sample(ts)
    spans = Z.max(axis=0) - Z.min(axis=0)
    amp = float(spans.max())
    if amp < 1e-8 * max(1.0, float(np.max(np.abs(Z)))):
        return None
    ref = Z[:, int(np.argmax(spans))]
    centered = ref - ref.mean()
    up = np.nonzero((centered[:-1] <= 0.0) & (centered[1:] > 0.0))[0]
    if len(up) < _MIN_CROSSINGS:
        return None
    # linear interpolation of each upward crossing time
    frac = -centered[up] / (centered[up + 1] - centered[up])
    t_cross = ts[up] + frac * (ts[1] - ts[0])
    p0 = float(np.median(np.diff(t_cross)))
    if not np.isfinite(p0) or p0 <= 0.0:
        return None
    anchor_t = t_cut
    if anchor_t + 1.3 * p0 > t1:
        return None
    z_a = traj.sample(anchor_t)

    def recur(p):
        return float(np.linalg.norm(traj.sample(anchor_t + p) - z_a))

    period = _golden_min(recur, 0.75 * p0, 1.25 * p0)
    residual = float(np.max(np.abs(traj.sample(anchor_t + period) - z_a))) / amp
    if residual > _REL_THRESHOLD:
        return None
    return PeriodicOrbit(period, anchor_t, z_a, traj, residual)


@dataclass
class OrbitSymmetry:
    """Spatio-temporal symmetry of a periodic orbit.

    ``spatial`` (H) collects the shifts mapping the orbit to itself up
    to a time shift, ``fixing`` (K) those with zero shift.  ``phases``
    holds the raw time shift of each generator of ``spatial``, (1, 0)
    and (0, 1) for the full group, in [-P/(2N), P - P/(2N)) so that a
    zero shift reads near 0; entries of ``phase_fractions`` are
    the matching multiples of P/N, or None for a shift that fails
    quantization.  ``unquantized`` lists the tested subgroup generators
    inside ``spatial`` whose shift fails quantization, and
    ``match_residual`` is the largest distance, relative to the orbit
    amplitude, between the orbit and the time-shifted image of one of
    those generators (0 when ``spatial`` is trivial).
    """

    period: float
    spatial: IsotropySubgroup
    fixing: IsotropySubgroup
    phases: dict
    phase_fractions: dict
    unquantized: tuple
    match_residual: float


def _peak_shift(cross: np.ndarray, omega: np.ndarray, tau: float) -> float:
    """Refine a sampled maximum of the trigonometric interpolant

        c(tau) = Re sum_k cross_k exp(i omega_k tau)

    by Newton steps on c'(tau) = 0, starting from the sample time tau.
    Started within half a sample of the peak, four steps reach it to
    rounding.
    """
    for _ in range(4):
        rot = cross * np.exp(1j * omega * tau)
        d2 = float(np.real(np.sum(-omega * omega * rot)))
        if d2 >= 0.0:
            break
        tau -= float(np.real(np.sum(1j * omega * rot))) / d2
    return tau


def classify_spatiotemporal(orbit: PeriodicOrbit, lp: LatticeParams,
                            tol: float = 1e-2) -> OrbitSymmetry:
    """Identify which lattice shifts preserve a periodic orbit.

    For prime N every subgroup of Z_N x Z_N is trivial, one of the N+1
    cyclic subgroups, or the whole group, so only the canonical
    generator of each cyclic subgroup is tested.  One period is sampled
    once at N*64 times.  Each generator's time shift is the maximum of
    the trigonometric interpolant of the cross-correlation between the
    orbit and its shifted copy, found from the FFT of the samples and
    refined by Newton steps; the time-shifted orbit is a Fourier phase
    shift of the same samples.  A generator matches when the sup
    distance stays below tol (positive and finite) times the orbit
    amplitude.  H is the subgroup the matching generators generate; K
    (Golubitsky-Stewart H/K) the one generated by those inside H whose
    quantized shift is zero, exact since every subgroup is generated by
    the canonical generators it contains.
    """
    if not (tol > 0.0 and np.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    n = lp.n
    P = orbit.period
    m = n * 64
    Z = orbit.trajectory.sample(orbit.anchor_time + P * np.arange(m) / m)
    amp = float(np.max(np.abs(Z - Z.mean(axis=0))))
    if amp <= 0.0:
        raise ClassificationError("orbit has zero amplitude")
    Fz = np.fft.fft(Z, axis=0)
    omega = 2.0 * np.pi * np.fft.fftfreq(m, d=P / m)

    gens = _generators(n)
    shift, residual, fraction = {}, {}, {}
    for g in gens:
        perm = state_permutation(g, n)
        cross = np.sum(np.conj(Fz[:, perm]) * Fz, axis=1)
        j0 = int(np.argmax(np.fft.ifft(cross).real))
        th = _peak_shift(cross, omega, j0 * P / m)
        moved = np.fft.ifft(Fz * np.exp(1j * omega * th)[:, None], axis=0).real
        residual[g] = float(np.max(np.abs(Z[:, perm] - moved))) / amp
        shift[g] = float(np.mod(th, P))
        if shift[g] >= P - P / (2 * n):  # a zero shift reads 0, not P
            shift[g] -= P
        q = round(shift[g] * n / P)
        quantized = abs(shift[g] - q * P / n) <= 0.02 * P
        fraction[g] = Fraction(q % n, n) if quantized else None

    spatial = _subgroup_of([g for g in gens if residual[g] <= tol], n)
    tested = [g for g in gens if spatial.contains(g)]
    reported = [(1, 0), (0, 1)] if spatial.kind == "full" else tested
    phase_fractions = {g: fraction[g] for g in reported}
    return OrbitSymmetry(
        period=P,
        spatial=spatial,
        fixing=_subgroup_of([g for g in tested if fraction[g] == 0], n),
        phases={g: shift[g] for g in reported},
        phase_fractions=phase_fractions,
        unquantized=tuple(g for g in tested if fraction[g] is None),
        match_residual=max((residual[g] for g in tested), default=0.0),
    )


def _quotient_solve(K: IsotropySubgroup, z0,
                    lp: LatticeParams | Sequence[LatticeParams], t_end):
    """The flow on Fix(K), restricted to one cell per K-orbit.

    ``lp`` is one LatticeParams and z0 a full state, shape (2*N^2,), or
    a sequence of B lattices with one full state per column, shape
    (2*N^2, B).  Every column must lie in Fix(K) to 1e-10 of its size,
    else InvarianceError.  Returns the cell classes of K and
    ``_rk.solve``'s (ts, ys, fs, ks, stats) on the quotient, whose
    states have shape (2 * #classes,) or (2 * #classes, B); a batch
    shares one step sequence.
    """
    single = isinstance(lp, LatticeParams)
    n = lp.n if single else lp[0].n
    if K.n != n:
        raise DimensionMismatchError("subgroup and lattice sizes disagree")
    batch = () if single else (len(lp),)
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (state_dim(n),) + batch:
        raise DimensionMismatchError(
            f"initial state must have shape {(state_dim(n),) + batch}"
        )
    reps, cls = _cell_classes(K, n)
    cells = z0.reshape((-1, 2) + batch)
    scale = np.maximum(1.0, np.max(np.abs(z0), axis=0))
    if np.any(np.max(np.abs(cells - cells[reps][cls]), axis=(0, 1)) > 1e-10 * scale):
        raise InvarianceError("initial state is not in Fix(K)")
    q0 = cells[reps].reshape((-1,) + batch)
    return cls, _rk.solve(make_rhs(lp, K), 0.0, q0, t_end)


def reduced_integrate_fix(K: IsotropySubgroup, z0, lp: LatticeParams,
                          t_end) -> Trajectory:
    """Integrate inside the fixed-point space of K from t = 0 to t_end.

    Fix(K) is invariant, and the flow on it is a smaller lattice with
    one cell per K-orbit.  That flow is integrated with the default
    tolerances of :func:`integrate` and lifted back to full lattice
    states, which are therefore exactly K-fixed.  The initial state
    must lie in Fix(K) to 1e-10, else InvarianceError.

    The restriction and the solve are ``_quotient_solve``, which also
    takes a batch: B lattices with one start per column, states of
    shape (dim, B) with the slot axis first, integrated with one shared
    step sequence whose error is the largest per-column RMS error.  The
    criticality probe runs its batch there, on the quotient, unlifted.
    """
    cls, (ts, ys, fs, ks, stats) = _quotient_solve(K, z0, lp, t_end)

    def lift(q):
        lead = q.shape[:-1]
        return q.reshape(lead + (-1, 2))[..., cls, :].reshape(lead + (-1,))

    return Trajectory(ts, lift(ys), lift(fs), lift(ks), stats)
