"""Time integration, orbit detection and spatio-temporal classification."""

from __future__ import annotations

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
    """Accepted integration nodes with derivatives for dense evaluation."""

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    stats: dict = field(default_factory=dict)

    def sample(self, t):
        """Cubic Hermite interpolation at scalar or array times."""
        return _rk.hermite_eval(self.times, self.states, self.derivs, t)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def make_rhs(lp: LatticeParams, K: IsotropySubgroup | None = None):
    """Flat-vector network field, index arithmetic precomputed.

    With a subgroup K the field is the exact flow on Fix(K): one cell
    per K-orbit of cells, in the order of :func:`_cell_classes`.  The
    field also takes states stacked along further axes with the state
    slot first, shape (dim, ...), and returns the derivative of each in
    the same layout: a stack of row states ``Z`` goes in as ``Z.T``.
    The slot axis comes first because indexing it adds nothing to a
    one-state call, where ``z[..., idx]`` adds about a quarter.
    """
    n = lp.n
    succ_i, succ_j = _cell_shift((1, 0), n), _cell_shift((0, 1), n)
    if K is not None:
        reps, cls = _cell_classes(K, n)
        succ_i, succ_j = cls[succ_i[reps]], cls[succ_j[reps]]
    a, b, c, gam, dlt = lp.a, lp.b, lp.c, lp.gamma, lp.delta

    def rhs(t, z):
        x = z[0::2]
        y = z[1::2]
        dz = np.empty_like(z)
        dz[0::2] = (
            x * (a - x) * (x - 1.0)
            - y
            + gam * (x - x[succ_i])
            + dlt * (x - x[succ_j])
        )
        dz[1::2] = b * x - c * y
        return dz

    return rhs


def integrate(z0, lp: LatticeParams, t_end, rtol=_rk._RTOL,
              atol=_rk._ATOL) -> Trajectory:
    """Adaptive 5(4) integration of the lattice field.

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
    ts, ys, fs, stats = _rk.solve(make_rhs(lp), 0.0, z0, t_end, rtol=rtol, atol=atol)
    return Trajectory(ts, ys, fs, stats)


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
    and (0, 1) for the full group; entries of ``phase_fractions`` are
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


def reduced_integrate_fix(K: IsotropySubgroup, z0, lp: LatticeParams,
                          t_end) -> Trajectory:
    """Integrate inside the fixed-point space of K from t = 0 to t_end.

    Fix(K) is invariant, and the flow on it is a smaller lattice with
    one cell per K-orbit.  That flow is integrated with the default
    tolerances of :func:`integrate` and lifted back to full lattice
    states, which are therefore exactly K-fixed.  The initial state
    must lie in Fix(K) to 1e-10, else InvarianceError.
    """
    n = lp.n
    if K.n != n:
        raise DimensionMismatchError("subgroup and lattice sizes disagree")
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (state_dim(n),):
        raise DimensionMismatchError(
            f"initial state must have shape ({state_dim(n)},)"
        )
    reps, cls = _cell_classes(K, n)
    cells = z0.reshape(-1, 2)
    scale = max(1.0, float(np.max(np.abs(z0))))
    if float(np.max(np.abs(cells - cells[reps][cls]))) > 1e-10 * scale:
        raise InvarianceError("initial state is not in Fix(K)")
    ts, ys, fs, stats = _rk.solve(make_rhs(lp, K), 0.0, cells[reps].reshape(-1), t_end)

    def lift(q):
        return q.reshape(len(ts), -1, 2)[:, cls].reshape(len(ts), -1)

    return Trajectory(ts, lift(ys), lift(fs), stats)
