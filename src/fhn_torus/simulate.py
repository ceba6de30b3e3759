"""Time integration, orbit detection and spatio-temporal classification."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _rk
from .errors import ClassificationError, DimensionMismatchError, InvarianceError
from .model import LatticeParams, state_dim
from .symmetry import (
    IsotropySubgroup,
    _subgroup_from_members,
    group_elements,
    state_permutation,
)

__all__ = [
    "Trajectory",
    "PeriodicOrbit",
    "OrbitDetectSettings",
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


def _cell_classes(K: IsotropySubgroup, n: int):
    """Label every cell by its K-orbit.

    Returns ``reps``, the smallest flat cell index of each orbit in
    increasing order, and ``cls``, the orbit number of every cell, so
    that ``cls[reps]`` is ``arange(len(reps))``.
    """
    m = np.arange(n * n)
    i, j = m % n, m // n
    orbits = np.array([((j + s) % n) * n + (i + r) % n for r, s in K.elements()])
    return np.unique(orbits.min(axis=0), return_inverse=True)


def make_rhs(lp: LatticeParams, K: IsotropySubgroup | None = None):
    """Flat-vector network field, index arithmetic precomputed.

    With a subgroup K the field is the exact flow on Fix(K): one cell
    per K-orbit of cells, in the order of :func:`_cell_classes`.
    """
    n = lp.n
    m = np.arange(n * n)
    i, j = m % n, m // n
    succ_i = j * n + (i + 1) % n
    succ_j = ((j + 1) % n) * n + i
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


def integrate(z0, lp: LatticeParams, t_end, rtol=1e-9, atol=1e-11,
              t0=0.0, max_step=np.inf) -> Trajectory:
    """Adaptive 5(4) integration of the lattice field.

    Parameters
    ----------
    z0 : ndarray, shape (2*N^2,)
    lp : LatticeParams
    t_end : float
        Final time; integration starts at t0.
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
    ts, ys, fs, stats = _rk.solve(
        make_rhs(lp), t0, z0, t_end, rtol=rtol, atol=atol, max_step=max_step
    )
    return Trajectory(ts, ys, fs, stats)


@dataclass(frozen=True)
class OrbitDetectSettings:
    transient_fraction: float = 0.5
    rel_threshold: float = 1e-6
    resample: int = 4096
    min_crossings: int = 5


@dataclass
class PeriodicOrbit:
    period: float
    anchor_time: float
    anchor_state: np.ndarray
    trajectory: Trajectory
    residual: float


def _golden_min(fun, lo, hi, iters=80):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def detect_periodic_orbit(traj: Trajectory, settings: OrbitDetectSettings | None = None):
    """Locate a periodic orbit in the tail of a trajectory.

    Discards the leading transient, estimates the period from mean
    crossings of the most active coordinate, then refines it by
    minimizing the recurrence distance.  Returns a PeriodicOrbit or
    None when the tail is an equilibrium or fails the recurrence test.
    """
    st = settings or OrbitDetectSettings()
    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    t_cut = t0 + st.transient_fraction * (t1 - t0)
    ts = np.linspace(t_cut, t1, st.resample)
    Z = traj.sample(ts)
    spans = Z.max(axis=0) - Z.min(axis=0)
    amp = float(spans.max())
    if amp < 1e-8 * max(1.0, float(np.max(np.abs(Z)))):
        return None
    ref = Z[:, int(np.argmax(spans))]
    centered = ref - ref.mean()
    up = np.nonzero((centered[:-1] <= 0.0) & (centered[1:] > 0.0))[0]
    if len(up) < st.min_crossings:
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
    if residual > st.rel_threshold:
        return None
    return PeriodicOrbit(period, anchor_t, z_a, traj, residual)


@dataclass
class OrbitSymmetry:
    """Spatio-temporal symmetry of a periodic orbit.

    ``spatial`` collects the shifts mapping the orbit to itself up to a
    time shift, ``fixing`` those with zero shift.  ``phases`` holds the
    raw time shift of each generator of ``spatial``; entries of
    ``phase_fractions`` are the matching multiples of P/N, or None for
    a shift that fails quantization.
    """

    period: float
    spatial: IsotropySubgroup
    fixing: IsotropySubgroup
    phases: dict
    phase_fractions: dict
    unquantized: tuple
    match_residual: float


def classify_spatiotemporal(orbit: PeriodicOrbit, lp: LatticeParams,
                            tol: float = 1e-2) -> OrbitSymmetry:
    """Identify which lattice shifts preserve a periodic orbit.

    For every group element the orbit is compared against its shifted
    copy over one period, searching the relative time shift on a grid
    of N*64 samples refined by golden section.  A shift is accepted
    when the sup distance stays below tol times the orbit amplitude.
    """
    n = lp.n
    traj = orbit.trajectory
    P = orbit.period
    m = n * 64
    base = orbit.anchor_time
    ts = base + P * np.arange(m) / m
    Z = traj.sample(ts)
    amp = float(np.max(np.abs(Z - Z.mean(axis=0))))
    if amp <= 0.0:
        raise ClassificationError("orbit has zero amplitude")
    Fz = np.fft.fft(Z, axis=0)

    def dist(g_samples, theta):
        tq = base + np.mod(P * np.arange(m) / m + theta, P)
        return float(np.max(np.abs(g_samples - traj.sample(tq))))

    accepted = {}
    worst = 0.0
    for g in group_elements(n):
        perm = state_permutation(g, n)
        Zg = Z[:, perm]
        corr = np.fft.ifft(np.conj(np.fft.fft(Zg, axis=0)) * Fz, axis=0).real
        j0 = int(np.argmax(corr.sum(axis=1)))
        th = _golden_min(
            lambda th: dist(Zg, th),
            (j0 - 1.5) * P / m,
            (j0 + 1.5) * P / m,
            iters=60,
        )
        d = dist(Zg, th)
        if d <= tol * amp:
            accepted[g] = float(np.mod(th, P))
            worst = max(worst, d / amp)

    spatial = _subgroup_from_members(set(accepted), n)
    members = set(spatial.elements())

    fixing_members = set()
    unquantized = []
    fractions = {}
    for g in sorted(members):
        th = accepted[g]
        q = round(th * n / P)
        if abs(th - q * P / n) <= 0.02 * P:
            fractions[g] = Fraction(int(q) % n, n)
            if q % n == 0:
                fixing_members.add(g)
        else:
            fractions[g] = None
            unquantized.append(g)
    fixing = _subgroup_from_members(fixing_members, n)

    if spatial.kind == "full":
        gens = [(1, 0), (0, 1)]
    elif spatial.kind == "cyclic":
        gens = [spatial.generator]
    else:
        gens = []
    phases = {g: accepted[g] for g in gens}
    phase_fractions = {g: fractions[g] for g in gens}
    return OrbitSymmetry(
        period=P,
        spatial=spatial,
        fixing=fixing,
        phases=phases,
        phase_fractions=phase_fractions,
        unquantized=tuple(unquantized),
        match_residual=worst,
    )


def reduced_integrate_fix(K: IsotropySubgroup, z0, lp: LatticeParams, t_end,
                          rtol=1e-9, atol=1e-11, t0=0.0) -> Trajectory:
    """Integrate inside the fixed-point space of K.

    Fix(K) is invariant, and the flow on it is a smaller lattice with
    one cell per K-orbit.  That flow is integrated and lifted back to
    full lattice states, which are therefore exactly K-fixed.  The
    initial state must lie in Fix(K) to 1e-10, else InvarianceError.
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
    ts, ys, fs, stats = _rk.solve(
        make_rhs(lp, K), t0, cells[reps].reshape(-1), t_end, rtol=rtol, atol=atol
    )

    def lift(q):
        return q.reshape(len(ts), -1, 2)[:, cls].reshape(len(ts), -1)

    return Trajectory(ts, lift(ys), lift(fs), stats)
