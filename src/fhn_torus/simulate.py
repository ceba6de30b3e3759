"""Time integration, orbit detection and spatio-temporal classification."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import _rk
from ._rk import Trajectory
from .errors import (ClassificationError, DimensionMismatchError, DomainError,
                     InvarianceError)
from .model import LatticeParams, _cell_shift, _check_state, _linear_weights
from .symmetry import (
    IsotropySubgroup,
    _cell_classes,
    _generators,
    _subgroup_of,
    state_permutation,  # noqa: F401  bench/selfcheck.py checks this binding
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


def make_rhs(lp: LatticeParams | Sequence[LatticeParams],
             K: IsotropySubgroup | None = None):
    """The network field: one five-entry stencil, built once.

    Every cell is the same FitzHugh-Nagumo cell, fed by its two coupling
    successors, so the derivative of each slot is a fixed weighted sum
    of five entries of the state extended by the cells' cubic parts
    x^2 (a + 1 - x), appended after it:

        x' = (gamma + delta - a) x - y - gamma x_(1,0) - delta x_(0,1)
             + x^2 (a + 1 - x)
        y' = b x - c y

    whose linear weights are those of ``model._linear_weights``.  A
    (5, dim) index table picks the cell's x and y, the x of its two
    successors and its cubic part for both slots of the cell, and a
    (5, dim) weight table weighs them, with zeros for the last three
    entries of a y slot.

    With a subgroup K the field is the exact flow on Fix(K): one cell
    per K-orbit of cells, in the order of :func:`_cell_classes`, whose
    successors are read through the class of each successor cell.

    ``lp`` is one LatticeParams, whose states have dim slots, or a
    sequence of B with the same n, one block-diagonal lattice whose
    states have B * dim slots, lattice j in slots j * dim to
    (j + 1) * dim - 1, with one weight per entry.  The field takes a
    state, shape (slots,), or a stack of P, shape (P, slots), with their
    P times, and returns the derivatives in the same shape; any other
    shape raises DimensionMismatchError.

    At the lattice sizes in use a call costs about as much as its numpy
    operations' call overhead, so it makes few.  A state has two
    entries to one body of arithmetic.  ``rhs.into(t, out)`` evaluates
    the field at the state in ``rhs.state``, the first slots of an
    extended-state buffer the field keeps: it writes the cubic parts
    after the state, then makes one gather, one product and one sum
    over the five rows, a BLAS product with a row of ones that adds
    them in the table's order, written into out.  ``rhs(t, z)`` copies
    z into ``rhs.state`` and returns ``into``'s result in a fresh
    array.  ``_rk.solve`` writes each stage input into ``rhs.state``
    itself and has ``into`` write the stage into its row, with no copy
    and no array of its own.  A stack makes one concatenation instead
    of the buffer and one reduction over a (P, 5, slots) gather.  The
    buffer, written by calls and by the solver alike, makes a field
    unfit for use from two threads at once, two solves included.
    """
    lps = [lp] if isinstance(lp, LatticeParams) else list(lp)
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
    lin = np.repeat([_linear_weights(p) for p in lps], m, axis=0).T
    w = np.zeros((5, 2 * cells))
    w[:4, 0::2] = lin[:4]
    w[4, 0::2] = 1.0
    w[:2, 1::2] = lin[4:]
    a1 = np.repeat([p.a for p in lps], m) + 1.0
    shape = (2 * cells,)
    # a state's extended state: the state, then the cubic parts
    ext = np.empty(3 * cells)
    state, cubic, x = ext[:2 * cells], ext[2 * cells:], ext[0:2 * cells:2]
    tmp = np.empty(cells)  # a1 - x
    # a row of ones times g is a gemv (0.6 us a call, np.add.reduce 1.6
    # to 2.7) that on OpenBLAS 0.3.31 adds the rows of g in row order,
    # as the reduction does, for 4 or more columns; with 2 or 3 it
    # rounds otherwise (8,091 of 20,000 random (5, 2) cases), so a
    # one-cell lattice keeps the reduction
    add_rows = np.ones(5).dot if cells > 1 else partial(np.add.reduce, axis=0)

    # local names and a positional out: at about 1 us a numpy call, the
    # global lookups and the keyword parse are a few percent of a step
    mul, sub = np.multiply, np.subtract

    def into(t, out):
        mul(x, x, cubic)
        sub(a1, x, tmp)
        mul(cubic, tmp, cubic)
        g = ext[idx]  # a fresh array: the buffer never leaves
        g *= w
        add_rows(g, out=out)

    def rhs(t, z):
        if z.shape == shape:
            np.copyto(state, z)
            out = np.empty(shape)
            into(t, out)
            return out
        if z.shape[1:] != shape:
            raise DimensionMismatchError(
                f"the field takes states of shape {shape} and stacks of them, "
                f"got {z.shape}")
        xs = z[:, 0::2]
        g = np.concatenate((z, xs * xs * (a1 - xs)), axis=1)[:, idx]
        g *= w
        return np.add.reduce(g, axis=1)

    rhs.state, rhs.into = state, into
    return rhs


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
    z0 = _check_state(z0, lp.n)
    return _rk.solve(make_rhs(lp), 0.0, z0, t_end, rtol=rtol, atol=atol)


# Orbit detection: the leading share of the run discarded as transient,
# the fewest upward mean crossings that count as oscillation, and the
# largest accepted recurrence residual relative to the tail amplitude.
# Five crossings give four intervals inside the tail, so their median,
# the period estimate, is at most half the tail, and the recurrence
# search, up to 1.25 periods past the tail's start, stays inside it.
_TRANSIENT_FRACTION = 0.5
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


def _median(d: np.ndarray) -> float:
    """``np.median`` of a 1-D array bit for bit, NaN if any entry is,
    without the 20 ms import of ``numpy.ma`` that its first call makes."""
    d, m = np.sort(d).tolist(), len(d) // 2  # a NaN sorts last
    return d[-1] if d[-1] != d[-1] else d[m] if len(d) % 2 else (d[m - 1] + d[m]) / 2


def detect_periodic_orbit(traj: Trajectory):
    """Locate a periodic orbit in the tail of a trajectory.

    Discards the first half of the run as transient, estimates the
    period from mean crossings of the most active coordinate, then
    refines it by minimizing the recurrence distance.  Returns a
    PeriodicOrbit, or None when the tail is an equilibrium, shows fewer
    than five upward crossings, or returns to its anchor state with a
    sup distance above 1e-6 of the tail amplitude.

    The tail is the solver's nodes from t_cut on, whose states are
    exact: they give each coordinate's span and the most active
    coordinate's mean, and each upward crossing of that mean is
    interpolated linearly between its two nodes.  Only the recurrence
    search and its residual sample the interpolant.
    """
    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    t_cut = t0 + _TRANSIENT_FRACTION * (t1 - t0)
    i0 = int(np.searchsorted(traj.times, t_cut))
    ts, Z = traj.times[i0:], traj.states[i0:]
    hi, lo = Z.max(axis=0), Z.min(axis=0)
    spans = hi - lo
    amp = float(spans.max())
    if amp < 1e-8 * max(1.0, float(np.max(np.abs([hi, lo])))):
        return None
    ref = Z[:, int(np.argmax(spans))]
    centered = ref - ref.mean()
    up = np.nonzero((centered[:-1] <= 0.0) & (centered[1:] > 0.0))[0]
    if len(up) < _MIN_CROSSINGS:
        return None
    # linear interpolation of each upward crossing time
    frac = -centered[up] / (centered[up + 1] - centered[up])
    t_cross = ts[up] + frac * (ts[up + 1] - ts[up])
    p0 = _median(np.diff(t_cross))
    if not np.isfinite(p0) or p0 <= 0.0:
        return None
    anchor_t = t_cut
    z_a = traj.sample(anchor_t)

    def recur(p):
        d = traj.sample(anchor_t + p) - z_a
        # a distance past the float range is inf, farther than any
        # other: the residual test below rejects such a recurrence
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(d))

    period = _golden_min(recur, 0.75 * p0, 1.25 * p0)
    residual = float(np.max(np.abs(traj.sample(anchor_t + period) - z_a))) / amp
    if residual > _REL_THRESHOLD:
        return None
    return PeriodicOrbit(period, anchor_t, z_a, traj, residual)


@dataclass
class OrbitSymmetry:
    """Spatio-temporal symmetry of a periodic orbit.

    ``spatial`` (H) collects the shifts mapping the orbit to itself up
    to a time shift, ``fixing`` (K) those with zero shift.  ``period``
    is the orbit's least period P, which is the given one divided by d
    when the orbit was handed over with d times it.  ``phases`` holds
    the time shift q P/N, 0 <= q < N, of each generator of ``spatial``,
    (1, 0) and (0, 1) for the full group, and ``phase_fractions`` the
    matching q/N.  ``match_residual`` is the largest relative RMS, over
    the tested generators inside ``spatial``, of the part of the orbit
    that breaks the generator's symmetry (0 when ``spatial`` is
    trivial).
    """

    period: float
    spatial: IsotropySubgroup
    fixing: IsotropySubgroup
    phases: dict
    phase_fractions: dict
    match_residual: float


def _require_tol(tol: float) -> None:
    """Refuse a classification tolerance that is not positive and finite."""
    if not (tol > 0.0 and np.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")


def classify_spatiotemporal(orbit: PeriodicOrbit, lp: LatticeParams,
                            tol: float = 1e-2) -> OrbitSymmetry:
    """Identify which lattice shifts preserve a periodic orbit.

    A shift g = (r, s) maps the orbit onto itself after q/N of a period
    exactly when its space-time Fourier transform lives on the bins
    (l, k) of temporal harmonic l and spatial frequency k = (k1, k2)
    with g.k = l q (mod N): g turns bin k by w^(g.k) and the time shift
    turns harmonic l by w^(l q).  The x coordinates of one period, which
    drive y, are sampled once at N*64 times and transformed by one real
    FFT over (t, j, i); the energy of each bin, folded by l mod N, gives
    for each canonical generator of the N+1 cyclic subgroups (for prime
    N every subgroup is trivial, one of these, or the whole group) the
    q whose bins hold the most energy.  g matches when the RMS of the
    rest, relative to that of the whole orbit, is at most tol (positive
    and finite).  The whole leaves out only the bin (0, (0, 0)), the
    space-time mean, which lies in every set of bins; a static pattern
    that is not uniform breaks symmetry.

    H is the subgroup the matching generators generate; K
    (Golubitsky-Stewart H/K) the one generated by those inside H with
    q = 0, exact since every subgroup is generated by the canonical
    generators it contains.  An orbit handed over with d times its
    least period, d the gcd of the harmonics holding more than tol^2 of
    the energy, is classified on its least period.  An orbit whose
    state is not one of the lattice of ``lp`` raises
    DimensionMismatchError, and one without amplitude
    ClassificationError.
    """
    _require_tol(tol)
    n = lp.n
    _check_state(orbit.anchor_state, n)
    P = orbit.period
    m = n * 64
    X = orbit.trajectory.slots(slice(0, None, 2)).sample(
        orbit.anchor_time + P * np.arange(m) / m)
    # x of the flat cell j*N + i (model's layout) at grid [j, i]; the
    # real transform keeps harmonics l >= 0, and each of 0 < l < m/2
    # stands for -l too, whose bins hold the same energy and lie in the
    # same sets
    E = np.abs(np.fft.rfftn(X.reshape(m, n, n), axes=(1, 2, 0)))
    del X
    E *= E
    E[1:m // 2] *= 2.0
    E[0, 0, 0] = 0.0
    total = float(E.sum())
    if not total > 0.0:
        raise ClassificationError("orbit has zero amplitude")
    per_l = E.sum(axis=(1, 2))
    d = int(np.gcd.reduce(np.nonzero(per_l > tol * tol * total)[0])) or 1
    # the harmonics that are not multiples of d lie in no set; the
    # others, harmonics of the least period P/d, are folded mod N
    stray = float(np.delete(per_l, np.s_[::d]).sum())
    held = E[::d].reshape(-1, n * n)
    jn = np.arange(n)
    table = (np.arange(len(held)) % n == jn[:, None]) @ held
    # off[q, j, v]: value v of g.k lies off the set for q at harmonic j
    off = jn != (np.multiply.outer(jn, jn) % n)[:, :, None]
    k2, k1 = np.indices((n, n)).reshape(2, -1)
    q, residual = {}, {}
    gens = _generators(n)
    for g in gens:
        v = (g[0] * k1 + g[1] * k2) % n
        by_v = np.bincount((jn[:, None] * n + v).reshape(-1),
                           weights=table.reshape(-1), minlength=n * n).reshape(n, n)
        rest = np.tensordot(off, by_v, 2)  # summed, never differenced
        q[g] = int(np.argmin(rest))
        residual[g] = float(np.sqrt((rest[q[g]] + stray) / total))

    period = P / d
    spatial = _subgroup_of([g for g in gens if residual[g] <= tol], n)
    tested = [g for g in gens if spatial.contains(g)]
    reported = [(1, 0), (0, 1)] if spatial.kind == "full" else tested
    return OrbitSymmetry(
        period=period,
        spatial=spatial,
        fixing=_subgroup_of([g for g in tested if q[g] == 0], n),
        phases={g: q[g] * period / n for g in reported},
        phase_fractions={g: Fraction(q[g], n) for g in reported},
        match_residual=max((residual[g] for g in tested), default=0.0),
    )


def _quotient_solve(K: IsotropySubgroup, z0, lps: Sequence[LatticeParams], t_end,
                    rtol=_rk._RTOL):
    """The flow on Fix(K), restricted to one cell per K-orbit.

    z0 is one full state, shape (2*N^2,), which must lie in Fix(K) to
    1e-10 of its size, else InvarianceError.  ``lps`` is a sequence of
    B LatticeParams, each started from z0: the block-diagonal lattice of
    ``make_rhs``, one state and one step sequence, solved at ``rtol``
    and the default atol of :func:`integrate`.  Returns the cell
    classes of K and the ``Trajectory`` on the quotient, whose states
    have 2 * #classes slots per lattice, lattice j's after those of the
    j before it.
    """
    n = lps[0].n
    if K.n != n:
        raise DimensionMismatchError("subgroup and lattice sizes disagree")
    z0 = _check_state(z0, n)
    reps, cls = _cell_classes(K, n)
    cells = z0.reshape(-1, 2)
    if np.max(np.abs(cells - cells[reps[cls]])) > 1e-10 * max(1.0, np.max(np.abs(z0))):
        raise InvarianceError("initial state is not in Fix(K)")
    q0 = np.tile(cells[reps].reshape(-1), len(lps))
    return cls, _rk.solve(make_rhs(lps, K), 0.0, q0, t_end, rtol=rtol)


def reduced_integrate_fix(K: IsotropySubgroup, z0, lp: LatticeParams,
                          t_end) -> Trajectory:
    """Integrate inside the fixed-point space of K from t = 0 to t_end.

    Fix(K) is invariant, and the flow on it is a smaller lattice with
    one cell per K-orbit.  That flow is integrated with the default
    tolerances of :func:`integrate` and lifted back to full lattice
    states, which are therefore exactly K-fixed.  The initial state
    must lie in Fix(K) to 1e-10, else InvarianceError.

    The restriction and the solve are ``_quotient_solve``, of a
    sequence of lattices from one start, integrated as one
    block-diagonal state whose step error is the RMS over all its
    slots; here the sequence is ``[lp]``.  The criticality probe runs
    its four lattices there, on the quotient, unlifted, at a coarser
    rtol of its own.
    """
    cls, sol = _quotient_solve(K, z0, [lp], t_end)
    # slots x, y of cell i are those of its class cls[i]
    return sol.slots((2 * cls[:, None] + (0, 1)).ravel())
