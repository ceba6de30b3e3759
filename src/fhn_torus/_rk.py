"""Embedded Dormand-Prince 5(4) stepper with cubic Hermite dense output."""

from __future__ import annotations

import numpy as np

from .errors import DomainError, StiffnessError

# Butcher coefficients.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9

# Default error tolerances, and the number of step attempts (accepted
# plus rejected) after which a run is abandoned as stiff.
_RTOL = 1e-9
_ATOL = 1e-11
_MAX_STEPS = 5_000_000

# The smallest step, relative to max(1, |t|); a shorter one is an
# underflow, and a shorter span is refused.
_MIN_STEP = 1e-14


def _rms(v):
    """Root mean square along the last axis; the largest over batch rows.

    The arithmetic of ``np.sqrt(np.mean(v * v, axis=-1))``, bit for
    bit, without the Python layers of ``np.mean``."""
    r = np.sqrt(np.add.reduce(v * v, axis=-1) / v.shape[-1])
    return float(r if r.ndim == 0 else r.max())


def _initial_step(f, t0, y0, f0, rtol, atol, span):
    """Starting step of Hairer, Norsett and Wanner; the smallest over
    the batch rows."""
    sc = atol + rtol * np.abs(y0)
    d0 = [_rms(row) for row in np.atleast_2d(y0 / sc)]
    d1 = [_rms(row) for row in np.atleast_2d(f0 / sc)]
    h0 = min(1e-6 if e0 < 1e-5 or e1 < 1e-5 else 0.01 * e0 / e1
             for e0, e1 in zip(d0, d1))
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = [_rms(row) / h0 for row in np.atleast_2d((f1 - f0) / sc)]
    h1 = min(max(1e-6, h0 * 1e-3) if max(e1, e2) <= 1e-15
             else (0.01 / max(e1, e2)) ** 0.2
             for e1, e2 in zip(d1, d2))
    return min(100 * h0, h1, span)


def solve(f, t0, y0, t_end, rtol=_RTOL, atol=_ATOL):
    """Integrate y' = f(t, y) from t0 to t_end.

    y0 is one state, shape (dim,), or a batch of B states, shape
    (dim, B) with the slot axis first, and f maps a state of that shape
    to its derivative.  A batch shares one step sequence: the error that
    accepts or rejects a step and sets the next one is the largest of
    the per-column RMS errors, so every column meets the tolerances.
    The stages are kept one column per row, so a column's arithmetic is
    that of its own one-state run; a batch of equal columns reproduces
    the one-state run bit for bit, and a one-state run is unchanged.

    Returns (ts, ys, fs, stats): accepted nodes, states and derivatives
    there, shape (nt,) + y0.shape, and a counter dict.  Raises
    DomainError for a state that is not one- or two-dimensional or not
    finite, t_end that is not finite, rtol < 0, atol <= 0,
    t_end <= t0 or a span shorter than the smallest step,
    1e-14 * max(1, |t0|); StiffnessError if the step size underflows
    or after _MAX_STEPS step attempts.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim not in (1, 2) or y0.size == 0:
        raise DomainError(f"state must have shape (dim,) or (dim, B), got {y0.shape}")
    y = np.array(y0.T)  # one row per batch column
    t = float(t0)
    if not (np.isfinite(t_end) and np.all(np.isfinite(y))):
        raise DomainError("t_end and the initial state must be finite")
    if not (0.0 <= rtol < np.inf and 0.0 < atol < np.inf):
        raise DomainError(f"need finite rtol >= 0 and atol > 0, got {rtol!r}, {atol!r}")
    span = float(t_end) - t
    if span <= 0.0:
        raise DomainError("t_end must exceed t0")
    min_step = _MIN_STEP * max(1.0, abs(t))
    if span < min_step:
        raise DomainError(
            f"integration span {span!r} is shorter than the smallest step {min_step!r}"
        )
    # stages (7, dim), or (B, 7, dim): each column's stages contiguous,
    # so the stage sums below run column by column
    rows = f if y.ndim == 1 else (lambda t, r: f(t, r.T).T)
    k = np.empty(y.shape[:-1] + (7, y.shape[-1]))
    stage = [k[..., i, :] for i in range(7)]
    prior = [k[..., :i, :] for i in range(7)]
    stage[0][...] = rows(t, y)
    h = _initial_step(rows, t, y, stage[0], rtol, atol, span)
    ts, ys, fs = [t], [y.copy()], [stage[0].copy()]
    n_acc = n_rej = 0
    while t < t_end:
        h = min(h, t_end - t)
        if h < _MIN_STEP * max(1.0, abs(t)):
            raise StiffnessError(f"step size underflow at t={t!r}", t=t)
        for i in range(1, 7):
            stage[i][...] = rows(t + _C[i] * h, y + h * (_A[i] @ prior[i]))
        y_new = y + h * (_B5 @ k)
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms((h * (_ERR @ k)) / sc)
        if err <= 1.0:
            t = t + h
            y = y_new
            stage[0][...] = stage[6]  # first-same-as-last
            ts.append(t)
            ys.append(y)  # y_new is a fresh array, never written to
            fs.append(stage[0].copy())
            n_acc += 1
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err ** -0.2
            )
            h *= max(_MIN_FACTOR, factor)
        else:
            n_rej += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
        if n_acc + n_rej > _MAX_STEPS:
            raise StiffnessError(f"step budget exhausted at t={t!r}", t=t)
    stats = {"accepted": n_acc, "rejected": n_rej}
    return (np.array(ts), np.array(ys).swapaxes(1, -1),
            np.array(fs).swapaxes(1, -1), stats)


def hermite_eval(ts, ys, fs, tq):
    """Cubic Hermite interpolation of the stored solution at query times.

    ys and fs hold one state per node, of any shape: (nt, dim), or
    (nt, dim, B) for a batch.  The result has one state per query time,
    or a single state for a scalar tq.
    """
    tq_arr = np.atleast_1d(np.asarray(tq, dtype=float))
    if np.any(tq_arr < ts[0] - 1e-12) or np.any(tq_arr > ts[-1] + 1e-12):
        raise DomainError("query time outside the integrated range")
    tq_arr = np.clip(tq_arr, ts[0], ts[-1])
    idx = np.clip(np.searchsorted(ts, tq_arr, side="right") - 1, 0, len(ts) - 2)
    h = ts[idx + 1] - ts[idx]
    u = (tq_arr - ts[idx]) / h
    # weights (q, 1, ..., 1), broadcast over each state's axes
    per_state = (-1,) + (1,) * (np.ndim(ys) - 1)
    u = u.reshape(per_state)
    h = h.reshape(per_state)
    h00 = (1 + 2 * u) * (1 - u) ** 2
    h10 = u * (1 - u) ** 2
    h01 = u * u * (3 - 2 * u)
    h11 = u * u * (u - 1)
    out = (
        h00 * ys[idx]
        + h10 * h * fs[idx]
        + h01 * ys[idx + 1]
        + h11 * h * fs[idx + 1]
    )
    return out if np.ndim(tq) else out[0]
