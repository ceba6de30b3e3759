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


def _rms(v):
    return float(np.sqrt(np.mean(v * v)))


def _initial_step(f, t0, y0, f0, rtol, atol, span):
    sc = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / sc)
    d1 = _rms(f0 / sc)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = _rms((f1 - f0) / sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def solve(f, t0, y0, t_end, rtol=_RTOL, atol=_ATOL):
    """Integrate y' = f(t, y) from t0 to t_end.

    Returns (ts, ys, fs, stats): accepted nodes, states, derivatives
    there, and a counter dict.  Raises DomainError for input that is not
    finite, rtol < 0, atol <= 0 or t_end <= t0; StiffnessError if the
    step size underflows or after _MAX_STEPS step attempts.
    """
    y = np.array(y0, dtype=float)
    t = float(t0)
    if not (np.isfinite(t_end) and np.all(np.isfinite(y))):
        raise DomainError("t_end and the initial state must be finite")
    if not (0.0 <= rtol < np.inf and 0.0 < atol < np.inf):
        raise DomainError(f"need finite rtol >= 0 and atol > 0, got {rtol!r}, {atol!r}")
    span = float(t_end) - t
    if span <= 0.0:
        raise DomainError("t_end must exceed t0")
    k = np.empty((7, y.size))
    k[0] = f(t, y)
    h = _initial_step(f, t, y, k[0], rtol, atol, span)
    ts, ys, fs = [t], [y.copy()], [k[0].copy()]
    n_acc = n_rej = 0
    while t < t_end:
        h = min(h, t_end - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StiffnessError(f"step size underflow at t={t!r}", t=t)
        for i in range(1, 7):
            k[i] = f(t + _C[i] * h, y + h * (_A[i] @ k[:i]))
        y_new = y + h * (_B5 @ k)
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms((h * (_ERR @ k)) / sc)
        if err <= 1.0:
            t = t + h
            y = y_new
            k[0] = k[6]  # first-same-as-last
            ts.append(t)
            ys.append(y.copy())
            fs.append(k[0].copy())
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
    return np.array(ts), np.array(ys), np.array(fs), stats


def hermite_eval(ts, ys, fs, tq):
    """Cubic Hermite interpolation of the stored solution at query times."""
    tq_arr = np.atleast_1d(np.asarray(tq, dtype=float))
    if np.any(tq_arr < ts[0] - 1e-12) or np.any(tq_arr > ts[-1] + 1e-12):
        raise DomainError("query time outside the integrated range")
    tq_arr = np.clip(tq_arr, ts[0], ts[-1])
    idx = np.clip(np.searchsorted(ts, tq_arr, side="right") - 1, 0, len(ts) - 2)
    h = ts[idx + 1] - ts[idx]
    u = (tq_arr - ts[idx]) / h
    u = u[:, None]
    h = h[:, None]
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
