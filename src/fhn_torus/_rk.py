"""Dormand-Prince 8(5,3) stepper (DOP853) with its 7th-order dense output.

The tables are those of Hairer's DOP853 (Hairer, Norsett and Wanner,
*Solving Ordinary Differential Equations I*, section II.10): twelve
stages give the 8th-order solution, a 5th-order and a 3rd-order estimate
combine into the error, and three more stages of each accepted step give
the coefficients of the 7th-order interpolant (``Trajectory.sample``).
The step control is simpler than Hairer's: the factor 0.9 err^(-1/8) is
bounded to [0.2, 5], where his code bounds it to [1/3, 6] and keeps a
step from growing right after a rejection.  Data that holds only nodes,
such as a trajectory read back from CSV, gets the same interpolant: each
step is taken again from its start node to the next
(``dense_from_nodes``).

A solution is one ``Trajectory``; its readers take a batch row or some
slots of it through ``row`` and ``slots``, not by slicing its arrays.

A step keeps its start state and stages 0-12 as the rows of one buffer,
and the weights of each stage input as a row of 1 and h a_ij, written
for all stages at once when the step size is set; each stage input and
the 8th-order solution is then one product of a weight row and rows of
the buffer, instead of a product, a scaling and a sum, and both error
estimates are one product.  Each stage is one field call on a state
of the start's own shape, and the step error is taken in Python floats:
at the lattice sizes in use a step costs about as much as its numpy
calls' overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError, StiffnessError

# Stage nodes: the twelve stages of a step, the derivative at its end
# (the next step's first stage) and the three stages of the dense output.
_C = np.array([
    0.0,
    0.526001519587677318785587544488e-1,
    0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    1 / 3,
    0.25,
    4 / 13,
    127 / 195,
    0.6,
    6 / 7,
    1.0,
    1.0,
    0.1,
    0.2,
    7 / 9,
])
# Nonzero entries a_ij of the stage weights, one row per stage i; row 12
# holds the weights b_j of the 8th-order solution.
_A_ENTRIES = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
)
# Weights of the 5th-order error estimate, and those of the 3rd-order
# solution that the 8th-order one is compared with.
_E5_ENTRIES = {
    0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1,
}
_BHH_ENTRIES = {0: 0.244094488188976377952755905512,
                8: 0.733846688281611857341361741547,
                11: 0.220588235294117647058823529412e-1}
# Weights d_ij of the four interpolation coefficients beyond the cubic
# Hermite part, over all sixteen stages.
_D_ENTRIES = (
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
)


def _dense_row(entries, width):
    return np.array([entries.get(j, 0.0) for j in range(width)])


# One (16, 16) table in scipy's layout; its first 13 rows and columns
# weigh a step's stages 0-12 in the inputs of stages 0-11 and in row 12.
_A = np.array([_dense_row(row, 16) for row in _A_ENTRIES])
_A_STEP = _A[:13, :13]
_B = _A[12, :12]
_E5 = _dense_row(_E5_ENTRIES, 12)
_E3 = _B - _dense_row(_BHH_ENTRIES, 12)
_D = np.array([_dense_row(row, 16) for row in _D_ENTRIES])
_E = np.stack([_E5, _E3])  # both error estimates, one product

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9
# The error of an order-8 step scales as h^8.
_EXPONENT = 1 / 8

# Default error tolerances, and the number of step attempts (accepted
# plus rejected) after which a run is abandoned as stiff.
_RTOL = 1e-9
_ATOL = 1e-11
_MAX_STEPS = 5_000_000

# The smallest step, relative to max(1, |t|); a shorter one is an
# underflow, and a shorter span is refused.
_MIN_STEP = 1e-14

# Accepted nodes the result buffers first hold.  When full they grow in
# place to the node count the run predicts for t_end from its progress
# (nodes per unit time so far, plus 5 % and 16 nodes), kept between
# 1.125 and 2 times their size.
_FIRST_CAPACITY = 256

# Accepted steps whose dense-output stages are evaluated together, three
# field calls on the stacked states per block instead of three per step.
_DENSE_BLOCK = 64

# Floats of interpolated states per block of query times in
# Trajectory.sample (256 kB): its temporaries stay a few such blocks,
# not a few results.
_SAMPLE_FLOATS = 32768


def _rms(v):
    """Root mean square of a 1-D array: the arithmetic of
    ``np.sqrt(np.mean(v * v))``, bit for bit, without the Python layers
    of ``np.mean``."""
    return float(np.sqrt(np.add.reduce(v * v) / len(v)))


def _error(h, e):
    """DOP853's scaled error of a step from its 5th- and 3rd-order
    estimates, already divided by the error scale, shape (2, dim) or
    (B, 2, dim); the largest over batch rows, in Python floats: about
    2.7 us a call against 5 us for the same arithmetic on arrays at one
    row and 4.3 against 10 us at four, and arrays pay off only past 24
    to 26 rows, a batch no caller runs.  A non-finite estimate gives
    NaN, which rejects."""
    s = np.add.reduce(e * e, axis=-1)
    err = 0.0
    for s5, s3 in s.reshape(-1, 2).tolist():
        r = h * s5 / math.sqrt(((s5 + 0.01 * s3) or 1.0) * e.shape[-1])  # zero den as 1
        if r > err or r != r:  # a NaN stays
            err = r
    return err


def _copy_rows(a, rows):
    """A new array of ``rows`` rows holding a's first ones: the growth or
    trim of a buffer that numpy's reference check refuses to resize in
    place, because a second name holds it, as a debugger's or a
    profiler's snapshot of the frame's locals does."""
    b = np.empty((rows,) + a.shape[1:])
    b[:min(rows, len(a))] = a[:rows]
    return b


def _initial_step(f, t0, y0, f0, rtol, atol, span):
    """Starting step of Hairer, Norsett and Wanner for order 8; the
    smallest over the batch rows."""
    sc = atol + rtol * np.abs(y0)
    d0 = [_rms(row) for row in np.atleast_2d(y0 / sc)]
    d1 = [_rms(row) for row in np.atleast_2d(f0 / sc)]
    h0 = min(1e-6 if e0 < 1e-5 or e1 < 1e-5 else 0.01 * e0 / e1
             for e0, e1 in zip(d0, d1))
    if not h0 > 0.0:  # a derivative that overflows: solve reports the underflow
        return h0
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = [_rms(row) / h0 for row in np.atleast_2d((f1 - f0) / sc)]
    h1 = min(max(1e-6, h0 * 1e-3) if max(e1, e2) <= 1e-15
             else (0.01 / max(e1, e2)) ** _EXPONENT
             for e1, e2 in zip(d1, d2))
    return min(100 * h0, h1, span)


def _dense_coefficients(f, y, t, h, k, first=13):
    """``Trajectory.sample``'s coefficients of a block of P steps.

    y, t and h hold each step's start state, time and size, and k its
    sixteen stages, shape (P,) + y.shape[1:-1] + (16, dim), with the
    stages before ``first`` set: 0-12 for the accepted steps of
    ``solve``, 0 for steps taken again from nodes.  The others are
    filled in here, each by one call of f on the stack of P states.
    """
    hs = h.reshape(h.shape + (1,) * (y.ndim - 1))
    for i in range(first, 16):
        k[..., i, :] = f(t + _C[i] * h, y + hs * (_A[i, :i] @ k[..., :i, :]))
    return hs[..., None] * (_D @ k)


def solve(f, t0, y0, t_end, rtol=_RTOL, atol=_ATOL):
    """Integrate y' = f(t, y) from t0 to t_end.

    y0 is one state, shape (dim,), or a batch of B states, shape
    (B, dim), one row each.  A batch shares one step sequence: the
    error that accepts or rejects a step and sets the next one is the
    largest of the per-row errors, so every row meets the tolerances.
    A row's arithmetic is that of its own one-state run; a batch of
    equal rows reproduces the one-state run bit for bit.

    f maps a float t and a state of y0's shape to its derivative, as
    the field of ``simulate.make_rhs`` does for one lattice or for B.
    It must also take a stack of P such states, shape (P,) + y0.shape,
    with an array of their P times, and return their derivatives in
    the same shape: the three dense-output stages of each accepted
    step (13 to 15) are evaluated that way, for blocks of _DENSE_BLOCK
    steps and once at the end.  The step sequence never depends on
    them.  Each of the other stages is one call of f on the product of
    a row of 1 and h a_ij with the step's start state and the stages
    before it.

    Returns the ``Trajectory`` of the accepted nodes, whose ``stats``
    count accepted and rejected steps and the states (of y0's shape) at
    which f was evaluated.
    Raises DomainError for a state that is not one- or two-dimensional
    or not finite, t_end that is not finite, rtol < 0, atol <= 0,
    t_end <= t0 or a span shorter than the smallest step,
    1e-14 * max(1, |t0|); StiffnessError if the step size underflows (as
    it does at once for a start whose derivative overflows) or after
    _MAX_STEPS step attempts.
    """
    y = np.asarray(y0, dtype=float)
    if y.ndim not in (1, 2) or y.size == 0:
        raise DomainError(f"state must have shape (dim,) or (B, dim), got {y.shape}")
    t = float(t0)
    if not (np.isfinite(t_end) and np.all(np.isfinite(y))):
        raise DomainError("t_end and the initial state must be finite")
    if not (0.0 <= rtol < np.inf and 0.0 < atol < np.inf):
        raise DomainError(f"need finite rtol >= 0 and atol > 0, got {rtol!r}, {atol!r}")
    t_start, span = t, float(t_end) - t
    if span <= 0.0:
        raise DomainError("t_end must exceed t0")
    min_step = _MIN_STEP * max(1.0, abs(t))
    if span < min_step:
        raise DomainError(
            f"integration span {span!r} is shorter than the smallest step {min_step!r}"
        )

    # a one-state run sums its stages by ndarray.dot, a cheaper call
    # than np.matmul; a batch keeps np.matmul, which sums each row as
    # its one-state run does (np.dot leaves BLAS on stacked operands and
    # rounds otherwise)
    dot = np.ndarray.dot if y.ndim == 1 else np.matmul

    c = _C.tolist()  # the step loop's times stay Python floats
    # the step's start state and its stages 0-12, (14, dim) or
    # (B, 14, dim): each batch row's stages contiguous, so the stage
    # sums below run row by row
    k = np.empty(y.shape[:-1] + (14, y.shape[-1]))
    k[..., 0, :] = y
    stage = [k[..., i + 1, :] for i in range(13)]
    # row i holds the weights of the start state and stages 0..i-1 in
    # the input of stage i, row 12 those of the 8th-order solution:
    # 1 and h a_ij, written once per attempt, so each input is one
    # product of a row view and a view of k
    wts = np.zeros((13, 14))
    wts[:, 0] = 1.0
    h_a = wts[:, 1:]
    sums = [(wts[i, :i + 1], k[..., :i + 1, :]) for i in range(13)]
    errs = k[..., 1:13, :]
    sc = np.empty_like(y)  # the error scale, and its view for both estimates
    sc_e = sc[..., None, :]
    # a start whose derivative overflows gives a zero or NaN first step,
    # which the underflow test below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        stage[0][...] = f(t, y)
        h = _initial_step(f, t, y, stage[0], rtol, atol, span)
    # result buffers, grown and trimmed in place and returned as they
    # are; ndarray.resize zero-fills what it adds, so a growth sized
    # from the run's progress touches little beyond the result
    ts = np.empty(_FIRST_CAPACITY)
    ys = np.empty((_FIRST_CAPACITY,) + y.shape)
    fs = np.empty_like(ys)
    ks = np.empty((_FIRST_CAPACITY,) + k.shape[:-2] + (4, y.shape[-1]))
    ts[0], ys[0], fs[0] = t, y, stage[0]
    n = 1  # nodes stored
    n_rej = 0
    # accepted steps waiting for their dense-output stages, which start
    # at the p nodes before the last: size and stages of each (a size is
    # not the difference of its node times to the last bit)
    ph = np.empty(_DENSE_BLOCK)
    pk = np.empty((_DENSE_BLOCK,) + k.shape[:-2] + (16, y.shape[-1]))
    p = 0  # steps waiting
    while t < t_end:
        h = min(h, t_end - t)
        if not h >= _MIN_STEP * max(1.0, abs(t)):  # NaN fails
            raise StiffnessError(f"step size underflow at t={t!r}", t=t)
        np.multiply(_A_STEP, h, out=h_a)
        for i in range(1, 12):
            row, prior = sums[i]
            stage[i][...] = f(t + c[i] * h, dot(row, prior))
        row, prior = sums[12]
        y_new = dot(row, prior)
        np.add(atol, rtol * np.maximum(np.abs(y), np.abs(y_new)), out=sc)
        e = _E @ errs
        e /= sc_e
        err = _error(h, e)
        if err <= 1.0:
            stage[12][...] = f(t + h, y_new)
            ph[p] = h
            pk[p, ..., :13, :] = k[..., 1:, :]
            p += 1
            t += h
            y = y_new
            k[..., 0, :] = y
            stage[0][...] = stage[12]  # the next step's first stage
            if n == len(ts):
                rows = min(2 * n, max(n + n // 8, math.ceil(
                    1.05 * n * span / (t - t_start)) + 16))
                # in place and by name, or copied where a second name
                # fails numpy's reference check
                try:
                    ts.resize(rows)
                    ys.resize((rows,) + ys.shape[1:])
                    fs.resize((rows,) + fs.shape[1:])
                    ks.resize((rows,) + ks.shape[1:])
                except ValueError:
                    ts, ys, fs, ks = (_copy_rows(b, rows) for b in (ts, ys, fs, ks))
            ts[n], ys[n], fs[n] = t, y, stage[0]
            n += 1
            if p == _DENSE_BLOCK or t >= t_end:
                start = slice(n - 1 - p, n - 1)
                ks[start] = _dense_coefficients(f, ys[start], ts[start], ph[:p], pk[:p])
                p = 0
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err ** -_EXPONENT
            )
            h *= max(_MIN_FACTOR, factor)
        else:
            n_rej += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** -_EXPONENT)
        if n - 1 + n_rej > _MAX_STEPS:
            raise StiffnessError(f"step budget exhausted at t={t!r}", t=t)
    n_acc = n - 1
    # the start, two per solve; 11 stages per attempt; the end
    # derivative and 3 dense-output stages per accepted step
    stats = {"accepted": n_acc, "rejected": n_rej,
             "rhs_evals": 2 + 11 * (n_acc + n_rej) + 4 * n_acc}
    # the unused rows freed in place, after the dense-output block: no
    # buffer is copied (unless a second name holds it), so the peak is
    # the buffers and one block
    del pk
    try:
        ks.resize((n_acc,) + ks.shape[1:])
        ys.resize((n,) + ys.shape[1:])
        fs.resize((n,) + fs.shape[1:])
        ts.resize(n)
    except ValueError:
        ks = _copy_rows(ks, n_acc)
        ts, ys, fs = (_copy_rows(b, n) for b in (ts, ys, fs))
    return Trajectory(ts, ys, fs, ks, stats)


def _block_len(ys):
    """Query times per block of ``Trajectory.sample`` for the states of
    ys: at least one, and _SAMPLE_FLOATS floats of states."""
    return max(1, _SAMPLE_FLOATS // ys[0].size)


def _per_state(w, ys):
    """Weights w, one per query time, shaped (q, 1, ..., 1) to broadcast
    over the states of ys."""
    return w.reshape((-1,) + (1,) * (np.ndim(ys) - 1))


@dataclass
class Trajectory:
    """Accepted integration nodes with derivatives and dense output.

    ``times`` holds the nt nodes, ``states`` and ``derivs`` the state and
    its derivative at each, shape (nt,) + state shape, and ``dense`` the
    four coefficients of each step's 7th-order interpolant beyond its
    cubic Hermite part, shape (nt - 1,) + state shape[:-1] + (4, dim):
    (nt - 1, 4, dim) for one state of dim slots, (nt - 1, B, 4, dim) for
    a batch of B.  ``solve`` returns one, with its counters in
    ``stats``; ``dense_from_nodes`` builds one from node-only data such
    as a trajectory read back from CSV.
    """

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    dense: np.ndarray
    stats: dict = field(default_factory=dict)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def row(self, j):
        """Row j of a batch solution: a one-state solution of views."""
        return Trajectory(self.times, self.states[:, j], self.derivs[:, j],
                          self.dense[:, j], self.stats)

    def slots(self, idx):
        """The slots idx of each state, a slice or an index array: views
        for a slice, C-contiguous copies (``np.take``) for an array,
        which may repeat slots, as the lift of a quotient flow does."""
        part = ((lambda a: a[..., idx]) if isinstance(idx, slice)
                else partial(np.take, indices=idx, axis=-1))
        return Trajectory(self.times, part(self.states), part(self.derivs),
                          part(self.dense), self.stats)

    def sample(self, t):
        """DOP853's 7th-order interpolant of the solution at query times
        (Hairer's ``contd8``).

        t is a scalar or a 1-D array of times inside the nodes' range,
        else DomainError.  The result has one state per query time, or a
        single state for a scalar t.  At a node it is the node state up
        to rounding.

        The queries go one block of ``_block_len`` at a time, each written
        into the one result array, so the memory beyond the result is that
        of a few blocks of _SAMPLE_FLOATS floats, however many times are
        asked for; every element has the arithmetic of a one-shot call.
        """
        ts, ys, fs, ks = self.times, self.states, self.derivs, self.dense
        scalar = np.ndim(t) == 0
        t = np.asarray(t, dtype=float)
        if t.ndim > 1:
            raise DomainError(f"query times must be a scalar or 1-D, got shape {t.shape}")
        t = np.atleast_1d(t)
        if not np.all((t >= ts[0] - 1e-12) & (t <= ts[-1] + 1e-12)):  # NaN fails
            raise DomainError("query time outside the integrated range")
        t = np.clip(t, ts[0], ts[-1])
        res = np.empty(t.shape + ys.shape[1:])
        q = _block_len(ys)
        for i in range(0, len(t), q):
            tb, out = t[i:i + q], res[i:i + q]
            idx = np.clip(np.searchsorted(ts, tb, side="right") - 1, 0, len(ts) - 2)
            h = ts[idx + 1] - ts[idx]
            s = _per_state((tb - ts[idx]) / h, ys)
            h = _per_state(h, ys)
            s1 = 1.0 - s
            # Hairer's nested form
            #   y0 + s (ydiff + s1 (bspl + s (r4 + s1 (k0 + s (k1 + s1 (k2 + s k3))))))
            # with ydiff = y1 - y0, bspl = h f0 - ydiff, r4 = ydiff - h f1 - bspl,
            # evaluated in place in the block of the result
            out[...] = ks[idx, ..., 3, :]
            out *= s
            for j, w in ((2, s1), (1, s), (0, s1)):
                out += ks[idx, ..., j, :]
                out *= w
            ydiff = ys[idx + 1]
            ydiff -= ys[idx]
            bspl = fs[idx]
            bspl *= h
            bspl -= ydiff
            r4 = fs[idx + 1]
            r4 *= -h
            r4 += ydiff
            r4 -= bspl
            out += r4
            out *= s
            out += bspl
            out *= s1
            out += ydiff
            out *= s
            del r4, bspl, ydiff  # before the last gather
            out += ys[idx]
        return res[0] if scalar else res


def dense_from_nodes(f, ts, ys):
    """The ``Trajectory`` of node-only data.

    ts and ys hold the nodes and states of one trajectory, shape (nt,)
    and (nt,) + state shape, as ``solve`` returns them.  Each step is
    taken again as one DOP853 step from its start node with
    h = ts[i + 1] - ts[i], so on the nodes of a ``solve`` run the
    derivatives are the solver's and the interpolant its own up to
    rounding.  f takes stacks of states with their times, as in
    ``solve``; the steps go _DENSE_BLOCK at a time, one call per stage.
    The derivatives and coefficients may hold non-finite values where f
    overflows.
    """
    h = np.diff(ts)
    fs = np.empty_like(ys)
    lead, dim = ys.shape[1:-1], ys.shape[-1]
    ks = np.empty((len(h),) + lead + (4, dim))
    k = np.empty((_DENSE_BLOCK,) + lead + (16, dim))
    for i in range(0, len(h), _DENSE_BLOCK):
        s = slice(i, min(i + _DENSE_BLOCK, len(h)))
        kb = k[:s.stop - i]
        kb[..., 0, :] = fs[s] = f(ts[s], ys[s])
        ks[s] = _dense_coefficients(f, ys[s], ts[s], h[s], kb, first=1)
    fs[-1:] = f(ts[-1:], ys[-1:])
    return Trajectory(ts, ys, fs, ks)
