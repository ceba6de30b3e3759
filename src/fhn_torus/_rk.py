"""Dormand-Prince 8(5,3) stepper (DOP853) with its 7th-order dense output.

The tables are those of Hairer's DOP853 (Hairer, Norsett and Wanner,
*Solving Ordinary Differential Equations I*, section II.10): twelve
stages give the 8th-order solution, a 5th-order and a 3rd-order estimate
combine into the error, and three more stages of an accepted step give
the coefficients of the 7th-order interpolant (``Trajectory.sample``).
The step control is simpler than Hairer's: the factor 0.9 err^(-1/8) is
bounded to [0.2, 5], where his code bounds it to [1/3, 6] and keeps a
step from growing right after a rejection.

The solver evaluates no dense output: as in Hairer's code and scipy's
``solve_ivp`` without ``dense_output``, the continuous extension is left
out of the step loop.  A ``Trajectory`` keeps its field, its nodes and
the size of each step, not the derivatives at the nodes, and the first
time a step's coefficients are needed it computes the derivatives at
the step's two nodes and takes the step again from its start node with
the solver's own arithmetic (``_retake``): with a solve's exact step
sizes, they are those the step would have given, bit for bit; it
records only which steps have them.  Data that holds only nodes, such
as a trajectory read back from CSV, gets the same trajectory, with the
step sizes its node times give (``dense_from_nodes``).  A state the
field cannot step raises DomainError where it is stepped, with no
warning.

A solution is one ``Trajectory`` of one state; its readers take some
slots of it through ``slots``, not by slicing its arrays.

A step keeps its start state and stages 0-11 as the rows of one buffer,
and the weights of each stage input as a row of 1 and h a_ij, written
for all stages at once when the step size is set; each stage input and
the 8th-order solution is then one product of a weight row and rows of
the buffer, instead of a product, a scaling and a sum, and both error
estimates are one product.  Each stage input is written straight into
the field's own input buffer and the field writes the stage straight
into its row of the buffer, so a stage makes no copy and no array of
its own; the derivative at an accepted node goes straight into the row
of the next step's first stage.  The error scale is built in place
from |y| kept from the accepted step, and the step error is taken in
Python floats: at the lattice sizes in use a step costs about as much
as its numpy calls' overhead.
"""

from __future__ import annotations

import math

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

# Steps whose stages are taken again together, one field call on the
# stacked states per stage: the steps a block of samples needs, in
# chunks of this many; a full read of the derivatives goes as many
# nodes a call.
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
    estimates, already divided by the error scale, shape (2, dim), in
    Python floats: about 2.7 us a call against 5 us for the same
    arithmetic on arrays.  A non-finite estimate gives NaN, which
    rejects."""
    s5, s3 = np.add.reduce(e * e, axis=-1).tolist()
    return h * s5 / math.sqrt(((s5 + 0.01 * s3) or 1.0) * e.shape[-1])  # zero den as 1


def _copy_rows(a, rows):
    """A new array of ``rows`` rows holding a's first ones: the growth or
    trim of a buffer that numpy's reference check refuses to resize in
    place, because a second name holds it, as a debugger's or a
    profiler's snapshot of the frame's locals does."""
    b = np.empty((rows,) + a.shape[1:])
    b[:min(rows, len(a))] = a[:rows]
    return b


def _initial_step(f, t0, y0, f0, rtol, atol, span):
    """Starting step of Hairer, Norsett and Wanner for order 8."""
    sc = atol + rtol * np.abs(y0)
    d0, d1 = _rms(y0 / sc), _rms(f0 / sc)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not h0 > 0.0:  # a derivative that overflows: solve reports the underflow
        return h0
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = _rms((f1 - f0) / sc) / h0
    h1 = (max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15
          else (0.01 / max(d1, d2)) ** _EXPONENT)
    return min(100 * h0, h1, span)


def _in_place(f, y):
    """f's input buffer and its entry ``into(t, out)``, which writes the
    derivative at the buffer's state into out, as ``make_rhs`` gives
    them; for a field without them, a buffer of y's shape and an entry
    that calls f on it and copies the result."""
    if hasattr(f, "into"):
        return f.state, f.into
    state = np.empty_like(y)

    def into(t, out):
        out[...] = f(t, state)

    return state, into


def _dense_coefficients(f, y, t, h, k):
    """``Trajectory.sample``'s coefficients of a block of P steps.

    y, t and h hold each step's start state, time and size, and k its
    sixteen stages, shape (P, 16, dim), with stages 0-12 set; stages
    13-15 are filled in here, each by one call of f on the stack of P
    states.
    """
    hs = h[:, None]
    for i in range(13, 16):
        x = _A[i, :i] @ k[:, :i]
        x *= hs
        x += y
        k[:, i] = f(t + _C[i] * h, x)
    c = _D @ k
    c *= hs[:, :, None]
    return c


def _retake(f, ts, ys, fs, hs, s):
    """The coefficients of the steps s, an index array, of a trajectory.

    ts, ys, fs and hs hold its nodes, states, derivatives (set at least
    at the nodes of the steps s) and step sizes.  Each step is taken
    again from its start node with the solver's arithmetic, stacked
    over the P steps: each of stages 1-11 is f on the product of the
    solver's weight row of 1 and h a_ij with the start state and the
    stages before it, as one ``np.matmul`` of the P rows, which matches
    the solver's ``row.dot`` bit for bit;
    stage 0 and stage 12 are the derivatives at the step's two nodes.
    With a solve's exact step sizes and a field whose stacked calls are
    its one-state calls bit for bit, as ``make_rhs``'s is, the result is
    what the solver would have computed at the step.
    """
    t, h = ts[s], hs[s]
    # the start states, then the sixteen stages
    k = np.empty((len(s), 17, ys.shape[1]))
    k[:, 0], k[:, 1], k[:, 13] = ys[s], fs[s], fs[s + 1]
    # each stage's weight row of 1 and h a_ij, one row per step
    wts = np.ones((len(s), 1, 12))
    for i in range(1, 12):
        np.multiply(_A_STEP[i, :i], h[:, None, None], wts[:, :, 1:i + 1])
        k[:, i + 1] = f(t + _C[i] * h, np.matmul(wts[:, :, :i + 1], k[:, :i + 1])[:, 0])
    return _dense_coefficients(f, k[:, 0], t, h, k[:, 1:])


def solve(f, t0, y0, t_end, rtol=_RTOL, atol=_ATOL):
    """Integrate y' = f(t, y) from t0 to t_end.

    y0 is one state, shape (dim,); the error that accepts or rejects a
    step and sets the next one is the RMS over all its slots.  Several
    systems integrated together are one state of their slots end to
    end, as ``simulate.make_rhs`` lays out a sequence of lattices.

    f maps a float t and a state of y0's shape to its derivative, as
    the field of ``simulate.make_rhs`` does.  It must also take a stack
    of P such states, shape (P, dim), with an array of their P times,
    and return their derivatives in the same shape: the solve makes no
    such call, but the ``Trajectory`` it returns keeps f and takes the
    steps that ``sample`` needs again that way, with the derivatives at
    their nodes and the three dense-output stages (13 to 15) of each.
    Each of the solve's stages is f at the product of a row of 1 and
    h a_ij with the step's start state and the stages before it.  f may
    also carry ``f.state``, an input buffer of y0's shape, and
    ``f.into(t, out)``, which writes f at that buffer's state into out
    with the arithmetic of a call, as ``make_rhs``'s field does: the
    solver then writes each such stage input into ``f.state`` and has
    ``f.into`` write the stage into its row, with no copy.  A field
    without them is called on a buffer of the solver's and its result
    copied into the row; both give the same run bit for bit.

    Returns the ``Trajectory`` of f, the accepted nodes and the exact
    size of each accepted step, whose ``stats`` count accepted and
    rejected steps and the states at which the solve evaluated f: 2 to
    start, 11 per attempt and 1, the derivative at the new node, per
    accepted step.  That derivative is not kept: the ``Trajectory``
    computes it again where it is read.  The steps and derivatives a
    ``Trajectory`` computes are not counted, so ``stats`` never depends
    on what was sampled.
    Raises DomainError for a state that is not one-dimensional or not
    finite, t_end that is not finite, rtol < 0, atol <= 0,
    t_end <= t0 or a span shorter than the smallest step,
    1e-14 * max(1, |t0|); StiffnessError if the step size underflows (as
    it does at once for a start whose derivative overflows) or after
    _MAX_STEPS step attempts.
    """
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise DomainError(f"state must have shape (dim,), got {y.shape}")
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

    c = _C.tolist()  # the step loop's times stay Python floats
    # the step's start state and its stages 0-11
    k = np.empty((13, len(y)))
    k[0] = y
    # row i holds the weights of the start state and stages 0..i-1 in
    # the input of stage i, row 12 those of the 8th-order solution:
    # 1 and h a_ij, written once per attempt, so each input is one
    # product of a row view and a view of k
    wts = np.zeros((13, 14))
    wts[:, 0] = 1.0
    h_a = wts[:, 1:]
    # each stage's node, weight row, prior rows of k and own row of k;
    # its input is written into the field's state buffer and its
    # derivative straight into its row
    stages = [(c[i], wts[i, :i + 1], k[:i + 1], k[i + 1]) for i in range(1, 12)]
    b_row, b_prior = wts[12, :13], k[:13]
    errs = k[1:13]
    state, into = _in_place(f, y)
    ay, ay_new = np.abs(y), np.empty_like(y)  # |y| at the start and the end of a step
    sc = np.empty_like(y)  # the error scale
    e = np.empty((2, len(y)))  # both error estimates over the scale
    # a start whose derivative overflows gives a zero or NaN first step,
    # which the underflow test below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        k[1] = f(t, y)
        h = _initial_step(f, t, y, k[1], rtol, atol, span)
    # result buffers, grown and trimmed in place and returned as they
    # are; ndarray.resize zero-fills what it adds, so a growth sized
    # from the run's progress touches little beyond the result
    ts = np.empty(_FIRST_CAPACITY)
    ys = np.empty((_FIRST_CAPACITY,) + y.shape)
    # the size of the step from each node (not the difference of its
    # node times to the last bit)
    hs = np.empty(_FIRST_CAPACITY)
    ts[0], ys[0] = t, y
    n = 1  # nodes stored
    n_rej = 0
    while t < t_end:
        h = min(h, t_end - t)
        if not h >= _MIN_STEP * max(1.0, abs(t)):  # NaN fails
            raise StiffnessError(f"step size underflow at t={t!r}", t=t)
        np.multiply(_A_STEP, h, h_a)
        for ci, row, prior, out in stages:
            row.dot(prior, state)
            into(t + ci * h, out)
        b_row.dot(b_prior, state)  # the 8th-order solution
        # the error scale atol + rtol max(|y|, |y_new|), in place
        np.abs(state, ay_new)
        np.maximum(ay, ay_new, out=sc)
        sc *= rtol
        sc += atol
        _E.dot(errs, e)
        e /= sc
        err = _error(h, e)
        if err <= 1.0:
            into(t + h, k[1])  # the next step's first stage
            t += h
            k[0] = state
            ay, ay_new = ay_new, ay
            if n == len(ts):
                rows = min(2 * n, max(n + n // 8, math.ceil(
                    1.05 * n * span / (t - t_start)) + 16))
                # in place and by name, or copied where a second name
                # fails numpy's reference check
                try:
                    ts.resize(rows)
                    ys.resize((rows,) + ys.shape[1:])
                    hs.resize(rows)
                except ValueError:
                    ts, ys, hs = (_copy_rows(b, rows) for b in (ts, ys, hs))
            ts[n], ys[n], hs[n - 1] = t, k[0], h
            n += 1
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
    # derivative per accepted step
    stats = {"accepted": n_acc, "rejected": n_rej,
             "rhs_evals": 2 + 11 * (n_acc + n_rej) + n_acc}
    # the unused rows freed in place: no buffer is copied (unless a
    # second name holds it)
    try:
        ys.resize((n,) + ys.shape[1:])
        ts.resize(n)
        hs.resize(n_acc)
    except ValueError:
        ts, ys, hs = _copy_rows(ts, n), _copy_rows(ys, n), _copy_rows(hs, n_acc)
    return Trajectory(ts, ys, f, hs, stats)


def _block_len(ys):
    """Query times per block of ``Trajectory.sample`` for the states of
    ys: at least one, and _SAMPLE_FLOATS floats of states."""
    return max(1, _SAMPLE_FLOATS // ys[0].size)


def _pick(a, idx):
    """The slots idx of each row of a: a view for a slice, a C-contiguous
    copy (``np.take``) for an index array."""
    return a[..., idx] if isinstance(idx, slice) else np.take(a, idx, axis=-1)


class Trajectory:
    """Accepted integration nodes with derivatives and dense output.

    ``times`` holds the nt nodes and ``states`` the state at each, shape
    (nt, dim); ``derivs`` the field's derivative at each, of the same
    shape, and ``dense`` the four coefficients of each step's 7th-order
    interpolant beyond its cubic Hermite part, shape (nt - 1, 4, dim).
    ``Trajectory(times, states, field, sizes, stats=None)`` holds the
    field, as in ``solve``, and the size of each step, shape (nt - 1,),
    and computes the rest where it is read: the first time ``sample``
    needs a step, the step is taken again, with the derivatives at its
    two nodes, and the first time ``dense`` is read, all the missing
    ones; ``derivs`` computes every node's derivative on each read.
    Each goes into an array whose rows that are never needed are never
    written.  A block of steps whose derivatives or coefficients are not
    finite raises DomainError, and its steps stay missing.  ``solve``
    returns one, with its counters in ``stats``, and ``dense_from_nodes``
    builds one from node-only data.  Since sampling writes to it, a
    trajectory is not for use from two threads at once.
    """

    # a view's: the trajectory that holds the derivatives and the
    # coefficients, and the slots of its states that are the view's
    _root, _cols = None, slice(None)

    def __init__(self, times, states, field, sizes, stats=None):
        self.times, self.states = times, states
        self.stats = {} if stats is None else stats
        self._field, self._sizes = field, sizes
        # the derivatives, the coefficients and the steps that have none
        # yet
        self._fs = np.empty(states.shape)
        self._dense = np.empty((len(sizes), 4) + states.shape[1:])
        self._todo = np.ones(len(sizes), dtype=bool)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def derivs(self) -> np.ndarray:
        """Every node's derivative, computed again on each read,
        _DENSE_BLOCK nodes a call; a view's are its slots of those of the
        trajectory it was taken from."""
        if self._root is not None:
            return _pick(self._root.derivs, self._cols)
        for i in range(0, len(self.times), _DENSE_BLOCK):
            self._derive(slice(i, i + _DENSE_BLOCK))
        return self._fs

    @property
    def dense(self) -> np.ndarray:
        """Every step's coefficients, computed where missing; a view's
        are its slots of those of the trajectory it was taken from."""
        if self._root is not None:
            return _pick(self._root.dense, self._cols)
        self._take_again(slice(None))
        return self._dense

    def _derive(self, at):
        """Compute the derivatives at the nodes at, a slice or an index
        array, in one stacked call of the field."""
        with np.errstate(all="ignore"):  # refused just below
            d = self._field(self.times[at], self.states[at])
        if not np.isfinite(d).all():
            raise DomainError("the field cannot step these states; its values are not finite")
        self._fs[at] = d

    def _take_again(self, idx):
        """Compute the coefficients of the steps idx, an index array or a
        slice, that have none yet, _DENSE_BLOCK steps at a time, each
        block after the derivatives at its steps' nodes: a slice of them
        where the steps are contiguous, else each step's two."""
        todo = self._todo
        need = np.zeros_like(todo)
        need[idx] = True
        steps = np.flatnonzero(need & todo)
        for i in range(0, len(steps), _DENSE_BLOCK):
            s = steps[i:i + _DENSE_BLOCK]
            self._derive(slice(s[0], s[-1] + 2) if s[-1] - s[0] < len(s)
                         else np.concatenate((s, s + 1)))
            with np.errstate(all="ignore"):  # refused just below
                c = _retake(self._field, self.times, self.states, self._fs, self._sizes, s)
            if not np.isfinite(c).all():
                raise DomainError("the field cannot step these states; "
                                  "the interpolant is not finite")
            self._dense[s] = c
            todo[s] = False
            del c  # before the next block is taken again

    def slots(self, idx):
        """The slots idx of each state, a slice or an index array: views
        for a slice, C-contiguous copies (``np.take``) for an array,
        which may repeat slots, as the lift of a quotient flow does.
        The derivatives and the coefficients stay in the trajectory the
        slots were first taken from, and a view reads its slots of them
        there."""
        root = self._root or self
        view = Trajectory.__new__(Trajectory)
        view.times, view.states, view.stats = self.times, _pick(self.states, idx), self.stats
        view._root = root
        view._cols = idx if root is self else np.arange(root.states.shape[1])[self._cols][idx]
        return view

    def sample(self, t):
        """DOP853's 7th-order interpolant of the solution at query times
        (Hairer's ``contd8``).

        t is a scalar or a 1-D array of times inside the nodes' range,
        else DomainError, as is a step whose derivatives or coefficients
        are not finite.
        The result has one state per query time, or a single state for a
        scalar t.  At a node it is the node state up to rounding.

        The queries go one block of ``_block_len`` at a time, each written
        into the one result array, so the memory beyond the result is that
        of a few blocks of _SAMPLE_FLOATS floats, however many times are
        asked for; every element has the arithmetic of a one-shot call.
        A block computes the derivatives and coefficients of only the
        steps its times fall in, where they are missing, and gathers
        only this trajectory's slots of them.
        """
        ts, ys = self.times, self.states
        root, cols = self._root or self, self._cols
        fs, ks = root._fs, root._dense
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
            root._take_again(idx)
            rows = idx if isinstance(cols, slice) else idx[:, None]
            h = ts[idx + 1] - ts[idx]
            s = ((tb - ts[idx]) / h)[:, None]
            h = h[:, None]
            s1 = 1.0 - s
            # Hairer's nested form
            #   y0 + s (ydiff + s1 (bspl + s (r4 + s1 (k0 + s (k1 + s1 (k2 + s k3))))))
            # with ydiff = y1 - y0, bspl = h f0 - ydiff, r4 = ydiff - h f1 - bspl,
            # evaluated in place in the block of the result
            out[...] = ks[rows, 3, cols]
            out *= s
            for j, w in ((2, s1), (1, s), (0, s1)):
                out += ks[rows, j, cols]
                out *= w
            ydiff = ys[idx + 1]
            ydiff -= ys[idx]
            bspl = fs[rows, cols]
            bspl *= h
            bspl -= ydiff
            r4 = fs[rows + 1, cols]
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
    and (nt, dim), as ``solve`` returns them, and f takes stacks of
    states with their times, as in ``solve``.  Nothing is computed
    here: the steps, of sizes h = ts[i + 1] - ts[i], and the derivatives
    at their nodes are computed when they are read, as a solve's are.
    On the nodes of a ``solve`` run the interpolant is the solver's up
    to rounding, and bit for bit at a step of its exact size.  A state
    at which f is not finite raises DomainError where it is read, with
    no warning.
    """
    return Trajectory(ts, ys, f, np.diff(ts))
