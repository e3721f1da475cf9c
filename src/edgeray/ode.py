"""Runge-Kutta integration and Brent root finding.

Every ODE edgeray solves (interior bicharacteristics, and the lanes of
fiber and base geodesics at x = 0) goes through ``rk45``, and every
scalar root through ``brent``.  ``rk45`` is the step loop of
``scipy.integrate.solve_ivp`` (the Hairer-Norsett-Wanner initial step,
safety factor 0.9, step factors between 0.2 and 10, terminal events
located on the step interpolant) with two of its pairs.  Interior rays,
and the arc-length lanes of one-dimensional fiber geodesics, step on
sequences of floats, in straight-line code generated from the tableaus
(``_float_step``) that rounds its stage sums differently from scipy,
and keep every step end and its interpolant.  They start with RK45's
Dormand-Prince 5(4) pair, 6 evaluations a step.  Once SWITCH_AFTER
accepted steps in a row have been sized by the error test rather than
by the growth limit MAX_FACTOR, the call goes on with DOP853's 8(5,3)
pair (Hairer, Norsett & Wanner, Solving Ordinary Differential
Equations I, sec. II.10), 12 evaluations a step: at rtol 1e-10 it takes
a third of the steps of the 5(4) pair on a long interior ray, while a
short segment whose steps grow as fast as the controller allows (a
launch probe, the short arcs of an event ladder) is cheaper with 5(4).
The cogeodesic shooter's lanes step on arrays with DOP853 operation for
operation as scipy does, so their end points read the same to the last
bit; at the shooter's 1e-11 it takes a sixth of the steps and half the
evaluations of the 5(4) pair.
``brent`` is a transcription of the C source of ``scipy.optimize.brentq``.
edgeray imports no scipy at all; the tables below are scipy's.
"""

from __future__ import annotations

import bisect
import functools
import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError, NumericalError, StepLimitError

EPS = sys.float_info.epsilon
SAFETY = 0.9           # step-size controller: fraction of the optimal step
MIN_FACTOR = 0.2       # largest decrease of the step in one attempt
MAX_FACTOR = 10        # largest increase of the step after one step
SWITCH_AFTER = 12      # sized 5(4) float steps in a row before DOP853
BRENT_MAXITER = 100

# Dormand-Prince 5(4) tableau and the coefficients of its quartic dense
# output (Shampine's choice of c_6).
C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
              1/40])
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])

# DOP853, as scipy's dop853_coefficients tabulates it: a step takes the
# N_STAGES stages of rows 1-11 of A853 and the field at its end, B853 is
# row 12, and the dense output takes 3 more stages (rows 13-15).  E3 and
# E5 are the error estimators of orders 3 and 5 on the 13 stage rows, D853
# the last 4 of the 7 coefficients of the degree-7 interpolant.
N_STAGES = 12
C853 = np.array([
    0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
A853 = np.zeros((16, 16))
for _s, _row in enumerate([
        [0.05260015195876773],
        [0.0197250569845379, 0.0591751709536137],
        [0.02958758547680685, 0, 0.08876275643042054],
        [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
        [0.037037037037037035, 0, 0, 0.17082860872947386,
         0.12546768756682242],
        [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596,
         -0.017578125],
        [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023],
        [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996],
        [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486,
         -0.020331201708508627],
        [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505,
         2.4936055526796523, -3.0467644718982196],
        [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235,
         -8.87285693353063, 12.360567175794303, 0.6433927460157636],
        [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409,
         1.8915178993145003, -5.801203960010585, 0.3111643669578199,
         -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
        [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
         -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
         0.00820105229563469, 0.007567897660545699, -0.008298],
        [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
         0.053541988307438566, -0.05492374857139099, 0, 0,
         -0.00010834732869724932, 0.0003825710908356584,
         -0.00034046500868740456, 0.1413124436746325],
        [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164,
         7.683421196062599, 4.06898981839711, 0.3567271874552811, 0, 0, 0,
         -0.0013990241651590145, 2.9475147891527724, -9.15095847217987]],
        1):
    A853[_s, :len(_row)] = _row
B853 = A853[N_STAGES, :N_STAGES]
E3 = np.array([
    -0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
    0.20136540080403034, 0.02265179219836082, 0])
E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294, 0])
D853 = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564]])


def _rms(v):
    return math.sqrt(v.dot(v)) / v.size ** 0.5


def _piece(t_old, y_old, h, K):
    """Dense output of a 5(4) step from the buffer K of its stage rows."""
    Q = np.frombuffer(K).reshape(7, -1).T.dot(P)
    return t_old, h, np.asarray(y_old), Q


def _interpolate(piece, t):
    """Dense output of one 5(4) step, (t_old, h, y_old, Q), at a scalar t."""
    t_old, h, y_old, Q = piece
    x = (t - t_old) / h
    x2 = x * x
    x3 = x2 * x
    y = h * np.dot(Q, np.array([x, x2, x3, x3 * x]))
    y += y_old
    return y


class DenseOutput:
    """The piecewise interpolant of ``rk45`` float steps: quartic on the
    Dormand-Prince 5(4) steps before step ``switch``, whose stage bytes
    hold 7 rows, and of degree 7 on the DOP853 steps from there on,
    whose stage bytes hold 13.

    Called at a scalar t it evaluates the step whose interval holds t;
    at a step end that is the earlier of the two steps.  A step's piece
    is formed when it is first read.  A DOP853 piece needs 3 more stages,
    evaluated then through fun; ``nfev`` counts them, and Solution.nfev
    does not, except for the piece of a step that fired an event, which
    rk45 forms at once to locate the root and hands over in ``cache``.
    """

    def __init__(self, fun, ts, ys, hs, ks, cache, switch):
        self.fun, self.ts, self.ys, self.hs, self.ks = fun, ts, ys, hs, ks
        self.cache, self.nfev = cache, 0
        self.switch = switch   # the first DOP853 step, or the step count

    def __call__(self, t):
        i = min(max(bisect.bisect_left(self.ts, t), 1), len(self.hs)) - 1
        if i not in self.cache:
            args = self.ts[i], self.ys[i], self.hs[i], self.ks[i]
            if i < self.switch:
                self.cache[i] = _interpolate, _piece(*args)
            else:
                self.nfev += 3   # stage rows 13-15
                self.cache[i] = _dop853_interpolate, _float_dop853_piece(
                    self.fun, *args, self.ys[i + 1])
        interpolate, piece = self.cache[i]
        return interpolate(piece, t)


def _dop853_step(n):
    """A DOP853 step on arrays, as scipy takes it: (y_new, f_new,
    error_norm, K), with K the stage rows, reused from step to step, the
    field at the step's end the 12th stage, and the error norm 0 where
    the E5 squares sum to 0, as on floats.  fun(t, y, out) writes each
    row into K unchecked, and the rows are checked once: where one is
    not finite, also when fun raises before the step is whole,
    check(t, y), the checked field that fun books, evaluates the first
    such stage again, unbooked, to raise its error."""
    K = np.empty((16, n))
    stages = [(float(C853[s]), K[:s].T, A853[s, :s])
              for s in range(1, N_STAGES + 1)]
    k_error = K[:N_STAGES + 1].T

    def step(fun, t, y, fy, h, rtol, atol, check):
        K[0] = fy
        nodes = []   # (t, y) of each stage evaluated
        try:
            for s, (c, k, a) in enumerate(stages, 1):
                node = t + c * h, y + np.dot(k, a) * h
                fun(*node, K[s])
                nodes.append(node)
        finally:
            rows = K[1:1 + len(nodes)]
            if not np.isfinite(rows).all():
                check(*nodes[np.isfinite(rows).all(1).argmin()])
        y_new, f_new = nodes[-1][1], K[N_STAGES].copy()
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        e5, e3 = np.dot(k_error, E5) / scale, np.dot(k_error, E3) / scale
        # the squares of np.linalg.norm, as scipy takes them
        e5, e3 = np.sqrt(e5.dot(e5)) ** 2, np.sqrt(e3.dot(e3)) ** 2
        return y_new, f_new, float(abs(h) * e5 / np.sqrt(
            (e5 + 0.01 * e3) * n) if e5 else 0.0), K
    return step


def _dop853_piece(f, t_old, y_old, h, K, y_new, f_new):
    """Dense output of a DOP853 step: its 3 extra stages, evaluated by f
    into K, and the 7 coefficients F of its interpolant."""
    for s in range(N_STAGES + 1, 16):
        K[s] = f(t_old + C853[s] * h,
                 y_old + np.dot(K[:s].T, A853[s, :s]) * h)
    dy = y_new - y_old
    return t_old, h, y_old, np.vstack((dy, h * K[0] - dy, 2 * dy - h * (
        f_new + K[0]), h * np.dot(D853, K)))


def _dop853_interpolate(piece, t):
    """Dense output of one DOP853 step, (t_old, h, y_old, F), at a scalar
    t."""
    t_old, h, y_old, F = piece
    x = (t - t_old) / h
    y = np.zeros_like(y_old)
    for i, f in enumerate(F[::-1]):
        y += f
        y *= 1 - x if i % 2 else x
    return y + y_old


@dataclass
class Solution:
    """Where rk45 stopped, and on floats also its steps."""
    t_stop: float          # where the integration stopped: t_end or an
    y_stop: np.ndarray     # event's root; and the state there
    nfev: int              # evaluations of the field
    event: int = None      # index of the terminal event that fired
    rejected: int = 0      # step attempts the error test rejected
    t: np.ndarray = None   # on floats only: the step ends from 0,
    y: np.ndarray = None   # the states there, one row each,
    dense: DenseOutput = None  # and their interpolant


def _initial_step(f, y0, f0, t_end, rtol, atol, floats, order):
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    y1 = y0 + h0 * f0
    f1 = np.asarray(f(h0, y1.tolist() if floats else y1))
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, t_end)


@functools.cache
def _float_step(n, dop853=False):
    """step(fun, t, y, fy, h, rtol, atol) -> (y_new, f_new, error_norm,
    stage rows as bytes) on tuples of n floats, in straight-line code that
    sums left to right, over the nonzero tableau entries and components.
    A Dormand-Prince 5(4) step takes 6 evaluations and keeps its 7 stage
    rows; with dop853 a DOP853 step takes 12, keeps 13 and has scipy's
    error norm from E5 and E3, 0 where the E5 squares sum to 0."""
    nodes, a, b = (C853, A853, B853) if dop853 else (C, A, B)
    stages = len(b)

    def row(prefix):    # "k2_0, k2_1, ..", the n names of a row
        return ", ".join("%s%d" % (prefix, j) for j in range(n))

    def total(coeffs, j):
        return " + ".join("%r * k%d_%d" % (c, s, j)
                          for s, c in enumerate(coeffs.tolist()) if c)

    def squares(prefix):
        return " + ".join("%s%d * %s%d" % (prefix, j, prefix, j)
                          for j in range(n))
    lines = ["%s, = y" % row("y"), "%s, = fy" % row("k0_")] + [
        "%s, = fun(t + %r * h, (%s,))" % (
            row("k%d_" % s), float(nodes[s]), ", ".join(
                "y%d + (%s) * h" % (j, total(a[s, :s], j))
                for j in range(n)))
        for s in range(1, stages)] + [
        "n%d = y%d + h * (%s)" % (j, j, total(b, j)) for j in range(n)] + [
        "y_new = (%s,)" % row("n"), "f_new = fun(t + h, y_new)",
        "%s, = f_new" % row("k%d_" % stages)]
    scale = "(atol + (a if a > b else b) * rtol)"
    for j in range(n):
        lines.append("a, b = abs(y%d), abs(n%d)" % (j, j))
        if dop853:
            lines += ["s = " + scale, "e%d = (%s) / s" % (j, total(E5, j)),
                      "d%d = (%s) / s" % (j, total(E3, j))]
        else:
            lines.append("e%d = (%s) * h / %s" % (j, total(E, j), scale))
    if dop853:
        lines.append("e, d = %s, %s" % (squares("e"), squares("d")))
        norm = "h * e / _sqrt((e + 0.01 * d) * %d) if e else 0.0" % n
    else:
        norm = "_sqrt(%s) / %r" % (squares("e"), n ** 0.5)
    ns = {"_sqrt": math.sqrt,
          "_pack": struct.Struct("%dd" % ((stages + 1) * n)).pack}
    exec("def step(fun, t, y, fy, h, rtol, atol):\n    %s\n    return y_new, "
         "f_new, %s, _pack(%s)" % (
             "\n    ".join(lines), norm,
             ", ".join(row("k%d_" % s) for s in range(stages + 1))), ns)
    return ns["step"]


def _float_dop853_piece(f, t_old, y_old, h, K, y_new, *_):
    """_dop853_piece of a DOP853 float step from the bytes K of its 13
    stage rows, the last of them the field at its end; f takes and
    returns sequences of floats."""
    rows = np.empty((16, len(y_old)))
    rows[:N_STAGES + 1] = np.frombuffer(K).reshape(N_STAGES + 1, -1)
    return _dop853_piece(lambda t, y: f(t, y.tolist()), t_old,
                         np.asarray(y_old), h, rows, np.asarray(y_new),
                         rows[N_STAGES])


# The pairs rk45 steps with: the order of the error estimate, the
# evaluations rk45 books for a step before taking it (0 on arrays, whose
# step calls the counted field), step(n) -> step(fun, t, y, fy, h, rtol,
# atol), piece(f, t_old, y_old, h, K, y_new, f_new) -> the dense output
# of a step, and interpolate(piece, t).  Floats start with the 5(4) pair
# and may switch to DOP853; arrays step with DOP853 on numpy.
_DP54 = (4, 6, _float_step, lambda f, t, y, h, K, *_: _piece(t, y, h, K),
         _interpolate)
_FLOAT_DOP853 = (7, 12, functools.partial(_float_step, dop853=True),
                 _float_dop853_piece, _dop853_interpolate)
_DOP853 = (7, 0, _dop853_step, _dop853_piece, _dop853_interpolate)


def rk45(fun, t_end, y0, rtol, atol, max_nfev, events=(), prune=None):
    """Integrate dy/dt = fun(t, y) from y(0) = y0 to t = t_end > 0.

    The local error of each step is kept below atol + rtol*|y|.  Every
    event is a pair (g, direction): the integration stops at the first
    zero of g(t, y) that g crosses in the given direction (-1 falling,
    +1 rising, 0 either), located on the step's interpolant, and
    Solution.event is that event's index.  The type of y0 picks the
    path.  On a sequence of floats (interior rays, arc-length lanes) fun
    maps a sequence of floats to a tuple, and the solution also holds
    every step end and a DenseOutput.  The steps start as Dormand-Prince
    5(4) (_float_step, 6 evaluations).  After SWITCH_AFTER accepted steps
    in a row whose growth factor SAFETY * err^(-1/5) stayed below
    MAX_FACTOR, steps sized by the error test rather than by the growth
    limit, the call goes on with DOP853 on floats (12 evaluations, order
    8).  A short call, or one whose steps grow as fast as the controller
    lets them, stays on the cheaper 5(4) pair.  On an ndarray (the
    cogeodesic shooter's lanes) fun(t, y) maps arrays to arrays, checked,
    and fun(t, y, out) writes the same into out unchecked; the steps are
    DOP853 as scipy takes them, each writing its rows in place and
    checking them once (_dop853_step), and the solution holds only where
    it stopped.  Either way Solution.t_stop and y_stop say where: at
    t_end, or at an event's root.  prune(y), if given, runs at every
    accepted step end and returns None or (keep, fun): the integration
    goes on with the entries y[keep] of the state, the field fun of
    those entries, the same step size and the field at the step end of
    the kept entries, and it stops where no entry is left.  Once it
    prunes, the solution holds only where it stopped, also on floats.
    Raises StepLimitError before evaluation max_nfev + 1 of fun, and
    IntegrationDivergedError when the step falls below float spacing.
    """
    if not t_end > 0.0:
        raise ValueError("integration needs t_end > 0, got %r" % t_end)
    floats = not isinstance(y0, np.ndarray)
    y0 = np.asarray(y0, float)
    if not np.isfinite(y0).all():
        raise ValueError("initial state must be finite")
    nfev = n_rejected = 0

    def spend(count):
        nonlocal nfev
        if nfev + count > max_nfev:
            raise StepLimitError("integration passed its budget of %d "
                                 "evaluations" % max_nfev)
        nfev += count

    def f(t, y, *out):
        spend(1)
        return fun(t, y, *out)

    t = 0.0
    pair = _DP54 if floats else _DOP853
    order, cost, make_step, make_piece, interpolate = pair
    step, exponent = make_step(y0.size), -1 / (order + 1)
    y = tuple(y0.tolist()) if floats else y0
    fy = f(t, y)
    h_abs = _initial_step(f, y0, np.asarray(fy), t_end, rtol, atol, floats,
                          order)
    ts, ys, hs, ks = [t], [y], [], []   # floats; ks: stage rows
    pieces = {}   # floats: an event's piece, by step
    streak = 0    # floats: sized steps in a row
    switch = 0    # floats: 5(4) steps kept, all before any DOP853 step
    g = [event(t, y) for event, _ in events]
    fired, whole = None, floats   # whole: every step end is kept
    while fired is None and t < t_end:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        tries = n_rejected
        while True:
            if h_abs < min_step:
                raise IntegrationDivergedError(
                    "required step size is less than spacing between "
                    "numbers at t = %.17g" % t)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            spend(cost)   # f counts the array evaluations
            try:
                y_new, f_new, error_norm, K = step(
                    fun, t, y, fy, h, rtol, atol) if floats else step(
                    f, t, y, fy, h, rtol, atol, fun)
            except ZeroDivisionError:   # on floats, where numpy has inf
                error_norm = math.inf   # or nan: the step fails its test
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** exponent)
                streak = streak + 1 if factor < MAX_FACTOR else 0
                if n_rejected > tries:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** exponent)
            n_rejected += 1
        if events:
            g_new = [event(t_new, y_new) for event, _ in events]
            active = [i for i, (_, sign) in enumerate(events)
                      if (sign <= 0 and g[i] >= 0 and g_new[i] <= 0)
                      or (sign >= 0 and g[i] <= 0 and g_new[i] >= 0)]
            if active:
                piece = make_piece(f, t, y, h, K, y_new, f_new)
                roots = [brent(lambda u, i=i: events[i][0](
                    u, interpolate(piece, u)), t, t_new, 4 * EPS,
                    4 * EPS) for i in active]
                first = min(range(len(active)), key=roots.__getitem__)
                fired = active[first]
                t_new = roots[first]
                y_new = interpolate(piece, t_new)
            g = g_new
        t, y, fy = t_new, y_new, f_new
        cut = prune(y) if prune else None
        if cut is not None:
            (keep, fun), whole = cut, False
            y, fy = np.asarray(y)[keep], np.asarray(fy)[keep]
            if not y.size:
                break
            step = make_step(y.size)
            if floats:
                y, fy = y.tolist(), fy.tolist()
            g = [event(t, y) for event, _ in events]
        # an event root at the last step end adds no step
        if whole and (len(ts) == 1 or ts[-1] != t):
            if fired is not None:
                pieces[len(hs)] = interpolate, piece
            ts.append(t)
            ys.append(y)
            hs.append(h)
            ks.append(K)
            switch += pair is _DP54
        if pair is _DP54 and streak == SWITCH_AFTER:
            pair = _FLOAT_DOP853
            order, cost, make_step, make_piece, interpolate = pair
            step, exponent = make_step(len(y)), -1 / (order + 1)
    if not whole:
        return Solution(t_stop=t, y_stop=np.asarray(y), nfev=nfev,
                        event=fired, rejected=n_rejected)
    states = np.array(ys)
    return Solution(t_stop=t, y_stop=np.asarray(y), nfev=nfev, event=fired,
                    rejected=n_rejected, t=np.array(ts), y=states,
                    dense=DenseOutput(fun, ts, states, hs, ks, pieces,
                                      switch))


def brent(f, a, b, xtol, rtol):
    """A root of f in the bracket [a, b] by Brent's method.

    f(a) and f(b) must differ in sign.  Stops when the bracket is below
    xtol + rtol*|x| wide; raises NumericalError after BRENT_MAXITER
    iterations without convergence.
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENT_MAXITER):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)     # secant
            else:                                   # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise NumericalError("root search did not converge in %d iterations"
                         % BRENT_MAXITER)
