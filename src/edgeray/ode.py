"""Runge-Kutta 5(4) integration and Brent root finding.

Every ODE edgeray solves (interior bicharacteristics, and the lanes of
fiber and base cogeodesics at x = 0) goes through ``rk45``, and every
scalar root through ``brent``.  ``rk45`` is the RK45 method of
``scipy.integrate.solve_ivp`` (the Dormand-Prince pair with Shampine's
quartic dense output, the Hairer-Norsett-Wanner initial step, safety
factor 0.9, step factors between 0.2 and 10, an RMS error norm, and
terminal events located on the step interpolant).  On arrays it repeats
scipy operation for operation, so the shooter's lanes read the same as
with scipy to the last bit; interior rays step on tuples of floats in
generated straight-line code (``_float_step``), which rounds its stage
sums differently.  ``brent`` is a transcription of the C source of
``scipy.optimize.brentq``.  edgeray does not import scipy.integrate and
scipy.optimize, which took most of the time of ``import edgeray``.
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
ERROR_EXPONENT = -1 / 5
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


def _rms(v):
    return math.sqrt(v.dot(v)) / v.size ** 0.5


def _piece(t_old, y_old, h, K):
    """Dense output of a step from the buffer K of its seven stage rows."""
    Q = np.frombuffer(K).reshape(7, -1).T.dot(P)
    return t_old, h, np.asarray(y_old), Q


def _interpolate(piece, t):
    """Dense output of one step, (t_old, h, y_old, Q), at a scalar t."""
    t_old, h, y_old, Q = piece
    x = (t - t_old) / h
    x2 = x * x
    x3 = x2 * x
    y = h * np.dot(Q, np.array([x, x2, x3, x3 * x]))
    y += y_old
    return y


def _interpolate_many(piece, t):
    """Dense output of one step at an array of t; shape (n, len(t)).

    One matrix product for all of t, as scipy evaluates t_eval points;
    it need not round as _interpolate's matrix-vector product does.
    """
    t_old, h, y_old, Q = piece
    p = np.cumprod(np.tile((t - t_old) / h, (4, 1)), axis=0)
    y = h * np.dot(Q, p)
    y += y_old[:, None]
    return y


class DenseOutput:
    """The piecewise quartic interpolant of an ``rk45`` solution.

    Called at a scalar t it evaluates the step whose interval holds t;
    at a step end that is the earlier of the two steps.
    """

    def __init__(self, ts, ys, hs, ks):
        self.ts, self.ys, self.hs, self.ks, self.cache = ts, ys, hs, ks, {}

    def __call__(self, t):
        i = min(max(bisect.bisect_left(self.ts, t), 1), len(self.hs)) - 1
        if i not in self.cache:
            self.cache[i] = _piece(self.ts[i], self.ys[i], self.hs[i],
                                   self.ks[i])
        return _interpolate(self.cache[i], t)


@dataclass
class Solution:
    t: np.ndarray          # step ends from 0, or the t_eval points
    y: np.ndarray          # states, one row per entry of t
    nfev: int              # evaluations of the field
    event: int = None      # index of the terminal event that fired
    dense: DenseOutput = None
    t_stop: float = None       # where the integration stopped: t_end or
    y_stop: np.ndarray = None  # an event's root; and the state there
    rejected: int = 0      # step attempts the error test rejected


def _initial_step(f, y0, f0, t_end, rtol, atol, floats):
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
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_end)


def _numpy_step(n):
    """_float_step's step on arrays, as scipy takes it; K is reused."""
    K = np.empty((7, n))
    stages = [(float(C[s]), K[:s].T, A[s, :s]) for s in range(1, 6)]

    def step(fun, t, y, fy, h, rtol, atol):
        K[0] = fy
        for s, (c, k, a) in enumerate(stages, 1):
            K[s] = fun(t + c * h, y + np.dot(k, a) * h)
        y_new = y + h * np.dot(K[:-1].T, B)
        K[-1] = f_new = fun(t + h, y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        return y_new, f_new, _rms(np.dot(K.T, E) * h / scale), K
    return step


@functools.cache
def _float_step(n):
    """step(fun, t, y, fy, h, rtol, atol) -> (y_new, f_new, error_norm,
    stage rows as bytes) on tuples of n floats, in straight-line code that
    sums left to right, over the nonzero tableau entries and components."""
    def row(prefix):    # "k2_0, k2_1, ..", the n names of a row
        return ", ".join("%s%d" % (prefix, j) for j in range(n))

    def total(coeffs, j):
        return " + ".join("%r * k%d_%d" % (c, s, j)
                          for s, c in enumerate(coeffs.tolist()) if c)
    lines = ["%s, = y" % row("y"), "%s, = fy" % row("k0_")] + [
        "%s, = fun(t + %s * h, (%s,))" % (row("k%d_" % s), C[s], ", ".join(
            "y%d + (%s) * h" % (j, total(A[s, :s], j)) for j in range(n)))
        for s in range(1, 6)] + [
        "n%d = y%d + h * (%s)" % (j, j, total(B, j)) for j in range(n)] + [
        "y_new = (%s,)" % row("n"), "f_new = fun(t + h, y_new)",
        "%s, = f_new" % row("k6_")] + [
        "a, b = abs(y%d), abs(n%d)\n    e%d = (%s) * h / (atol + (a if a > b "
        "else b) * rtol)" % (j, j, j, total(E, j)) for j in range(n)]
    ns = {"_sqrt": math.sqrt, "_pack": struct.Struct("%dd" % (7 * n)).pack}
    exec("def step(fun, t, y, fy, h, rtol, atol):\n    %s\n    return y_new, "
         "f_new, _sqrt(%s) / %r, _pack(%s)" % (
             "\n    ".join(lines), " + ".join("e%d * e%d" % (j, j)
                                             for j in range(n)),
             n ** 0.5, ", ".join(row("k%d_" % s) for s in range(7))), ns)
    return ns["step"]


def rk45(fun, t_end, y0, rtol, atol, max_nfev, events=(), t_eval=None,
         floats=False):
    """Integrate dy/dt = fun(t, y) from y(0) = y0 to t = t_end > 0.

    The local error of each step is kept below atol + rtol*|y|.  Every
    event is a pair (g, direction): the integration stops at the first
    zero of g(t, y) that g crosses in the given direction (-1 falling,
    +1 rising, 0 either), and Solution.event is that event's index.
    Without t_eval, the solution holds every step end and a DenseOutput;
    with t_eval (increasing, inside [0, t_end]) the states at those
    points, interpolated only in steps that hold them (or fire an event).
    Either way Solution.t_stop and y_stop say where it stopped.
    With floats, fun maps a sequence of floats to a tuple (_float_step).
    Raises StepLimitError before evaluation max_nfev + 1 of fun, and
    IntegrationDivergedError when the step falls below float spacing.
    """
    if not t_end > 0.0:
        raise ValueError("integration needs t_end > 0, got %r" % t_end)
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

    def f(t, y):
        spend(1)
        return fun(t, y)

    t = 0.0
    step = (_float_step if floats else _numpy_step)(y0.size)
    y = tuple(y0.tolist()) if floats else y0
    fy = f(t, y)
    h_abs = _initial_step(f, y0, np.asarray(fy), t_end, rtol, atol, floats)
    if t_eval is None:
        ts, ys, hs, ks = [t], [y], [], bytearray()   # ks: stage rows
    else:
        t_eval = np.asarray(t_eval, float)
        evals, ys, i_eval = t_eval.tolist(), [], 0
    g = [event(t, y) for event, _ in events]
    fired = None
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
            spend(6 if floats else 0)   # f counts the numpy evaluations
            try:
                y_new, f_new, error_norm, K = step(fun if floats else f, t,
                                                   y, fy, h, rtol, atol)
            except ZeroDivisionError:   # on floats, where numpy has inf
                error_norm = math.inf   # or nan: the step fails its test
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** ERROR_EXPONENT)
                if n_rejected > tries:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            n_rejected += 1
        taken, piece = (t, y, h, K), None
        t, y, fy = t_new, y_new, f_new
        if events:
            g_new = [event(t, y) for event, _ in events]
            active = [i for i, (_, sign) in enumerate(events)
                      if (sign <= 0 and g[i] >= 0 and g_new[i] <= 0)
                      or (sign >= 0 and g[i] <= 0 and g_new[i] >= 0)]
            if active:
                piece = _piece(*taken)
                roots = [brent(lambda u, i=i: events[i][0](
                    u, _interpolate(piece, u)), piece[0], t, 4 * EPS, 4 * EPS)
                    for i in active]
                first = min(range(len(active)), key=roots.__getitem__)
                fired = active[first]
                t = roots[first]
                y = _interpolate(piece, t)
            g = g_new
        if t_eval is None:
            if len(ts) == 1 or ts[-1] != t:    # an event root at the last
                ts.append(t)                   # step end adds no step
                ys.append(y)
                hs.append(h)
                ks += memoryview(K)    # a bytearray, not numpy's +
        elif i_eval < len(evals) and evals[i_eval] <= t:
            i_new = bisect.bisect_right(evals, t, i_eval)
            ys.append(_interpolate_many(piece or _piece(*taken),
                                        t_eval[i_eval:i_new]))
            i_eval = i_new
    if t_eval is not None:
        states = np.hstack(ys).T if ys else np.empty((0, len(y)))
        return Solution(t=t_eval[:i_eval], y=states, nfev=nfev, event=fired,
                        t_stop=t, y_stop=np.asarray(y), rejected=n_rejected)
    states, ks = np.array(ys), np.frombuffer(ks).reshape(len(hs), 7, -1)
    return Solution(t=np.array(ts), y=states, nfev=nfev, event=fired,
                    dense=DenseOutput(ts, states, hs, ks), t_stop=t,
                    y_stop=np.asarray(y), rejected=n_rejected)


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
