"""The in-house Runge-Kutta and Brent solvers against scipy, which serves
here only as an oracle: the same operations must give the same bits."""

import functools
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import RK45, solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import brentq

from edgeray import boundary, gbb, ode
from edgeray.cli import main
from edgeray.errors import IntegrationDivergedError, StepLimitError
from edgeray.hamiltonian import (BoundaryData, FlowSettings, Termination,
                                 integrate_interior, stable_manifold_launch)
from edgeray.metric import make_metric_spec, transverse_momentum
from edgeray.phase import EdgePhasePoint
from edgeray.scenes import builtin_scene, parse_scene, scenario_rays
from test_scenes_cli import scipy_fan_directions

SRC = Path(__file__).resolve().parents[1] / "src"


def _fan_ray():
    config = parse_scene("builtin = perturbed_edge(0.3)\n"
                         "origin = [0.5, 0.1, 1.0]\nfan_count = 4\n"
                         "seed = 3\nt_span = [0.0, 3.0]\n")
    return config.spec, scenario_rays(config)[1], 3.0


def _edge_ray():
    config = builtin_scene("sphere_edge")
    return config.spec, scenario_rays(config)[0], 1.5


def _chart_exit_ray():
    spec = make_metric_spec(b=0, f=1, k=[["1"]], fiber="chart",
                            z_box=[(-0.5, 0.5)])
    xi = transverse_momentum(spec, 0.4, np.zeros(0), np.zeros(1), 1.0,
                             np.zeros(0), np.array([0.9]), 1)
    q0 = EdgePhasePoint(t=0.0, x=0.4, y=np.zeros(0), z=np.array([0.0]),
                        tau=1.0, xi=xi, eta=np.zeros(0),
                        zeta=np.array([0.9]))
    return spec, q0, 8.0


def _interior_problem(spec, q0, direction, settings):
    """integrate_interior's field and events, written out again: the field
    on sequences of floats, events as (g, direction) pairs."""
    hamilton = spec.evaluator().hamilton
    itau = 2 + spec.b + spec.f

    def rhs(s, vec):
        return hamilton(vec, direction / (vec[1] * abs(vec[itau])))[1]

    def hit_boundary(s, vec):
        return vec[1] - settings.x_stop
    events = [(hit_boundary, -1)]
    if spec.fiber.kind == "chart":
        def chart_exit(s, vec):
            z = vec[2 + spec.b:itau]
            return -max(max(z[a] - hi, lo - z[a])
                        for a, (lo, hi) in enumerate(spec.z_box))
        events.append((chart_exit, 0))
    return rhs, events


def _solve_ivp_interior(spec, q0, direction, settings, s_max, method,
                        s0=0.0, y0=None, **options):
    """integrate_interior's ODE and events, handed to solve_ivp; from
    (s0, y0) if given, else from q0 at 0."""
    rhs, events = _interior_problem(spec, q0, direction, settings)
    for g, sign in events:
        g.terminal, g.direction = True, sign
    return solve_ivp(lambda s, vec: rhs(s, vec.tolist()), (s0, s_max),
                     q0.to_vector() if y0 is None else y0, method=method,
                     rtol=settings.rtol, atol=settings.atol,
                     dense_output=True, events=[g for g, _ in events],
                     **options)


def _total(coeffs, K, j):
    """sum_s coeffs[s] * K[s][j], left to right over the nonzero coeffs."""
    acc = None
    for c, k in zip(coeffs, K):
        if c:
            acc = c * k[j] if acc is None else acc + c * k[j]
    return acc


def _reference_step(fun, t, y, fy, h, rtol, atol):
    """One Dormand-Prince step on floats, written from scipy's RK45
    tableau: (y_new, f_new, error_norm, K) with K the seven stage rows."""
    n = len(y)
    K = [tuple(fy)]
    for s in range(1, 6):
        K.append(fun(t + float(RK45.C[s]) * h, tuple(
            y[j] + _total(RK45.A[s, :s].tolist(), K, j) * h
            for j in range(n))))
    y_new = tuple(y[j] + h * _total(RK45.B.tolist(), K, j)
                  for j in range(n))
    K.append(fun(t + h, y_new))
    square = 0.0
    for j in range(n):
        e = _total(RK45.E.tolist(), K, j) * h / (
            atol + max(abs(y[j]), abs(y_new[j])) * rtol)
        square = e * e if j == 0 else square + e * e
    return y_new, K[-1], math.sqrt(square) / n ** 0.5, K


def _reference_dop853_step(fun, t, y, fy, h, rtol, atol):
    """One DOP853 step on floats, written from scipy's dop853_coefficients,
    with its error norm |h| e5^2 / sqrt((e5^2 + e3^2 / 100) n) over sums
    of squares, 0 where e5^2 is 0: (y_new, f_new, error_norm, K) with K
    the 13 stage rows."""
    dop, n = dop853_coefficients, len(y)
    K = [tuple(fy)]
    for s in range(1, dop.N_STAGES):
        K.append(fun(t + float(dop.C[s]) * h, tuple(
            y[j] + _total(dop.A[s, :s].tolist(), K, j) * h
            for j in range(n))))
    y_new = tuple(y[j] + h * _total(dop.B.tolist(), K, j) for j in range(n))
    K.append(fun(t + h, y_new))
    e5 = e3 = 0.0
    for j in range(n):
        scale = atol + max(abs(y[j]), abs(y_new[j])) * rtol
        a = _total(dop.E5.tolist(), K, j) / scale
        b = _total(dop.E3.tolist(), K, j) / scale
        e5, e3 = (a * a, b * b) if j == 0 else (e5 + a * a, e3 + b * b)
    error = abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * n) if e5 else 0.0
    return y_new, K[-1], error, K


def _interpolate(piece, s):
    t_old, h, y_old, Q = piece
    return h * np.dot(Q, np.cumprod(np.tile((s - t_old) / h, 4))) + y_old


def _dp5_dense(t, h, y, K):
    """scipy's RK45 dense output of a float step from its 7 stage rows."""
    return functools.partial(_interpolate, (t, h, np.array(y),
                                            np.array(K).T.dot(RK45.P)))


def _dop853_dense(fun, t, h, y, K, y_new):
    """scipy's DOP853 dense output of a float step from its 13 stage
    rows: 3 more stages through fun, then Dop853DenseOutput."""
    dop = dop853_coefficients
    y, K = np.array(y), np.vstack((K, np.empty((3, len(y)))))
    for s in range(dop.N_STAGES + 1, dop.N_STAGES_EXTENDED):
        K[s] = fun(t + dop.C[s] * h, (
            y + np.dot(K[:s].T, dop.A[s, :s]) * h).tolist())
    dy = np.array(y_new) - y
    F = np.vstack((dy, h * K[0] - dy, 2 * dy - h * (K[dop.N_STAGES] + K[0]),
                   h * np.dot(dop.D, K)))
    return Dop853DenseOutput(t, t + h, y, F)


def _float_rk45(fun, t_end, y0, rtol, atol, events):
    """scipy's RK45 with terminal events, its steps taken on floats by
    _reference_step until ode.SWITCH_AFTER accepted steps in a row grew
    the step by less than the growth limit 10, and by
    _reference_dop853_step from then on: (t, states, nfev, the event that
    fired, rejected step attempts, dense output, the first DOP853 step).
    A DOP853 step's dense output costs 3 evaluations, counted in nfev
    only where an event fires on the step."""
    y = tuple(y0)
    fy = fun(0.0, y)
    # scipy's initial step, on arrays of the same floats
    y_arr, f_arr = np.array(y), np.array(fy)
    scale = atol + np.abs(y_arr) * rtol
    d0 = np.linalg.norm(y_arr / scale) / len(y) ** 0.5
    d1 = np.linalg.norm(f_arr / scale) / len(y) ** 0.5
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    f1 = np.array(fun(h0, (y_arr + h0 * f_arr).tolist()))
    d2 = np.linalg.norm((f1 - f_arr) / scale) / len(y) ** 0.5 / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 5))
    h_abs = float(min(100 * h0, h1, t_end))
    t, nfev, fired, rejected = 0.0, 2, None, 0
    step, power, cost, in_a_row = _reference_step, -1 / 5, 6, 0
    ts, ys, pieces, first = [t], [y], [], None
    g = [event(t, y) for event, _ in events]
    while fired is None and t < t_end:
        h_abs = max(h_abs, 10 * abs(math.nextafter(t, math.inf) - t))
        retry = False
        while True:
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, err, K = step(fun, t, y, fy, h, rtol, atol)
            nfev += cost
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** power)
                in_a_row = in_a_row + 1 if factor < 10 else 0
                h_abs *= min(1, factor) if retry else factor
                break
            h_abs *= max(0.2, 0.9 * err ** power)
            retry = True
            rejected += 1
        built = functools.cache(
            functools.partial(_dp5_dense, t, h, y, K)
            if step is _reference_step
            else functools.partial(_dop853_dense, fun, t, h, y, K, y_new))
        pieces.append(built)
        g_new = [event(t_new, y_new) for event, _ in events]
        crossed = [i for i, (_, sign) in enumerate(events)
                   if (sign <= 0 and g[i] >= 0 and g_new[i] <= 0)
                   or (sign >= 0 and g[i] <= 0 and g_new[i] >= 0)]
        if crossed and step is _reference_dop853_step:
            nfev += 3
        t_old, t, y, fy = t, t_new, y_new, f_new
        for i in crossed:
            root = brentq(lambda u, i=i: events[i][0](u, built()(u)), t_old,
                          t_new, xtol=4 * ode.EPS, rtol=4 * ode.EPS)
            if fired is None or root < t:
                fired, t = i, root
        if fired is not None:
            y = built()(t)
        g = g_new
        ts.append(t)
        ys.append(y)
        if step is _reference_step and in_a_row == ode.SWITCH_AFTER:
            step, power, cost, first = (_reference_dop853_step, -1 / 8, 12,
                                        len(pieces))
    first = len(pieces) if first is None else first

    def dense(s):
        i = min(max(np.searchsorted(ts, s) - 1, 0), len(pieces) - 1)
        return pieces[i]()(s)
    return np.array(ts), np.array(ys), nfev, fired, rejected, dense, first


RAYS = pytest.mark.parametrize("ray, termination", [
    (_fan_ray, Termination.TIME_LIMIT),
    (_edge_ray, Termination.BOUNDARY_APPROACH),
    (_chart_exit_ray, Termination.CHART_EXIT)])
FIRED = {Termination.TIME_LIMIT: None, Termination.BOUNDARY_APPROACH: 0,
         Termination.CHART_EXIT: 1}


def _inner_points(s):
    return np.concatenate((0.5 * (s[1:] + s[:-1]), s,
                           np.random.default_rng(0).uniform(0, s[-1], 50)))


@RAYS
def test_interior_integration_matches_a_float_reference_bitwise(
        ray, termination):
    """Interior rays step on floats: s, states, nfev, the event that
    fired, the rejected step count, the step the integration went on
    with DOP853 from and the dense output equal a plain reference on
    floats bit for bit."""
    spec, q0, s_max = ray()
    settings = FlowSettings()
    direction = -1 if q0.tau > 0 else 1
    seg = integrate_interior(spec, q0, direction, settings, s_max=s_max)
    rhs, events = _interior_problem(spec, q0, direction, settings)
    s, states, nfev, fired, rejected, dense, first = _float_rk45(
        rhs, s_max, q0.to_vector().tolist(), settings.rtol, settings.atol,
        events)
    assert seg.termination is termination
    assert fired == FIRED[termination]
    assert len(seg.s) > 10
    assert np.array_equal(seg.s, s)
    assert np.array_equal(seg.states, states)
    assert seg.nfev == nfev
    assert seg.rejected == rejected
    assert seg.dense.switch == first
    for u in _inner_points(seg.s):
        assert np.array_equal(seg.dense(u), dense(u))


@RAYS
def test_interior_integration_agrees_with_solve_ivp(ray, termination):
    """Interior rays take the steps of scipy's solvers on either side of
    the switch to DOP853: up to it those of RK45 from 0, after it those
    of solve_ivp's DOP853 started at the switch's step end and state with
    the first DOP853 step, which is the step RK45 would try next.  The
    step counts are equal, the same event fires, the evaluations add up
    (DOP853's dense output included) and the dense output agrees within
    1e-12 relative.  A ray that never switches matches solve_ivp's RK45
    throughout.  Against a tight solve_ivp
    DOP853 reference (rtol 1e-13, atol 1e-15) the ray also solves its
    ODE to the tolerance asked for: where it ends and its dense output
    agree within 10 rtol relative.  (At rtol 1e-10 the 5(4) pair alone
    is 3e-10 off on _fan_ray, the mixed run 8e-11.)"""
    spec, q0, s_max = ray()
    settings = FlowSettings()
    direction = -1 if q0.tau > 0 else 1
    seg = integrate_interior(spec, q0, direction, settings, s_max=s_max)
    switch = seg.dense.switch
    if switch == len(seg.s) - 1:
        parts = [_solve_ivp_interior(spec, q0, direction, settings, s_max,
                                     "RK45")]
        ends = parts[0].t
    else:
        rhs, events = _interior_problem(spec, q0, direction, settings)
        dp5 = RK45(lambda s, vec: rhs(s, vec.tolist()), 0.0, q0.to_vector(),
                   s_max, rtol=settings.rtol, atol=settings.atol)
        dp5_ends, pieces = [0.0], []
        for _ in range(switch):
            dp5.step()
            assert all(g(dp5.t, dp5.y.tolist()) > 0 for g, _ in events)
            dp5_ends.append(dp5.t)
            pieces.append(dp5.dense_output())
        first = seg.s[switch + 1] - seg.s[switch]
        assert abs(first - dp5.h_abs) <= 1e-6 * first
        dop853 = _solve_ivp_interior(
            spec, q0, direction, settings, s_max, "DOP853", s0=seg.s[switch],
            y0=seg.states[switch], first_step=first)
        dp5.sol = lambda u: pieces[min(max(np.searchsorted(
            dp5_ends, u) - 1, 0), len(pieces) - 1)](u)
        dp5.t_events = [[] for _ in events]
        parts = [dp5, dop853]
        ends = np.concatenate((dp5_ends, dop853.t[1:]))
    fired = [i for i, t in enumerate(parts[-1].t_events) if len(t)]
    assert fired == [i for i in [FIRED[termination]] if i is not None]
    assert seg.termination is termination
    assert len(seg.s) == len(ends)
    for u in _inner_points(seg.s):
        ref = parts[-1 if u > seg.s[switch] else 0].sol(u)
        assert np.abs(seg.dense(u) - ref).max() <= 1e-12 * np.abs(ref).max()
    assert seg.nfev + seg.dense.nfev == sum(
        p.nfev for p in parts) - (len(parts) - 1)
    want = _solve_ivp_interior(spec, q0, direction, replace(
        settings, rtol=1e-13, atol=1e-15), s_max, "DOP853")
    tol = 10 * settings.rtol
    assert [i for i, t in enumerate(want.t_events) if len(t)] == fired
    assert abs(seg.s[-1] - want.t[-1]) <= tol * seg.s[-1]
    for u in _inner_points(seg.s):
        u = min(u, want.t[-1])
        got, ref = seg.dense(u), want.sol(u)
        assert np.abs(got - ref).max() <= tol * np.abs(ref).max()


def _long_rays(monkeypatch):
    """_fan_ray, a ray of a perturbed_edge(0.3) point-source fan that
    stays in the interior for s up to 3, integrated as is and with the
    5(4) pair alone."""
    spec, q0, s_max = _fan_ray()
    direction = -1 if q0.tau > 0 else 1
    seg = integrate_interior(spec, q0, direction, FlowSettings(), s_max)
    monkeypatch.setattr(ode, "SWITCH_AFTER", math.inf)
    return seg, integrate_interior(spec, q0, direction, FlowSettings(),
                                   s_max)


def test_a_long_interior_ray_goes_on_with_dop853(monkeypatch):
    """A long interior ray switches to DOP853 once its steps are sized
    by the error test, and takes fewer steps and evaluations than with
    the 5(4) pair alone."""
    seg, dp5 = _long_rays(monkeypatch)
    assert seg.termination is dp5.termination is Termination.TIME_LIMIT
    assert 0 < seg.dense.switch < len(seg.s) - 1
    assert dp5.dense.switch == len(dp5.s) - 1
    assert len(seg.s) < 0.6 * len(dp5.s)
    assert seg.nfev < dp5.nfev


def test_mixed_dense_output_is_continuous_at_every_step_end(monkeypatch):
    """The dense output of a ray that switched meets the state at every
    step end from both sides, across the switch from the quartic 5(4)
    pieces to the DOP853 ones too, to 1e-12 relative; its 3 extra
    DOP853 stages are evaluated per piece read, and counted there."""
    seg = _long_rays(monkeypatch)[0]
    switch = seg.dense.switch
    assert 0 < switch < len(seg.s) - 1
    for i in range(1, len(seg.s) - 1):
        state = seg.states[i]
        for u in (seg.s[i], math.nextafter(seg.s[i], math.inf)):
            assert np.abs(seg.dense(u) - state).max() <= 1e-12 * np.abs(
                state).max()
    assert seg.dense.nfev == 3 * (len(seg.s) - 1 - switch)


def test_newton_probe_segments_stay_on_the_5_4_pair(monkeypatch):
    """The segments of perturbed_edge(0.3)'s Newton launch probes stay
    on the 5(4) pair throughout.  The longest take 9 steps: they would
    switch if SWITCH_AFTER were 8, and pay for DOP853's dense output
    when the event ladder reads them."""
    spec = builtin_scene("perturbed_edge(0.3)").spec
    segments = []

    def recording(*args, **kwargs):
        segments.append(integrate_interior(*args, **kwargs))
        return segments[-1]
    monkeypatch.setattr(gbb, "integrate_interior", recording)
    for z in (0.5 * math.pi, 1.0, 1.5 * math.pi, 4.0):
        for eta in (-0.45, 0.0, 0.3):
            data = BoundaryData(t_bar=0.0, y_bar=np.array([0.1]),
                                z_bar=np.array([z]), sgn_tau=1,
                                xi_hat=-math.sqrt(1.0 - eta * eta),
                                eta_hat=np.array([eta]))
            stable_manifold_launch(spec, data)
    assert len(segments) == 12
    assert max(len(seg.s) - 1 for seg in segments) > 8
    for seg in segments:
        assert seg.dense.switch == len(seg.s) - 1


def _ripple_spec(b, f):
    """A curved metric of any (b, f): h and k diagonal and rippled along
    y and z, with kyz cross terms."""
    def diagonal(n, entry):
        return [[entry % (i + 1) if i == j else "0" for j in range(n)]
                for i in range(n)]
    return make_metric_spec(
        b, f, h=diagonal(b, "1 + 0.1*sin(y%d)") if b else None,
        k=diagonal(f, "1 + 0.2*cos(z%d) + 0.1*x"),
        kyz=[["0.05*z%d" % (a + 1) for a in range(f)] for _ in range(b)],
        fiber="chart")


def _floats(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(tuple)


def _draw_step(b, f, data):
    """A float step's arguments, drawn: (fun, n, t, y, h, rtol, atol) on
    the Hamilton field of _ripple_spec(b, f) at a drawn scale."""
    hamilton = _ripple_spec(b, f).evaluator().hamilton
    scale = data.draw(st.floats(-2.0, 2.0))

    def fun(t, vec):
        return hamilton(vec, scale)[1]
    y = (data.draw(_floats(-1.0, 1.0, 1)) + data.draw(_floats(0.1, 0.9, 1))
         + data.draw(_floats(-1.0, 1.0, b + f))
         + data.draw(_floats(0.5, 2.0, 1))
         + data.draw(_floats(-1.0, 1.0, 1 + b + f)))
    t = data.draw(st.floats(0.0, 10.0))
    h = data.draw(st.floats(1e-6, 0.05))
    rtol, atol = data.draw(st.sampled_from([(1e-10, 1e-12), (1e-6, 1e-9)]))
    return fun, len(y), t, y, h, rtol, atol


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(b=st.integers(0, 3), f=st.integers(1, 3), data=st.data())
def test_float_step_matches_the_reference_bitwise(b, f, data):
    """The generated float step equals _reference_step bit for bit: the
    new state, the field there, the error norm and the stage rows."""
    fun, n, t, y, h, rtol, atol = _draw_step(b, f, data)
    got = ode._float_step(n)(fun, t, y, fun(t, y), h, rtol, atol)
    want = _reference_step(fun, t, y, fun(t, y), h, rtol, atol)
    assert got[:3] == want[:3]
    assert np.array_equal(np.frombuffer(got[3]).reshape(7, n),
                          np.array(want[3]))


def _in_rows(fun):
    """An array field fun(t, y) as rk45 and _dop853_step take one:
    called with out, it writes its value into out."""
    def field(t, y, out=None):
        if out is None:
            return fun(t, y)
        out[...] = fun(t, y)
    return field


def _check_dop853_step(fun, n, t, y, h, rtol, atol):
    """The generated float DOP853 step equals _reference_dop853_step bit
    for bit: the new state, the field there, the error norm and the 13
    stage rows.  It is the array step _dop853_step, which sums with
    BLAS: the state, the field and the stage rows agree within 1e-14
    relative, and the error norm within the rounding of its sums.

    At a field scale near 1e-156 the E5 squares can underflow to 0, and
    numpy's norm is then 0; the float norm is at most
    h sqrt(float_info.min), and 0 where its own E5 squares sum to 0.
    Returns the float norm and numpy's."""
    field = _in_rows(lambda u, v: fun(u, v.tolist()))
    y_new, f_new, error, K = ode._dop853_step(n)(
        field, t, np.array(y), np.array(fun(t, y)), h, rtol, atol, field)
    got = ode._float_step(n, dop853=True)(fun, t, y, fun(t, y), h, rtol,
                                          atol)
    want = _reference_dop853_step(fun, t, y, fun(t, y), h, rtol, atol)
    assert got[:3] == want[:3]
    rows = np.frombuffer(got[3]).reshape(13, n)
    assert np.array_equal(rows, np.array(want[3]))
    for mine, numpys in [(got[0], y_new), (got[1], f_new), (rows, K[:13])]:
        assert np.abs(np.subtract(mine, numpys)).max() <= 1e-14 * np.abs(
            numpys).max()
    if error == 0.0:
        assert got[2] <= h * math.sqrt(sys.float_info.min)
        return got[2], error
    # The E5 and E3 sums cancel: each may round by 13 eps times the size
    # of its terms, over the scale, and the norm moves by at most
    # 3 h / sqrt(n) times the change of those scaled sums.
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    slack = sum(np.linalg.norm(13 * ode.EPS * np.abs(e).dot(np.abs(rows))
                               / scale) for e in (ode.E5, ode.E3))
    assert abs(got[2] - error) <= 3 * h * slack / n ** 0.5
    return got[2], error


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(b=st.integers(0, 3), f=st.integers(1, 3), data=st.data())
def test_float_dop853_step_matches_the_reference_bitwise(b, f, data):
    """_check_dop853_step on drawn steps, field scales near 0 included."""
    _check_dop853_step(*_draw_step(b, f, data))


def test_float_dop853_step_with_an_underflowed_error_estimate():
    """At field scale 1.06e-156 the E5 squares sum to 0 and E3's, over
    100, underflow to 0 as well, so scipy's norm would read 0/0, a nan.
    Both steps accept with norm 0.0, a zero E5 estimate."""
    hamilton = _ripple_spec(1, 1).evaluator().hamilton

    def fun(t, vec):
        return hamilton(vec, 1.06e-156)[1]
    y = (-0.9, 0.7, -0.3, 0.2, 0.6, -0.4, 0.1, 0.3)
    norm, error = _check_dop853_step(fun, len(y), 8.4, y, 0.02, 1e-10, 1e-12)
    assert norm == 0.0 and error == 0.0


def _oscillator(t, y):
    return (y[1], -y[0])


def _blowing_up(call, blow_up):
    """_oscillator, but blow_up(t, y) at the call-th evaluation."""
    calls = []

    def field(t, y):
        calls.append(t)
        return (blow_up if len(calls) == call else _oscillator)(t, y)
    return field


def _divide_by_zero(t, y):
    raise ZeroDivisionError("float division by zero")


def test_a_division_by_zero_on_floats_fails_the_step():
    """Where numpy divides by zero to inf or nan, floats raise
    ZeroDivisionError.  A float step of either pair that raises it is
    rejected as a step with an inf in a stage is, and the integration
    goes on: its steps, states, nfev and rejections are those of the
    float reference whose field returns inf at that evaluation.  Array
    steps reject theirs as scipy's DOP853 does, bit for bit."""
    plain = ode.rk45(_oscillator, 5.0, [1.0, 0.0], 1e-9, 1e-11, 10 ** 5)
    switch = plain.dense.switch
    assert plain.rejected == 0
    assert 3 < switch < len(plain.t) - 1
    # the field at the end of the third 5(4) step, and the seventh
    # evaluation of the first DOP853 step
    for call in (20, 2 + 6 * switch + 7):
        got = ode.rk45(_blowing_up(call, _divide_by_zero), 5.0, [1.0, 0.0],
                       1e-9, 1e-11, 10 ** 5)
        ts, states, nfev, _, rejected, _, first = _float_rk45(
            _blowing_up(call, lambda t, y: (math.inf, 0.0)), 5.0,
            [1.0, 0.0], 1e-9, 1e-11, ())
        assert got.rejected == rejected == 1
        assert got.dense.switch == first == switch
        assert np.array_equal(got.t, ts)
        assert np.array_equal(got.y, states)
        assert got.nfev == nfev
        assert np.allclose(got.y_stop, [math.cos(5.0), -math.sin(5.0)])

    def on_arrays(t, y, blow_up):
        return np.array([math.inf, 0.0]) if blow_up else np.array(
            [y[1], -y[0]])

    def counted(fun):
        calls = []

        def field(t, y):
            calls.append(t)
            return fun(t, y, len(calls) == 20)
        return field
    with np.errstate(invalid="ignore"):   # the inf in a stage's sums
        got = ode.rk45(_in_rows(counted(on_arrays)), 5.0,
                       np.array([1.0, 0.0]), 1e-9, 1e-11, 10 ** 5)
        want = solve_ivp(counted(on_arrays), (0.0, 5.0), [1.0, 0.0],
                         method="DOP853", rtol=1e-9, atol=1e-11)
    assert got.rejected >= 1
    assert np.array_equal(got.y_stop, want.y[:, -1])
    assert got.nfev == want.nfev
    assert np.allclose(got.y_stop, [math.cos(5.0), -math.sin(5.0)])


@pytest.mark.parametrize("floats", [False, True])
def test_rejected_steps_are_counted(floats):
    """y' = -y, fifty times faster from t = 1, fails the error test on
    the step across t = 1.  Every step attempt costs six evaluations
    after the first two with the 5(4) pair on floats, twelve with
    DOP853, on floats and on arrays; so nfev counts the rejected ones
    too, and interior rays carry their count on the segment."""
    calls = []
    if floats:
        def fun(t, y):
            calls.append(t)
            return tuple(-v if t < 1.0 else -50.0 * v for v in y)
        sol = ode.rk45(fun, 3.0, [1.0, 2.0], 1e-8, 1e-10, 10 ** 5)
        assert sol.nfev == len(calls)
        ts, _, nfev, _, rejected, _, first = _float_rk45(
            fun, 3.0, [1.0, 2.0], 1e-8, 1e-10, ())
        assert np.array_equal(sol.t, ts)
        assert sol.rejected == rejected
        assert sol.dense.switch == first < len(ts) - 1
        assert sol.nfev == nfev
    else:
        def fun(t, y):
            calls.append(t)
            return -y if t < 1.0 else -50.0 * y
        sol = ode.rk45(_in_rows(fun), 3.0, np.array([1.0, 2.0]), 1e-8,
                       1e-10, 10 ** 5)
        steps = len(solve_ivp(fun, (0.0, 3.0), [1.0, 2.0], method="DOP853",
                              rtol=1e-8, atol=1e-10).t) - 1
        assert sol.nfev == 2 + 12 * (steps + sol.rejected)
    assert sol.rejected > 0
    spec, q0, s_max = _edge_ray()
    seg = integrate_interior(spec, q0, -1, FlowSettings(), s_max=s_max)
    assert seg.rejected > 0
    assert seg.dense.switch == len(seg.s) - 1
    assert seg.nfev == 2 + 6 * (len(seg.s) - 1 + seg.rejected)


def _solve_ivp_shot(field, q0, p0, arc):
    """_shoot's lanes as one solve_ivp ODE: their end q, p and nfev."""
    arc = np.asarray(arc, float)
    n, d = arc.size, np.shape(q0)[-1]
    state0 = np.stack((np.broadcast_to(q0, (n, d)),
                       np.broadcast_to(p0, (n, d))), axis=1)

    def rhs(_, state):
        return field(state, arc)

    sol = solve_ivp(rhs, (0.0, 1.0), state0.ravel(), method="DOP853",
                    rtol=boundary._GEO_RTOL, atol=boundary._GEO_ATOL)
    assert sol.t[-1] == 1.0
    states = sol.y[:, -1].reshape(n, 2, d)
    return states[:, 0], states[:, 1], sol.nfev


def test_multi_lane_shot_matches_solve_ivp_bitwise():
    spec = builtin_scene("sphere_edge").spec
    ev = spec.evaluator()
    y = np.array([0.1])
    field = functools.partial(ev.fiber_cogeodesic, y)
    z0 = np.array([[1.2, 0.3], [1.5, 2.0], [1.3, 5.0]])
    angles = np.array([0.3, 2.0, 4.4])
    zeta0 = np.stack((np.cos(angles), np.sin(angles) * np.sin(z0[:, 0])), 1)
    arc = [0.7, -1.1, math.pi]
    calls = []

    def counted(*args):
        calls.append(1)
        return ev.fiber_cogeodesic(*args)
    got = boundary._shoot(counted, z0, zeta0, arc, (y,))
    *want, nfev = _solve_ivp_shot(field, z0, zeta0, arc)
    for g, w in zip(got, want):
        assert g.shape == (3, 2)
        assert np.array_equal(g, w)
    assert len(calls) == nfev


def _spiral(t, y):
    return np.array([-0.5 * y[0] - 2.0 * y[1],
                     2.0 * y[0] - 0.5 * y[1] + 0.1 * y[0] ** 2,
                     -y[2] * y[0]])


def _falling(t, y):
    return y[0] - 0.999999


_falling.terminal = True
_falling.direction = -1
SPIRAL = dict(fun=_spiral, y0=[1.0, 0.0, 0.5], rtol=1e-9, atol=1e-11)


def _solve_ivp_spiral(t_end=4.0, events=False, dense_output=False):
    return solve_ivp(t_span=(0.0, t_end), method="DOP853",
                     events=_falling if events else None,
                     dense_output=dense_output, **SPIRAL)


def _rk45_spiral(t_end=4.0, events=()):
    return ode.rk45(_in_rows(_spiral), t_end, np.array(SPIRAL["y0"]),
                    SPIRAL["rtol"], SPIRAL["atol"], 10 ** 5, events)


@pytest.mark.parametrize("t_end", [0.1, 1.0, 4.0])
def test_array_path_ends_where_solve_ivp_ends(t_end):
    """On an ndarray rk45 steps with DOP853 and returns only where it
    stopped: t_stop, y_stop and nfev are solve_ivp's last t, last state
    and nfev, bit for bit, with no dense output evaluated."""
    got, want = _rk45_spiral(t_end), _solve_ivp_spiral(t_end)
    assert got.t_stop == want.t[-1] == t_end
    assert np.array_equal(got.y_stop, want.y[:, -1])
    assert got.nfev == want.nfev
    assert got.event is None
    assert got.t is got.y is got.dense is None


def _rising_at(target):
    return lambda t, y: t - target, 1


@pytest.mark.parametrize("events", [False, True])
def test_dense_output_matches_solve_ivp_bitwise(events):
    """An event's root and the state there come from the DOP853
    interpolant of the step that holds it, which agrees with solve_ivp's
    dense output bit for bit at scalar t.  An event at each target time
    stops rk45 there: at t = 0, at step ends and midpoints, several
    inside one step, at t_end, and inside a first step that a terminal
    event ends later."""
    want = _solve_ivp_spiral(events=events, dense_output=True)
    ts = want.t
    assert len(ts) == 2 if events else len(ts) > 8
    if events:
        te = want.t_events[0][0]
        targets = [0.0, 0.3 * te, 0.6 * te, 0.9 * te]
        falling = [(_falling, -1)]
    else:
        targets = np.concatenate((ts, 0.5 * (ts[1:] + ts[:-1]), ts[5] + (
            ts[6] - ts[5]) * np.array([0.1, 0.4, 0.8]))).tolist()
        falling = []
    for target in targets:
        got = _rk45_spiral(events=falling + [_rising_at(target)])
        assert got.event == len(falling)
        assert abs(got.t_stop - target) <= 4 * ode.EPS * max(1.0, target)
        if target in ts:
            assert got.t_stop == target
        assert np.array_equal(got.y_stop, want.sol(got.t_stop))
        if events:    # one step and its dense output, as solve_ivp's
            assert got.nfev == want.nfev


def test_event_stop_state_matches_solve_ivp_bitwise():
    """A terminal event stops the array path at its root as solve_ivp
    locates it, with the state there bit for bit."""
    got = _rk45_spiral(events=[(_falling, -1)])
    want = _solve_ivp_spiral(events=True)
    assert got.event == 0
    assert got.t_stop == want.t_events[0][0]
    assert np.array_equal(got.y_stop, want.y_events[0][0])


def test_step_below_float_spacing_is_a_typed_failure():
    """y' = y^2 blows up at t = 1: solve_ivp reports failure, rk45 raises."""
    def rhs(t, y):
        return y * y
    want = solve_ivp(rhs, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-8,
                     atol=1e-10)
    assert want.status == -1
    with pytest.raises(IntegrationDivergedError,
                       match=re.escape("spacing between numbers at t = %r"
                                       % float(want.t[-1]))):
        ode.rk45(_in_rows(rhs), 2.0, np.array([1.0]), 1e-8, 1e-10,
                 10 ** 6)


def _count_rk45(monkeypatch, drops=None):
    """Patch ode.rk45 to record the field evaluations of every call,
    also of a call that raises and of the fields its prune hands over;
    returns the list of per-call counts.  Each prune that drops lanes
    appends to drops, if given, the number of entries it drops."""
    rk45, counts = ode.rk45, []

    def counted(fun, *args, prune=None, **kwargs):
        counts.append(0)

        def count(fun):
            def f(t, y, *out):
                counts[-1] += 1
                return fun(t, y, *out)
            return f

        def pruning(y):
            cut = prune(y)
            if cut is None:
                return None
            if drops is not None:
                drops.append(int(np.sum(~cut[0])))
            return cut[0], count(cut[1])
        return rk45(count(fun), *args, prune=prune and pruning, **kwargs)
    monkeypatch.setattr(ode, "rk45", counted)
    return counts


def test_relatedness_lane_toward_the_sphere_pole_stops_at_the_chart(
        monkeypatch):
    """Lanes of this sphere_edge relatedness test that head for the pole
    of the polar chart, where the step size would collapse, stop at the
    chart's edge z1 = 0.4: the test ends unrelated after a bounded number
    of evaluations."""
    spec = builtin_scene("sphere_edge").spec
    counts = _count_rk45(monkeypatch)
    res = boundary.is_geometrically_related(spec, [0.0], [1.3456, 1.3922],
                                            [1.5708, 1.3922])
    assert not res.related
    assert 0.0 < res.distance < math.inf
    assert sum(counts) < 20000


@pytest.mark.parametrize("z_bar, before", [((1.4, 0.7), 819),
                                           ((1.2, 0.4), 918),
                                           ((1.8, 5.0), 785)])
def test_mirror_lanes_leave_the_chart_together(monkeypatch, z_bar, before):
    """Mirror lanes of a sphere_edge partner search reach the chart's
    edge in one step, and leave the integration together at its end:
    every prune drops whole pairs of lanes (4 entries (z, zeta) each).
    The search is one rk45 call, finds the antipode, and takes fewer
    evaluations than the `before` it took when a chart stop ended the
    call and restarted the other lanes."""
    spec = builtin_scene("sphere_edge").spec
    drops = []
    counts = _count_rk45(monkeypatch, drops)
    pts = boundary.geometric_partners(spec, [0.0], list(z_bar))
    assert len(counts) == 1
    assert counts[0] < before
    assert drops and all(dropped % 8 == 0 for dropped in drops)
    assert len(pts) == 1
    anti = np.array([math.pi - z_bar[0], z_bar[1] + math.pi])
    assert np.abs(spec.fiber.coordinate_delta(pts[0], anti)).max() < 1e-10


def test_geodesic_budget_covers_the_one_call_of_a_shot(monkeypatch):
    """From z1 = 1.2 on sphere_edge, lanes of the partner search leave
    the chart and drop out of the running call; a budget of 400
    evaluations runs out in that one rk45 call, after lanes have left,
    and after exactly 400 evaluations of the field."""
    spec = builtin_scene("sphere_edge").spec
    monkeypatch.setattr(boundary, "MAX_GEODESIC_STEPS", 400)
    drops = []
    counts = _count_rk45(monkeypatch, drops)
    with pytest.raises(StepLimitError, match="budget of 400 evaluations"):
        boundary.geometric_partners(spec, [0.0], [1.2, 0.4])
    assert len(counts) == 1
    assert drops
    assert counts[0] == 400


def _oscillators(rates, floats):
    """The field of lanes (u, v)' = w (v, -u), one rate w per lane."""
    rates = np.asarray(rates, float)

    def field(t, y):
        lanes = np.reshape(y, (-1, 2))
        out = (rates[:, None] * lanes[:, ::-1] * [1.0, -1.0]).ravel()
        return tuple(out.tolist()) if floats else out
    return field if floats else _in_rows(field)


@pytest.mark.parametrize("floats", [False, True])
def test_pruned_lanes_leave_the_running_integration(monkeypatch, floats):
    """prune drops at a step end the lanes whose u is negative, and the
    others go on in the same call: the lane from (-1, 0) leaves at the
    first step end, the one at rate 3 once u = cos 3t turns, and the
    lane at rate 0.1 ends on (cos 1, -sin 1).  On floats the switch to
    DOP853 steps the pruned state, not y0; the solution holds where it
    stopped only.  A call whose lanes all leave stops there, here at
    the end of its first step."""
    sizes = []
    pair = ode._FLOAT_DOP853
    monkeypatch.setattr(ode, "_FLOAT_DOP853", (
        *pair[:2], lambda n: sizes.append(n) or pair[2](n), *pair[3:]))

    def run(rates, y0):
        rates, alive = np.asarray(rates), [np.arange(len(rates))]

        def prune(y):
            keep = np.reshape(y, (-1, 2))[:, 0] >= 0.0
            if keep.all():
                return None
            alive[0] = alive[0][keep]
            return np.repeat(keep, 2), _oscillators(rates[alive[0]], floats)
        sol = ode.rk45(_oscillators(rates, floats), 10.0,
                       y0 if floats else np.array(y0), 1e-10, 1e-12, 10 ** 5,
                       prune=prune)
        return sol, alive[0]
    sol, alive = run([0.1, 1.0, 3.0], [1.0, 0.0, -1.0, 0.0, 1.0, 0.0])
    assert alive.tolist() == [0]
    assert sol.t_stop == 10.0
    assert sol.t is None and sol.y is None and sol.dense is None
    np.testing.assert_allclose(sol.y_stop, [math.cos(1.0), -math.sin(1.0)],
                               rtol=0.0, atol=1e-9)
    if floats:
        assert sizes and max(sizes) < 6
    sol, alive = run([1.0, 2.0], [-1.0, 0.0, -0.5, 0.0])
    assert alive.size == 0 and sol.y_stop.size == 0
    assert 0.0 < sol.t_stop < 10.0
    assert sol.nfev == 2 + (6 if floats else 12)   # one step


def test_evaluation_budget_is_enforced_in_the_integrator():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y
    with pytest.raises(StepLimitError, match="budget of 20"):
        ode.rk45(_in_rows(rhs), 100.0, np.array([1.0, 2.0]), 1e-10, 1e-12,
                 20)
    assert len(calls) == 20
    assert ode.rk45(_in_rows(rhs), 0.1, np.array([1.0, 2.0]), 1e-3, 1e-6,
                    10 ** 4).nfev == solve_ivp(
        rhs, (0.0, 0.1), [1.0, 2.0], method="DOP853", rtol=1e-3,
        atol=1e-6).nfev


def test_geodesic_budget_stops_a_partner_search(monkeypatch, capsys):
    monkeypatch.setattr(boundary, "MAX_GEODESIC_STEPS", 8)
    spec = builtin_scene("perturbed_edge(0.3)").spec
    with pytest.raises(StepLimitError):
        boundary.geometric_partners(spec, [0.0], [1.0])
    assert main(["partners", "perturbed_edge(0.3)", "--y", "0",
                 "--z", "1"]) == 3
    assert "budget of 8 evaluations" in capsys.readouterr().err


_FUNCTIONS = (
    lambda x: math.sin(x) - 0.3,
    lambda x: x ** 3 - 2.0 * x + 0.5,
    lambda x: math.exp(x) - 2.5,
    lambda x: (x - 0.1) * (x + 0.7) * (x - 1.3),
)


@pytest.mark.parametrize("xtol, rtol", [(1e-14, 1e-15),
                                        (4 * ode.EPS, 4 * ode.EPS)])
def test_brent_matches_brentq_bitwise(xtol, rtol):
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 1200:
        f = _FUNCTIONS[checked % len(_FUNCTIONS)]
        a, b = sorted(rng.uniform(-2.0, 2.0, 2))
        if f(a) * f(b) >= 0.0:
            continue
        assert ode.brent(f, a, b, xtol, rtol) == brentq(f, a, b, xtol=xtol,
                                                        rtol=rtol)
        checked += 1


def test_brent_needs_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        ode.brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-12)


def test_dop853_tables_are_scipys():
    """The DOP853 tables in edgeray.ode are scipy's, bit for bit."""
    dop = dop853_coefficients
    assert ode.N_STAGES == dop.N_STAGES
    assert ode.A853.shape == (dop.N_STAGES_EXTENDED,) * 2
    assert 3 + len(ode.D853) == dop.INTERPOLATOR_POWER
    for mine, scipys in [(ode.C853, dop.C), (ode.A853, dop.A),
                         (ode.B853, dop.B), (ode.E3, dop.E3),
                         (ode.E5, dop.E5), (ode.D853, dop.D)]:
        assert mine.shape == scipys.shape
        assert mine.tobytes() == scipys.tobytes()


# the fan the CI traces twice, and a fan in 1 + b + f = 4 dimensions
NO_SCIPY_FANS = {
    "perturbed_fan": "builtin = perturbed_edge(0.3)\norigin = [0.5, 0.1, 1.0]"
                     "\nfan_count = 4\nseed = 3\nt_span = [0.0, 3.0]\n",
    "sphere_fan": "builtin = sphere_edge\norigin = [0.6, 0.1, 1.2, 0.4]\n"
                  "fan_count = 5\nseed = 7\nt_span = [0.0, 0.5]\n"}


def test_a_trace_loads_no_scipy(tmp_path):
    """Traces run in a process in which any scipy import fails: every ODE
    and root is solved in edgeray.ode, and point-source fans draw scipy's
    Sobol directions, bit for bit, in edgeray._sobol."""
    for name, text in NO_SCIPY_FANS.items():
        (tmp_path / (name + ".cfg")).write_text(text)
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from edgeray.cli import main\n"
            "from edgeray.scenes import fan_directions, parse_scene\n"
            "assert main(['trace', 'sphere_edge', '--out', 'rays.csv']) == 0\n"
            "for name in sys.argv[1:]:\n"
            "    assert main(['trace', name + '.cfg', '--out',\n"
            "                 name + '.csv']) == 0\n"
            "    c = parse_scene(open(name + '.cfg').read())\n"
            "    dirs = fan_directions(c.source.origin.size,\n"
            "                          c.source.fan_count, c.seed)\n"
            "    print(name, dirs.tobytes().hex())\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code, *NO_SCIPY_FANS],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, check=True)
    printed = dict(line.split() for line in out.stdout.splitlines()
                   if line.startswith(tuple(NO_SCIPY_FANS)))
    assert sorted(printed) == sorted(NO_SCIPY_FANS)
    for name, text in NO_SCIPY_FANS.items():
        assert (tmp_path / (name + ".csv")).stat().st_size > 0
        c = parse_scene(text)
        want = scipy_fan_directions(c.source.origin.size, c.source.fan_count,
                                    c.seed)
        assert printed[name] == want.tobytes().hex()
    assert (tmp_path / "rays.csv").stat().st_size > 0
