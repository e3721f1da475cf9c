"""The in-house Runge-Kutta and Brent solvers against scipy, which serves
here only as an oracle: the same operations must give the same bits."""

import functools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import RK45, solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq

from edgeray import boundary, ode
from edgeray.cli import main
from edgeray.errors import IntegrationDivergedError, StepLimitError
from edgeray.hamiltonian import FlowSettings, Termination, integrate_interior
from edgeray.metric import make_metric_spec, transverse_momentum
from edgeray.phase import EdgePhasePoint
from edgeray.scenes import builtin_scene, parse_scene, scenario_rays

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


def _solve_ivp_interior(spec, q0, direction, settings, s_max):
    """integrate_interior's ODE and events, handed to solve_ivp."""
    rhs, events = _interior_problem(spec, q0, direction, settings)
    for g, sign in events:
        g.terminal, g.direction = True, sign
    return solve_ivp(lambda s, vec: rhs(s, vec.tolist()), (0.0, s_max),
                     q0.to_vector(), method="RK45", rtol=settings.rtol,
                     atol=settings.atol, dense_output=True,
                     events=[g for g, _ in events])


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


def _interpolate(piece, s):
    t_old, h, y_old, Q = piece
    return h * np.dot(Q, np.cumprod(np.tile((s - t_old) / h, 4))) + y_old


def _float_rk45(fun, t_end, y0, rtol, atol, events):
    """scipy's RK45 with terminal events, its steps taken on floats by
    _reference_step: (t, states, nfev, the event that fired, rejected
    step attempts, dense output)."""
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
    h_abs = min(100 * h0, h1, t_end)
    t, nfev, fired, rejected = 0.0, 2, None, 0
    ts, ys, pieces = [t], [y], []
    g = [event(t, y) for event, _ in events]
    while fired is None and t < t_end:
        h_abs = max(h_abs, 10 * abs(math.nextafter(t, math.inf) - t))
        retry = False
        while True:
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, err, K = _reference_step(fun, t, y, fy, h, rtol,
                                                   atol)
            nfev += 6
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** (-1 / 5))
                h_abs *= min(1, factor) if retry else factor
                break
            h_abs *= max(0.2, 0.9 * err ** (-1 / 5))
            retry = True
            rejected += 1
        piece = (t, h, np.array(y), np.array(K).T.dot(RK45.P))
        t, y, fy = t_new, y_new, f_new
        g_new = [event(t, y) for event, _ in events]
        for i, (event, sign) in enumerate(events):
            if ((sign <= 0 and g[i] >= 0 and g_new[i] <= 0)
                    or (sign >= 0 and g[i] <= 0 and g_new[i] >= 0)):
                root = brentq(lambda u: event(u, _interpolate(piece, u)),
                              piece[0], t, xtol=4 * ode.EPS,
                              rtol=4 * ode.EPS)
                if fired is None or root < t:
                    fired, t = i, root
        if fired is not None:
            y = _interpolate(piece, t)
        g = g_new
        ts.append(t)
        ys.append(y)
        pieces.append(piece)

    def dense(s):
        i = min(max(np.searchsorted(ts, s) - 1, 0), len(pieces) - 1)
        return _interpolate(pieces[i], s)
    return np.array(ts), np.array(ys), nfev, fired, rejected, dense


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
    fired, the rejected step count and the dense output equal a plain
    Dormand-Prince reference on floats bit for bit."""
    spec, q0, s_max = ray()
    settings = FlowSettings()
    direction = -1 if q0.tau > 0 else 1
    seg = integrate_interior(spec, q0, direction, settings, s_max=s_max)
    rhs, events = _interior_problem(spec, q0, direction, settings)
    s, states, nfev, fired, rejected, dense = _float_rk45(
        rhs, s_max, q0.to_vector().tolist(), settings.rtol, settings.atol,
        events)
    assert seg.termination is termination
    assert fired == FIRED[termination]
    assert len(seg.s) > 10
    assert np.array_equal(seg.s, s)
    assert np.array_equal(seg.states, states)
    assert seg.nfev == nfev
    assert seg.rejected == rejected
    for u in _inner_points(seg.s):
        assert np.array_equal(seg.dense(u), dense(u))


@RAYS
def test_interior_integration_agrees_with_solve_ivp(ray, termination):
    """The float steps round their stage sums differently from scipy's
    BLAS products but take the same steps: the same termination, step
    count and nfev, and dense output within 1e-12 relative."""
    spec, q0, s_max = ray()
    settings = FlowSettings()
    direction = -1 if q0.tau > 0 else 1
    seg = integrate_interior(spec, q0, direction, settings, s_max=s_max)
    want = _solve_ivp_interior(spec, q0, direction, settings, s_max)
    fired = [i for i, t in enumerate(want.t_events) if len(t)]
    assert fired == [i for i in [FIRED[termination]] if i is not None]
    assert seg.termination is termination
    assert len(seg.s) == len(want.t)
    assert seg.nfev == want.nfev
    for u in _inner_points(seg.s):
        got, ref = seg.dense(u), want.sol(u)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


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


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(b=st.integers(0, 3), f=st.integers(1, 3), data=st.data())
def test_float_step_matches_the_reference_bitwise(b, f, data):
    """The generated float step equals _reference_step bit for bit: the
    new state, the field there, the error norm and the stage rows."""
    hamilton = _ripple_spec(b, f).evaluator().hamilton
    n = 2 * (2 + b + f)
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
    got = ode._float_step(n)(fun, t, y, fun(t, y), h, rtol, atol)
    want = _reference_step(fun, t, y, fun(t, y), h, rtol, atol)
    assert got[:3] == want[:3]
    assert np.array_equal(np.frombuffer(got[3]).reshape(7, n),
                          np.array(want[3]))


def test_a_division_by_zero_on_floats_fails_the_step():
    """Where numpy divides by zero to inf or nan, floats raise
    ZeroDivisionError; a float step that raises it is rejected as
    scipy's RK45 rejects a step with an inf in a stage, and the
    integration goes on.  Array steps reject theirs as scipy's DOP853
    does, bit for bit."""
    def counted(fun):
        calls = []

        def field(t, y):
            calls.append(t)
            return fun(t, y, len(calls) == 20)
        return field

    def on_floats(t, y, blow_up):
        if blow_up:
            raise ZeroDivisionError("float division by zero")
        return (y[1], -y[0])

    def on_arrays(t, y, blow_up):
        return np.array([math.inf, 0.0]) if blow_up else np.array(
            [y[1], -y[0]])
    got = ode.rk45(counted(on_floats), 5.0, [1.0, 0.0], 1e-9, 1e-11, 10 ** 5)
    want = solve_ivp(counted(on_arrays), (0.0, 5.0), [1.0, 0.0],
                     method="RK45", rtol=1e-9, atol=1e-11)
    assert got.rejected >= 1
    assert len(got.t) == len(want.t)
    assert got.nfev == want.nfev == 2 + 6 * (len(got.t) - 1 + got.rejected)
    assert np.allclose(got.y_stop, [math.cos(5.0), -math.sin(5.0)])
    got = ode.rk45(counted(on_arrays), 5.0, [1.0, 0.0], 1e-9, 1e-11, 10 ** 5,
                   t_eval=[5.0])
    want = solve_ivp(counted(on_arrays), (0.0, 5.0), [1.0, 0.0],
                     method="DOP853", t_eval=[5.0], rtol=1e-9, atol=1e-11)
    assert got.rejected >= 1
    assert np.array_equal(got.y, want.y.T)
    assert got.nfev == want.nfev
    assert np.allclose(got.y_stop, [math.cos(5.0), -math.sin(5.0)])


@pytest.mark.parametrize("floats", [False, True])
def test_rejected_steps_are_counted(floats):
    """y' = -y, fifty times faster from t = 1, fails the error test on
    the step across t = 1.  Every step attempt costs six evaluations
    after the first two on floats, twelve with DOP853 on arrays, where
    the dense output at t_eval costs three more; so nfev counts the
    rejected ones too, and interior rays carry their count on the
    segment."""
    if floats:
        def fun(t, y):
            return tuple(-v if t < 1.0 else -50.0 * v for v in y)
        sol = ode.rk45(fun, 3.0, [1.0, 2.0], 1e-8, 1e-10, 10 ** 5)
        steps, cost, dense = len(sol.t) - 1, 6, 0
    else:
        def fun(t, y):
            return -y if t < 1.0 else -50.0 * y
        sol = ode.rk45(fun, 3.0, [1.0, 2.0], 1e-8, 1e-10, 10 ** 5,
                       t_eval=[3.0])
        steps = len(solve_ivp(fun, (0.0, 3.0), [1.0, 2.0], method="DOP853",
                              rtol=1e-8, atol=1e-10).t) - 1
        cost, dense = 12, 3
    assert sol.rejected > 0
    assert sol.nfev == 2 + cost * (steps + sol.rejected) + dense
    spec, q0, s_max = _edge_ray()
    seg = integrate_interior(spec, q0, -1, FlowSettings(), s_max=s_max)
    assert seg.rejected > 0
    assert seg.nfev == 2 + 6 * (len(seg.s) - 1 + seg.rejected)


def _solve_ivp_shot(field, q0, p0, arc, u):
    """_shoot's lanes as one solve_ivp ODE: q, p and nfev."""
    arc = np.asarray(arc, float)
    n, d = arc.size, np.shape(q0)[-1]
    state0 = np.stack((np.broadcast_to(q0, (n, d)),
                       np.broadcast_to(p0, (n, d))), axis=1)

    def rhs(_, state):
        return field(state, arc)

    sol = solve_ivp(rhs, (0.0, 1.0), state0.ravel(), method="DOP853",
                    t_eval=u, rtol=boundary._GEO_RTOL,
                    atol=boundary._GEO_ATOL)
    states = sol.y.T.reshape(len(u), n, 2, d)
    return states[:, :, 0], states[:, :, 1], sol.nfev


def test_multi_lane_shot_matches_solve_ivp_bitwise():
    spec = builtin_scene("sphere_edge").spec
    ev = spec.evaluator()
    y = np.array([0.1])
    field = functools.partial(ev.fiber_cogeodesic, y)
    z0 = np.array([[1.2, 0.3], [1.5, 2.0], [1.3, 5.0]])
    angles = np.array([0.3, 2.0, 4.4])
    zeta0 = np.stack((np.cos(angles), np.sin(angles) * np.sin(z0[:, 0])), 1)
    arc = [0.7, -1.1, math.pi]
    u = np.array([0.0, 0.1, 0.25, 0.5, 0.5000001, 0.9, 1.0])
    calls = []

    def counted(*args):
        calls.append(1)
        return ev.fiber_cogeodesic(*args)
    got = boundary._shoot(counted, z0, zeta0, arc, u, (y,))
    *want, nfev = _solve_ivp_shot(field, z0, zeta0, arc, u)
    for g, w in zip(got, want):
        assert g.shape == (len(u), 3, 2)
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


def _solve_ivp_spiral(t_eval=None, events=False):
    return solve_ivp(t_span=(0.0, 4.0), method="DOP853", t_eval=t_eval,
                     events=_falling if events else None, **SPIRAL)


def _rk45_and_solve_ivp(t_eval, events=False):
    got = ode.rk45(_spiral, 4.0, SPIRAL["y0"], SPIRAL["rtol"],
                   SPIRAL["atol"], 10 ** 5, [(_falling, -1)] if events else (),
                   t_eval)
    want = _solve_ivp_spiral(t_eval, events)
    assert np.array_equal(got.t, want.t)
    assert np.array_equal(got.y, want.y.T)
    assert got.nfev == want.nfev
    return got, want


@pytest.mark.parametrize("events", [False, True])
def test_dense_output_matches_solve_ivp_bitwise(events):
    """Only a step that holds a t_eval point or fires an event forms its
    dense output, at three more evaluations.  t, y, nfev and the
    interpolant agree with solve_ivp's DOP853 bit for bit: at step ends
    and midpoints, at t_eval = 0, at a t_eval point equal to a step end,
    several inside one step, and with a terminal event that fires on the
    first step."""
    ts = _solve_ivp_spiral(events=events).t
    assert len(ts) == 2 if events else len(ts) > 8
    full, _ = _rk45_and_solve_ivp(
        np.sort(np.concatenate((ts, 0.5 * (ts[1:] + ts[:-1])))), events)
    assert len(full.t) == 2 * len(ts) - 1
    assert full.event == (0 if events else None)
    if events:
        t_eval = [0.0, 0.3 * ts[1], 0.6 * ts[1], 1.0]
    else:
        t_eval = np.concatenate(([0.0, ts[2], ts[3]],
                                 ts[5] + (ts[6] - ts[5]) * np.array(
                                     [0.1, 0.4, 0.8]), [4.0]))
    got, _ = _rk45_and_solve_ivp(np.array(t_eval), events)
    assert len(got.t) == (3 if events else len(t_eval))


def test_stop_state_is_returned_with_t_eval():
    """With t_eval, t_stop and y_stop are where the integration ended: at
    t_end bit for bit as the last step end, or at an event's root as
    solve_ivp locates it; t_eval points past the event give no rows."""
    full = _solve_ivp_spiral()
    got = ode.rk45(_spiral, 4.0, SPIRAL["y0"], SPIRAL["rtol"],
                   SPIRAL["atol"], 10 ** 5, t_eval=[1.0])
    assert got.t_stop == full.t[-1] == 4.0
    assert np.array_equal(got.y_stop, full.y[:, -1])
    got = ode.rk45(_spiral, 4.0, SPIRAL["y0"], SPIRAL["rtol"],
                   SPIRAL["atol"], 10 ** 5, [(_falling, -1)], t_eval=[3.0])
    want = _solve_ivp_spiral(events=True)
    assert got.event == 0
    assert got.t_stop == want.t_events[0][0]
    assert np.array_equal(got.y_stop, want.y_events[0][0])
    assert got.t.shape == (0,) and got.y.shape == (0, 3)


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
        ode.rk45(rhs, 2.0, [1.0], 1e-8, 1e-10, 10 ** 6, t_eval=[2.0])


def _count_rk45(monkeypatch):
    """Patch ode.rk45 to record the field evaluations of every call,
    also of a call that raises; returns the list of per-call counts."""
    rk45, counts = ode.rk45, []

    def counted(fun, *args, **kwargs):
        counts.append(0)

        def f(t, y):
            counts[-1] += 1
            return fun(t, y)
        return rk45(f, *args, **kwargs)
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
    edge at one parameter.  They are dropped together, so no restarted
    rk45 call stops at its own start; the search finds the antipode and
    takes fewer evaluations than the `before` it took when a mirror lane
    left at a margin of about 1e-15 restarted alone."""
    spec = builtin_scene("sphere_edge").spec
    counts = _count_rk45(monkeypatch)
    counted, stops = ode.rk45, []

    def stopping(*args, **kwargs):
        sol = counted(*args, **kwargs)
        stops.append(sol.t_stop)
        return sol
    monkeypatch.setattr(ode, "rk45", stopping)
    pts = boundary.geometric_partners(spec, [0.0], list(z_bar))
    assert len(stops) > 1
    assert min(stops) > 1e-6
    assert sum(counts) < before
    assert len(pts) == 1
    anti = np.array([math.pi - z_bar[0], z_bar[1] + math.pi])
    assert np.abs(spec.fiber.coordinate_delta(pts[0], anti)).max() < 1e-10


def test_geodesic_budget_is_summed_over_restarts(monkeypatch):
    """From z1 = 1.2 on sphere_edge, lanes of the partner search leave
    the chart and the shot restarts; a budget of 400 evaluations runs
    out in the sixth rk45 call, after exactly 400 evaluations of the
    field over all six."""
    spec = builtin_scene("sphere_edge").spec
    monkeypatch.setattr(boundary, "MAX_GEODESIC_STEPS", 400)
    counts = _count_rk45(monkeypatch)
    with pytest.raises(StepLimitError, match="budget of 400 evaluations"):
        boundary.geometric_partners(spec, [0.0], [1.2, 0.4])
    assert len(counts) > 1
    assert sum(counts) == 400


def test_evaluation_budget_is_enforced_in_the_integrator():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y
    with pytest.raises(StepLimitError, match="budget of 20"):
        ode.rk45(rhs, 100.0, [1.0, 2.0], 1e-10, 1e-12, 20, t_eval=[100.0])
    assert len(calls) == 20
    assert ode.rk45(rhs, 0.1, [1.0, 2.0], 1e-3, 1e-6, 10 ** 4,
                    t_eval=[0.1]).nfev == solve_ivp(
        rhs, (0.0, 0.1), [1.0, 2.0], method="DOP853", t_eval=[0.1],
        rtol=1e-3, atol=1e-6).nfev


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


def test_a_trace_loads_no_scipy(tmp_path):
    """A point-source-free trace runs in a process that never imports
    scipy: every ODE and root is solved in edgeray.ode."""
    code = ("import sys\n"
            "from edgeray.cli import main\n"
            "assert main(['trace', 'sphere_edge', '--out', sys.argv[1]]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code,
                          str(tmp_path / "rays.csv")], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "rays.csv").stat().st_size > 0
