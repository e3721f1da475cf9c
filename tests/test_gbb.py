"""Tests for event extrapolation, branching, and broken-ray assembly."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeray import gbb
from edgeray.errors import (ConfigError, DegenerateMetricError,
                            IllConditionedEventError, LaunchFailedError)
from edgeray.gbb import (
    GEOMETRIC_ONLY,
    SAME_FIBER,
    BoundaryEvent,
    BranchKind,
    BranchPolicy,
    backward_event,
    branch_hyperbolic,
    continue_glancing,
    detect_boundary_event,
    fan,
    lipschitz_check,
    trace_gbb,
    verify_handoff,
)
from edgeray.hamiltonian import (
    BoundaryData,
    FlowSettings,
    RayEnd,
    RaySegment,
    Termination,
    integrate_interior,
    stable_manifold_launch,
)
from edgeray.metric import make_metric_spec, transverse_momentum
from edgeray.phase import BoundaryClass, EdgePhasePoint
from edgeray.scenes import builtin_scene, parse_scene


def _flat_incoming(spec, t0, x0, y0, z0, xi, eta):
    """Characteristic point on a flat product edge moving toward x = 0."""
    eta = np.asarray(eta, float)
    tau = math.sqrt(xi * xi + float(eta @ eta))
    return EdgePhasePoint(t=t0, x=x0, y=np.asarray(y0, float),
                          z=np.asarray(z0, float), tau=tau, xi=xi,
                          eta=eta, zeta=np.zeros(spec.f))


def _hyperbolic_event(z_bar, xi_hat=1.0, b=0, t_bar=0.4, sgn_tau=1):
    b_arrays = (np.zeros(b), np.zeros(b))
    return BoundaryEvent(branch_id="0",
                         boundary_class=BoundaryClass.HYPERBOLIC,
                         t_bar=t_bar, y_bar=b_arrays[0],
                         z_bar=np.asarray(z_bar, float), sgn_tau=sgn_tau,
                         xi_hat=xi_hat, eta_hat=b_arrays[1],
                         margin=xi_hat * xi_hat, char_defect=0.0,
                         residual=0.0)


def test_event_extrapolation_matches_flat_closed_form():
    """On a flat product edge with zero fiber momentum the ray is a
    straight line, so the event data have elementary closed forms."""
    spec = builtin_scene("product_edge(1, 1)").spec
    t0, x0 = 0.2, 0.6
    xi, eta = 0.9, np.array([0.5])
    q0 = _flat_incoming(spec, t0, x0, [0.1], [2.0], xi, eta)
    segment = integrate_interior(spec, q0, direction=-1, s_max=5.0)
    assert segment.termination == Termination.BOUNDARY_APPROACH
    event = detect_boundary_event(spec, segment)
    tau = q0.tau
    xi_hat = xi / tau
    assert event.boundary_class == BoundaryClass.HYPERBOLIC
    assert event.sgn_tau == 1
    assert event.t_bar == pytest.approx(t0 + x0 / xi_hat, abs=1e-9)
    assert event.y_bar[0] == pytest.approx(0.1 - (eta[0] / tau) * x0 / xi_hat,
                                           abs=1e-9)
    assert event.z_bar[0] == pytest.approx(2.0, abs=1e-10)
    assert event.xi_hat == pytest.approx(xi_hat, abs=1e-9)
    assert event.eta_hat[0] == pytest.approx(eta[0] / tau, abs=1e-9)
    assert event.margin == pytest.approx(1.0 - (eta[0] / tau) ** 2, abs=1e-9)
    assert event.char_defect < 1e-9
    assert event.residual < 1e-7
    assert event.io.value == "incoming"


@pytest.mark.parametrize("nan_in", ["residual", "values", "margin",
                                    "glancing_margin"])
def test_event_extrapolation_fails_closed_on_nan(monkeypatch, nan_in):
    """A NaN fit residual, NaN extrapolated data with a zero residual, or a
    NaN slow-data margin of a hyperbolic or a glancing event (so a NaN
    defect from the characteristic set), raises IllConditionedEventError:
    no gate lets a NaN through."""
    spec = builtin_scene("product_edge(1, 1)").spec
    q0 = _flat_incoming(spec, 0.2, 0.6, [0.1], [2.0], 0.9, np.array([0.5]))
    segment = integrate_interior(spec, q0, direction=-1, s_max=5.0)
    extrapolate = gbb._extrapolate
    if nan_in == "residual":
        monkeypatch.setattr(gbb, "_extrapolate", lambda *args: (
            extrapolate(*args)[0], math.nan))
        match = "residual nan exceeds"
    elif nan_in == "values":
        monkeypatch.setattr(gbb, "_extrapolate", lambda *args: (
            extrapolate(*args)[0] * math.nan, 0.0))
        match = "non-finite event data"
    else:
        cls = (BoundaryClass.HYPERBOLIC if nan_in == "margin"
               else BoundaryClass.GLANCING)
        monkeypatch.setattr(gbb, "classify_boundary",
                            lambda *args: (cls, math.nan))
        match = "characteristic set by nan"
    with pytest.raises(IllConditionedEventError, match=match):
        detect_boundary_event(spec, segment)


@settings(max_examples=60, deadline=None)
@given(x_end=st.floats(1e-6, 1e-3), ratio=st.floats(1.2, 1.6),
       columns=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_one_ladder_fit_equals_per_column_fits(x_end, ratio, columns, seed):
    """_extrapolate fits all ladder columns in one least-squares solve; its
    x = 0 row and residual equal those of one polyfit per column, bit for
    bit (the event data and every dump rest on this)."""
    rng = np.random.default_rng(seed)
    xs = x_end * ratio ** np.arange(gbb.N_LADDER)
    u = xs / xs[0]
    coeffs = rng.normal(size=(3, columns)) * 10.0 ** rng.uniform(
        -6, 2, size=(3, columns))
    values = (coeffs[0] + u[:, None] * (coeffs[1] + u[:, None] * coeffs[2])
              + 1e-9 * rng.normal(size=(len(u), columns)))
    scales = rng.normal(size=columns) * 10.0
    row, residual = gbb._extrapolate(xs, values, scales)
    P = np.polynomial.polynomial
    fits = [P.polyfit(u, values[:, j], 2) for j in range(columns)]
    assert np.array_equal(row, [c[0] for c in fits])
    assert residual == max(
        float(np.max(np.abs(P.polyval(u, c) - values[:, j])))
        / max(1.0, abs(scales[j])) for j, c in enumerate(fits))


def test_event_extrapolation_requires_boundary_segment():
    spec = builtin_scene("product_cone(1.0)").spec
    q0 = EdgePhasePoint(t=0.0, x=0.5, y=np.zeros(0), z=np.array([1.0]),
                        tau=1.0, xi=-1.0, eta=np.zeros(0),
                        zeta=np.zeros(1))
    outgoing = integrate_interior(spec, q0, direction=-1, s_max=0.4)
    assert outgoing.termination == Termination.TIME_LIMIT
    with pytest.raises(ValueError):
        detect_boundary_event(spec, outgoing)


def test_event_extrapolation_needs_descent_room():
    """A segment stopped barely above the threshold cannot host the
    extrapolation ladder."""
    spec = builtin_scene("product_cone(1.0)").spec
    q0 = EdgePhasePoint(t=0.0, x=0.5, y=np.zeros(0), z=np.array([1.0]),
                        tau=1.0, xi=1.0, eta=np.zeros(0), zeta=np.zeros(1))
    segment = integrate_interior(spec, q0, direction=-1,
                                 settings=FlowSettings(x_stop=0.45),
                                 s_max=5.0)
    assert segment.termination == Termination.BOUNDARY_APPROACH
    with pytest.raises(IllConditionedEventError):
        detect_boundary_event(spec, segment)


def test_event_ladder_must_fit_in_the_final_descent():
    """The ladder's rungs sit |x - x_end| / |xi_hat_end| before the end
    in s.  Where x falls faster along the final descent than |xi_hat_end|
    carries it, the deepest rung lands before the descent starts, and
    the event fails rather than read rungs off the segment before it."""
    spec = builtin_scene("product_cone(1.0)").spec
    s = np.linspace(0.0, 0.1, 6)
    x = np.linspace(0.5, 0.01, 6)
    ones, zeros = np.ones(6), np.zeros(6)
    states = np.column_stack((s, x, ones, ones, ones, zeros))
    segment = RaySegment(
        spec=spec, s=s, states=states,
        termination=Termination.BOUNDARY_APPROACH,
        dense=lambda u: np.array([np.interp(u, s, c) for c in states.T]))
    with pytest.raises(IllConditionedEventError,
                       match="before the final descent"):
        detect_boundary_event(spec, segment)


@pytest.mark.parametrize("x0, xi_hat",
                         [(0.01, 1e-5), (0.01, 3e-5), (0.2, 1e-5),
                          (0.2, 3e-5)],
                         ids=["1e-05", "3e-05", "0.2-1e-05", "0.2-3e-05"])
def test_glancing_event_of_a_flat_grazing_ray(x0, xi_hat):
    """A ray on the flat product edge with margin xi_hat^2 below
    phase.TOL_G glances, at the smallest |xi_hat| any event has: the
    ladder's rungs then spread over s ~ x0 / xi_hat, and t_bar is the
    straight line's x0 / xi.  The glancing branch ends there: it travels
    GLANCING_INTERVAL along the edge, on the straight line of the flat
    base, and launches no child."""
    spec = builtin_scene("product_edge(1, 1)").spec
    eta = np.array([math.sqrt(1.0 - xi_hat * xi_hat)])
    xi = transverse_momentum(spec, x0, np.zeros(1), np.zeros(1), 1.0, eta,
                             np.zeros(1), sign=1.0)
    q0 = EdgePhasePoint(t=0.0, x=x0, y=np.zeros(1), z=np.zeros(1), tau=1.0,
                        xi=xi, eta=eta, zeta=np.zeros(1))
    path = trace_gbb(spec, q0, (0.0, 1.2 * x0 / xi_hat))
    assert path.branch_ids() == ["0"]
    root = path.branches[path.root_id]
    event = root.event
    assert event.boundary_class == BoundaryClass.GLANCING
    assert event.t_bar == pytest.approx(x0 / xi, rel=1e-6)
    travel = root.tangential
    assert travel.t[-1] == pytest.approx(event.t_bar + gbb.GLANCING_INTERVAL,
                                         abs=1e-12)
    # dy/dt = -eta_hat for sgn_tau = 1 on the flat base
    np.testing.assert_allclose(travel.y[:, 0],
                               event.y_bar[0] - (travel.t - event.t_bar),
                               atol=1e-12)


def test_branch_policy_parsing():
    assert BranchPolicy.parse("same_fiber") == SAME_FIBER
    assert BranchPolicy.parse("geometric") == GEOMETRIC_ONLY
    assert BranchPolicy.parse("fan(12)") == fan(12)
    assert str(fan(12)) == "fan(12)"
    assert str(SAME_FIBER) == "same_fiber"
    for bad in ("fan(0)", "fan(-2)", "wide", "fan(2.5)"):
        with pytest.raises(ConfigError):
            BranchPolicy.parse(bad)


def test_same_fiber_branching_flips_normal_momentum():
    spec = builtin_scene("product_cone(1.0)").spec
    event = _hyperbolic_event([0.3])
    kind, points = branch_hyperbolic(spec, event, SAME_FIBER)
    assert kind == BranchKind.DIFFRACTED
    assert len(points) == 1
    data = event.outgoing(points[0])
    assert data.xi_hat == -event.xi_hat
    assert data.t_bar == event.t_bar
    np.testing.assert_array_equal(data.z_bar, event.z_bar)
    assert data.io.value == "outgoing"


def test_geometric_branching_uses_arc_pi_partners():
    one = builtin_scene("product_cone(1.0)").spec
    event = _hyperbolic_event([0.3])
    kind, points = branch_hyperbolic(one, event, GEOMETRIC_ONLY)
    assert kind == BranchKind.GEOMETRIC
    assert len(points) == 1
    delta = one.fiber.coordinate_delta(event.outgoing(points[0]).z_bar,
                                       np.array([0.3 + math.pi]))
    assert abs(float(delta[0])) < 1e-9
    # radius-2 circle: both orientations survive deduplication
    two = make_metric_spec(0, 1, k=[["4"]],
                           fiber="circle(%r)" % (2.0 * math.pi))
    kind, points = branch_hyperbolic(two, event, GEOMETRIC_ONLY)
    assert kind == BranchKind.GEOMETRIC
    assert len(points) == 2


def test_fan_branching_is_anchored_and_uniform():
    spec = builtin_scene("product_cone(1.0)").spec
    event = _hyperbolic_event([0.3])
    kind, points = branch_hyperbolic(spec, event, fan(6))
    assert kind == BranchKind.DIFFRACTED
    assert len(points) == 6
    want = [0.3 + 2.0 * math.pi * i / 6 for i in range(6)]
    for z, w in zip(points, want):
        delta = spec.fiber.coordinate_delta(event.outgoing(z).z_bar,
                                            np.array([w]))
        assert abs(float(delta[0])) < 1e-12
    kind, single = branch_hyperbolic(spec, event, fan(1))
    assert len(single) == 1
    np.testing.assert_array_equal(event.outgoing(single[0]).z_bar,
                                  event.z_bar)
    # a chart fiber spreads the fan over its z_box, ends included
    chart = make_metric_spec(0, 1, k=[["1"]], fiber="chart",
                             z_box=((-1.5, 2.5),))
    for n, want in ((1, [-1.5]), (5, [-1.5, -0.5, 0.5, 1.5, 2.5])):
        kind, points = branch_hyperbolic(chart, event, fan(n))
        assert [float(event.outgoing(z).z_bar[0]) for z in points] == want


def test_fan_branching_two_dimensional_fiber():
    spec = builtin_scene("sphere_edge").spec
    event = BoundaryEvent(branch_id="0",
                          boundary_class=BoundaryClass.HYPERBOLIC,
                          t_bar=0.0, y_bar=np.zeros(1),
                          z_bar=np.array([1.0, 0.5]), sgn_tau=1,
                          xi_hat=0.8, eta_hat=np.array([0.6]),
                          margin=0.64, char_defect=0.0, residual=0.0)
    kind, points = branch_hyperbolic(spec, event, fan(4))
    assert kind == BranchKind.DIFFRACTED
    assert len(points) == 4
    pts = np.array([event.outgoing(z).z_bar for z in points])
    assert len({tuple(np.round(p, 9)) for p in pts}) == 4
    lo, hi = spec.z_box[0]
    assert np.all(pts[:, 0] >= lo - 1e-12)
    assert np.all(pts[:, 0] <= hi + 1e-12)


def test_branching_rejects_non_hyperbolic_events():
    spec = builtin_scene("product_edge(1, 1)").spec
    event = BoundaryEvent(branch_id="0",
                          boundary_class=BoundaryClass.GLANCING,
                          t_bar=0.0, y_bar=np.zeros(1),
                          z_bar=np.array([0.5]), sgn_tau=1, xi_hat=0.0,
                          eta_hat=np.array([1.0]), margin=0.0,
                          char_defect=0.0, residual=0.0)
    with pytest.raises(ValueError):
        branch_hyperbolic(spec, event, SAME_FIBER)


def test_glancing_continuation_flat_base():
    """Flat base: the tangential flow is a straight line at unit speed."""
    spec = builtin_scene("product_edge(1, 1)").spec
    event = BoundaryEvent(branch_id="0",
                          boundary_class=BoundaryClass.GLANCING,
                          t_bar=0.1, y_bar=np.array([0.2]),
                          z_bar=np.array([0.7]), sgn_tau=1, xi_hat=0.0,
                          eta_hat=np.array([1.0]), margin=0.0,
                          char_defect=0.0, residual=0.0)
    delta = 0.4
    path = continue_glancing(spec, event, delta)
    assert path.t[0] == pytest.approx(0.1)
    assert path.t[-1] == pytest.approx(0.1 + delta)
    # dy/dt = -eta_hat for sgn_tau = 1 on the flat base
    np.testing.assert_allclose(path.y[:, 0], 0.2 - (path.t - 0.1),
                               atol=1e-12)
    assert path.norm_drift < 1e-12
    assert path.y[-1, 0] == pytest.approx(0.2 - delta, abs=1e-12)
    with pytest.raises(ValueError):
        continue_glancing(spec, _hyperbolic_event([0.3], b=1), delta)


def test_glancing_continuation_of_zero_travel():
    """delta = 0 travels nowhere: the path stays at the event's y_bar with
    its unit eta_hat."""
    spec = builtin_scene("product_edge(1, 1)").spec
    event = BoundaryEvent(branch_id="0",
                          boundary_class=BoundaryClass.GLANCING,
                          t_bar=0.1, y_bar=np.array([0.2]),
                          z_bar=np.array([0.7]), sgn_tau=-1, xi_hat=0.0,
                          eta_hat=np.array([-1.0]), margin=0.0,
                          char_defect=0.0, residual=0.0)
    path = continue_glancing(spec, event, 0.0)
    np.testing.assert_array_equal(path.t, 0.1)
    np.testing.assert_array_equal(path.y, 0.2)
    np.testing.assert_array_equal(path.eta_hat, -1.0)
    assert path.norm_drift == 0.0
    np.testing.assert_array_equal(path.y[-1], event.y_bar)


def test_glancing_continuation_curved_base_great_circle():
    """Round-sphere base: an equatorial tangency stays on the equator."""
    spec = make_metric_spec(2, 1, h=[["1", "0"], ["0", "sin(y1)^2"]],
                            k=[["1"]], fiber="circle(%r)" % (2.0 * math.pi),
                            y_box=((0.4, math.pi - 0.4), (-4.0, 4.0)))
    event = BoundaryEvent(branch_id="0",
                          boundary_class=BoundaryClass.GLANCING,
                          t_bar=0.0, y_bar=np.array([0.5 * math.pi, 0.0]),
                          z_bar=np.array([0.3]), sgn_tau=1, xi_hat=0.0,
                          eta_hat=np.array([0.0, 1.0]), margin=0.0,
                          char_defect=0.0, residual=0.0)
    path = continue_glancing(spec, event, 0.8)
    np.testing.assert_allclose(path.y[:, 0], 0.5 * math.pi, atol=1e-10)
    np.testing.assert_allclose(path.y[:, 1], -(path.t - 0.0), atol=1e-10)
    assert path.norm_drift < 1e-10
    assert path.y[-1, 1] == pytest.approx(-0.8, abs=1e-10)


def test_singular_base_block_is_a_typed_error():
    """h = y1 is singular at y = 0: the base cometric and the glancing
    continuation raise DegenerateMetricError."""
    spec = make_metric_spec(1, 1, h=[["y1"]], k=[["1"]])
    y0, eta0 = np.zeros(1), np.array([1.0])
    with pytest.raises(DegenerateMetricError):
        spec.evaluator().base_cometric(y0, np.zeros(1))
    event = BoundaryEvent(branch_id="0",
                          boundary_class=BoundaryClass.GLANCING,
                          t_bar=0.0, y_bar=y0, z_bar=np.array([0.3]),
                          sgn_tau=1, xi_hat=0.0, eta_hat=eta0, margin=0.0,
                          char_defect=0.0, residual=0.0)
    with pytest.raises(DegenerateMetricError):
        continue_glancing(spec, event, 0.4)


def test_trace_flat_cone_assembles_two_branches():
    spec = builtin_scene("product_cone(1.0)").spec
    q0 = EdgePhasePoint(t=0.0, x=0.5, y=np.zeros(0), z=np.array([1.0]),
                        tau=1.0, xi=1.0, eta=np.zeros(0), zeta=np.zeros(1))
    path = trace_gbb(spec, q0, (0.0, 1.2), policy=SAME_FIBER)
    assert not path.truncated
    assert path.branch_ids() == ["0", "0.0"]
    root = path.branches["0"]
    child = path.branches["0.0"]
    assert root.kind == BranchKind.INCIDENT
    assert child.kind == BranchKind.DIFFRACTED
    assert child.parent_id == "0"
    event = root.event
    assert event.t_bar == pytest.approx(0.5, abs=1e-9)
    assert event.z_bar[0] == pytest.approx(1.0, abs=1e-9)
    assert event.xi_hat == pytest.approx(1.0, abs=1e-9)
    assert path.events() == [event]
    assert child.event is None
    assert child.note == "TimeLimit"
    end = child.segment.point(-1)
    assert end.t == pytest.approx(1.2, abs=1e-9)
    assert end.x == pytest.approx(1.2 - 0.5, abs=1e-5)
    assert end.z[0] == pytest.approx(1.0, abs=1e-7)


def test_trace_geometric_policy_moves_fiber_point():
    spec = builtin_scene("product_cone(1.0)").spec
    q0 = EdgePhasePoint(t=0.0, x=0.5, y=np.zeros(0), z=np.array([1.0]),
                        tau=1.0, xi=1.0, eta=np.zeros(0), zeta=np.zeros(1))
    path = trace_gbb(spec, q0, (0.0, 1.2), policy=GEOMETRIC_ONLY)
    child = path.branches["0.0"]
    assert child.kind == BranchKind.GEOMETRIC
    delta = spec.fiber.coordinate_delta(child.fiber_point,
                                        np.array([1.0 + math.pi]))
    assert abs(float(delta[0])) < 1e-8
    report = lipschitz_check(path)
    assert report.finite
    assert report.max_slow_jump < 1e-6
    assert report.fiber_jumps and min(report.fiber_jumps) > 1.0


def test_trace_lipschitz_bookkeeping():
    spec = builtin_scene("product_cone(1.0)").spec
    q0 = EdgePhasePoint(t=0.0, x=0.5, y=np.zeros(0), z=np.array([1.0]),
                        tau=1.0, xi=1.0, eta=np.zeros(0), zeta=np.zeros(1))
    path = trace_gbb(spec, q0, (0.0, 1.2), policy=SAME_FIBER)
    report = lipschitz_check(path)
    assert report.finite
    # slow variables move at most at unit speed in the time parameter
    assert report.max_segment_quotient == pytest.approx(1.0, abs=1e-6)
    assert report.max_slow_jump < 1e-6
    assert len(report.junction_jumps) == 1
    bid, child_id, defects = report.junction_jumps[0]
    assert (bid, child_id) == ("0", "0.0")
    assert defects["fiber"] < 1e-8
    assert all(v < 1e-6 for v in defects.values())
    assert report.fiber_jumps == (0.0,)


def test_trace_budget_truncates(monkeypatch):
    spec = builtin_scene("product_cone(1.0)").spec
    q0 = EdgePhasePoint(t=0.0, x=0.5, y=np.zeros(0), z=np.array([1.0]),
                        tau=1.0, xi=1.0, eta=np.zeros(0), zeta=np.zeros(1))
    monkeypatch.setattr(gbb, "BRANCH_BUDGET", 1)
    path = trace_gbb(spec, q0, (0.0, 1.2), policy=SAME_FIBER)
    assert path.truncated
    assert path.branches["0.0"].segment is None


def test_trace_keeps_children_that_do_not_launch_or_re_enter_late(
        monkeypatch):
    """Every child joins its parent's tree before its launch.  A child
    whose launch raises LaunchFailedError keeps its fiber point and a
    "launch failed" note and is never integrated; the other children
    of the fan trace on.  A child seeded after t_span ends notes
    "re-entry beyond t_span" and is not integrated either."""
    spec = builtin_scene("product_cone(1.0)").spec
    q0 = EdgePhasePoint(t=0.0, x=0.5, y=np.zeros(0), z=np.array([1.0]),
                        tau=1.0, xi=1.0, eta=np.zeros(0), zeta=np.zeros(1))
    launch = gbb.stable_manifold_launch
    calls = []

    def third_fails(spec, data, *args, **kwargs):
        calls.append(data)
        if len(calls) == 3:
            raise LaunchFailedError("no root")
        return launch(spec, data, *args, **kwargs)
    monkeypatch.setattr(gbb, "stable_manifold_launch", third_fails)
    path = trace_gbb(spec, q0, (0.0, 1.2), policy=fan(4))
    root = path.branches["0"]
    assert root.children == ["0.0", "0.1", "0.2", "0.3"]
    failed = path.branches["0.2"]
    np.testing.assert_array_equal(failed.fiber_point, calls[2].z_bar)
    assert failed.fiber_point[0] == pytest.approx(1.0 + math.pi, abs=1e-9)
    assert failed.note == "launch failed: no root"
    assert failed.seed is None and failed.segment is None
    for child_id in ("0.0", "0.1", "0.3"):
        assert path.branches[child_id].segment is not None
    monkeypatch.setattr(gbb, "stable_manifold_launch", launch)
    # the event is at t = 0.5 and outgoing seeds start at 0.501
    late = trace_gbb(spec, q0, (0.0, 0.5005), policy=fan(4))
    assert late.branches["0"].children == ["0.0", "0.1", "0.2", "0.3"]
    for child_id in late.branches["0"].children:
        child = late.branches[child_id]
        assert child.note == "re-entry beyond t_span"
        assert child.seed.t > 0.5005 and child.segment is None
        assert child.fiber_point is not None


def test_trace_validates_spans():
    spec = builtin_scene("product_cone(1.0)").spec
    q0 = EdgePhasePoint(t=0.5, x=0.5, y=np.zeros(0), z=np.array([1.0]),
                        tau=1.0, xi=1.0, eta=np.zeros(0), zeta=np.zeros(1))
    with pytest.raises(ConfigError):
        trace_gbb(spec, q0, (1.0, 0.0))
    with pytest.raises(ConfigError):
        trace_gbb(spec, q0, (0.8, 1.5))
    for t1 in (0.5, 0.3):   # a source at or after the end of t_span
        with pytest.raises(ConfigError, match="t_span"):
            trace_gbb(spec, q0, (0.0, t1))


def _edge_fan_scenes(seeds):
    """The scene texts of the benchmark's edge_fan workload."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads",
        Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [text for seed in seeds for text in workloads.edge_fan(seed)]


def _reversed(vec, b, f):
    """(-t, x, y, z, -tau, xi, eta, zeta): the same bicharacteristic, run
    the other way in t."""
    vec = np.array(vec, float)
    vec[[0, 2 + b + f]] *= -1.0
    return EdgePhasePoint.from_vector(vec, b, f)


def _unit(vec, itau):
    """x, y, z and covector/|tau| of a state whose tau has index itau."""
    return np.concatenate((vec[1:itau], vec[itau + 1:] / abs(vec[itau])))


def test_same_fiber_traces_return_under_time_reversal():
    """Trace each edge_fan ray of seeds 0-1 (four builtins) under
    same_fiber, reverse its child's last state and trace that over
    [-t_end, 0], again under same_fiber.  The reversed trace meets the
    edge at the forward event's -t_bar, y_bar and z_bar, and its child
    ends at the reversed source, in x, y, z and covector/|tau|.  The
    worst error over seeds 0-9 is 4.3e-11, on perturbed_edge(0.3)."""
    for text in _edge_fan_scenes((0, 1)):
        config = parse_scene(text)
        spec, b, f = config.spec, config.spec.b, config.spec.f
        forward = trace_gbb(spec, config.source, config.t_span, SAME_FIBER,
                            config.settings)
        end = forward.branches["0.0"].segment.states[-1]
        back = trace_gbb(spec, _reversed(end, b, f), (-end[0], 0.0),
                         SAME_FIBER, config.settings)
        assert sorted(back.branches) == ["0", "0.0"], config.name
        there, here = forward.branches["0"].event, back.branches["0"].event
        assert abs(there.t_bar + here.t_bar) < 1e-9
        np.testing.assert_allclose(here.y_bar, there.y_bar, rtol=0,
                                   atol=1e-9)
        assert np.abs(spec.fiber.coordinate_delta(
            here.z_bar, there.z_bar)).max() < 1e-9
        source = _reversed(config.source.to_vector(), b, f).to_vector()
        np.testing.assert_allclose(
            _unit(back.branches["0.0"].segment.states[-1], 2 + b + f),
            _unit(source, 2 + b + f), rtol=0, atol=1e-9, err_msg=config.name)


def test_backward_event_reproduces_launch_data():
    spec = builtin_scene("perturbed_edge(0.35)").spec
    data = BoundaryData(t_bar=0.3, y_bar=np.array([0.1]),
                        z_bar=np.array([1.2]), sgn_tau=1, xi_hat=0.85,
                        eta_hat=np.array([math.sqrt(1.0 - 0.85 ** 2)]))
    assert data.io == RayEnd.INCOMING
    q0 = stable_manifold_launch(spec, data)
    path = trace_gbb(spec, q0, (0.0, 1.1), policy=SAME_FIBER)
    root = path.branches["0"]
    child = path.branches["0.0"]
    assert root.event.t_bar == pytest.approx(0.3, abs=1e-6)
    assert root.event.xi_hat == pytest.approx(0.85, abs=1e-5)
    assert root.event is not None and child.seed is not None
    target = root.event.outgoing(child.fiber_point)
    assert target.xi_hat == -root.event.xi_hat
    defects = verify_handoff(spec, child.seed, target)
    assert defects["t"] < 1e-8
    assert defects["y"] < 1e-8
    assert defects["eta"] < 1e-8
    assert defects["abs_xi"] < 5e-7
    assert defects["fiber"] < 1e-7
    redetected = backward_event(spec, child.seed)
    assert redetected.boundary_class == BoundaryClass.HYPERBOLIC
    assert redetected.sgn_tau == root.event.sgn_tau
