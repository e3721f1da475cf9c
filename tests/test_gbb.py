"""Tests for event extrapolation, branching, and broken-ray assembly."""

import math

import numpy as np
import pytest

from edgeray import gbb
from edgeray.errors import (ConfigError, DegenerateMetricError,
                            IllConditionedEventError)
from edgeray.gbb import (
    GEOMETRIC_ONLY,
    SAME_FIBER,
    BoundaryEvent,
    BranchKind,
    BranchPolicy,
    _tangential_flow,
    backward_event,
    branch_hyperbolic,
    child_or_event_data,
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
    Termination,
    integrate_interior,
    stable_manifold_launch,
)
from edgeray.metric import make_metric_spec
from edgeray.phase import BoundaryClass, EdgePhasePoint
from edgeray.scenes import builtin_scene


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
    assert event.data().io.value == "incoming"


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
    launches = branch_hyperbolic(spec, event, SAME_FIBER)
    assert len(launches) == 1
    launch = launches[0]
    assert launch.kind == BranchKind.DIFFRACTED
    assert launch.data.xi_hat == -event.xi_hat
    assert launch.data.t_bar == event.t_bar
    np.testing.assert_array_equal(launch.data.z_bar, event.z_bar)
    assert launch.data.io.value == "outgoing"


def test_geometric_branching_uses_arc_pi_partners():
    one = builtin_scene("product_cone(1.0)").spec
    launches = branch_hyperbolic(one, _hyperbolic_event([0.3]),
                                 GEOMETRIC_ONLY)
    assert len(launches) == 1
    assert launches[0].kind == BranchKind.GEOMETRIC
    delta = one.fiber.coordinate_delta(launches[0].fiber_point,
                                       np.array([0.3 + math.pi]))
    assert abs(float(delta[0])) < 1e-9
    # radius-2 circle: both orientations survive deduplication
    two = make_metric_spec(0, 1, k=[["4"]],
                           fiber="circle(%r)" % (2.0 * math.pi))
    launches = branch_hyperbolic(two, _hyperbolic_event([0.3]),
                                 GEOMETRIC_ONLY)
    assert len(launches) == 2


def test_fan_branching_is_anchored_and_uniform():
    spec = builtin_scene("product_cone(1.0)").spec
    event = _hyperbolic_event([0.3])
    launches = branch_hyperbolic(spec, event, fan(6))
    assert len(launches) == 6
    assert all(l.kind == BranchKind.DIFFRACTED for l in launches)
    want = [0.3 + 2.0 * math.pi * i / 6 for i in range(6)]
    for launch, w in zip(launches, want):
        delta = spec.fiber.coordinate_delta(launch.fiber_point,
                                            np.array([w]))
        assert abs(float(delta[0])) < 1e-12
    single = branch_hyperbolic(spec, event, fan(1))
    assert len(single) == 1
    np.testing.assert_array_equal(single[0].fiber_point, event.z_bar)
    # a chart fiber spreads the fan over its z_box, ends included
    chart = make_metric_spec(0, 1, k=[["1"]], fiber="chart",
                             z_box=((-1.5, 2.5),))
    for n, want in ((1, [-1.5]), (5, [-1.5, -0.5, 0.5, 1.5, 2.5])):
        launches = branch_hyperbolic(chart, event, fan(n))
        assert [float(l.fiber_point[0]) for l in launches] == want


def test_fan_branching_two_dimensional_fiber():
    spec = builtin_scene("sphere_edge").spec
    event = BoundaryEvent(branch_id="0",
                          boundary_class=BoundaryClass.HYPERBOLIC,
                          t_bar=0.0, y_bar=np.zeros(1),
                          z_bar=np.array([1.0, 0.5]), sgn_tau=1,
                          xi_hat=0.8, eta_hat=np.array([0.6]),
                          margin=0.64, char_defect=0.0, residual=0.0)
    launches = branch_hyperbolic(spec, event, fan(4))
    assert len(launches) == 4
    pts = np.array([l.fiber_point for l in launches])
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
    """Flat base: the tangential flow is a straight line at unit speed
    and the re-entry keeps the slow data with a grazing exit momentum."""
    spec = builtin_scene("product_edge(1, 1)").spec
    event = BoundaryEvent(branch_id="0",
                          boundary_class=BoundaryClass.GLANCING,
                          t_bar=0.1, y_bar=np.array([0.2]),
                          z_bar=np.array([0.7]), sgn_tau=1, xi_hat=0.0,
                          eta_hat=np.array([1.0]), margin=0.0,
                          char_defect=0.0, residual=0.0)
    delta = 0.4
    path, data = continue_glancing(spec, event, delta)
    assert path.t[0] == pytest.approx(0.1)
    assert path.t[-1] == pytest.approx(0.1 + delta)
    # dy/dt = -eta_hat for sgn_tau = 1 on the flat base
    np.testing.assert_allclose(path.y[:, 0], 0.2 - (path.t - 0.1),
                               atol=1e-12)
    assert path.norm_drift < 1e-12
    assert data.t_bar == pytest.approx(0.1 + delta)
    assert data.y_bar[0] == pytest.approx(0.2 - delta, abs=1e-12)
    np.testing.assert_array_equal(data.z_bar, event.z_bar)
    assert data.xi_hat == pytest.approx(-gbb.GLANCING_XI)
    assert data.io.value == "outgoing"
    assert data.eta_hat[0] ** 2 + data.xi_hat ** 2 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        continue_glancing(spec, _hyperbolic_event([0.3], b=1), delta)


def test_glancing_continuation_of_zero_travel():
    """delta = 0 travels nowhere: the re-entry is at the event's y_bar with
    a unit eta_hat and grazing xi_hat."""
    spec = builtin_scene("product_edge(1, 1)").spec
    event = BoundaryEvent(branch_id="0",
                          boundary_class=BoundaryClass.GLANCING,
                          t_bar=0.1, y_bar=np.array([0.2]),
                          z_bar=np.array([0.7]), sgn_tau=-1, xi_hat=0.0,
                          eta_hat=np.array([-1.0]), margin=0.0,
                          char_defect=0.0, residual=0.0)
    path, data = continue_glancing(spec, event, 0.0)
    np.testing.assert_array_equal(path.t, 0.1)
    np.testing.assert_array_equal(path.y, 0.2)
    np.testing.assert_array_equal(path.eta_hat, -1.0)
    assert path.norm_drift == 0.0
    assert data.t_bar == 0.1
    np.testing.assert_array_equal(data.y_bar, event.y_bar)
    np.testing.assert_array_equal(data.z_bar, event.z_bar)
    assert data.xi_hat == pytest.approx(gbb.GLANCING_XI)
    assert data.eta_hat[0] ** 2 + data.xi_hat ** 2 == pytest.approx(1.0)
    assert data.eta_hat[0] < 0.0


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
    path, data = continue_glancing(spec, event, 0.8)
    np.testing.assert_allclose(path.y[:, 0], 0.5 * math.pi, atol=1e-10)
    np.testing.assert_allclose(path.y[:, 1], -(path.t - 0.0), atol=1e-10)
    assert path.norm_drift < 1e-10
    assert data.y_bar[1] == pytest.approx(-0.8, abs=1e-10)


def test_singular_base_block_is_a_typed_error():
    """h = y1 is singular at y = 0: the base cometric, the tangential flow
    and the glancing continuation raise DegenerateMetricError."""
    spec = make_metric_spec(1, 1, h=[["y1"]], k=[["1"]])
    y0, eta0 = np.zeros(1), np.array([1.0])
    with pytest.raises(DegenerateMetricError):
        spec.evaluator().base_cometric(y0)
    with pytest.raises(DegenerateMetricError):
        _tangential_flow(spec, 0.0, y0, eta0, 1, 0.4)
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


def test_trace_validates_spans():
    spec = builtin_scene("product_cone(1.0)").spec
    q0 = EdgePhasePoint(t=0.5, x=0.5, y=np.zeros(0), z=np.array([1.0]),
                        tau=1.0, xi=1.0, eta=np.zeros(0), zeta=np.zeros(1))
    with pytest.raises(ConfigError):
        trace_gbb(spec, q0, (1.0, 0.0))
    with pytest.raises(ConfigError):
        trace_gbb(spec, q0, (0.8, 1.5))


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
    target = child_or_event_data(child, root.event)
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
