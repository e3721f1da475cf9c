"""The generated Hamilton and cogeodesic fields against the numpy
formulas they replaced, their typed failures, and the conservation laws
of the interior flow on hypothesis-drawn rays."""

import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgeray import expr as ex
from edgeray.boundary import _shoot
from edgeray.cli import main
from edgeray.errors import DegenerateMetricError, IntegrationDivergedError
from edgeray.hamiltonian import (RaySegment, Termination, hamilton_field,
                                 integrate_interior)
from edgeray.metric import make_metric_spec
from edgeray.phase import EdgePhasePoint
from edgeray.scenes import builtin_scene, parse_scene

BUILTINS = ["product_cone(1.3)", "product_edge(1, 1)", "product_edge(2, 3)",
            "blowup_curve_r3", "perturbed_edge(0.3)", "sphere_edge"]


def _custom_spec():
    """Non-diagonal kzz, nonzero kyz, kyy and h', exp and log entries."""
    return make_metric_spec(
        b=2, f=2,
        h=[["1 + 0.1*x*y1^2", "0.05*y2"], ["0.05*y2", "exp(0.2*y1)"]],
        hprime=[["0.2*sin(z1)", "0.1*y1*z2"],
                ["0.1*y1*z2", "0.3*log(2 + cos(z2))"]],
        k=[["1 + 0.3*cos(z1 - z2)", "0.2*sin(y1)*exp(-x)"],
           ["0.2*sin(y1)*exp(-x)", "2 + 0.2*x*log(1.5 + sin(z2))"]],
        kyy=[["0.05*cos(z2)", "0.02*x*y2"], ["0.02*x*y2", "0.04*exp(y1)"]],
        kyz=[["0.04*sin(z1)", "0.03*exp(y1)"],
             ["0.02*z1", "0.05*log(2 + y2)"]],
        fiber="torus")


SPECS = BUILTINS + ["custom"]
CHECKS = settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


def _spec(name):
    return _custom_spec() if name == "custom" else builtin_scene(name).spec


# Reference: the numpy formulas the generated fields replaced, one
# np.linalg.solve of the metric and an einsum for the quadratic forms.

def _reference_field(ev, vec):
    """(p, H, terms) at one state: the Hamilton field as it was written in
    numpy, and the size of the terms that cancel in its xi' entry."""
    b, f = ev.b, ev.f
    x = vec[1]
    y = vec[2:2 + b]
    z = vec[2 + b:2 + b + f]
    itau = 2 + b + f
    tau = vec[itau]
    u = vec[itau + 1:]
    G, dG = ev.kernel(x, y, z)
    w = np.linalg.solve(G, u)
    p = tau * tau - float(u @ w)
    w_xi = w[0]
    w_eta = w[1:1 + b]
    quad = np.einsum("i,vij,j->v", w, dG, w)
    out = np.empty_like(vec)
    out[0] = -tau * x
    out[1] = x * w_xi
    out[2:2 + b] = x * w[1:1 + b]
    out[2 + b:itau] = w[1 + b:]
    out[itau] = tau * w_xi
    eta = u[1:1 + b]
    out[itau + 1] = -p + tau * tau - float(eta @ w_eta) + 0.5 * x * quad[0]
    out[itau + 2:itau + 2 + b] = eta * w_xi + 0.5 * x * quad[1:1 + b]
    out[itau + 2 + b:] = 0.5 * quad[1 + b:]
    terms = (abs(p) + tau * tau + abs(float(eta @ w_eta))
             + abs(0.5 * x * quad[0]))
    return p, out, terms


def _reference_cogeodesic(matrix, var, ys, zs, p):
    """The shooter's right-hand side as it was written in numpy: a batched
    solve of the x = 0 block and an einsum over its partials along var,
    both evaluated per lane by walking the expression trees."""
    def block(y, z, name=None):
        return [[ex.evaluate(node if name is None else ex.diff(node, name),
                             0.0, y, z) for node in row] for row in matrix]

    n = p.shape[-1]
    names = ["%s%d" % (var, a + 1) for a in range(n)]
    M = np.array([block(y, z) for y, z in zip(ys, zs)])
    dM = np.array([[block(y, z, name) for name in names]
                   for y, z in zip(ys, zs)])
    out = np.zeros(p.shape[:-1] + (2, n))
    out[:, 0] = w = np.linalg.solve(M, p[:, :, None])[:, :, 0]
    out[:, 1] = 0.5 * np.einsum("ni,ndij,nj->nd", w, dM, w)
    return out


def _on_lanes(field, fixed, q, p, arc=1.0):
    """A generated cogeodesic field at the lanes (q, p), shape (n, 2, d),
    through its flat-state form."""
    n, d = p.shape
    state = np.stack((q, p), axis=1).ravel()
    return field(*fixed, state, arc).reshape(n, 2, d)


def _assert_close(got, want, size=None):
    """Agreement to 1e-12 relative to size, by default the largest entry
    of want."""
    if size is None:
        size = np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * max(size, 1e-300))


def _coordinates(spec, unit):
    """A chart point from unit-interval coordinates."""
    y = np.array([lo + (hi - lo) * c for (lo, hi), c
                  in zip(spec.y_box, unit[:spec.b])])
    z = np.array([lo + (hi - lo) * c for (lo, hi), c
                  in zip(spec.z_box, unit[spec.b:])])
    return y, z


unit_floats = st.floats(0.0, 1.0)
covector_floats = st.floats(-2.0, 2.0)


@st.composite
def states(draw, spec):
    """A phase-space state with x in [0, 0.9] and tau != 0."""
    nv = 1 + spec.b + spec.f
    x = draw(st.floats(0.0, 0.9))
    y, z = _coordinates(spec, draw(st.lists(
        unit_floats, min_size=nv - 1, max_size=nv - 1)))
    tau = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from((-1.0, 1.0)))
    u = draw(st.lists(covector_floats, min_size=nv, max_size=nv))
    return np.concatenate(([draw(st.floats(-1.0, 1.0)), x], y, z, [tau], u))


@pytest.mark.parametrize("name", SPECS)
@CHECKS
@given(data=st.data())
def test_generated_field_matches_the_numpy_field(name, data):
    """The scalar field and the symbol p agree with one solve of G and an
    einsum on each of several states."""
    spec = _spec(name)
    ev = spec.evaluator()
    rows = np.array(data.draw(st.lists(states(spec), min_size=1,
                                       max_size=6)))
    scale = data.draw(st.floats(-3.0, 3.0))
    for vec in rows:
        _assert_field_close(ev, vec, scale)


def _assert_field_close(ev, vec, scale):
    """p and the scaled field at vec against the reference.  p = tau^2 -
    u.w and xi' = -p + tau^2 - eta.w_eta + x quad_xi / 2 may cancel:
    each is compared at the size of its terms, every other entry at the
    size of the largest."""
    want_p, want, terms = _reference_field(ev, vec)
    p, field = ev.hamilton(vec.tolist(), scale)
    field = np.asarray(field)
    tau2 = vec[2 + ev.b + ev.f] ** 2
    _assert_close(p, want_p, tau2 + abs(tau2 - want_p))
    ixi = 3 + ev.b + ev.f
    others = np.arange(len(want)) != ixi
    _assert_close(field[others], scale * want[others],
                  np.abs(scale * want).max())
    _assert_close(field[ixi], scale * want[ixi], abs(scale) * terms)


def test_cancelling_xi_entry_is_compared_at_the_size_of_its_terms():
    """At x = 0 on product_edge(1, 1) with xi = 1e-6 and eta = 1.2, xi'
    = xi^2 = 1e-12 is what is left of terms of size 1: the generated
    field reads 1.000088900582341e-12, the reference 9.99866855977416e-13,
    2.2e-16 apart, while the largest entry of the field is 1.2e-6."""
    ev = builtin_scene("product_edge(1, 1)").spec.evaluator()
    vec = np.array([0.0, 0.0, 0.5, 1.0, 1.0, 1e-6, 1.2, 0.0])
    _, want, _ = _reference_field(ev, vec)
    assert np.abs(want).max() == 1.2e-6
    _assert_field_close(ev, vec, 1.0)


@pytest.mark.parametrize("name", SPECS)
@CHECKS
@given(data=st.data())
def test_cogeodesic_fields_match_the_numpy_shooter(name, data):
    """The fiber and base cogeodesic fields over lanes agree with a
    batched solve of the block and an einsum over its partials, and a
    per-lane arc scales each lane's rows, rounding as one product."""
    spec = _spec(name)
    ev = spec.evaluator()
    n = data.draw(st.integers(1, 8))
    points = [_coordinates(spec, data.draw(st.lists(
        unit_floats, min_size=spec.b + spec.f, max_size=spec.b + spec.f)))
        for _ in range(n)]
    ys = np.array([y for y, _ in points]).reshape(n, spec.b)
    zs = np.array([z for _, z in points])
    zetas = np.array(data.draw(st.lists(
        st.lists(covector_floats, min_size=spec.f, max_size=spec.f),
        min_size=n, max_size=n)))
    got = _on_lanes(ev.fiber_cogeodesic, (ys,), zs, zetas)
    assert got.shape == (n, 2, spec.f)
    _assert_close(got, _reference_cogeodesic(spec.k, "z", ys, zs, zetas))
    arc = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n,
                                      max_size=n)))
    assert np.array_equal(_on_lanes(ev.fiber_cogeodesic, (ys,), zs, zetas,
                                    arc), got * arc[:, None, None])
    if spec.b:
        etas = np.array(data.draw(st.lists(
            st.lists(covector_floats, min_size=spec.b, max_size=spec.b),
            min_size=n, max_size=n)))
        got = _on_lanes(ev.base_cogeodesic, (), ys, etas)
        assert got.shape == (n, 2, spec.b)
        _assert_close(got, _reference_cogeodesic(spec.h, "y", ys, zs, etas))


def test_zero_pivot_is_a_typed_error():
    """k = z1 is singular at z1 = 0: the interior field, the drift gate's
    p at a segment's samples (one of them there) and a shooter lane there
    raise DegenerateMetricError, the shooter not IntegrationDivergedError."""
    spec = make_metric_spec(0, 1, k=[["z1"]], fiber="chart")
    none = np.zeros(0)
    q = EdgePhasePoint(t=0.0, x=0.5, y=none, z=np.array([0.0]), tau=1.0,
                       xi=0.6, eta=none, zeta=np.array([0.8]))
    with pytest.raises(DegenerateMetricError):
        hamilton_field(spec, q)
    segment = RaySegment(spec=spec, direction=-1, s=np.zeros(2),
                         states=np.stack((q.to_vector(), q.to_vector())),
                         termination=Termination.TIME_LIMIT)
    segment.states[0, 2] = 0.5
    with pytest.raises(DegenerateMetricError):
        segment.conserved_log()
    ev = spec.evaluator()
    with pytest.raises(DegenerateMetricError, match="1 lane"):
        _shoot(ev.fiber_cogeodesic, np.array([[0.5], [0.0], [1.0]]),
               np.ones((3, 1)), np.ones(3), fixed=(none,))


def test_zero_pivot_reached_mid_shot_is_a_typed_error():
    """k11 = exp(-exp(50 z2)) underflows to exactly 0 past z2 = 0.14.  A
    lane with zeta1 = 0 runs along z2 through that point with finite
    field values (w1 = 0 / k11 = 0) until a stage lands where the pivot
    is zero; the other lane moves away.  The shot raises
    DegenerateMetricError naming one lane, though its launch is fine."""
    spec = make_metric_spec(0, 2, k=[["exp(-exp(50*z2))", "0"], ["0", "1"]],
                            fiber="chart")
    ev = spec.evaluator()
    none = np.zeros(0)
    z0 = np.array([0.0, -1.0])
    zetas = np.array([[0.0, 1.0], [0.0, -1.0]])
    z_end = _shoot(ev.fiber_cogeodesic, z0, zetas, np.ones(2),
                   fixed=(none,))[0]
    np.testing.assert_allclose(z_end, [[0.0, 0.0], [0.0, -2.0]], atol=1e-9)
    with pytest.raises(DegenerateMetricError, match="in 1 lane"):
        _shoot(ev.fiber_cogeodesic, z0, zetas, np.full(2, 3.0),
               fixed=(none,))


def test_zero_pivot_outranks_an_overflowing_lane():
    """k = z1: at z1 = 0 the pivot is zero; at z1 = 1e-310 it is not,
    but 1/z1 overflows.  Alone the overflowing lane diverges; shot
    together, the zero pivot is what is reported."""
    spec = make_metric_spec(0, 1, k=[["z1"]], fiber="chart")
    ev = spec.evaluator()
    none = np.zeros(0)
    with pytest.raises(IntegrationDivergedError):
        _shoot(ev.fiber_cogeodesic, np.array([1e-310]), np.ones(1),
               np.ones(1), fixed=(none,))
    with pytest.raises(DegenerateMetricError, match="in 1 lane"):
        _shoot(ev.fiber_cogeodesic, np.array([[0.0], [1e-310]]),
               np.ones((2, 1)), np.ones(2), fixed=(none,))


@pytest.mark.parametrize("k11, z2, stage, error, message", [
    ("exp(-exp(50*z2))", -0.69, 10, DegenerateMetricError,
     "metric not invertible: zero pivot in 2 lane(s)"),
    ("exp(-exp(50*z2))", -0.7350680562, 12, DegenerateMetricError,
     "metric not invertible: zero pivot in 2 lane(s)"),
    ("1 + exp(exp(50*z2))", -0.69, 10, IntegrationDivergedError,
     "geodesic lanes left the finite range of the metric"),
    ("1 + exp(exp(50*z2))", -0.7360908353, 12, IntegrationDivergedError,
     "geodesic lanes left the finite range of the metric")],
    ids=["zero_pivot_at_a_stage", "zero_pivot_at_the_step_end",
         "overflow_at_a_stage", "overflow_at_the_step_end"])
def test_rows_written_in_place_raise_the_checked_error(k11, z2, stage, error,
                                                       message):
    """A DOP853 step of the shooter writes its rows unchecked and checks
    them once.  Two lanes run along z2 at zeta1 = 0 toward where k11
    underflows to a zero pivot (exp(-exp(50 z2))) or its partial
    overflows with no zero pivot (1 + exp(exp(50 z2))).  The first row
    that is not finite is an interior stage (10) or the field at the
    step's end (12); later stages run on nan.  The shot raises what the
    field checked at every evaluation raised: the class and the message,
    lane count included."""
    k = [[k11, "0"], ["0", "1 - 0.3*z2"]]
    ev = make_metric_spec(0, 2, k=k, fiber="chart").evaluator()
    finite = []   # per in-place row, whether it is finite

    def field(y, state, arc, out=None):
        got = ev.fiber_cogeodesic(y, state, arc, out)
        if out is not None:
            finite.append(bool(np.isfinite(out).all()))
        return got
    with pytest.raises(error) as raised:
        _shoot(field, np.array([0.0, z2]), np.array([[0.0, 1.0]] * 2),
               np.ones(2), fixed=(np.zeros(0),))
    assert str(raised.value) == message
    assert finite.index(False) % 12 + 1 == stage
    assert len(finite) % 12 == 0   # the step ran to its end


def test_division_by_zero_in_the_scalar_field_is_a_typed_error():
    """k = 1/z1 divides by zero at z1 = 0 on Python floats: the scalar
    field raises DegenerateMetricError, not ZeroDivisionError."""
    spec = make_metric_spec(0, 1, k=[["1/z1"]], fiber="chart")
    none = np.zeros(0)
    q = EdgePhasePoint(t=0.0, x=0.5, y=none, z=np.array([0.0]), tau=1.0,
                       xi=0.6, eta=none, zeta=np.array([0.8]))
    with pytest.raises(DegenerateMetricError, match="division by zero"):
        hamilton_field(spec, q)


FLOW_SPECS = ["perturbed_edge(0.3)", "sphere_edge", "product_edge(1, 3)"]


@pytest.mark.parametrize("name", FLOW_SPECS)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_flow_conserves_p_and_tau_over_x(name, data):
    """A point-source ray in a drawn fan direction carries |p|/tau^2
    below 1e-6 and constant tau/x to 1e-6 at every accepted sample."""
    spec = builtin_scene(name).spec
    nv = 1 + spec.b + spec.f
    x0 = data.draw(st.floats(0.3, 0.7))
    y0, z0 = _coordinates(spec, [
        data.draw(st.floats(0.3, 0.7)) for _ in range(nv - 1)])
    v = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=nv,
                                    max_size=nv)))
    if np.linalg.norm(v) < 1e-3:
        v[0] = 1.0
    Ginv = spec.evaluator().dual_matrix(x0, y0, z0)
    u = v / math.sqrt(float(v @ Ginv @ v))
    q0 = EdgePhasePoint(t=0.0, x=x0, y=y0, z=z0, tau=1.0, xi=u[0],
                        eta=u[1:1 + spec.b], zeta=u[1 + spec.b:])
    segment = integrate_interior(spec, q0, direction=-1, s_max=1.5)
    log = segment.conserved_log()
    assert np.abs(log["p_rel"]).max() < 1e-6
    ratio = log["tau_over_x"]
    assert np.abs(ratio / ratio[0] - 1.0).max() < 1e-6


@pytest.mark.parametrize("text", [
    "builtin = perturbed_edge(0.3)\norigin = [0.49260147156300427, "
    "-0.07601284116297477, 0.8704688011761168]\nfan_count = 16\n"
    "seed = 843\nt_span = [0.0, 3.0]\n",
    "builtin = sphere_edge\npolicy = geometric\n"],
    ids=["perturbed_edge_fan", "sphere_edge_geometric"])
def test_dump_p_residual_is_the_scalar_symbol(tmp_path, text):
    """Every row's p_residual is |p|/tau^2 of the row's own state, with p
    from the scalar hamilton: the drift gate and the dump read the one
    generated symbol, bitwise.  The fan has a row where (1 + 0.3 sin z1)
    squared by pow, as the float code does, and by a numpy array square
    differ in the last bit, so a p computed any other way shows there.
    tau * tau, as numpy squares an array: a float's tau ** 2 goes through
    pow too."""
    scene = tmp_path / "scene.cfg"
    scene.write_text(text)
    out = tmp_path / "rays.csv"
    assert main(["trace", str(scene), "--out", str(out)]) == 0
    spec = parse_scene(text).spec
    ev = spec.evaluator()
    names = ["t", "x"] + ["y%d" % (i + 1) for i in range(spec.b)] \
        + ["z%d" % (a + 1) for a in range(spec.f)] + ["tau", "xi"] \
        + ["eta%d" % (i + 1) for i in range(spec.b)] \
        + ["zeta%d" % (a + 1) for a in range(spec.f)]
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len({(row["ray_id"], row["branch_id"]) for row in rows}) > 1
    for row in rows:
        state = [float(row[name]) for name in names]
        tau = state[2 + spec.b + spec.f]
        assert (abs(ev.hamilton(state, 1.0)[0]) / (tau * tau)
                == float(row["p_residual"]))
