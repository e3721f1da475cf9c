"""Tests for the boundary flow, fiber geodesics, and partner search."""

import functools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from edgeray import boundary
from edgeray import expr as ex
from edgeray.boundary import (
    _direction_grid,
    _shoot,
    boundary_maximal_interval,
    fiber_cogeodesic_flow,
    fiber_geodesic_point,
    fiber_limit_point,
    fiber_norm,
    fiber_unit_covector,
    geometric_partners,
    is_geometrically_related,
)
from edgeray.errors import (
    DegenerateMetricError,
    FlowEscapedError,
    IntegrationDivergedError,
)
from edgeray.hamiltonian import hamilton_field
from edgeray.metric import make_metric_spec
from edgeray.phase import EdgePhasePoint
from edgeray.scenes import builtin_scene


def _boundary_flow(spec, q, s):
    """Flow q (with q.x = 0) for parameter s along the boundary field: an
    oracle from the closed form of the boundary module's notes.

    (t, x, y) stay frozen; (z, zeta) follow the fiber cogeodesic flow;
    (tau, xi, eta) follow the secant/tangent closed form.  Raises
    FlowEscapedError when s is outside the maximal interval.
    """
    if q.x != 0.0:
        raise ValueError("boundary flow requires x = 0")
    lo, hi = boundary_maximal_interval(spec, q)
    if not lo < s < hi:
        raise FlowEscapedError("parameter %.6g outside maximal interval "
                               "(%.6g, %.6g)" % (s, lo, hi))
    m = fiber_norm(spec, q.y, q.z, q.zeta)
    if m == 0.0:
        factor = 1.0 / (1.0 - q.xi * s)
        return EdgePhasePoint(t=q.t, x=0.0, y=q.y, z=q.z,
                              tau=q.tau * factor, xi=q.xi * factor,
                              eta=q.eta * factor, zeta=q.zeta)
    C = math.atan2(q.xi, m)
    phase = m * s + C
    stretch = 1.0 / (math.cos(phase) / math.cos(C))
    zs, zetas = fiber_cogeodesic_flow(spec, q.y, q.z, q.zeta, [s])
    return EdgePhasePoint(t=q.t, x=0.0, y=q.y, z=zs[0],
                          tau=q.tau * stretch, xi=m * math.tan(phase),
                          eta=q.eta * stretch, zeta=zetas[0])


def _symbol(spec, q):
    """The wave symbol p at q, from the scalar Hamilton field."""
    return spec.evaluator().hamilton(q.to_vector().tolist(), 1.0)[0]


def _edge_point(spec, rng, t=0.0):
    """Random x = 0 phase point on the characteristic with |zeta|_K > 0."""
    b, f = spec.b, spec.f
    y = np.array([float(rng.uniform(lo + 0.1, hi - 0.1))
                  for lo, hi in spec.y_box]) if b else np.zeros(0)
    z = np.array([float(rng.uniform(lo + 0.1, hi - 0.1))
                  for lo, hi in spec.z_box])
    eta = rng.normal(size=b) * 0.4 if b else np.zeros(0)
    zeta = rng.normal(size=f)
    if fiber_norm(spec, y, z, zeta) < 0.2:
        zeta = zeta + 0.5
    xi = float(rng.normal()) * 0.8
    u = np.concatenate(([xi], eta, zeta))
    G = spec.evaluator().edge_matrix(0.0, y, z)
    tau = math.sqrt(float(u @ np.linalg.solve(G, u)))
    return EdgePhasePoint(t=t, x=0.0, y=y, z=z, tau=tau, xi=xi,
                          eta=eta, zeta=zeta)


def test_boundary_flow_matches_hamilton_field_integration():
    """The closed form agrees with direct integration of the raw field.

    At x = 0 the Hamilton field is tangent to the boundary, so
    integrating it with a generic ODE solver is an independent check of
    the secant/tangent scalar solution and the fiber cogeodesic split.
    """
    for name in ("perturbed_edge(0.4)", "sphere_edge"):
        spec = builtin_scene(name).spec
        rng = np.random.default_rng(7)
        b, f = spec.b, spec.f
        for _ in range(4):
            q = _edge_point(spec, rng)
            lo, hi = boundary_maximal_interval(spec, q)
            for frac in (-0.55, 0.35, 0.7):
                s = (hi if frac > 0 else -lo) * frac

                def rhs(_, vec):
                    pt = EdgePhasePoint.from_vector(vec, b, f)
                    return hamilton_field(spec, pt)

                sol = solve_ivp(rhs, (0.0, s), q.to_vector(), method="RK45",
                                rtol=1e-11, atol=1e-13)
                assert sol.status == 0
                got = EdgePhasePoint.from_vector(sol.y[:, -1], b, f)
                want = _boundary_flow(spec, q, s)
                assert got.t == pytest.approx(want.t, abs=1e-12)
                assert got.x == pytest.approx(0.0, abs=1e-12)
                np.testing.assert_allclose(got.y, want.y, atol=1e-10)
                np.testing.assert_allclose(got.z, want.z, atol=1e-7)
                np.testing.assert_allclose(got.zeta, want.zeta, atol=1e-7)
                assert got.tau == pytest.approx(want.tau, rel=1e-7)
                assert got.xi == pytest.approx(want.xi, rel=1e-6, abs=1e-7)
                np.testing.assert_allclose(got.eta, want.eta,
                                           rtol=1e-7, atol=1e-9)


def test_scalar_flow_satisfies_its_ode():
    """Central differences of the flow obey tau' = tau xi, xi' = xi^2 + m^2."""
    spec = builtin_scene("perturbed_edge(0.3)").spec
    rng = np.random.default_rng(3)
    q = _edge_point(spec, rng)
    m = fiber_norm(spec, q.y, q.z, q.zeta)
    lo, hi = boundary_maximal_interval(spec, q)
    h = 1e-6
    for s in (0.6 * lo, 0.0, 0.5 * hi):
        qm = _boundary_flow(spec, q, s - h)
        q0 = _boundary_flow(spec, q, s)
        qp = _boundary_flow(spec, q, s + h)
        dtau = (qp.tau - qm.tau) / (2 * h)
        dxi = (qp.xi - qm.xi) / (2 * h)
        deta = (qp.eta - qm.eta) / (2 * h)
        assert dtau == pytest.approx(q0.tau * q0.xi, rel=1e-6)
        assert dxi == pytest.approx(q0.xi ** 2 + m * m, rel=1e-6)
        np.testing.assert_allclose(deta, q0.eta * q0.xi, rtol=1e-5,
                                   atol=1e-8)


def test_flow_conserves_fiber_norm_and_characteristic():
    for name in ("perturbed_edge(0.45)", "sphere_edge", "product_cone(1.3)"):
        spec = builtin_scene(name).spec
        rng = np.random.default_rng(11)
        for _ in range(3):
            q = _edge_point(spec, rng)
            m0 = fiber_norm(spec, q.y, q.z, q.zeta)
            assert abs(_symbol(spec, q)) < 1e-12 * q.tau ** 2
            lo, hi = boundary_maximal_interval(spec, q)
            for frac in (0.2, 0.65, 0.92):
                for s in (frac * hi, frac * lo):
                    qs = _boundary_flow(spec, q, s)
                    ms = fiber_norm(spec, qs.y, qs.z, qs.zeta)
                    assert ms == pytest.approx(m0, rel=1e-9)
                    assert abs(_symbol(spec, qs)) < 1e-8 * qs.tau ** 2


def test_maximal_interval_sweeps_fiber_arc_pi():
    """m (hi - lo) = pi exactly, and the flow blows up at the ends."""
    for name in ("perturbed_edge(0.4)", "sphere_edge"):
        spec = builtin_scene(name).spec
        rng = np.random.default_rng(5)
        for _ in range(5):
            q = _edge_point(spec, rng)
            m = fiber_norm(spec, q.y, q.z, q.zeta)
            lo, hi = boundary_maximal_interval(spec, q)
            assert lo < 0.0 < hi
            assert m * (hi - lo) == pytest.approx(math.pi, abs=1e-12)
            eps = 1e-6 / m
            assert abs(_boundary_flow(spec, q, hi - eps).xi) > 1e5
            assert _boundary_flow(spec, q, lo + eps).xi < -1e5
            with pytest.raises(FlowEscapedError):
                _boundary_flow(spec, q, hi + 1e-9)
            with pytest.raises(FlowEscapedError):
                _boundary_flow(spec, q, lo - 1e-9)


def test_flow_end_positions_are_arc_pi_apart():
    """The two blowup ends of one boundary trajectory are partners."""
    spec = builtin_scene("perturbed_edge(0.45)").spec
    rng = np.random.default_rng(19)
    for _ in range(4):
        q = _edge_point(spec, rng)
        m = fiber_norm(spec, q.y, q.z, q.zeta)
        lo, hi = boundary_maximal_interval(spec, q)
        eps = 1e-8 / m
        z_in = _boundary_flow(spec, q, lo + eps).z
        z_out = _boundary_flow(spec, q, hi - eps).z
        res = is_geometrically_related(spec, q.y, z_in, z_out)
        assert res.related
        assert res.distance < 1e-6


def test_limit_map_invariant_on_each_side_of_closest_approach():
    """The limit map is constant along the flow on each side of the
    xi = 0 crossing, and the two sides' values are arc-pi partners."""
    for name in ("perturbed_edge(0.4)", "sphere_edge"):
        spec = builtin_scene(name).spec
        rng = np.random.default_rng(23)
        q = _edge_point(spec, rng)
        lo, hi = boundary_maximal_interval(spec, q)
        sides = {1: [], -1: []}
        for frac in (-0.85, -0.5, -0.15, 0.2, 0.55, 0.9):
            s = (hi if frac > 0 else -lo) * frac
            qs = _boundary_flow(spec, q, s)
            assert qs.xi != 0.0
            sides[1 if qs.xi > 0 else -1].append(fiber_limit_point(spec, qs))
        for group in sides.values():
            for z_s in group[1:]:
                delta = spec.fiber.coordinate_delta(z_s, group[0])
                assert float(np.max(np.abs(delta))) < 1e-9
        assert sides[1] and sides[-1]
        res = is_geometrically_related(spec, q.y, sides[-1][0], sides[1][0])
        assert res.related
        assert res.distance < 1e-6


def test_limit_map_closed_form_on_round_circle():
    """Constant circle fiber of radius rho: the limit point is
    z + sign(zeta) arctan(m / xi) / rho."""
    rho = 1.3
    spec = builtin_scene("product_cone(%r)" % rho).spec
    for z0, xi, zeta in ((0.4, 0.8, 0.5), (2.0, -0.6, 0.9),
                         (5.5, 0.0, -0.7), (1.0, 0.5, -0.3)):
        q = EdgePhasePoint(t=0.0, x=0.0, y=np.zeros(0), z=np.array([z0]),
                           tau=1.0, xi=xi, eta=np.zeros(0),
                           zeta=np.array([zeta]))
        m = abs(zeta) / rho
        arc = 0.5 * math.pi if xi == 0.0 else math.atan(m / xi)
        want = z0 + math.copysign(1.0, zeta) * arc / rho
        got = fiber_limit_point(spec, q)
        delta = spec.fiber.coordinate_delta(got, np.array([want]))
        assert abs(float(delta[0])) < 1e-12


def test_zero_fiber_momentum_branch():
    """m = 0: position frozen, scalars scale by 1/(1 - s xi), one-sided
    maximal interval."""
    spec = builtin_scene("product_edge(1, 1)").spec
    y, z = np.array([0.2]), np.array([1.0])
    q = EdgePhasePoint(t=0.5, x=0.0, y=y, z=z, tau=1.0, xi=0.8,
                       eta=np.array([0.6]), zeta=np.zeros(1))
    lo, hi = boundary_maximal_interval(spec, q)
    assert lo == -math.inf
    assert hi == pytest.approx(1.0 / 0.8)
    s = 0.5
    qs = _boundary_flow(spec, q, s)
    factor = 1.0 / (1.0 - 0.8 * s)
    np.testing.assert_array_equal(qs.z, z)
    np.testing.assert_array_equal(qs.zeta, np.zeros(1))
    assert qs.tau == pytest.approx(factor)
    assert qs.xi == pytest.approx(0.8 * factor)
    assert qs.eta[0] == pytest.approx(0.6 * factor)
    with pytest.raises(FlowEscapedError):
        _boundary_flow(spec, q, 1.3)
    np.testing.assert_array_equal(fiber_limit_point(spec, q), z)
    q_neg = EdgePhasePoint(t=0.0, x=0.0, y=y, z=z, tau=1.0, xi=-0.8,
                           eta=np.zeros(1), zeta=np.zeros(1))
    lo2, hi2 = boundary_maximal_interval(spec, q_neg)
    assert hi2 == math.inf and lo2 == pytest.approx(-1.25)
    q_rad = EdgePhasePoint(t=0.0, x=0.0, y=y, z=z, tau=1.0, xi=0.0,
                           eta=np.array([1.0]), zeta=np.zeros(1))
    assert boundary_maximal_interval(spec, q_rad) == (-math.inf, math.inf)
    with pytest.raises(ValueError):
        fiber_limit_point(spec, q_rad)


def test_flow_requires_boundary_point():
    spec = builtin_scene("product_cone(1.0)").spec
    q = EdgePhasePoint(t=0.0, x=0.1, y=np.zeros(0), z=np.zeros(1),
                       tau=1.0, xi=0.3, eta=np.zeros(0),
                       zeta=np.array([0.5]))
    with pytest.raises(ValueError):
        _boundary_flow(spec, q, 0.1)


def test_flow_constants_describe_the_orbit():
    spec = builtin_scene("perturbed_edge(0.2)").spec
    rng = np.random.default_rng(31)
    q = _edge_point(spec, rng)
    # tau = A sec(m s + C), eta = B sec(m s + C), xi = m tan(m s + C)
    m = fiber_norm(spec, q.y, q.z, q.zeta)
    C = math.atan2(q.xi, m)
    A, B = q.tau * math.cos(C), q.eta * math.cos(C)
    assert m > 0.0
    assert m * math.tan(C) == pytest.approx(q.xi)
    lo, hi = boundary_maximal_interval(spec, q)
    for s in (0.3 * lo, 0.45 * hi):
        qs = _boundary_flow(spec, q, s)
        phase = m * s + C
        assert qs.tau == pytest.approx(A / math.cos(phase), rel=1e-12)
        assert qs.xi == pytest.approx(m * math.tan(phase), rel=1e-12)
        np.testing.assert_allclose(qs.eta, B / math.cos(phase), rtol=1e-12)


def test_geometric_partners_on_round_circles():
    one = builtin_scene("product_cone(1.0)").spec
    pts = geometric_partners(one, np.zeros(0), np.array([0.3]))
    assert len(pts) == 1
    delta = one.fiber.coordinate_delta(pts[0], np.array([0.3 + math.pi]))
    assert abs(float(delta[0])) < 1e-9
    # radius 2: arc pi is a quarter turn less than half the circle,
    # so the two orientations give two distinct partners
    two = make_metric_spec(0, 1, k=[["4"]],
                           fiber="circle(%r)" % (2.0 * math.pi))
    pts = geometric_partners(two, np.zeros(0), np.array([0.3]))
    assert len(pts) == 2
    got = sorted(float(p[0]) for p in pts)
    want = sorted([0.3 + math.pi / 2, 0.3 - math.pi / 2 + 2.0 * math.pi])
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-9)


def test_geometric_partners_sphere_antipode():
    """On the round two-sphere fiber every arc-pi geodesic ends at the
    antipode, so the whole direction grid dedups to one point."""
    spec = builtin_scene("sphere_edge").spec
    y = np.array([0.0])
    z_bar = np.array([1.1, 0.7])
    pts = geometric_partners(spec, y, z_bar, n_directions=16)
    assert len(pts) == 1
    anti = np.array([math.pi - 1.1, 0.7 + math.pi])
    delta = spec.fiber.coordinate_delta(pts[0], anti)
    assert float(np.max(np.abs(delta))) < 1e-6


def _pairwise_loop_partners(spec, y, z_bar):
    """Reference deduplication: keep each wrapped end point that is not
    within DEDUP_TOL of a kept one, compared one pair at a time."""
    out = []
    directions = _direction_grid(spec.f, 2 if spec.f == 1 else 64)
    for z_end in boundary._geodesic_ends(spec, y, z_bar, directions,
                                         math.pi):
        if np.isnan(z_end).any():
            continue
        z_end = spec.fiber.wrap(z_end)
        if not any(np.max(np.abs(spec.fiber.coordinate_delta(z_end, seen)))
                   < boundary.DEDUP_TOL for seen in out):
            out.append(z_end)
    return out


@pytest.mark.parametrize("name, y, z_bar", [
    ("product_edge(1, 2)", [0.1], [0.3, 1.1]),
    ("product_edge(1, 3)", [0.1], [0.3, 1.1, 2.0]),
    ("product_edge(2, 2)", [0.1, 0.2], [0.3, 1.1]),
    ("sphere_edge", [0.0], [1.2, 0.4]),
    ("product_cone(2.0)", [], [0.7]),
])
def test_partner_dedup_matches_the_pairwise_loop(name, y, z_bar):
    """One pairwise closeness matrix keeps the same partners, in the same
    order and bit for bit, as comparing each end point with every kept
    one."""
    spec = builtin_scene(name).spec
    y, z_bar = np.array(y, float), np.array(z_bar, float)
    got = geometric_partners(spec, y, z_bar)
    want = _pairwise_loop_partners(spec, y, z_bar)
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_related_matches_quadrature_on_perturbed_circle():
    """f = 1 membership agrees with the arc-length quadrature oracle."""
    a = 0.4
    spec = builtin_scene("perturbed_edge(%r)" % a).spec
    y = np.array([0.1])

    def arc_from(z1, z2):
        # integral of 1 + a sin(z) from z1 to z2
        return (z2 - z1) + a * (math.cos(z1) - math.cos(z2))

    rng = np.random.default_rng(41)
    for _ in range(6):
        z1 = float(rng.uniform(0.0, 2.0 * math.pi))
        fwd = brentq(lambda zz: arc_from(z1, zz) - math.pi,
                     z1, z1 + 2.0 * math.pi)
        bwd = brentq(lambda zz: arc_from(zz, z1) - math.pi,
                     z1 - 2.0 * math.pi, z1)
        for partner in (fwd, bwd):
            z2 = spec.fiber.wrap(np.array([partner]))
            res = is_geometrically_related(spec, y, np.array([z1]), z2)
            assert res.related
            assert res.distance < 1e-9
            back = is_geometrically_related(spec, y, z2, np.array([z1]))
            assert back.related
        off = spec.fiber.wrap(np.array([fwd + 0.05]))
        res = is_geometrically_related(spec, y, np.array([z1]), off)
        assert not res.related
        assert res.distance > 0.01


def test_related_search_on_sphere(monkeypatch):
    """From a coarse 12-direction grid the refinement still finds the
    antipode, and measures a near miss."""
    monkeypatch.setattr(boundary, "RELATED_GRID", 12)
    spec = builtin_scene("sphere_edge").spec
    y = np.array([0.0])
    z1 = np.array([1.3, 0.4])
    anti = np.array([math.pi - 1.3, 0.4 + math.pi])
    res = is_geometrically_related(spec, y, z1, anti)
    assert res.related
    near_miss = np.array([math.pi - 1.3 + 0.05, 0.4 + math.pi])
    res2 = is_geometrically_related(spec, y, z1, near_miss)
    assert not res2.related
    assert res2.distance == pytest.approx(0.05, rel=0.2)


def test_unit_covector_rejects_zero_direction_and_indefinite_metric():
    """A zero direction is a caller error; a fiber metric that is not
    positive at the event point, indefinite or singular there, is a typed
    DegenerateMetricError, also from the partner search, never a math
    domain error."""
    none = np.zeros(0)

    def kzz(spec, z):
        ev = spec.evaluator()
        return ev.edge_matrix(0.0, none, z)[ev.sz, ev.sz]

    flat = make_metric_spec(0, 1, k=[["1"]], fiber="chart",
                            z_box=[(-0.5, 0.5)])
    z = np.array([0.0])
    with pytest.raises(ValueError):
        fiber_unit_covector(kzz(flat, z), z, np.array([0.0]))
    indefinite = make_metric_spec(0, 2, k=[["1", "0"], ["0", "z1 - 1"]],
                                  fiber="chart")
    z = np.array([0.5, 0.0])
    with pytest.raises(DegenerateMetricError):
        fiber_unit_covector(kzz(indefinite, z), z, np.array([0.0, 1.0]))
    with pytest.raises(DegenerateMetricError):
        geometric_partners(indefinite, none, z, n_directions=8)
    singular = make_metric_spec(0, 1, k=[["z1"]], fiber="chart",
                                z_box=[(-0.5, 0.5)])
    with pytest.raises(DegenerateMetricError, match="fiber metric"):
        geometric_partners(singular, none, np.array([0.0]))


def test_overflowing_fiber_norm_is_typed_and_silent():
    """k = z1 at z1 = 1e-310: the pivot is not zero, but zeta / z1
    overflows.  The fiber limit map raises IntegrationDivergedError, with
    no floating-point warning on the way, rather than return z itself."""
    none = np.zeros(0)
    spec = make_metric_spec(0, 1, k=[["z1"]], fiber="chart")
    q = EdgePhasePoint(t=0.0, x=0.0, y=none, z=np.array([1e-310]), tau=1.0,
                       xi=0.5, eta=none, zeta=np.array([1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationDivergedError):
            fiber_limit_point(spec, q)


def test_overflowing_fiber_cometric_is_a_typed_error():
    """k = z1 on the chart z1 in [-0.5, 0.5] at z1 = 1e-310: kzz is
    finite and not singular, but its inverse overflows.  The cometric,
    the fiber norm, the maximal interval and the boundary flow raise
    DegenerateMetricError naming the fiber metric, with no floating-point
    warning on the way, instead of returning inf, an interval (-0, 0)
    or a FlowEscapedError."""
    none = np.zeros(0)
    spec = make_metric_spec(0, 1, k=[["z1"]], fiber="chart",
                            z_box=[(-0.5, 0.5)])
    q = EdgePhasePoint(t=0.0, x=0.0, y=none, z=np.array([1e-310]), tau=1.0,
                       xi=0.5, eta=none, zeta=np.array([1.0]))
    calls = [lambda: spec.evaluator().fiber_cometric(q.y, q.z),
             lambda: fiber_norm(spec, q.y, q.z, q.zeta),
             lambda: boundary_maximal_interval(spec, q),
             lambda: _boundary_flow(spec, q, 0.1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DegenerateMetricError,
                               match="fiber metric not invertible"):
                call()


def test_geodesic_point_respects_variable_speed():
    """On the perturbed circle the endpoint matches quadrature, for
    either direction and either sign of the arc."""
    a = 0.35
    spec = builtin_scene("perturbed_edge(%r)" % a).spec
    y = np.array([0.0])
    z1 = 0.9
    for direction, arc in ((1.0, math.pi), (-1.0, math.pi), (1.0, -1.0),
                           (-2.0, -1.0)):
        signed = math.copysign(1.0, direction) * arc
        want = brentq(lambda zz: (zz - z1) + a * (math.cos(z1) - math.cos(zz))
                      - signed, z1 - 2.0 * math.pi, z1 + 2.0 * math.pi)
        got = fiber_geodesic_point(spec, y, np.array([z1]),
                                   np.array([direction]), arc)
        delta = spec.fiber.coordinate_delta(got, np.array([want]))
        assert abs(float(delta[0])) < 1e-9


def _oracle_block(matrix, y, z, var=None):
    """An x = 0 block of coefficient ASTs at (y, z), or its partial in
    var, by the tree-walking evaluator."""
    return np.array([[ex.evaluate(node if var is None else ex.diff(node, var),
                                  0.0, y, z) for node in row]
                     for row in matrix])


def _oracle_kzz(spec, y, z, var=None):
    return _oracle_block(spec.k, y, z, var)


def _oracle_cogeodesic(block, names, q0, p0, arc):
    """(q, p) after parameter arc along one cogeodesic of the cometric
    block(q)^{-1}, whose partials are block(q, name), solved on its own."""
    d = len(names)

    def rhs(s, state):
        q, p = state[:d], state[d:]
        w = np.linalg.solve(block(q), p)
        return np.concatenate((w, [0.5 * w @ block(q, name) @ w
                                   for name in names]))

    state0 = np.concatenate((q0, p0))
    if arc == 0.0:
        return state0[:d], state0[d:]
    sol = solve_ivp(rhs, (0.0, arc), state0, method="DOP853", rtol=1e-13,
                    atol=1e-15)
    return sol.y[:d, -1], sol.y[d:, -1]


def _oracle_shot(spec, y, z0, zeta0, arc):
    """(z, zeta) after parameter arc along one fiber cogeodesic at y."""
    return _oracle_cogeodesic(functools.partial(_oracle_kzz, spec, y),
                              ["z%d" % (a + 1) for a in range(spec.f)],
                              z0, zeta0, arc)


def _oracle_unit_covector(spec, y, z, w):
    kzz = _oracle_kzz(spec, y, z)
    return kzz @ w / math.sqrt(w @ kzz @ w)


@pytest.mark.parametrize("name, y, z_bar, n", [
    ("sphere_edge", [0.0], [1.2, 0.4], 64),
    ("radius_two_circle", [], [0.3], 2),
    ("perturbed_edge(0.3)", [0.1], [0.7], 2),
    ("product_edge(1, 2)", [0.2], [0.3, 1.0], 64),
])
def test_batched_shot_matches_single_geodesics(name, y, z_bar, n):
    """Every lane of one batched shot lands where an independent solve of
    its cogeodesic lands, and the partner search finds as many points as
    those solves."""
    if name == "radius_two_circle":
        spec = make_metric_spec(0, 1, k=[["4"]],
                                fiber="circle(%r)" % (2.0 * math.pi))
    else:
        spec = builtin_scene(name).spec
    y, z_bar = np.array(y), np.array(z_bar)
    zetas = [_oracle_unit_covector(spec, y, z_bar, d)
             for d in _direction_grid(spec.f, n)]
    ev = spec.evaluator()
    batched = _shoot(ev.fiber_cogeodesic, z_bar, zetas, np.full(n, math.pi),
                     fixed=(y,))[0]
    single = [_oracle_shot(spec, y, z_bar, zeta, math.pi)[0]
              for zeta in zetas]
    assert batched.shape == (n, spec.f)
    np.testing.assert_allclose(batched, single, rtol=0.0, atol=1e-9)
    serial_partners = []
    for z_end in single:
        z_end = spec.fiber.wrap(z_end)
        if not any(np.max(np.abs(spec.fiber.coordinate_delta(z_end, seen)))
                   < 1e-6 for seen in serial_partners):
            serial_partners.append(z_end)
    partners = geometric_partners(spec, y, z_bar, n_directions=n)
    assert len(partners) == len(serial_partners)


@pytest.mark.parametrize("name", ["perturbed_edge(0.3)", "sphere_edge",
                                  "coupled"])
def test_shot_lanes_keep_their_own_start_and_arc(name):
    """Lanes with their own y, start point, covector and signed arc (zero
    and negative included) each match an independent solve, in z and
    zeta, at the end and half way, the half-way points as lanes of half
    the arc."""
    if name == "coupled":
        spec = make_metric_spec(
            1, 2, h=[["1"]], fiber="torus",
            k=[["1 + 0.3*cos(z1 - z2)", "0.1*sin(y1)"],
               ["0.1*sin(y1)", "2 + 0.2*y1*sin(z2)"]])
    else:
        spec = builtin_scene(name).spec
    rng = np.random.default_rng(4)
    arcs = np.array([0.0, -1.3, 2.1, -0.4, 0.7, math.pi])
    ys = rng.uniform(-0.5, 0.5, (len(arcs), spec.b))
    zs = rng.uniform(0.4, 2.6, (len(arcs), spec.f))
    zetas = rng.uniform(-1.0, 1.0, (len(arcs), spec.f))
    ev = spec.evaluator()
    got_z, got_zeta = _shoot(ev.fiber_cogeodesic, np.tile(zs, (2, 1)),
                             np.tile(zetas, (2, 1)),
                             np.concatenate((0.5 * arcs, arcs)),
                             fixed=(np.tile(ys, (2, 1)),))
    assert got_z.shape == got_zeta.shape == (2 * len(arcs), spec.f)
    got_z = got_z.reshape(2, len(arcs), spec.f)
    got_zeta = got_zeta.reshape(2, len(arcs), spec.f)
    for k, arc in enumerate(arcs):
        for i, frac in enumerate((0.5, 1.0)):
            z, zeta = _oracle_shot(spec, ys[k], zs[k], zetas[k], frac * arc)
            np.testing.assert_allclose(got_z[i, k], z, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(got_zeta[i, k], zeta, rtol=0.0,
                                       atol=1e-9)
    np.testing.assert_array_equal(got_z[:, 0], zs[[0, 0]])


def test_base_shot_lanes_keep_their_own_start_and_arc():
    """On a curved base block, lanes of one shot with their own start,
    covector and signed arc (zero and negative included) each match an
    independent solve, in y and eta, at the end and half way, the
    half-way points as lanes of half the arc."""
    spec = make_metric_spec(2, 1, h=[["1", "0"], ["0", "sin(y1)^2"]],
                            k=[["1"]], fiber="circle(%r)" % (2.0 * math.pi))
    ev = spec.evaluator()
    # h varies along y1 alone
    assert [any(ex.diff(node, name) != ex.Num(0.0) for row in spec.h
                for node in row) for name in ("y1", "y2")] == [True, False]
    rng = np.random.default_rng(6)
    arcs = np.array([0.0, -0.9, 1.4, -0.3, 0.6, 1.1])
    ys = np.column_stack((rng.uniform(1.0, 2.1, len(arcs)),
                          rng.uniform(-1.0, 1.0, len(arcs))))
    etas = np.column_stack((rng.uniform(-0.5, 0.5, len(arcs)),
                            rng.choice((-1.0, 1.0), len(arcs))
                            * rng.uniform(0.3, 0.6, len(arcs))))
    got_y, got_eta = _shoot(ev.base_cogeodesic, np.tile(ys, (2, 1)),
                            np.tile(etas, (2, 1)),
                            np.concatenate((0.5 * arcs, arcs)))
    assert got_y.shape == got_eta.shape == (2 * len(arcs), 2)
    got_y, got_eta = got_y.reshape(2, len(arcs), 2), got_eta.reshape(
        2, len(arcs), 2)

    def h(y, var=None):
        return _oracle_block(spec.h, y, [], var)

    for k, arc in enumerate(arcs):
        for i, frac in enumerate((0.5, 1.0)):
            y, eta = _oracle_cogeodesic(h, ["y1", "y2"], ys[k], etas[k],
                                        frac * arc)
            np.testing.assert_allclose(got_y[i, k], y, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(got_eta[i, k], eta, rtol=0.0,
                                       atol=1e-9)
    np.testing.assert_array_equal(got_y[:, 0], ys[[0, 0]])
    np.testing.assert_array_equal(got_eta[:, 0], etas[[0, 0]])


def test_cogeodesic_flow_samples_both_signs():
    """Unsorted samples on both sides of s = 0, with unequal reach, each
    match an independent solve to that parameter."""
    spec = builtin_scene("perturbed_edge(0.3)").spec
    y, z0, zeta0 = np.array([0.1]), np.array([0.7]), np.array([0.8])
    s = np.array([0.4, -1.1, 2.0, 0.0, -0.3, 0.9])
    zs, zetas = fiber_cogeodesic_flow(spec, y, z0, zeta0, s)
    for k, sk in enumerate(s):
        z, zeta = _oracle_shot(spec, y, z0, zeta0, sk)
        np.testing.assert_allclose(zs[k], z, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(zetas[k], zeta, rtol=0.0, atol=1e-9)


def test_batched_shot_raises_typed_errors():
    """A singular fiber metric or a lane that overflows raises the typed
    errors, never LinAlgError or NaN, from the shooter and from each
    reader of it."""
    none = np.zeros(0)
    singular = make_metric_spec(0, 2, k=[["1", "0"], ["0", "z1"]],
                                fiber="chart")
    at_zero = EdgePhasePoint(t=0.0, x=0.0, y=none, z=np.zeros(2), tau=1.0,
                             xi=0.5, eta=none, zeta=np.array([0.0, 1.0]))
    ev = singular.evaluator()
    with pytest.raises(DegenerateMetricError):
        _shoot(ev.fiber_cogeodesic, np.zeros(2), np.eye(2), np.ones(2),
               fixed=(none,))
    with pytest.raises(DegenerateMetricError):
        fiber_cogeodesic_flow(singular, none, np.zeros(2),
                              np.array([1.0, 0.0]), [-0.5, 0.5])
    with pytest.raises(DegenerateMetricError):
        fiber_limit_point(singular, at_zero)
    with pytest.raises(DegenerateMetricError):
        _boundary_flow(singular, at_zero, 0.1)
    growing = make_metric_spec(0, 1, k=[["exp(z1)"]], fiber="chart")
    ev = growing.evaluator()
    for bad in (1e200, math.nan):
        with pytest.raises(IntegrationDivergedError):
            _shoot(ev.fiber_cogeodesic, np.zeros(1),
                   np.array([[1.0], [-1.0], [bad]]), np.ones(3), fixed=(none,))
        with pytest.raises(IntegrationDivergedError):
            fiber_cogeodesic_flow(growing, none, np.zeros(1),
                                  np.array([bad]), [1.0])
    with pytest.raises(IntegrationDivergedError):
        fiber_limit_point(growing, EdgePhasePoint(
            t=0.0, x=0.0, y=none, z=np.zeros(1), tau=1.0, xi=0.5, eta=none,
            zeta=np.array([math.nan])))
    # A unit geodesic of k = exp(-2 z1) reaches z1 = +inf after arc 1:
    # the limit-point lane stops at the chart's edge z1 = pi on the way,
    # the boundary flow (never stopped at the chart) diverges.
    escaping = make_metric_spec(0, 1, k=[["exp(-2*z1)"]], fiber="chart")
    q = EdgePhasePoint(t=0.0, x=0.0, y=none, z=np.zeros(1), tau=1.0,
                       xi=0.0, eta=none, zeta=np.array([1.0]))
    with pytest.raises(FlowEscapedError, match="fiber chart"):
        fiber_limit_point(escaping, q)
    with pytest.raises(IntegrationDivergedError):
        _boundary_flow(escaping, q, 1.4)


@pytest.mark.parametrize("name", ["circle", "chart"])
def test_arc_length_shot_matches_the_cogeodesic_shot(name):
    """On f = 1 the arc-length shot lands where _shoot lands, lane by
    lane, to 1e-9, with the same NaN rows: on a circle whose k depends on
    both y and z, and on the chart k = exp(-2 z1), whose unit geodesic
    from z0 reaches z1 = pi after arc exp(-z0) - exp(-pi), so the lanes
    with longer arcs stop (z0 = 4 starts off the chart, unwatched)."""
    if name == "circle":
        spec = make_metric_spec(
            1, 1, h=[["1"]], k=[["(1 + 0.2*y1^2 + 0.3*sin(z1))^2"]],
            fiber="circle(%r)" % (2.0 * math.pi))
        rng = np.random.default_rng(8)
        arcs = np.array([0.0, -1.3, 2.1, -0.4, 0.7, math.pi, -math.pi, 1e-7])
        ys = rng.uniform(-1.0, 1.0, (len(arcs), 1))
        zs = rng.uniform(0.0, 2.0 * math.pi, len(arcs))
    else:
        spec = make_metric_spec(0, 1, k=[["exp(-2*z1)"]], fiber="chart")
        arcs = np.array([1.2, 0.5, -2.0, 2.0, 3.0, -0.01, 0.0])
        zs = np.array([0.0, 0.0, 0.0, -1.0, -1.0, 4.0, 1.0])
        ys = np.zeros((len(arcs), 0))
    ev = spec.evaluator()
    got = np.array(boundary._shoot_arc(spec, ys, zs, arcs))
    units = np.array([[1.0 / ev.fiber_speed(y, z)] for y, z
                      in zip(ys.tolist(), zs.tolist())])
    want = _shoot(ev.fiber_cogeodesic, zs[:, None], units, arcs,
                  fixed=(ys,), box=boundary._chart_box(spec))[0][:, 0]
    assert np.array_equal(np.isnan(got), np.isnan(want))
    if name == "chart":
        assert np.isnan(got).tolist() == [1, 0, 0, 0, 1, 0, 0]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


def _sphere_geodesic(z0, zeta0):
    """DOP853 solve of the round-sphere cogeodesic, K = diag(1, 1/sin^2
    z1), to arc pi, with its dense output."""
    def rhs(_, state):
        z1, _, p1, p2 = state
        s1 = math.sin(z1)
        return [p1, p2 / s1 ** 2, p2 ** 2 * math.cos(z1) / s1 ** 3, 0.0]
    return solve_ivp(rhs, (0.0, math.pi), [*z0, *zeta0], method="DOP853",
                     rtol=1e-13, atol=1e-15, dense_output=True)


def test_chart_stop_drops_exactly_the_lanes_that_leave_the_chart():
    """sphere_edge's chart is z1 in [0.4, pi - 0.4].  Of the 64 arc-pi
    geodesics of a partner search from z = (1.2, 0.4), the shot drops
    (NaN) exactly those whose oracle solve leaves that band, and every
    other lane lands on its oracle endpoint."""
    spec = builtin_scene("sphere_edge").spec
    y, z_bar = np.array([0.0]), np.array([1.2, 0.4])
    lo, hi = spec.z_box[0]
    directions = _direction_grid(2, 64)
    ends = boundary._geodesic_ends(spec, y, z_bar, directions, math.pi)
    leaves = []
    for direction, end in zip(directions, ends):
        sol = _sphere_geodesic(z_bar, _oracle_unit_covector(spec, y, z_bar,
                                                            direction))
        z1 = sol.sol(np.linspace(0.0, math.pi, 4001))[0]
        margin = min(z1.min() - lo, hi - z1.max())
        assert abs(margin) > 1e-3      # no lane grazes the chart's edge
        leaves.append(margin < 0.0)
        if margin > 0.0:
            np.testing.assert_allclose(end, sol.y[:2, -1], rtol=0.0,
                                       atol=1e-9)
    assert 0 < sum(leaves) < len(directions)
    assert np.array_equal(np.isnan(ends).any(axis=1), leaves)
    assert np.array_equal(np.isnan(ends).all(axis=1), leaves)


def test_partner_search_on_a_chart_too_short_for_arc_pi():
    """On the chart z1 in [-0.5, 0.5] with k = 1 both arc-pi geodesics
    from 0 leave the chart: no partner, and the relatedness test ends
    unrelated at distance inf.  Lanes from a point off the chart (where
    an interior ray on a fiber with a periodic coordinate may end) are
    not stopped."""
    spec = make_metric_spec(0, 1, k=[["1"]], fiber="chart",
                            z_box=[(-0.5, 0.5)])
    none = np.zeros(0)
    assert geometric_partners(spec, none, np.zeros(1)) == []
    res = is_geometrically_related(spec, none, np.zeros(1), np.array([0.3]))
    assert not res.related
    assert res.distance == math.inf
    off = geometric_partners(spec, none, np.array([0.7]))
    np.testing.assert_allclose(sorted(z[0] for z in off),
                               [0.7 - math.pi, 0.7 + math.pi], atol=1e-12)


def test_limit_point_off_the_chart_is_a_typed_error():
    """A fiber limit point beyond the chart's edge raises FlowEscapedError
    naming the chart, also when it is one row of a batch whose other rows
    stay on the chart; no NaN comes back."""
    spec = builtin_scene("sphere_edge").spec
    y = np.zeros((2, 1))
    z = np.array([[0.5, 1.0], [1.5, 1.0]])
    zeta = np.array([[-1.0, 0.0], [0.3, 0.2]])
    xi = np.array([0.0, 1.0])
    ok = boundary.fiber_limit_points(spec, y[1:], z[1:], xi[1:], zeta[1:])
    assert np.all(np.isfinite(ok))
    with pytest.raises(FlowEscapedError, match=r"z1 in \[0.4, 2.74159\]"):
        boundary.fiber_limit_points(spec, y, z, xi, zeta)
    with pytest.raises(FlowEscapedError, match="fiber chart"):
        fiber_limit_point(spec, EdgePhasePoint(
            t=0.0, x=0.0, y=y[0], z=z[0], tau=1.0, xi=xi[0], eta=np.zeros(1),
            zeta=zeta[0]))
    with pytest.raises(FlowEscapedError, match="fiber chart"):
        fiber_geodesic_point(spec, y[0], z[0], np.array([-1.0, 0.0]), 1.0)


def test_chart_stop_keeps_each_lane_on_its_own_y():
    """With one y row per lane and a k that reads y, the lanes that go on
    after a chart stop keep their own rows: a limit point off the chart
    raises FlowEscapedError, and a surviving lane lands where its own
    one-lane shot does."""
    spec = make_metric_spec(1, 2, h=[["1"]],
                            k=[["1 + 0.1*y1^2", "0"], ["0", "1"]],
                            fiber="chart", z_box=[[-1, 1], [-1, 1]])
    y = np.array([[0.1], [0.2]])
    z = np.array([[0.9, 0.0], [0.0, 0.0]])
    with pytest.raises(FlowEscapedError, match="fiber chart"):
        boundary.fiber_limit_points(spec, y, z, np.array([0.5, 0.5]),
                                    np.eye(2))
    ev, box = spec.evaluator(), boundary._chart_box(spec)
    zeta, arc = np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5])
    q, p = _shoot(ev.fiber_cogeodesic, z, zeta, arc, fixed=(y,), box=box)
    assert np.isnan(q[0]).all() and np.isnan(p[0]).all()
    alone = _shoot(ev.fiber_cogeodesic, z[1:], zeta[1:], arc[1:],
                   fixed=(y[1:],), box=box)
    np.testing.assert_allclose(q[1], alone[0][0], rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(p[1], alone[1][0], rtol=0.0, atol=1e-9)


def test_related_search_on_three_torus():
    """Flat T^3: z1 + (0, 0, pi) is at geodesic distance exactly pi, out
    of the (z1, z2) plane; a point 0.05 beyond it is not."""
    spec = builtin_scene("product_edge(1, 3)").spec
    y = np.array([0.1])
    z1 = np.array([0.4, 1.1, 2.0])
    res = is_geometrically_related(spec, y, z1,
                                   spec.fiber.wrap(z1 + [0.0, 0.0, math.pi]))
    assert res.related
    assert res.distance < 1e-6
    assert abs(res.direction[2]) == pytest.approx(1.0, abs=1e-6)
    near_miss = spec.fiber.wrap(z1 + [0.0, 0.0, math.pi + 0.05])
    res2 = is_geometrically_related(spec, y, z1, near_miss)
    assert not res2.related
    assert res2.distance == pytest.approx(0.05, rel=0.2)
