"""Accuracy oracles that do not depend on the integrator: fibers whose
arc-pi partners are known in closed form, and rays of the flat cone
product_cone(rho), which develop into straight lines of the plane."""

import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.optimize import brentq

from edgeray.boundary import (_direction_grid, _geodesic_ends,
                              boundary_maximal_interval,
                              fiber_cogeodesic_flow, fiber_limit_points,
                              geometric_partners, is_geometrically_related)
from edgeray.gbb import GEOMETRIC_ONLY, SAME_FIBER, trace_gbb
from edgeray.hamiltonian import integrate_interior
from edgeray.metric import make_metric_spec
from edgeray.phase import EdgePhasePoint
from edgeray.scenes import builtin_scene

SPHERE = builtin_scene("sphere_edge").spec


def _gap(spec, a, b):
    return float(np.max(np.abs(spec.fiber.coordinate_delta(a, b))))


@hypothesis.settings(max_examples=8, deadline=None)
@hypothesis.given(y=st.floats(-2.0, 2.0),
                  z1=st.floats(1.2, math.pi - 1.2),
                  z2=st.floats(0.0, 2.0 * math.pi))
def test_sphere_partner_is_the_antipode(y, z1, z2):
    """Every arc-pi geodesic of the round sphere_edge fiber ends at the
    antipode (pi - z1, z2 + pi).  With z1 in [1.2, pi - 1.2] the lanes
    that reach it stay on the polar chart."""
    pts = geometric_partners(SPHERE, [y], [z1, z2])
    assert len(pts) == 1
    assert _gap(SPHERE, pts[0], np.array([math.pi - z1, z2 + math.pi])) < 1e-9


def _cone_partners(rho, z_bar):
    """z_bar +- pi/rho on the circle of period 2 pi, merged when they
    coincide (1/rho an integer)."""
    spec = builtin_scene("product_cone(%r)" % rho).spec
    want = [spec.fiber.wrap(np.array([z_bar + sign * math.pi / rho]))
            for sign in (1, -1)]
    if _gap(spec, *want) < 1e-6:
        want = want[:1]
    return spec, want


def _check_cone(rho, z_bar):
    spec, want = _cone_partners(rho, z_bar)
    got = geometric_partners(spec, [], [z_bar])
    assert len(got) == len(want)
    for w in want:
        assert min(_gap(spec, g, w) for g in got) < 1e-9
        res = is_geometrically_related(spec, [], [z_bar], w)
        assert res.related and res.distance < 1e-9
    off = spec.fiber.wrap(np.array([z_bar + math.pi / rho + 0.01]))
    if min(_gap(spec, off, w) for w in want) > 5e-3:
        assert not is_geometrically_related(spec, [], [z_bar], off).related


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(rho=st.floats(0.2, 3.0),
                  z_bar=st.floats(0.0, 2.0 * math.pi))
def test_flat_cone_partners_are_pi_over_rho_away(rho, z_bar):
    """On product_cone(rho) the fiber metric is rho^2 dz^2: arc pi is
    pi / rho of z either way round the circle."""
    hypothesis.assume(
        abs(math.remainder(2.0 * math.pi / rho, 2.0 * math.pi)) > 1e-4)
    _check_cone(rho, z_bar)


@pytest.mark.parametrize("rho", [1.0, 0.5, 1.0 / 3.0])
@pytest.mark.parametrize("z_bar", [0.0, 0.3, 4.0])
def test_flat_cone_partners_merge_when_one_over_rho_is_an_integer(rho,
                                                                  z_bar):
    """With 1/rho an integer both orientations end at one point: z_bar +
    pi for odd 1/rho, z_bar itself for even 1/rho."""
    spec, want = _cone_partners(rho, z_bar)
    assert len(want) == 1
    assert _gap(spec, want[0], np.array(
        [z_bar + (math.pi if round(1.0 / rho) % 2 else 0.0)])) < 1e-12
    _check_cone(rho, z_bar)


def _cone_ray(rho, x0, z0, tau, zeta):
    """Incoming point of product_cone(rho) on the characteristic set p =
    tau^2 - xi^2 - zeta^2 / rho^2 = 0, sgn(xi) = sgn(tau)."""
    xi = math.copysign(math.sqrt(tau * tau - (zeta / rho) ** 2), tau)
    return EdgePhasePoint(t=0.0, x=x0, y=np.zeros(0), z=np.array([z0]),
                          tau=tau, xi=xi, eta=np.zeros(0),
                          zeta=np.array([zeta]))


_CONE_RAYS = dict(rho=st.floats(0.2, 3.0), x0=st.floats(0.1, 1.0),
                  z0=st.floats(0.0, 2.0 * math.pi),
                  tau=st.floats(0.5, 2.0), sgn_tau=st.sampled_from([1, -1]))


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(ratio=st.floats(0.01, 0.95),
                  sgn_zeta=st.sampled_from([1, -1]), **_CONE_RAYS)
def test_flat_cone_ray_turns_at_its_closed_form_height(rho, x0, z0, tau,
                                                       sgn_tau, ratio,
                                                       sgn_zeta):
    """tau/x and zeta are conserved, so an interior ray with zeta != 0
    turns where xi = 0, at x = x0 |zeta| / (rho |tau|): the closest
    approach of a straight line in the developed cone, reached within
    travel x0.  Read off the dense output at the root of xi."""
    spec = builtin_scene("product_cone(%r)" % rho).spec
    zeta = sgn_zeta * ratio * rho * tau
    tau *= sgn_tau
    segment = integrate_interior(spec, _cone_ray(rho, x0, z0, tau, zeta),
                                 -sgn_tau, s_max=2.0 * x0)
    xi = segment.states[:, 4]    # rows (t, x, z, tau, xi, zeta)
    i = int(np.flatnonzero(np.sign(xi) != sgn_tau)[0])
    s_turn = brentq(lambda s: segment.dense(s)[4], segment.s[i - 1],
                    segment.s[i], xtol=1e-15)
    assert segment.dense(s_turn)[1] == pytest.approx(
        x0 * abs(zeta) / (rho * abs(tau)), rel=0.0, abs=1e-10)


@hypothesis.settings(max_examples=15, deadline=None)
@hypothesis.given(**_CONE_RAYS)
def test_flat_cone_radial_child_runs_straight_out(rho, x0, z0, tau,
                                                  sgn_tau):
    """A radial ray (zeta = 0) reaches the tip at t_bar = x0, and its
    same_fiber child leaves along x = |t - t_bar| with z fixed at the
    event's fiber point."""
    spec = builtin_scene("product_cone(%r)" % rho).spec
    path = trace_gbb(spec, _cone_ray(rho, x0, z0, sgn_tau * tau, 0.0),
                     (0.0, 2.0 * x0), SAME_FIBER)
    assert path.branch_ids() == ["0", "0.0"]
    event = path.branches["0"].event
    assert event.t_bar == pytest.approx(x0, rel=0.0, abs=1e-12)
    child = path.branches["0.0"].segment
    np.testing.assert_allclose(child.x, np.abs(child.t - event.t_bar),
                               rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(child.states[:, 2], event.z_bar[0])


@hypothesis.settings(max_examples=15, deadline=None)
@hypothesis.given(**_CONE_RAYS)
@hypothesis.example(rho=1.0, x0=0.5, z0=0.3, tau=1.0, sgn_tau=1)
@hypothesis.example(rho=0.5, x0=0.5, z0=4.0, tau=1.0, sgn_tau=-1)
@hypothesis.example(rho=1.0 / 3.0, x0=0.5, z0=0.0, tau=1.0, sgn_tau=1)
def test_flat_cone_geometric_children_are_pi_over_rho_away(rho, x0, z0,
                                                           tau, sgn_tau):
    """Under the geometric policy the children of a radial ray sit at
    z_bar +- pi/rho mod 2 pi, one child when 1/rho is an integer, and
    each runs radially out at its own fiber point."""
    gap = abs(math.remainder(2.0 * math.pi / rho, 2.0 * math.pi))
    hypothesis.assume(gap < 1e-12 or gap > 1e-4)
    spec, want = _cone_partners(rho, z0)
    path = trace_gbb(spec, _cone_ray(rho, x0, z0, sgn_tau * tau, 0.0),
                     (0.0, 2.0 * x0), GEOMETRIC_ONLY)
    children = path.branches["0"].children
    assert len(children) == len(want) == (1 if gap < 1e-12 else 2)
    for w in want:
        assert min(_gap(spec, path.branches[c].fiber_point, w)
                   for c in children) < 1e-9
    for c in children:
        child = path.branches[c]
        np.testing.assert_array_equal(child.segment.states[:, 2],
                                      child.fiber_point[0])


def _arc_root(a, z, arc):
    """z' with Phi(z') - Phi(z) = arc, Phi(z) = z - a cos z the arc length
    of the perturbed_edge(a) fiber metric (1 + a sin z)^2 dz^2."""
    def gap(w):
        return (w - a * math.cos(w)) - (z - a * math.cos(z)) - arc
    reach = abs(arc) / (1.0 - abs(a)) + 1e-6
    return brentq(gap, z - reach, z + reach, xtol=1e-15, rtol=1e-15)


def _limit_arc(m, xi):
    return math.atan(m / xi) if xi else 0.5 * math.pi


def _floats(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n)


_LIMIT_ROWS = st.lists(st.tuples(st.floats(0.0, 2.0 * math.pi),
                                 st.floats(-3.0, 3.0), st.floats(-2.0, 2.0)),
                       min_size=1, max_size=7)


@hypothesis.settings(max_examples=25, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@hypothesis.given(a=st.floats(-0.45, 0.45), rows=_LIMIT_ROWS)
@hypothesis.example(a=0.3, rows=[(1.0, 0.5, 5e-324)])
def test_perturbed_limit_points_follow_the_arc_length(a, rows):
    """On perturbed_edge(a) a unit fiber geodesic is arc length Phi, so
    the limit point of (z, zeta, xi) is the root of Phi(z') - Phi(z) =
    sign(zeta) arctan(m / xi), m = |zeta| / (1 + a sin z): every row of
    one batch, both signs of zeta and xi, arcs up to pi/2."""
    hypothesis.assume(all(zeta or xi for _, zeta, xi in rows))
    spec = builtin_scene("perturbed_edge(%r)" % a).spec
    z, zeta, xi = (np.array(column, float) for column in zip(*rows))
    got = fiber_limit_points(spec, np.zeros((len(rows), 1)), z[:, None], xi,
                             zeta[:, None])
    want = [_arc_root(a, zk, np.sign(zetak) * _limit_arc(
        abs(zetak) / (1.0 + a * math.sin(zk)), xik))
        for zk, zetak, xik in rows]
    np.testing.assert_allclose(got[:, 0], want, rtol=0.0, atol=1e-9)


@hypothesis.settings(max_examples=15, deadline=None)
@hypothesis.given(a=st.floats(-0.45, 0.45), y=st.floats(-1.0, 1.0),
                  z_bar=st.floats(0.0, 2.0 * math.pi))
def test_perturbed_partner_is_arc_pi_away(a, y, z_bar):
    """Both arc-pi geodesics of perturbed_edge(a) end where Phi(z') =
    Phi(z_bar) + pi, one point of the circle since Phi gains 2 pi per
    turn; the relatedness test finds it and rejects a point 0.01 on."""
    spec = builtin_scene("perturbed_edge(%r)" % a).spec
    want = spec.fiber.wrap(np.array([_arc_root(a, z_bar, math.pi)]))
    got = geometric_partners(spec, [y], [z_bar])
    assert len(got) == 1
    assert _gap(spec, got[0], want) < 1e-9
    res = is_geometrically_related(spec, [y], [z_bar], want)
    assert res.related and res.distance < 1e-9
    assert not is_geometrically_related(spec, [y], [z_bar],
                                        want + 0.01).related


@hypothesis.settings(max_examples=15, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@hypothesis.given(rho=st.floats(0.2, 3.0), rows=_LIMIT_ROWS)
@hypothesis.example(rho=1.0, rows=[(1.0, -0.5, -5e-324)])
def test_flat_cone_limit_points_are_arc_over_rho_away(rho, rows):
    """On product_cone(rho) the limit point is z + sign(zeta) l / rho,
    with l = arctan(m / xi) and m = |zeta| / rho."""
    hypothesis.assume(all(zeta or xi for _, zeta, xi in rows))
    spec = builtin_scene("product_cone(%r)" % rho).spec
    z, zeta, xi = (np.array(column, float) for column in zip(*rows))
    got = fiber_limit_points(spec, np.zeros((len(rows), 0)), z[:, None], xi,
                             zeta[:, None])
    want = [zk + np.sign(zetak) * _limit_arc(abs(zetak) / rho, xik) / rho
            for zk, zetak, xik in rows]
    np.testing.assert_allclose(got[:, 0], want, rtol=0.0, atol=1e-9)


def test_flat_chart_drops_exactly_the_lanes_whose_line_leaves_the_box():
    """With k = I on the chart z_box = [[-4, 4], [-2.5, 2.5]] the arc-pi
    geodesics from (0.3, -0.2) are straight: the shot drops (NaN)
    exactly the lanes whose endpoint z_bar + pi d lies off the box, the
    nearest of them 5.4e-3 from its edge, and every other lane ends on
    that endpoint."""
    spec = make_metric_spec(0, 2, k=[["1", "0"], ["0", "1"]], fiber="chart",
                            z_box=[[-4, 4], [-2.5, 2.5]])
    z_bar = np.array([0.3, -0.2])
    directions = np.array(_direction_grid(2, 64))
    want = z_bar + math.pi * directions
    lo, hi = np.array(spec.z_box, float).T
    margin = np.minimum(want - lo, hi - want).min(axis=1)
    assert np.abs(margin).min() > 5e-3
    off = margin < 0.0
    assert off.sum() == 26
    got = _geodesic_ends(spec, np.zeros(0), z_bar, directions, math.pi)
    assert np.array_equal(np.isnan(got).any(axis=1), off)
    assert np.isnan(got[off]).all()
    np.testing.assert_allclose(got[~off], want[~off], rtol=0.0, atol=1e-12)


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(rows=st.lists(st.tuples(
    st.floats(-1.0, 1.0), _floats(0.0, 2.0 * math.pi, 3),
    _floats(-2.0, 2.0, 3), st.floats(-3.0, 3.0)), min_size=1, max_size=5))
def test_flat_three_torus_limit_points_are_straight(rows):
    """On product_edge(1, 3), k = I on the torus T^3, the limit point of
    (y, z, zeta, xi) is z + l K zeta / m modulo the periods, with
    m = |zeta|_K and l = arctan(m / xi): every row of one batch."""
    hypothesis.assume(all(max(map(abs, zeta)) > 1e-3 for _, _, zeta, _
                          in rows))
    spec = builtin_scene("product_edge(1, 3)").spec
    y, z, zeta, xi = (np.array(column, float) for column in zip(*rows))
    got = fiber_limit_points(spec, y[:, None], z, xi, zeta)
    kinv = np.linalg.inv(np.eye(3))
    for (_, zk, zetak, xik), end in zip(rows, got):
        m = math.sqrt(zetak @ kinv @ zetak)
        want = zk + _limit_arc(m, xik) * (kinv @ zetak) / m
        assert _gap(spec, end, want) < 1e-9


@pytest.mark.parametrize("f", [2, 3])
def test_flat_torus_partners_are_pi_away(f):
    """On product_edge(1, f), k = I on the torus T^f, the arc-pi set of
    z_bar is the flat sphere of radius pi around it: every partner lies
    at flat distance pi from z_bar modulo the period lattice (each
    coordinate of the shortest wrap at most pi), one of them is related
    to z_bar, and the point 0.01 further out along the same line is
    not, its defect 0.01."""
    spec = builtin_scene("product_edge(1, %d)" % f).spec
    y, z_bar = np.array([0.3]), np.linspace(0.4, 5.9, f)
    partners = geometric_partners(spec, y, z_bar)
    assert len(partners) == 64
    for end in partners:
        gap = spec.fiber.coordinate_delta(end, z_bar)
        assert abs(np.linalg.norm(gap) - math.pi) < 1e-9
    end = partners[5]
    res = is_geometrically_related(spec, y, z_bar, end)
    assert res.related and res.distance < 1e-9
    gap = spec.fiber.coordinate_delta(end, z_bar)
    off = spec.fiber.wrap(end + 0.01 * gap / math.pi)
    res = is_geometrically_related(spec, y, z_bar, off)
    assert not res.related and abs(res.distance - 0.01) < 1e-6


@pytest.mark.parametrize("f", [2, 3])
def test_flat_torus_boundary_interval_sweeps_arc_pi(f):
    """Criterion 4 on product_edge(1, f): over the maximal interval of
    the boundary flow through q, the fiber cogeodesic flow runs the
    straight line z + s zeta (k = I) with zeta fixed, and its length,
    |zeta| times the interval's width, is pi."""
    spec = builtin_scene("product_edge(1, %d)" % f).spec
    rng = np.random.default_rng(7)
    for _ in range(3):
        zeta = rng.normal(size=f)
        q = EdgePhasePoint(t=0.0, x=0.0, y=np.array([0.2]),
                           z=rng.uniform(0.0, 2.0 * math.pi, f), tau=1.0,
                           xi=float(rng.normal()), eta=np.array([0.5]),
                           zeta=zeta)
        lo, hi = boundary_maximal_interval(spec, q)
        ss = np.linspace(lo, hi, 9)
        zs, zetas = fiber_cogeodesic_flow(spec, q.y, q.z, zeta, ss)
        np.testing.assert_allclose(zetas, np.tile(zeta, (9, 1)), rtol=0.0,
                                   atol=1e-12)
        np.testing.assert_allclose(zs, q.z + ss[:, None] * zeta, rtol=0.0,
                                   atol=1e-9)
        arc = np.linalg.norm(np.diff(zs, axis=0), axis=1).sum()
        assert abs(arc - math.pi) < 1e-9
