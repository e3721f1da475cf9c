"""Accuracy oracles for the x = 0 shooter that do not depend on the
integrator: fibers whose arc-pi partners are known in closed form."""

import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.optimize import brentq

from edgeray.boundary import (fiber_limit_points, geometric_partners,
                              is_geometrically_related)
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


def _arc_root(a, z, arc):
    """z' with Phi(z') - Phi(z) = arc, Phi(z) = z - a cos z the arc length
    of the perturbed_edge(a) fiber metric (1 + a sin z)^2 dz^2."""
    def gap(w):
        return (w - a * math.cos(w)) - (z - a * math.cos(z)) - arc
    reach = abs(arc) / (1.0 - abs(a)) + 1e-6
    return brentq(gap, z - reach, z + reach, xtol=1e-15, rtol=1e-15)


def _limit_arc(m, xi):
    return math.atan(m / xi) if xi else 0.5 * math.pi


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
