"""Accuracy oracles for the x = 0 shooter that do not depend on the
integrator: fibers whose arc-pi partners are known in closed form."""

import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from edgeray.boundary import geometric_partners, is_geometrically_related
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
