"""Edge metric assembly: blocks, derivatives, validation, topology."""

import math

import numpy as np
import pytest

from edgeray.errors import ConfigError, DegenerateMetricError, DimensionError
from edgeray.boundary import fiber_norm
from edgeray.metric import (EdgeMetricSpec, make_metric_spec,
                            metric_spec_values, parse_metric_spec,
                            transverse_momentum, validate_normal_form,
                            wave_symbol)
from edgeray.phase import EdgePhasePoint
from edgeray.scenes import builtin_scene


def _curvy_spec():
    """A b=1, f=2 metric exercising every block."""
    return make_metric_spec(
        b=1, f=2,
        h=[["1 + 0.1*x^2"]],
        hprime=[["0.2*sin(z1)"]],
        k=[["1 + 0.3*cos(z1 - z2)", "0.1*sin(y1)"],
           ["0.1*sin(y1)", "2 + 0.2*x*cos(z2)"]],
        kyy=[["0.05*cos(z2)"]],
        kyz=[["0.04*sin(z1)", "0.03*cos(y1)"]],
        fiber="torus",
        y_box=[(-1.0, 1.0)],
    )


def test_edge_matrix_structure():
    spec = _curvy_spec()
    ev = spec.evaluator()
    y, z = np.array([0.3]), np.array([0.7, 1.1])
    G = ev.edge_matrix(0.0, y, z)
    # at the edge the dx row is exactly (1, 0, ..) and cross terms vanish
    assert G[0, 0] == 1.0
    assert np.all(G[0, 1:] == 0.0)
    assert np.all(G[1:, 0] == 0.0)
    assert np.all(G[1, 2:] == 0.0)                 # x * kyz at x = 0
    assert G[1, 1] == pytest.approx(1.0)           # h(0) only
    # symmetry holds off the edge too
    G = ev.edge_matrix(0.4, y, z)
    assert np.max(np.abs(G - G.T)) < 1e-15


def test_edge_matrix_derivs_match_finite_differences():
    spec = _curvy_spec()
    ev = spec.evaluator()
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = float(rng.uniform(0.05, 0.8))
        y = rng.uniform(-0.8, 0.8, 1)
        z = rng.uniform(0.0, 2 * math.pi, 2)
        dG = ev.edge_matrix_derivs(x, y, z)
        h = 1e-6
        for v in range(ev.nv):
            def at(t):
                xx, yy, zz = x, y.copy(), z.copy()
                if v == 0:
                    xx = x + t
                elif v <= spec.b:
                    yy[v - 1] += t
                else:
                    zz[v - 1 - spec.b] += t
                return ev.edge_matrix(xx, yy, zz)
            fd = (at(h) - at(-h)) / (2 * h)
            assert np.max(np.abs(dG[v] - fd)) < 5e-9


def test_dual_matrix_inverse_and_degeneracy():
    spec = _curvy_spec()
    ev = spec.evaluator()
    y, z = np.array([0.1]), np.array([0.2, 0.5])
    G = ev.edge_matrix(0.3, y, z)
    Gi = ev.dual_matrix(0.3, y, z)
    assert np.max(np.abs(G @ Gi - np.eye(ev.nv))) < 1e-12
    bad = make_metric_spec(b=0, f=1, k=[["x^2"]], fiber="chart",
                           z_box=[(-1.0, 1.0)])
    with pytest.raises(DegenerateMetricError):
        bad.evaluator().dual_matrix(0.0, np.zeros(0), np.array([0.5]))


def test_fiber_topology_wrap_and_delta():
    spec = builtin_scene("product_cone(1.0)").spec
    fib = spec.fiber
    assert fib.kind == "circle"
    assert fib.wrap(np.array([2 * math.pi + 0.25]))[0] == pytest.approx(0.25)
    d = fib.coordinate_delta(np.array([0.1]), np.array([2 * math.pi - 0.1]))
    assert d[0] == pytest.approx(0.2)
    chart = make_metric_spec(b=0, f=1, k=[["1"]], fiber="chart",
                             z_box=[(-2.0, 2.0)]).fiber
    assert chart.coordinate_delta(np.array([1.5]),
                                  np.array([-1.5]))[0] == pytest.approx(3.0)


def test_make_metric_spec_validation():
    with pytest.raises(DimensionError):
        make_metric_spec(b=0, f=1, k=[["1", "0"]], fiber="circle(6.28)")
    with pytest.raises(ConfigError):
        make_metric_spec(b=0, f=1, k=[["1"]], fiber="moebius")
    with pytest.raises(DimensionError):
        make_metric_spec(b=0, f=2, k=[["1", "0"], ["0", "1"]],
                         fiber="circle(6.28)")
    with pytest.raises(ConfigError):
        # asymmetric fiber block
        make_metric_spec(b=0, f=2, k=[["1", "x"], ["0", "1"]], fiber="torus")


def test_metric_spec_parse_serialize_roundtrip():
    spec = _curvy_spec()
    values = metric_spec_values(spec)
    text = "\n".join("%s = %s" % (key, _fmt(val))
                     for key, val in values.items())
    spec2 = parse_metric_spec(text)
    assert isinstance(spec2, EdgeMetricSpec)
    values2 = metric_spec_values(spec2)
    assert values == values2
    ev, ev2 = spec.evaluator(), spec2.evaluator()
    y, z = np.array([0.2]), np.array([0.4, 1.3])
    assert np.max(np.abs(ev.edge_matrix(0.3, y, z)
                         - ev2.edge_matrix(0.3, y, z))) < 1e-15


def _fmt(val):
    from edgeray._config import format_value
    return format_value(val)


def test_validate_normal_form_on_builtins():
    for name in ("product_cone(1.0)", "product_edge(2,2)", "blowup_curve_r3",
                 "perturbed_edge(0.4)", "sphere_edge"):
        report = validate_normal_form(builtin_scene(name).spec, seed=1)
        assert report.passed, (name, report.failures)
        assert report.min_fiber_eigenvalue > 0.0
        assert report.dx_row_clean


def test_transverse_momentum_solves_characteristic():
    spec = _curvy_spec()
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = float(rng.uniform(0.0, 0.7))
        y = rng.uniform(-0.8, 0.8, 1)
        z = rng.uniform(0.0, 2 * math.pi, 2)
        tau = float(rng.uniform(0.8, 2.0))
        eta = rng.uniform(-0.3, 0.3, 1)
        zeta = rng.uniform(-0.3, 0.3, 2)
        xi = transverse_momentum(spec, x, y, z, tau, eta, zeta, 1)
        q = EdgePhasePoint(t=0.0, x=x, y=y, z=z, tau=tau, xi=xi,
                           eta=eta, zeta=zeta)
        assert abs(wave_symbol(spec, q)) < 1e-12
    with pytest.raises(ValueError):
        transverse_momentum(spec, 0.0, np.array([0.0]), np.array([0.0, 0.0]),
                            0.1, np.array([5.0]), np.array([0.0, 0.0]), 1)


def test_dual_metric_frame_blocks():
    spec = _curvy_spec()
    ev = spec.evaluator()
    Ginv = ev.dual_matrix(0.25, np.array([0.1]), np.array([0.3, 0.9]))
    assert Ginv[0, 0] == pytest.approx(1.0)
    assert np.all(np.abs(Ginv[0, 1:]) < 1e-14)
    assert Ginv[ev.sy, ev.sy].shape == (1, 1)
    assert Ginv[ev.sz, ev.sz].shape == (2, 2)


def test_fiber_cometric_rejects_non_finite_fiber_metric():
    """k = 1/z1 is infinite at z1 = 0: a typed error, not |zeta|_K = 0."""
    spec = make_metric_spec(b=0, f=1, k=[["1/z1"]], fiber="chart",
                            z_box=[(-1.0, 1.0)])
    ev = spec.evaluator()
    with np.errstate(divide="ignore"), pytest.raises(DegenerateMetricError):
        ev.fiber_cometric(np.zeros(0), np.array([0.0]))
    with np.errstate(divide="ignore"), pytest.raises(DegenerateMetricError):
        fiber_norm(spec, np.zeros(0), np.array([0.0]), np.array([1.0]))
    K = ev.fiber_cometric(np.zeros(0), np.array([0.5]))
    assert np.array_equal(K, np.linalg.inv(ev.kzz.value(
        0.0, np.zeros(0), np.array([0.5]))))
