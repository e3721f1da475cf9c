"""Edge metric assembly: blocks, derivatives, validation, topology."""

import math

import numpy as np
import pytest

from edgeray import expr as ex
from edgeray.errors import ConfigError, DegenerateMetricError, DimensionError
from edgeray.boundary import fiber_norm
from edgeray.metric import (EdgeMetricSpec, make_metric_spec,
                            transverse_momentum, validate_normal_form,
                            wave_symbol)
from edgeray.phase import EdgePhasePoint
from edgeray.scenes import builtin_scene, parse_scene


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


def _coupled_spec():
    """A b=2, f=2 metric whose h', kyy and kyz depend on x, so every
    product-rule term of dG/dx is nonzero."""
    return make_metric_spec(
        b=2, f=2,
        h=[["1 + 0.1*x*y1^2", "0.05*y2"], ["0.05*y2", "1.5 + 0.1*cos(y1)"]],
        hprime=[["0.2*sin(z1) + x", "0.1*y1*z2"],
                ["0.1*y1*z2", "0.3*cos(z2)*x^2"]],
        k=[["1 + 0.3*cos(z1 - z2)", "0.1*sin(y1)*x"],
           ["0.1*sin(y1)*x", "2 + 0.2*x*cos(z2)"]],
        kyy=[["0.05*cos(z2) - x", "0.02*x*y2"], ["0.02*x*y2", "0.04*y1*y2"]],
        kyz=[["0.04*sin(z1) + x^2", "0.03*cos(y1)"],
             ["0.02*x*z1", "0.05*y2*sin(z2)"]],
        fiber="torus",
    )


# Oracle: the per-block assembly of G and dG, entry by entry through the
# tree-walking evaluator.

def _block(matrix, x, y, z, var=None):
    return np.array([[ex.evaluate(node if var is None else ex.diff(node, var),
                                  x, y, z) for node in row] for row in matrix])


def _oracle_edge_matrix(spec, x, y, z):
    b, nv = spec.b, 1 + spec.b + spec.f
    sy, sz = slice(1, 1 + b), slice(1 + b, nv)
    G = np.zeros((nv, nv))
    G[0, 0] = 1.0
    if b:
        G[sy, sy] = (_block(spec.h, x, y, z) + x * _block(spec.hprime, x, y, z)
                     + x * x * _block(spec.kyy, x, y, z))
        cross = x * _block(spec.kyz, x, y, z)
        G[sy, sz] = cross
        G[sz, sy] = cross.T
    G[sz, sz] = _block(spec.k, x, y, z)
    return G


def _oracle_edge_matrix_derivs(spec, x, y, z):
    b, nv = spec.b, 1 + spec.b + spec.f
    sy, sz = slice(1, 1 + b), slice(1 + b, nv)
    names = (["x"] + ["y%d" % (i + 1) for i in range(b)]
             + ["z%d" % (a + 1) for a in range(spec.f)])
    dG = np.zeros((nv, nv, nv))
    for v, var in enumerate(names):
        dG[v][sz, sz] = _block(spec.k, x, y, z, var)
        if not b:
            continue
        dyy = (_block(spec.h, x, y, z, var)
               + x * _block(spec.hprime, x, y, z, var)
               + x * x * _block(spec.kyy, x, y, z, var))
        dyz = x * _block(spec.kyz, x, y, z, var)
        if v == 0:  # extra product-rule terms from the explicit x factors
            dyy = (dyy + _block(spec.hprime, x, y, z)
                   + 2.0 * x * _block(spec.kyy, x, y, z))
            dyz = dyz + _block(spec.kyz, x, y, z)
        dG[v][sy, sy] = dyy
        dG[v][sy, sz] = dyz
        dG[v][sz, sy] = dyz.T
    return dG


CUSTOM_SPECS = {
    "coupled b=2 f=2": _coupled_spec,
    "curvy b=1 f=2": _curvy_spec,
    "b=0 f=2": lambda: make_metric_spec(
        b=0, f=2, k=[["1 + x*z1^2", "0.1*x"], ["0.1*x", "2 + sin(z2)"]],
        fiber="torus"),
}


BUILTINS = ["product_cone(1.3)", "product_edge(1, 1)", "product_edge(2, 3)",
            "blowup_curve_r3", "perturbed_edge(0.3)", "sphere_edge"]


def _spec(name):
    return (CUSTOM_SPECS[name]() if name in CUSTOM_SPECS
            else builtin_scene(name).spec)


@pytest.mark.parametrize("name", BUILTINS + sorted(CUSTOM_SPECS))
def test_kernel_is_bitwise_the_per_block_assembly(name):
    spec = _spec(name)
    ev = spec.evaluator()
    rng = np.random.default_rng(7)
    for k in range(20):
        x = 0.0 if k < 4 else float(rng.uniform(0.0, 0.9))
        y = rng.uniform(-0.8, 0.8, spec.b)
        z = rng.uniform(0.2, 2.9, spec.f)
        G, dG = ev.kernel(x, y, z)
        assert G.tobytes() == _oracle_edge_matrix(spec, x, y, z).tobytes()
        assert dG.tobytes() == _oracle_edge_matrix_derivs(spec, x, y,
                                                          z).tobytes()
        assert ev.edge_matrix(x, y, z).tobytes() == G.tobytes()
        assert ev.edge_matrix_derivs(x, y, z).tobytes() == dG.tobytes()


@pytest.mark.parametrize("name", BUILTINS + sorted(CUSTOM_SPECS))
def test_fiber_function_matches_the_kernel(name):
    """ev.fiber is the kernel's x = 0 kzz block, at one point and on a
    lane axis, and the tree-walking partials of k along z (the cogeodesic
    oracle of test_fields) are the kernel's."""
    spec = _spec(name)
    ev = spec.evaluator()
    f = spec.f
    rng = np.random.default_rng(3)
    ys = rng.uniform(-0.8, 0.8, (5, spec.b))
    zs = rng.uniform(0.2, 2.9, (5, f))
    lanes = ev.fiber(ys, zs)
    assert lanes.shape == (5, f, f)
    for k in range(5):
        G, dG = ev.kernel(0.0, ys[k], zs[k])
        want = [dG[1 + spec.b + a][ev.sz, ev.sz] for a in range(f)]
        for kzz in (ev.fiber(ys[k], zs[k]), lanes[k]):
            np.testing.assert_allclose(kzz, G[ev.sz, ev.sz], rtol=1e-15,
                                       atol=0.0)
        full = [_block(spec.k, 0.0, ys[k], zs[k], "z%d" % (a + 1))
                for a in range(f)]
        np.testing.assert_allclose(full, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("name", BUILTINS + sorted(CUSTOM_SPECS))
def test_base_function_matches_the_kernel(name):
    """ev.base is the kernel's x = 0 base block h, at one point and on a
    lane axis, and base_cometric inverts it; the tree-walking partials of
    h along y are the kernel's."""
    spec = _spec(name)
    ev = spec.evaluator()
    b = spec.b
    rng = np.random.default_rng(5)
    ys = rng.uniform(-0.8, 0.8, (5, b))
    lanes = ev.base(ys)
    assert lanes.shape == (5, b, b)
    for k in range(5):
        z = np.zeros(spec.f)
        G, dG = ev.kernel(0.0, ys[k], z)
        want = dG[ev.sy, ev.sy, ev.sy]
        for h in (ev.base(ys[k]), lanes[k]):
            np.testing.assert_allclose(h, G[ev.sy, ev.sy], rtol=1e-15,
                                       atol=0.0)
        full = np.reshape([_block(spec.h, 0.0, ys[k], z, "y%d" % (i + 1))
                           for i in range(b)], (b, b, b))
        np.testing.assert_allclose(full, want, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(ev.base_cometric(ys[k]) @ h, np.eye(b),
                                   rtol=0.0, atol=1e-12)


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
    for spec in (_curvy_spec(), _coupled_spec()):
        ev = spec.evaluator()
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = float(rng.uniform(0.05, 0.8))
            y = rng.uniform(-0.8, 0.8, spec.b)
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


def test_custom_scene_metric_matches_make_metric_spec():
    """A custom scene's metric keys give the edge matrix of the same
    coefficients passed to make_metric_spec."""
    spec = _curvy_spec()
    scene = parse_scene("""
        b = 1; f = 2; fiber = torus
        h = [[1 + 0.1*x^2]]
        hprime = [[0.2*sin(z1)]]
        k = [[1 + 0.3*cos(z1 - z2), 0.1*sin(y1)], [0.1*sin(y1), 2 + 0.2*x*cos(z2)]]
        kyy = [[0.05*cos(z2)]]
        kyz = [[0.04*sin(z1), 0.03*cos(y1)]]
    """)
    spec2 = scene.spec
    assert isinstance(spec2, EdgeMetricSpec)
    assert spec2 == spec
    ev, ev2 = spec.evaluator(), spec2.evaluator()
    for x, y, z in ((0.3, [0.2], [0.4, 1.3]), (0.0, [-0.7], [2.0, 5.1])):
        y, z = np.array(y), np.array(z)
        np.testing.assert_array_equal(ev2.edge_matrix(x, y, z),
                                      ev.edge_matrix(x, y, z))


def test_validate_normal_form_on_builtins():
    for name in ("product_cone(1.0)", "product_edge(2,2)", "blowup_curve_r3",
                 "perturbed_edge(0.4)", "sphere_edge"):
        report = validate_normal_form(builtin_scene(name).spec, seed=1)
        assert report.passed, (name, report.failures)
        assert report.min_fiber_eigenvalue > 0.0


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
    assert np.array_equal(K, np.linalg.inv(_block(
        spec.k, 0.0, np.zeros(0), np.array([0.5]))))
