"""Phase-space gauges and boundary classification."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgeray.errors import NumericalError
from edgeray.phase import (BoundaryClass, CospherePoint, EdgePhasePoint,
                           classify_boundary, normalize_cosphere,
                           split_state)
from edgeray.metric import transverse_momentum
from edgeray.scenes import builtin_scene


def _symbol(spec, q):
    """The wave symbol p at q, from the scalar Hamilton field."""
    return spec.evaluator().hamilton(q.to_vector().tolist(), 1.0)[0]


def _point(**kw):
    base = dict(t=0.0, x=0.2, y=np.zeros(1), z=np.array([0.5]),
                tau=2.0, xi=1.0, eta=np.array([0.4]), zeta=np.array([0.3]))
    base.update(kw)
    return EdgePhasePoint(**base)


def test_vector_roundtrip():
    q = _point()
    q2 = EdgePhasePoint.from_vector(q.to_vector(), 1, 1)
    assert np.array_equal(q.to_vector(), q2.to_vector())
    u = normalize_cosphere(q)
    u2 = CospherePoint.from_vector(u.to_vector(), 1, 1, u.sgn_tau)
    assert np.array_equal(u.to_vector(), u2.to_vector())


@given(b=st.integers(0, 3), f=st.integers(1, 3), rows=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_split_state_reads_the_vector_layout(b, f, rows, seed):
    """split_state of to_vector() gives the point's fields; on a stack of
    states it gives views equal to per-row from_vector."""
    rng = np.random.default_rng(seed)
    t, x, tau, xi = rng.normal(size=4)
    y, z, eta, zeta = (rng.normal(size=n) for n in (b, f, b, f))
    q = EdgePhasePoint(t=t, x=x, y=y, z=z, tau=tau, xi=xi, eta=eta,
                       zeta=zeta)
    parts = split_state(q.to_vector(), b, f)
    for part, value in zip(parts, (t, x, y, z, tau, xi, eta, zeta)):
        assert np.array_equal(part, value)
    states = rng.normal(size=(rows, 2 * (2 + b + f)))
    parts = split_state(states, b, f)
    assert all(np.shares_memory(part, states) for part in parts if part.size)
    for i in range(rows):
        p = EdgePhasePoint.from_vector(states[i], b, f)
        row = (p.t, p.x, p.y, p.z, p.tau, p.xi, p.eta, p.zeta)
        for part, value in zip(parts, row):
            assert np.array_equal(part[i], value)


def test_normalize_and_undo_gauge():
    q = _point(tau=-4.0)
    u = normalize_cosphere(q)
    assert u.sgn_tau == -1
    assert u.sigma == pytest.approx(0.25)
    assert u.xi_hat == pytest.approx(q.xi / 4.0)
    # sigma = 1/|tau| undoes the gauge
    assert u.sgn_tau / u.sigma == pytest.approx(q.tau)
    assert np.allclose(u.zeta_hat / u.sigma, q.zeta)
    with pytest.raises(ValueError):
        normalize_cosphere(_point(tau=0.0))


def test_scaling_is_fiber_dilation():
    q = _point()
    q2 = replace(q, tau=3.0 * q.tau, xi=3.0 * q.xi, eta=3.0 * q.eta,
                 zeta=3.0 * q.zeta)
    assert q2.tau == pytest.approx(3.0 * q.tau)
    assert q2.x == q.x
    # the unit gauge is scale invariant
    u, u2 = normalize_cosphere(q), normalize_cosphere(q2)
    assert np.allclose(u.to_vector()[5:], u2.to_vector()[5:])
    assert u2.sigma == pytest.approx(u.sigma / 3.0)


def test_classification_trichotomy():
    spec = builtin_scene("product_edge(1,1)").spec
    def probe(eta):
        return classify_boundary(spec, np.zeros(1), np.zeros(1),
                                 np.array([eta]))
    cls, margin = probe(0.3)
    assert cls is BoundaryClass.HYPERBOLIC and margin > 0
    cls, margin = probe(1.0)
    assert cls is BoundaryClass.GLANCING
    assert margin == pytest.approx(0.0, abs=1e-12)
    cls, margin = probe(1.2)
    assert cls is BoundaryClass.ELLIPTIC and margin < 0
    # a NaN margin is a numerical failure, not a glancing point
    with pytest.raises(NumericalError, match="margin nan is not finite"):
        probe(math.nan)


def test_margin_uses_base_cometric():
    # sphere base h = diag(1, sin^2 y1): |eta|^2 = eta1^2 + eta2^2/sin^2
    from edgeray.metric import make_metric_spec
    spec = make_metric_spec(b=2, f=1, h=[["1", "0"], ["0", "sin(y1)^2"]],
                            k=[["1"]], fiber="circle(6.283185307179586)",
                            y_box=[(0.3, 2.8), (-5.0, 5.0)])
    y = np.array([1.0, 0.0])
    s = math.sin(1.0)
    cls, margin = classify_boundary(spec, y, np.zeros(1),
                                    np.array([0.0, 0.5 * s]))
    assert margin == pytest.approx(1.0 - 0.25)


def test_characteristic_membership():
    spec = builtin_scene("perturbed_edge(0.3)").spec
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = float(rng.uniform(0.0, 0.6))
        y = rng.uniform(-0.5, 0.5, 1)
        z = rng.uniform(0.0, 2 * math.pi, 1)
        tau = float(rng.uniform(0.5, 2.0))
        eta = rng.uniform(-0.2, 0.2, 1)
        zeta = rng.uniform(-0.2, 0.2, 1)
        xi = transverse_momentum(spec, x, y, z, tau, eta, zeta, -1)
        q = EdgePhasePoint(t=0.0, x=x, y=y, z=z, tau=tau, xi=xi,
                           eta=eta, zeta=zeta)
        assert abs(_symbol(spec, q)) <= 1e-9 * q.tau ** 2
        assert abs(_symbol(spec, q)) / q.tau ** 2 < 1e-12
        off = _point(x=x, tau=3 * tau)
        assert not abs(_symbol(spec, off)) <= 1e-9 * off.tau ** 2
