"""Interior Hamiltonian flow: fields, gauges, conservation, launches."""

import math
from dataclasses import replace

import numpy as np
import pytest

from edgeray import expr as ex
from edgeray import hamiltonian
from edgeray.errors import (DegenerateMetricError, IntegrationDivergedError,
                            StepLimitError)
from edgeray.hamiltonian import (BoundaryData, FlowSettings, RayEnd,
                                 RaySegment, Termination, hamilton_field,
                                 integrate_interior, linearization_at_radial,
                                 rescaled_field, stable_manifold_launch)
from edgeray.metric import make_metric_spec, transverse_momentum
from edgeray.phase import CospherePoint, EdgePhasePoint, normalize_cosphere
from edgeray.scenes import builtin_scene


def _char_point(spec, rng, x_lo=0.1, x_hi=0.8):
    """Random characteristic-set point of the given spec."""
    b, f = spec.b, spec.f
    x = float(rng.uniform(x_lo, x_hi))
    y = np.array([rng.uniform(lo * 0.5, hi * 0.5) for lo, hi in spec.y_box])
    z = np.array([rng.uniform(lo + 0.1, hi - 0.1) for lo, hi in spec.z_box])
    tau = float(rng.uniform(0.6, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
    eta = rng.uniform(-0.25, 0.25, b) * abs(tau)
    zeta = rng.uniform(-0.25, 0.25, f) * abs(tau)
    sign = 1 if rng.uniform() < 0.5 else -1
    xi = transverse_momentum(spec, x, y, z, tau, eta, zeta, sign)
    return EdgePhasePoint(t=float(rng.uniform(-1, 1)), x=x, y=y, z=z,
                          tau=tau, xi=xi, eta=eta, zeta=zeta)


def _at_edge(matrix, q, var=None):
    """A coefficient block, or its partial in var, at (0, q.y, q.z)."""
    return np.array([[ex.evaluate(node if var is None else ex.diff(node, var),
                                  0.0, q.y, q.z) for node in row]
                     for row in matrix])


def _product_hamilton_field(spec, q):
    """Closed-form field for product metrics dx^2 + h(y) + x^2 k(y, z).

    An oracle for hamilton_field, valid only on specs without h', kyy,
    kyz terms and with x-independent blocks (the product_* scenes).
    """
    b, f = spec.b, spec.f
    h = _at_edge(spec.h, q) if b else np.zeros((0, 0))
    kzz = _at_edge(spec.k, q)
    H = np.linalg.inv(h) if b else h
    K = np.linalg.inv(kzz)
    Heta = H @ q.eta
    Kzeta = K @ q.zeta
    dy = np.empty(b)
    deta = np.empty(b)
    for i in range(b):
        dh = _at_edge(spec.h, q, "y%d" % (i + 1))
        dk = _at_edge(spec.k, q, "y%d" % (i + 1))
        dy[i] = q.x * Heta[i]
        deta[i] = (q.xi * q.eta[i]
                   + 0.5 * q.x * (float(Heta @ dh @ Heta)
                                  + float(Kzeta @ dk @ Kzeta)))
    dzeta = np.empty(f)
    for a in range(f):
        dk = _at_edge(spec.k, q, "z%d" % (a + 1))
        dzeta[a] = 0.5 * float(Kzeta @ dk @ Kzeta)
    return np.concatenate((
        [-q.tau * q.x, q.xi * q.x], dy, K @ q.zeta,
        [q.tau * q.xi, q.xi ** 2 + float(q.zeta @ Kzeta)], deta, dzeta))


def test_field_matches_product_closed_form():
    """The general field agrees with the product-metric closed form."""
    rng = np.random.default_rng(0)
    for name in ("product_cone(1.3)", "product_edge(1,1)",
                 "product_edge(2,2)"):
        spec = builtin_scene(name).spec
        for _ in range(25):
            q = _char_point(spec, rng)
            general = hamilton_field(spec, q)
            product = _product_hamilton_field(spec, q)
            scale = max(1.0, np.max(np.abs(general)))
            assert np.max(np.abs(general - product)) / scale < 1e-10, name


def test_rescaled_field_is_gauge_pushforward():
    """V = sigma * (push-forward of H): verified slot by slot off x = 0."""
    rng = np.random.default_rng(2)
    for name in ("product_edge(1,1)", "perturbed_edge(0.4)", "sphere_edge"):
        spec = builtin_scene(name).spec
        b, f = spec.b, spec.f
        for _ in range(20):
            q = _char_point(spec, rng)
            H = hamilton_field(spec, q)
            u = normalize_cosphere(q)
            V = rescaled_field(spec, u)
            itau = 2 + b + f
            abs_tau = abs(q.tau)
            w_xi = H[itau] / q.tau          # H_tau = tau * w_xi
            # position slots: V = H / |tau|
            assert np.allclose(V[:itau], H[:itau] / abs_tau,
                               rtol=1e-12, atol=1e-12)
            # scale slot: sigma' = -sigma * w_xi / |tau|
            assert V[itau] == pytest.approx(-u.sigma * w_xi / abs_tau,
                                            rel=1e-11, abs=1e-13)
            # unit covector slots: V = H/tau^2 - u_hat * w_xi/|tau|
            u_hat = u.to_vector()[itau + 1:]
            expect = H[itau + 1:] / q.tau ** 2 - u_hat * w_xi / abs_tau
            assert np.allclose(V[itau + 1:], expect, rtol=1e-10, atol=1e-12)


def test_rescaled_field_vanishes_at_radial_points():
    for name in ("product_cone(1.0)", "sphere_edge"):
        spec = builtin_scene(name).spec
        b, f = spec.b, spec.f
        y = np.array([0.5 * (lo + hi) for lo, hi in spec.y_box])
        z = np.array([0.5 * (lo + hi) for lo, hi in spec.z_box])
        for sgn in (1, -1):
            for xi_hat in (1.0, -1.0):
                q = CospherePoint(t=0.1, x=0.0, y=y, z=z, sgn_tau=sgn,
                                  xi_hat=xi_hat, eta_hat=np.zeros(b),
                                  zeta_hat=np.zeros(f), sigma=0.0)
                V = rescaled_field(spec, q)
                assert np.max(np.abs(V)) == 0.0


def test_field_homogeneity():
    """Position slots scale linearly, covector slots quadratically."""
    spec = builtin_scene("sphere_edge").spec
    q = _char_point(spec, np.random.default_rng(3))
    lam = 2.7
    H1 = hamilton_field(spec, q)
    H2 = hamilton_field(spec, replace(q, tau=lam * q.tau, xi=lam * q.xi,
                                      eta=lam * q.eta, zeta=lam * q.zeta))
    itau = 2 + spec.b + spec.f
    assert np.allclose(H2[:itau], lam * H1[:itau], rtol=1e-12)
    assert np.allclose(H2[itau:], lam * lam * H1[itau:], rtol=1e-12)


def test_integration_conserves_symbol_and_ratio():
    rng = np.random.default_rng(4)
    for name in ("perturbed_edge(0.45)", "sphere_edge"):
        spec = builtin_scene(name).spec
        for _ in range(5):
            q0 = _char_point(spec, rng, x_lo=0.3, x_hi=0.7)
            seg = integrate_interior(spec, q0, direction=-1, s_max=3.0)
            log = seg.conserved_log()
            assert np.max(np.abs(log["p_rel"])) < 1e-6
            ratio = log["tau_over_x"]
            assert np.max(np.abs(ratio - ratio[0])) / abs(ratio[0]) < 1e-6


def test_unit_time_parametrization():
    """|dt/ds| = 1 exactly along integrated segments."""
    spec = builtin_scene("perturbed_edge(0.3)").spec
    q0 = _char_point(spec, np.random.default_rng(5))
    seg = integrate_interior(spec, q0, direction=-1, s_max=2.0)
    dt = np.diff(seg.t)
    ds = np.diff(seg.s)
    assert np.max(np.abs(np.abs(dt) - ds)) < 1e-9 * max(1.0, seg.s[-1])


def test_time_reversal_retrace():
    """Flipping (t, tau) reverses trajectories to integrator accuracy."""
    rng = np.random.default_rng(6)
    spec = builtin_scene("perturbed_edge(0.4)").spec
    for _ in range(5):
        q0 = _char_point(spec, rng, x_lo=0.3, x_hi=0.6)
        seg = integrate_interior(spec, q0, direction=-1,
                                 settings=FlowSettings(x_stop=1e-12),
                                 s_max=0.5)
        assert seg.termination is Termination.TIME_LIMIT
        q1 = seg.point(-1)
        flipped = EdgePhasePoint(t=-q1.t, x=q1.x, y=q1.y, z=q1.z,
                                 tau=-q1.tau, xi=q1.xi, eta=q1.eta,
                                 zeta=q1.zeta)
        back = integrate_interior(spec, flipped, direction=1,
                                  settings=FlowSettings(x_stop=1e-12),
                                  s_max=seg.s[-1])
        q2 = back.point(-1)
        restored = np.concatenate(([-q2.t, q2.x], q2.y, q2.z,
                                   [-q2.tau, q2.xi], q2.eta, q2.zeta))
        err = np.max(np.abs(restored - q0.to_vector()))
        assert err < 1e-8, err


def test_boundary_approach_termination():
    spec = builtin_scene("product_cone(1.0)").spec
    q0 = EdgePhasePoint(t=0.0, x=0.9, y=np.zeros(0), z=np.array([0.0]),
                        tau=1.0, xi=1.0, eta=np.zeros(0),
                        zeta=np.array([0.0]))
    seg = integrate_interior(spec, q0, direction=-1)
    assert seg.termination is Termination.BOUNDARY_APPROACH
    assert seg.x[-1] == pytest.approx(FlowSettings().x_stop, rel=1e-9)
    # the flat radial ray moves at unit speed: x = 0.9 - s exactly
    assert np.max(np.abs(seg.x - (0.9 - seg.s))) < 1e-9


def test_singular_metric_is_a_typed_error():
    """k = z1^2 is singular at z1 = 0: the field and the conserved
    quantities raise DegenerateMetricError, not a bare LinAlgError."""
    spec = make_metric_spec(0, 1, k=[["z1^2"]], fiber="chart")
    q = EdgePhasePoint(t=0.0, x=0.5, y=np.zeros(0), z=np.array([0.0]),
                       tau=1.0, xi=0.6, eta=np.zeros(0), zeta=np.array([0.8]))
    with pytest.raises(DegenerateMetricError):
        hamilton_field(spec, q)
    segment = RaySegment(spec=spec, s=np.zeros(1),
                         states=q.to_vector()[None, :],
                         termination=Termination.TIME_LIMIT)
    with pytest.raises(DegenerateMetricError):
        segment.conserved_log()


def test_step_budget_is_enforced_while_integrating(monkeypatch):
    """The evaluation budget stops the integrator as it is passed."""
    calls = []
    spec = builtin_scene("perturbed_edge(0.3)").spec
    hamilton = spec.evaluator().hamilton

    def counted(vec, scale):
        calls.append(1)
        return hamilton(vec, scale)
    monkeypatch.setattr(spec.evaluator(), "hamilton", counted)
    monkeypatch.setattr(hamiltonian, "MAX_STEPS", 60)
    q0 = _char_point(spec, np.random.default_rng(5))
    with pytest.raises(StepLimitError):
        integrate_interior(spec, q0, direction=-1, s_max=2.0)
    assert 0 < len(calls) <= 61


def test_nan_characteristic_drift_is_a_typed_failure(monkeypatch):
    """A NaN |p|/tau^2 drift fails the P_DRIFT_MAX gate like a large one."""
    log = RaySegment.conserved_log

    def poisoned(self):
        out = log(self)
        out["p_rel"] = np.full_like(out["p_rel"], math.nan)
        return out
    monkeypatch.setattr(RaySegment, "conserved_log", poisoned)
    spec = builtin_scene("product_edge(1, 1)").spec
    q0 = _char_point(spec, np.random.default_rng(5))
    with pytest.raises(IntegrationDivergedError, match="drift"):
        integrate_interior(spec, q0, direction=-1, s_max=0.5)


def test_chart_exit_termination():
    spec = make_metric_spec(b=0, f=1, k=[["1"]], fiber="chart",
                            z_box=[(-0.5, 0.5)])
    q0 = EdgePhasePoint(t=0.0, x=0.4, y=np.zeros(0), z=np.array([0.0]),
                        tau=1.0,
                        xi=transverse_momentum(spec, 0.4, np.zeros(0),
                                               np.zeros(1), 1.0, np.zeros(0),
                                               np.array([0.9]), 1),
                        eta=np.zeros(0), zeta=np.array([0.9]))
    seg = integrate_interior(spec, q0, direction=-1, s_max=8.0)
    assert seg.termination is Termination.CHART_EXIT
    assert abs(seg.point(-1).z[0]) == pytest.approx(0.5, abs=1e-9)


def test_radial_linearization_spectrum():
    """Eigenvalues are {-xi_hat, 0, +xi_hat} with fixed multiplicities."""
    rng = np.random.default_rng(7)
    for name in ("product_cone(1.0)", "perturbed_edge(0.45)", "sphere_edge"):
        spec = builtin_scene(name).spec
        b, f = spec.b, spec.f
        for _ in range(4):
            y = np.array([rng.uniform(lo, hi) for lo, hi in spec.y_box])
            z = np.array([rng.uniform(lo, hi) for lo, hi in spec.z_box])
            sgn = 1 if rng.uniform() < 0.5 else -1
            if b:
                H = spec.evaluator().base_cometric(y, z)
                g = rng.normal(size=b)
                rho = float(rng.uniform(0.0, 0.9))
                eta = rho * g / math.sqrt(float(g @ H @ g))
                xi_hat = math.sqrt(1 - rho * rho)
            else:
                eta = np.zeros(0)
                xi_hat = 1.0
            if rng.uniform() < 0.5:
                xi_hat = -xi_hat
            q = CospherePoint(t=0.0, x=0.0, y=y, z=z, sgn_tau=sgn,
                              xi_hat=xi_hat, eta_hat=eta,
                              zeta_hat=np.zeros(f), sigma=0.0)
            res = linearization_at_radial(spec, q)
            assert res.max_residual < 1e-4, (name, res.eigenvalues)
            assert res.max_imag < 1e-6
            assert res.counts["-xi_hat"] == 1 + f
            assert res.counts["0"] == 2 * b + f + 2
            assert res.counts["+xi_hat"] == 1


def test_stable_manifold_launch_reproduces_data():
    """Launched seeds carry the requested boundary data to high order."""
    rng = np.random.default_rng(8)
    for name in ("product_edge(1,1)", "perturbed_edge(0.4)", "sphere_edge"):
        spec = builtin_scene(name).spec
        b, f = spec.b, spec.f
        for _ in range(5):
            y = np.array([rng.uniform(lo * 0.5, hi * 0.5)
                          for lo, hi in spec.y_box])
            z = np.array([rng.uniform(lo + 0.2, hi - 0.2)
                          for lo, hi in spec.z_box])
            if b:
                H = spec.evaluator().base_cometric(y, z)
                g = rng.normal(size=b)
                rho = float(rng.uniform(0.0, 0.7))
                eta = rho * g / math.sqrt(float(g @ H @ g))
                xi_mag = math.sqrt(1 - rho * rho)
            else:
                eta = np.zeros(0)
                xi_mag = 1.0
            data = BoundaryData(t_bar=float(rng.uniform(-0.5, 0.5)),
                                y_bar=y, z_bar=z, sgn_tau=1,
                                xi_hat=-xi_mag, eta_hat=eta)  # outgoing
            assert data.io is RayEnd.OUTGOING
            seed = stable_manifold_launch(spec, data)
            assert seed.x == pytest.approx(hamiltonian.EPS_LAUNCH)
            p = spec.evaluator().hamilton(seed.to_vector().tolist(), 1.0)[0]
            assert abs(p) < 1e-12
            from edgeray.gbb import verify_handoff
            defects = verify_handoff(spec, seed, data)
            assert defects["t"] < 1e-9
            assert defects["y"] < 1e-9
            assert defects["eta"] < 1e-9
            # |xi| is measured by Richardson extrapolation of the probe
            # ladder, whose own truncation floor sits near 1e-7
            assert defects["abs_xi"] < 5e-7
            assert defects["fiber"] < 1e-8


def test_launch_validates_direction():
    """Glancing data (xi_hat = 0) seed no transversal ray."""
    spec = builtin_scene("product_cone(1.0)").spec
    data = BoundaryData(t_bar=0.0, y_bar=np.zeros(0), z_bar=np.zeros(1),
                        sgn_tau=1, xi_hat=0.0, eta_hat=np.zeros(0))
    from edgeray.errors import LaunchFailedError
    with pytest.raises(LaunchFailedError, match="xi_hat = 0"):
        stable_manifold_launch(spec, data)


def test_launch_probe_off_the_chart_is_a_failed_launch(monkeypatch):
    """A Newton probe whose fiber limit point leaves the chart fails the
    launch, as a diverging probe does, instead of failing the trace."""
    from edgeray import gbb
    from edgeray.errors import FlowEscapedError, LaunchFailedError

    def off_chart(*args):
        raise FlowEscapedError("fiber limit point leaves the fiber chart")
    monkeypatch.setattr(gbb, "fiber_limit_points", off_chart)
    spec = builtin_scene("perturbed_edge(0.3)").spec   # a probing metric
    data = BoundaryData(t_bar=0.0, y_bar=np.zeros(1), z_bar=np.array([1.0]),
                        sgn_tau=1, xi_hat=-1.0, eta_hat=np.zeros(1))
    with pytest.raises(LaunchFailedError, match="seed probe failed: fiber"):
        stable_manifold_launch(spec, data)


def _custom_spec(b, k="1", **blocks):
    """b = 0 or 1 edge with a circle fiber; h defaults to [[1]]."""
    blocks.setdefault("h", [["1"]] if b else None)
    return make_metric_spec(b, 1, k=[[k]], fiber="circle(%r)" % (2 * math.pi),
                            **blocks)


def _skipping_specs(rng):
    cones = ["product_cone(%r)" % float(rho) for rho in rng.uniform(0.2, 3, 3)]
    return [builtin_scene(name).spec for name in cones + [
        "product_edge(1, 2)", "blowup_curve_r3", "sphere_edge"]] + [
        _custom_spec(0, k="(1 + 0.3*sin(z1))^2")]


def _probing_specs():
    return [builtin_scene("perturbed_edge(0.3)").spec,
            _custom_spec(1, h=[["1 + 0.5*y1^2"]]),
            _custom_spec(1, hprime=[["0.2"]]),
            _custom_spec(1, kyy=[["0.3"]]),
            _custom_spec(1, kyz=[["0.2"]])]


def _launch_data(spec, rng, sgn_tau, io_sign):
    """Unit-gauge edge data; io_sign = +1 incoming, -1 outgoing."""
    y = np.array([rng.uniform(lo + 0.1, hi - 0.1) for lo, hi in spec.y_box])
    z = np.array([rng.uniform(lo + 0.2, hi - 0.2) for lo, hi in spec.z_box])
    rho, eta = 0.0, np.zeros(spec.b)
    if spec.b:
        rho = float(rng.uniform(0.1, 0.85))
        g = rng.normal(size=spec.b)
        H = spec.evaluator().base_cometric(y, z)
        eta = rho * g / math.sqrt(float(g @ H @ g))
    return BoundaryData(t_bar=float(rng.uniform(-0.5, 0.5)), y_bar=y,
                        z_bar=z, sgn_tau=sgn_tau,
                        xi_hat=io_sign * sgn_tau * math.sqrt(1 - rho * rho),
                        eta_hat=eta)


def test_launch_probes_only_where_the_seed_is_inexact(monkeypatch):
    """Metrics with constant h and no h', kyy, kyz launch without a
    Newton probe; any of those terms brings the probe back."""
    from edgeray import gbb
    calls = []
    probe = gbb.backward_event

    def counted(*args, **kwargs):
        calls.append(1)
        return probe(*args, **kwargs)
    monkeypatch.setattr(gbb, "backward_event", counted)
    rng = np.random.default_rng(21)
    for specs, probes in ((_skipping_specs(rng), False),
                          (_probing_specs(), True)):
        for spec in specs:
            assert spec.evaluator().seed_exact is not probes
            calls.clear()
            stable_manifold_launch(spec, _launch_data(spec, rng, 1, -1))
            assert (len(calls) >= 1) is probes


def test_unprobed_launch_hands_off_exactly(monkeypatch):
    """Where the probe is skipped the seed reproduces t, y and the fiber
    point to rounding, and eta and |xi| read off as after a probe."""
    from edgeray.gbb import verify_handoff
    rng = np.random.default_rng(22)
    for spec in _skipping_specs(rng):
        ev = spec.evaluator()
        for sgn_tau in (1, -1):
            for io_sign in (1, -1):
                data = _launch_data(spec, rng, sgn_tau, io_sign)
                defects = verify_handoff(
                    spec, stable_manifold_launch(spec, data), data)
                assert max(defects["t"], defects["y"],
                           defects["fiber"]) <= 1e-12
                with monkeypatch.context() as m:
                    m.setattr(ev, "seed_exact", False)
                    probed = verify_handoff(
                        spec, stable_manifold_launch(spec, data), data)
                assert defects["eta"] == probed["eta"]
                assert defects["abs_xi"] == probed["abs_xi"]


def test_segment_state_accessors():
    spec = builtin_scene("product_cone(1.0)").spec
    q0 = EdgePhasePoint(t=0.0, x=0.9, y=np.zeros(0), z=np.array([0.2]),
                        tau=1.0, xi=1.0, eta=np.zeros(0),
                        zeta=np.array([0.0]))
    seg = integrate_interior(spec, q0, direction=-1)
    assert seg.point(0).x == pytest.approx(0.9)
    mid = seg.dense(0.5 * seg.s[-1])
    assert mid[1] == pytest.approx(0.9 - 0.5 * seg.s[-1], rel=1e-9)
    assert seg.point(0).t == seg.t[0]
