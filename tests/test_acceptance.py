"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each criterion is one test that prints a single PASS/FAIL line (visible
with pytest -s; with -v the test name itself carries the verdict).
"""

import math
import time
from fractions import Fraction

import numpy as np
from scipy.integrate import trapezoid
from scipy.optimize import brentq

from edgeray.boundary import (
    boundary_maximal_interval,
    fiber_cogeodesic_flow,
    fiber_norm,
    geometric_partners,
    is_geometrically_related,
)
from edgeray.expr import diff, evaluate, format_expr, parse_expr
from edgeray.gbb import (
    GEOMETRIC_ONLY,
    SAME_FIBER,
    detect_boundary_event,
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
    linearization_at_radial,
    stable_manifold_launch,
)
from edgeray.orders import (
    OrderBound,
    OrderRequirement,
    coisotropic_eps_loss,
    edge_threshold_check,
    fundamental_solution_orders,
)
from edgeray.phase import CospherePoint, EdgePhasePoint
from edgeray.rays_io import serialize_dump
from edgeray.run import run_scenario
from edgeray.scenes import PointSource, blow_down_segment, builtin_scene


def _verdict(num, ok, desc):
    print("[%2d/10] %s %s" % (num, "PASS" if ok else "FAIL", desc))
    assert ok, "criterion %d failed: %s" % (num, desc)


def _edge_boundary_point(spec, rng):
    b, f = spec.b, spec.f
    y = np.array([float(rng.uniform(lo + 0.1, hi - 0.1))
                  for lo, hi in spec.y_box]) if b else np.zeros(0)
    z = np.array([float(rng.uniform(lo + 0.1, hi - 0.1))
                  for lo, hi in spec.z_box])
    eta = rng.normal(size=b) * 0.3 if b else np.zeros(0)
    zeta = rng.normal(size=f)
    if fiber_norm(spec, y, z, zeta) < 0.2:
        zeta = zeta + 0.5
    xi = float(rng.normal()) * 0.8
    u = np.concatenate(([xi], eta, zeta))
    G = spec.evaluator().edge_matrix(0.0, y, z)
    tau = math.sqrt(float(u @ np.linalg.solve(G, u)))
    return EdgePhasePoint(t=0.0, x=0.0, y=y, z=z, tau=tau, xi=xi,
                          eta=eta, zeta=zeta)


def test_criterion_01_flat_product_ray_law():
    """Incoming flat-product rays obey x = (t_bar - t)|xi|, z = z_bar,
    zeta = 0 to 1e-6, under 1 s per ray."""
    spec = builtin_scene("product_edge(1, 1)").spec
    settings = FlowSettings()
    worst = 0.0
    worst_time = 0.0
    cases = ((1.0, 0.0, 0.9), (0.9, 0.5, 0.8), (0.6, 0.4, 0.5),
             (0.95, -0.3, 0.7))
    for xi, eta1, x0 in cases:
        eta = np.array([eta1])
        tau = math.sqrt(xi * xi + eta1 * eta1)
        q0 = EdgePhasePoint(t=0.0, x=x0, y=np.array([0.0]),
                            z=np.array([1.3]), tau=tau, xi=xi, eta=eta,
                            zeta=np.zeros(1))
        start = time.perf_counter()
        segment = integrate_interior(spec, q0, direction=-1, s_max=8.0)
        event = detect_boundary_event(spec, segment)
        worst_time = max(worst_time, time.perf_counter() - start)
        assert segment.termination == Termination.BOUNDARY_APPROACH
        xi_hat, t_bar = event.xi_hat, event.t_bar
        i_z = 2 + spec.b
        i_zeta = 2 * (2 + spec.b) + spec.f
        for state in segment.states:
            t, x = state[0], state[1]
            if t > t_bar - 10.0 * settings.x_stop:
                continue
            worst = max(worst,
                        abs(x - (t_bar - t) * abs(xi_hat)),
                        abs(state[i_z] - event.z_bar[0]),
                        abs(state[i_zeta]))
    ok = worst < 1e-6 and worst_time < 1.0
    _verdict(1, ok, "flat product ray law: max error %.3g (limit 1e-6), "
             "%.2f s/ray (limit 1 s)" % (worst, worst_time))


def test_criterion_02_conservation_suite():
    """|p|/tau^2 < 1e-6 and tau/x constant to 1e-6 on interior segments;
    |zeta|_K constant to 1e-8 along the boundary flow."""
    worst_p = 0.0
    worst_tau_x = 0.0
    for name in ("product_edge(1, 1)", "perturbed_edge(0.05)",
                 "sphere_edge"):
        config = builtin_scene(name)
        path = trace_gbb(config.spec, config.source, config.t_span,
                         SAME_FIBER)
        assert len(path.segments()) >= 2
        for _, segment in path.segments():
            log = segment.conserved_log()
            worst_p = max(worst_p, float(np.max(np.abs(log["p_rel"]))))
            ratio = log["tau_over_x"]
            worst_tau_x = max(worst_tau_x, float(
                np.max(np.abs(ratio / ratio[0] - 1.0))))
    worst_m = 0.0
    for name in ("perturbed_edge(0.4)", "sphere_edge"):
        spec = builtin_scene(name).spec
        rng = np.random.default_rng(2)
        for _ in range(3):
            q = _edge_boundary_point(spec, rng)
            m0 = fiber_norm(spec, q.y, q.z, q.zeta)
            lo, hi = boundary_maximal_interval(spec, q)
            ss = np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo),
                             41)
            zs, zetas = fiber_cogeodesic_flow(spec, q.y, q.z, q.zeta, ss)
            for z, zeta in zip(zs, zetas):
                m = fiber_norm(spec, q.y, z, zeta)
                worst_m = max(worst_m, abs(m / m0 - 1.0))
    ok = worst_p < 1e-6 and worst_tau_x < 1e-6 and worst_m < 1e-8
    _verdict(2, ok, "conservation: |p|/tau^2 %.3g, tau/x drift %.3g "
             "(limits 1e-6), boundary |zeta| drift %.3g (limit 1e-8)"
             % (worst_p, worst_tau_x, worst_m))


def test_criterion_03_radial_linearization_spectrum():
    """FD spectrum at 20 random hyperbolic radial points across 3
    scenes lies in {-xi_hat, 0, +xi_hat} within 1e-4, under 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    worst = 0.0
    checked = 0
    for name, count in (("product_edge(1, 1)", 7),
                        ("perturbed_edge(0.3)", 7), ("sphere_edge", 6)):
        spec = builtin_scene(name).spec
        ev = spec.evaluator()
        for _ in range(count):
            y = np.array([rng.uniform(lo + 0.1, hi - 0.1)
                          for lo, hi in spec.y_box])
            z = np.array([rng.uniform(lo + 0.1, hi - 0.1)
                          for lo, hi in spec.z_box])
            sgn_tau = 1 if rng.uniform() < 0.5 else -1
            g = rng.normal(size=spec.b)
            H = ev.base_cometric(y)
            rho = float(rng.uniform(0.1, 0.9))
            eta = rho * g / math.sqrt(float(g @ H @ g))
            xi = sgn_tau * math.sqrt(1.0 - rho * rho)
            q = CospherePoint(t=float(rng.uniform(-1, 1)), x=0.0, y=y, z=z,
                              sgn_tau=sgn_tau, xi_hat=xi, eta_hat=eta,
                              zeta_hat=np.zeros(spec.f), sigma=0.0)
            res = linearization_at_radial(spec, q)
            worst = max(worst, res.max_residual)
            assert res.counts["-xi_hat"] == 1 + spec.f
            assert res.counts["0"] == 2 * spec.b + spec.f + 2
            assert res.counts["+xi_hat"] == 1
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 20 and worst < 1e-4 and elapsed < 5.0
    _verdict(3, ok, "radial linearization: %d points, worst residual "
             "%.3g (limit 1e-4), %.2f s (limit 5 s)"
             % (checked, worst, elapsed))


def test_criterion_04_boundary_interval_sweeps_arc_pi():
    """Measured fiber arc over the maximal boundary interval, Richardson
    extrapolated to the blowup ends, equals pi within 1e-6 on circle and
    sphere fibers."""
    worst = 0.0
    for name in ("perturbed_edge(0.4)", "sphere_edge"):
        spec = builtin_scene(name).spec
        rng = np.random.default_rng(5)
        for _ in range(3):
            q = _edge_boundary_point(spec, rng)
            lo, hi = boundary_maximal_interval(spec, q)
            width = hi - lo

            def measured_arc(eps_frac):
                a = lo + eps_frac * width
                b = hi - eps_frac * width
                ss = np.linspace(a, b, 801)
                zs, zetas = fiber_cogeodesic_flow(spec, q.y, q.z, q.zeta,
                                                  ss)
                speeds = [fiber_norm(spec, q.y, z, zeta)
                          for z, zeta in zip(zs, zetas)]
                return float(trapezoid(speeds, ss))

            eps = 0.02
            extrapolated = 2.0 * measured_arc(eps / 2) - measured_arc(eps)
            worst = max(worst, abs(extrapolated - math.pi))
    ok = worst < 1e-6
    _verdict(4, ok, "boundary interval fiber arc: |extrapolated - pi| "
             "= %.3g (limit 1e-6)" % worst)


def test_criterion_05_geometric_relation_against_quadrature():
    """Unit circle: partners(0) = {pi} after dedup.  Perturbed circle:
    membership agrees with the arc-length quadrature oracle on 50
    pairs."""
    one = builtin_scene("product_cone(1.0)").spec
    pts = geometric_partners(one, np.zeros(0), np.zeros(1))
    sole = abs(float(one.fiber.coordinate_delta(pts[0],
                                                np.array([math.pi]))[0]))
    ok_circle = len(pts) == 1 and sole < 1e-9
    a = 0.4
    spec = builtin_scene("perturbed_edge(%r)" % a).spec
    y = np.array([0.0])

    def arc(z1, z2):
        return (z2 - z1) + a * (math.cos(z1) - math.cos(z2))

    rng = np.random.default_rng(31)
    disagreements = 0
    for case in range(50):
        z1 = float(rng.uniform(0.0, 2.0 * math.pi))
        fwd = brentq(lambda zz: arc(z1, zz) - math.pi, z1,
                     z1 + 2.0 * math.pi)
        bwd = brentq(lambda zz: arc(zz, z1) - math.pi,
                     z1 - 2.0 * math.pi, z1)
        if case % 2 == 0:
            z2 = np.array([fwd if case % 4 == 0 else bwd])
            oracle = True
        else:
            z2 = np.array([float(rng.uniform(0.0, 2.0 * math.pi))])
            gap = min(abs(float(spec.fiber.coordinate_delta(
                z2, np.array([p]))[0])) for p in (fwd, bwd))
            if gap < 1e-3:
                z2 = z2 + 0.01
                gap = min(abs(float(spec.fiber.coordinate_delta(
                    z2, np.array([p]))[0])) for p in (fwd, bwd))
            oracle = gap <= 1e-6
        got = is_geometrically_related(spec, y, np.array([z1]),
                                       spec.fiber.wrap(z2), tol=1e-6)
        if got.related != oracle:
            disagreements += 1
    ok = ok_circle and disagreements == 0
    _verdict(5, ok, "geometric relation: circle partner defect %.3g, "
             "%d/50 quadrature disagreements (limit 0)"
             % (sole, disagreements))


def test_criterion_06_blow_down_straight_lines():
    """Geometric-policy paths in the blown-up R^3 scene project to
    straight lines with deviation < 1e-4."""
    config = builtin_scene("blowup_curve_r3")
    path = trace_gbb(config.spec, config.source, config.t_span,
                     GEOMETRIC_ONLY)
    points = np.concatenate([blow_down_segment(segment)
                             for _, segment in path.segments()])
    assert len(path.segments()) >= 2
    center = points.mean(axis=0)
    rel = points - center
    _, _, vt = np.linalg.svd(rel, full_matrices=False)
    direction = vt[0]
    residual = rel - np.outer(rel @ direction, direction)
    deviation = float(np.max(np.linalg.norm(residual, axis=1)))
    ok = deviation < 1e-4
    _verdict(6, ok, "blow-down straightness: max deviation %.3g "
             "(limit 1e-4) over %d points" % (deviation, len(points)))


def test_criterion_07_specular_law_randomized():
    """100 randomized hyperbolic events: slow data continuous to 1e-6,
    |xi_hat| preserved to 1e-6 under the I/O sign flip; traced paths
    have finite Lipschitz quotients with no slow jumps."""
    rng = np.random.default_rng(23)
    worst_slow = 0.0
    worst_xi = 0.0
    count = 0
    for name, n_cases in (("product_edge(1, 1)", 34),
                          ("perturbed_edge(0.4)", 33), ("sphere_edge", 33)):
        spec = builtin_scene(name).spec
        ev = spec.evaluator()
        for _ in range(n_cases):
            y = np.array([rng.uniform(lo + 0.1, hi - 0.1)
                          for lo, hi in spec.y_box])
            z = np.array([rng.uniform(lo + 0.2, hi - 0.2)
                          for lo, hi in spec.z_box])
            sgn_tau = 1 if rng.uniform() < 0.5 else -1
            rho = float(rng.uniform(0.1, 0.85))
            g = rng.normal(size=spec.b)
            H = ev.base_cometric(y)
            eta = rho * g / math.sqrt(float(g @ H @ g))
            xi_in = sgn_tau * math.sqrt(1.0 - rho * rho)
            incoming = BoundaryData(t_bar=float(rng.uniform(-0.5, 0.5)),
                                    y_bar=y, z_bar=z, sgn_tau=sgn_tau,
                                    xi_hat=xi_in, eta_hat=eta)
            assert incoming.io == RayEnd.INCOMING
            outgoing = BoundaryData(t_bar=incoming.t_bar, y_bar=y, z_bar=z,
                                    sgn_tau=sgn_tau, xi_hat=-xi_in,
                                    eta_hat=eta)
            assert outgoing.io == RayEnd.OUTGOING
            seed = stable_manifold_launch(spec, outgoing)
            defects = verify_handoff(spec, seed, outgoing)
            worst_slow = max(worst_slow, defects["t"], defects["y"],
                             defects["eta"], defects["fiber"])
            worst_xi = max(worst_xi, defects["abs_xi"])
            count += 1
    finite = True
    worst_jump = 0.0
    for name in ("product_cone(1.0)", "product_edge(1, 1)"):
        config = builtin_scene(name)
        path = trace_gbb(config.spec, config.source, config.t_span,
                         SAME_FIBER)
        report = lipschitz_check(path)
        finite = finite and report.finite
        worst_jump = max(worst_jump, report.max_slow_jump)
    ok = (count == 100 and worst_slow < 1e-6 and worst_xi < 1e-6
          and finite and worst_jump < 1e-6)
    _verdict(7, ok, "specular law: %d events, slow jump %.3g, |xi_hat| "
             "defect %.3g (limits 1e-6), lipschitz finite=%s jump %.3g"
             % (count, worst_slow, worst_xi, finite, worst_jump))


def test_criterion_08_exact_order_arithmetic():
    """Order formulas in exact rational arithmetic: zero tolerance."""
    ok = True
    for n in range(2, 9):
        for f in range(1, n):
            out = fundamental_solution_orders(n, f)
            gain = out["diffracted_sup"].value - out["incident_sup"].value
            ok = ok and gain == Fraction(f, 2)
            ok = ok and out["incident_sup"].open
            ok = ok and out["incident_sup"].value == Fraction(-n, 2) + 1
    for l in (Fraction(0), Fraction(1, 2), Fraction(5, 4), Fraction(-2, 3)):
        for f in (1, 2, 3):
            thr = l + Fraction(f, 2)
            step = Fraction(1, 7)
            for m in (thr - step, thr, thr + step):
                inc = edge_threshold_check(m, l, f, RayEnd.INCOMING)
                out_ok = edge_threshold_check(m, l, f, RayEnd.OUTGOING)
                ok = ok and inc == (m > thr)
                ok = ok and out_ok == (m < thr)
    for eps in (Fraction(3, 5), Fraction(51, 100), Fraction(9, 10)):
        res = coisotropic_eps_loss(0, Fraction(7, 3), eps)
        ok = ok and res.k_prime == OrderRequirement(Fraction(7, 3), False)
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)):
        res = coisotropic_eps_loss(0, Fraction(7, 3), eps)
        want = OrderRequirement(Fraction(7, 3) / (2 * eps), True)
        ok = ok and res.k_prime == want
    ok = ok and fundamental_solution_orders(3, 1)["diffracted_sup"] == \
        OrderBound(Fraction(0), True)
    _verdict(8, ok, "exact order arithmetic: diffracted gain f/2, strict "
             "thresholds, coisotropic k' cases (zero tolerance)")


def test_criterion_09_byte_identical_determinism(tmp_path, monkeypatch):
    """Fixed-seed traces are byte identical across runs and across
    1 vs N worker threads."""

    def builtin_bytes():
        config = builtin_scene("product_cone(1.0)")
        return serialize_dump(run_scenario(config).dump, "csv").encode()

    def fan_bytes(threads):
        if threads is None:
            monkeypatch.delenv("EDGERAY_THREADS", raising=False)
        else:
            monkeypatch.setenv("EDGERAY_THREADS", str(threads))
        config = builtin_scene("product_edge(1, 1)")
        config.source = PointSource(origin=np.array([0.6, 0.1, 0.5]),
                                    fan_count=6)
        config.seed = 3
        config.t_span = (0.0, 0.9)
        return serialize_dump(run_scenario(config).dump, "csv").encode()

    single_a, single_b = builtin_bytes(), builtin_bytes()
    fan_one = fan_bytes(1)
    fan_five = fan_bytes(5)
    fan_free = fan_bytes(None)
    ok = (single_a == single_b and fan_one == fan_five
          and fan_one == fan_free and len(fan_one) > 1000)
    _verdict(9, ok, "determinism: builtin rerun identical=%s, fan bytes "
             "1 vs 5 threads identical=%s (%d bytes)"
             % (single_a == single_b, fan_one == fan_five, len(fan_one)))


def test_criterion_10_expression_grammar_fuzz():
    """200 random expressions: print/parse round-trip and symbolic
    derivatives against central finite differences at rel. 1e-6."""
    rng = np.random.default_rng(2024)
    names = ["x", "y1", "z1"]
    funcs = ["sin", "cos", "exp", "sqrt", "log"]

    def gen(depth):
        r = rng.uniform()
        if depth <= 0 or r < 0.3:
            if rng.uniform() < 0.5:
                return "%r" % round(float(rng.uniform(0.2, 3.0)), 3)
            return names[rng.integers(0, len(names))]
        if r < 0.55:
            op = "+-*"[rng.integers(0, 3)]
            return "(%s %s %s)" % (gen(depth - 1), op, gen(depth - 1))
        if r < 0.7:
            return "(%s)^%d" % (gen(depth - 1), rng.integers(1, 4))
        if r < 0.9:
            fn = funcs[rng.integers(0, len(funcs))]
            inner = gen(depth - 1)
            if fn in ("sqrt", "log"):
                inner = "(1.5 + (%s)^2)" % inner
            return "%s(%s)" % (fn, inner)
        return "(%s / (1.5 + (%s)^2))" % (gen(depth - 1), gen(depth - 1))

    def fd_derivative(node, var, x, y, z, h):
        def at(delta):
            if var == "x":
                return evaluate(node, x + delta, y, z)
            if var == "y1":
                return evaluate(node, x, y + np.array([delta]), z)
            return evaluate(node, x, y, z + np.array([delta]))

        def central(step):
            return (at(step) - at(-step)) / (2.0 * step)

        return (4.0 * central(h / 2) - central(h)) / 3.0

    worst_rel = 0.0
    checked = 0
    while checked < 200:
        text = gen(3)
        node = parse_expr(text, 1, 1)
        again = parse_expr(format_expr(node), 1, 1)
        x = float(rng.uniform(0.2, 1.5))
        y = rng.uniform(0.2, 1.5, 1)
        z = rng.uniform(0.2, 1.5, 1)
        v0 = evaluate(node, x, y, z)
        if not math.isfinite(v0) or abs(v0) > 1e6:
            continue
        assert evaluate(again, x, y, z) == v0
        var = names[rng.integers(0, len(names))]
        sym = evaluate(diff(node, var), x, y, z)
        fd = fd_derivative(node, var, x, y, z, 1e-4)
        if not (math.isfinite(fd) and math.isfinite(sym)) or abs(sym) > 1e6:
            continue
        scale = max(1.0, abs(sym), abs(fd))
        worst_rel = max(worst_rel, abs(sym - fd) / scale)
        checked += 1
    ok = checked == 200 and worst_rel < 1e-6
    _verdict(10, ok, "expression grammar: %d cases round-tripped, worst "
             "derivative rel. error %.3g (limit 1e-6)"
             % (checked, worst_rel))
