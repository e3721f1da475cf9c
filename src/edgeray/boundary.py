"""Flow within the edge boundary and the fiber geometry it induces.

At x = 0 the frame metric is block diagonal, the flow field keeps
(t, x, y) frozen, and the remaining variables split:

  * (z, zeta) undergoes the cogeodesic flow of the fiber cometric
    K(y) = kzz(0, y, .)^{-1}, so m = |zeta|_K is constant and the fiber
    arc advances at rate m;
  * the scalar part closes up:  tau' = tau*xi,  eta' = eta*xi,
    xi' = xi^2 + m^2, solved by

        xi(s)  = m tan(m s + C),        C = arctan(xi0 / m),
        tau(s) = tau0 cos(C) sec(m s + C),
        eta(s) = eta0 cos(C) sec(m s + C).

The maximal interval has m s + C in (-pi/2, pi/2), so a complete
boundary trajectory sweeps total fiber arc exactly pi between its two
blowup ends.  That arc-pi law is what makes two edge points geometric
partners exactly when some unit-speed fiber geodesic of length pi joins
them.

The fiber limit map sends a non-radial phase point to the fiber point
reached from z by the unit geodesic in direction K zeta / |zeta|_K
after the signed arc

    ell = arctan(|zeta|_K / xi),

constant along the flow over the boundary on either side of the closest
approach and continuous across zeta = 0.

Geodesics at x = 0 are shot in lanes, all lanes of a call one ODE of
``ode.rk45``.  On a one-dimensional fiber a unit-speed geodesic is arc
length: after the signed arc l it ends where dz/dl = kzz^(-1/2) takes
it, and ``_shoot_arc`` steps those lanes on Python floats with the
Dormand-Prince 5(4) pair of interior rays, on the generated
``MetricEvaluator.fiber_speed``.  For f = 1 it shoots the limit points
of an edge event's whole extrapolation ladder (in arc length itself, one
step for the ladder's short arcs) and the two arc-pi geodesics of a
partner search or relatedness test.  Every other geodesic is a lane of
``_shoot`` (each lane with its own start, covector and signed parameter
arc), one DOP853 ODE in a normalised parameter on the generated
cogeodesic field of a metric block (``MetricEvaluator.fiber_cogeodesic``
or ``base_cogeodesic``) that returns only the lanes' end points: for
f >= 2 the launch directions of a partner search (and each refinement
round of the relatedness test) and the ladder's limit points, for every
f the cogeodesic flow, one lane per parameter sample, and on the base
block glancing continuation's tangential geodesic, one lane per sample
(see gbb).  The cogeodesic flow keeps the field even on f = 1: it
returns zeta as well as z at many samples of the boundary flow's
parameter, acceptance criterion 4 integrates |zeta|_K over those
samples to measure the arc an orbit sweeps, and no traced path calls
it.

Partner searches and fiber limit points stop each lane at the edge of
the fiber chart, the z_box of every fiber coordinate without a period,
much as an interior ray on an all-chart fiber stops at CHART_EXIT; the
shot restarts the other lanes, and the MAX_GEODESIC_STEPS budget counts
the evaluations of all restarts together.  A dropped lane is no
endpoint (a NaN row of the shot): it gives no partner and an infinite
relatedness defect, and a fiber limit point off the chart raises
FlowEscapedError.  The boundary flow, whose orbits sweep fiber arc pi
across the z_box of sphere_edge, and base shots are not stopped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import ode
from .errors import (DegenerateMetricError, FlowEscapedError,
                     IntegrationDivergedError, StepLimitError)
from .phase import EdgePhasePoint

_GEO_RTOL = 1e-11
_GEO_ATOL = 1e-13
MAX_GEODESIC_STEPS = 20000  # field evaluations per shot, all restarts
RELATED_GRID = 64      # launch directions of the relatedness test's first grid
_CAP_LANES = 64        # about this many launch directions per refinement round
_CAP_ROUNDS = 40
_CAP_FLOOR = 1e-10     # cap radius (radians) below which refinement stops
DEDUP_TOL = 1e-6       # partners closer than this in every coordinate merge
RELATED_TOL = 1e-6     # arc-pi endpoint defect below which points are related


def fiber_norm(spec, y, z, zeta):
    """|zeta|_K with K the fiber cometric at (0, y, z)."""
    K = spec.evaluator().fiber_cometric(y, z)
    return math.sqrt(max(float(zeta @ K @ zeta), 0.0))


def fiber_unit_covector(kzz, z, direction):
    """Covector zeta, |zeta|_K = 1, moving along direction; kzz at z.

    Raises ValueError for a zero direction, and DegenerateMetricError
    when the fiber metric at z is not positive along the direction.
    """
    w = np.asarray(direction, float)
    if not w.any():
        raise ValueError("zero fiber direction")
    speed2 = float(w @ kzz @ w)
    if not speed2 > 0.0:
        raise DegenerateMetricError("fiber metric not positive at z=%s: "
                                    "w.k.w = %.3g" % (np.round(z, 6), speed2))
    return (kzz @ w) / math.sqrt(speed2)


def _velocity(field, q, p, *fixed):
    """w = dq/ds of a cogeodesic field at lanes (q, p), shape (n, d)."""
    state = np.stack((q, p), axis=1)
    with np.errstate(all="ignore"):
        out = field(*fixed, state.ravel(), 1.0)
    return out.reshape(state.shape)[:, 0]


def _chart_box(spec):
    """Bounds (lo, hi) of the fiber chart, one entry per coordinate: the
    z_box on coordinates without a period, unbounded on the others; None
    when every coordinate has a period."""
    periods = spec.fiber.periods
    if all(period is not None for period in periods):
        return None
    return np.array([(-math.inf, math.inf) if period is not None else box
                     for period, box in zip(periods, spec.z_box)], float).T


def _off_chart(spec, what):
    """FlowEscapedError for a lane of `what` that left the fiber chart."""
    bounds = ", ".join("z%d in [%.6g, %.6g]" % (a + 1, *spec.z_box[a])
                       for a, period in enumerate(spec.fiber.periods)
                       if period is None)
    return FlowEscapedError("%s leaves the fiber chart %s" % (what, bounds))


def _shoot(field, q0, p0, arc, fixed=(), box=None):
    """End points (q, p) of cogeodesic lanes, each of shape (n, d).

    field(*fixed, state, arc) is the cogeodesic field of an x = 0 metric
    block on the raveled lanes (q, p) of state, scaled lane by lane by
    arc (``MetricEvaluator.fiber_cogeodesic`` with fixed = (y,), or
    ``MetricEvaluator.base_cogeodesic``).  Lane k starts at (q0[k],
    p0[k]) and follows it for the signed parameter arc[k]; q0 and p0
    broadcast against the n lanes of arc, so samples along one geodesic
    are lanes with one start and their own arcs.  All lanes are one ODE
    in the fraction u in [0, 1], whose state is the ravel of shape (n, 2,
    d), stepped by DOP853 to _GEO_RTOL and _GEO_ATOL (``ode.rk45`` on an
    array) to its end at u = 1.

    box = (lo, hi), the bounds of a chart (see _chart_box), stops every
    lane that starts inside it at the box's edge: the smallest margin
    of those lanes to the box is a terminal event, and when it fires the
    lanes at the edge, and always the one with the smallest margin, are
    dropped; the others restart from the event.  A lane is at the edge
    when its margin is at most _GEO_ATOL + _GEO_RTOL * max|q|, the error
    the integrator allows a step of the lane: the state at the event's
    root is known no better (brent's 4 EPS in the parameter is far
    finer), so mirror lanes that reach the edge at the same parameter
    as the one that fired, with margins of about 1e-15, go with it
    instead of firing the next call's event at its own start.  A dropped
    lane ends as NaN in q and p.  Without a box, or when no lane reaches
    the edge, the shot is one rk45 call.

    A zero pivot of the block in any lane raises DegenerateMetricError,
    a non-finite lane or a collapsing step IntegrationDivergedError, and
    more than MAX_GEODESIC_STEPS evaluations, summed over the restarts,
    StepLimitError.
    """
    arc = np.asarray(arc, float)
    n, d = arc.size, np.shape(q0)[-1]
    state0 = np.stack((np.broadcast_to(q0, (n, d)),
                       np.broadcast_to(p0, (n, d))), axis=1)
    if not (np.all(np.isfinite(state0)) and np.all(np.isfinite(arc))):
        raise IntegrationDivergedError("non-finite geodesic launch")
    if not arc.any():
        return state0[:, 0], state0[:, 1]

    def rhs(_, state):
        return field(*fixed, state, arc)

    events = ()
    if box is not None:
        # lanes that start off the box are not watched: bounds +-inf
        inside = np.all((box[0] <= state0[:, 0]) & (state0[:, 0] <= box[1]),
                        axis=1)[:, None]
        lo = np.where(inside, box[0], -math.inf)
        hi = np.where(inside, box[1], math.inf)

        def margins(state):
            q = state.reshape(-1, 2, d)[:, 0]
            return np.minimum(q - lo, hi - q).min(axis=1)
        events = ((lambda _, state: margins(state).min(), -1),)

    q, p = np.full((2, n, d), np.nan)
    lanes, state, span, used = np.arange(n), state0, 1.0, 0
    with np.errstate(all="ignore"):
        while True:
            try:
                sol = ode.rk45(rhs, span, state.ravel(), _GEO_RTOL,
                               _GEO_ATOL, MAX_GEODESIC_STEPS - used, events)
            except StepLimitError:
                raise StepLimitError("geodesic shot passed its budget of %d "
                                     "evaluations" % MAX_GEODESIC_STEPS
                                     ) from None
            used += sol.nfev
            state = sol.y_stop.reshape(-1, 2, d)
            if sol.event is None or sol.t_stop == span:
                q[lanes], p[lanes] = state[:, 0], state[:, 1]
                return q, p
            margin = margins(state)
            keep = margin > _GEO_ATOL + _GEO_RTOL * np.abs(state[:, 0]).max(1)
            keep[np.argmin(margin)] = False
            if not keep.any():
                return q, p
            lanes, state, arc = lanes[keep], state[keep], arc[keep]
            lo, hi = lo[keep], hi[keep]
            span -= sol.t_stop


def _shoot_arc(spec, ys, zs, arcs):
    """End points of unit-speed geodesics of a one-dimensional fiber.

    Lane k solves dz/dl = kzz(0, ys[k], z)^(-1/2) (the generated
    ``MetricEvaluator.fiber_speed``) from zs[k] over the signed arc
    arcs[k].  The lanes with a nonzero arc are one ODE of ``ode.rk45`` on
    floats (Dormand-Prince 5(4)) in t in [0, L], L the longest |arc|,
    lane k at rate arcs[k] / L: in arc length itself, so the short arcs
    of an event's ladder take one step.  Returns the list of end points.
    Tolerances, chart stops (a stopped lane ends nan), typed errors and
    the evaluation budget are those of _shoot.
    """
    zs, arcs = list(map(float, zs)), list(map(float, arcs))
    if not all(map(math.isfinite, zs + arcs)):
        raise IntegrationDivergedError("non-finite geodesic launch")
    ends = [math.nan if arc else z for z, arc in zip(zs, arcs)]
    lanes = [k for k, arc in enumerate(arcs) if arc]
    if not lanes:
        return ends
    speed = spec.evaluator().fiber_speed
    span = max(abs(arcs[k]) for k in lanes)
    rates = [arcs[k] / span for k in lanes]
    ys = [np.asarray(ys[k], float).tolist() for k in lanes]
    state = [zs[k] for k in lanes]
    # lanes that start off the chart, and all lanes on a circle, are not
    # watched
    box = spec.z_box[0] if spec.fiber.periods[0] is None else ()
    lo, hi = zip(*[box if box and box[0] <= z <= box[1]
                   else (-math.inf, math.inf) for z in state])

    def rate(_, state):
        return tuple([c * speed(y, z) for c, y, z in zip(rates, ys, state)])

    def margins(state):
        return [min(z - a, b - z) for z, a, b in zip(state, lo, hi)]
    events = ((lambda _, state: min(margins(state)), -1),) if min(
        hi) < math.inf else ()
    used = 0
    while True:
        try:
            with np.errstate(all="ignore"):
                sol = ode.rk45(rate, span, state, _GEO_RTOL, _GEO_ATOL,
                               MAX_GEODESIC_STEPS - used, events)
        except StepLimitError:
            raise StepLimitError("geodesic shot passed its budget of %d "
                                 "evaluations" % MAX_GEODESIC_STEPS) from None
        used += sol.nfev
        state = sol.y_stop.tolist()
        if sol.event is None or sol.t_stop == span:
            for k, z in zip(lanes, state):
                ends[k] = z
            return ends
        margin = margins(state)
        keep = [m > _GEO_ATOL + _GEO_RTOL * abs(z)
                for m, z in zip(margin, state)]
        keep[margin.index(min(margin))] = False
        lanes, rates, ys, state, lo, hi = (
            [v for v, kept in zip(column, keep) if kept]
            for column in (lanes, rates, ys, state, lo, hi))
        if not lanes:
            return ends
        span -= sol.t_stop


def fiber_cogeodesic_flow(spec, y, z0, zeta0, s_values):
    """Cogeodesic flow of the fiber cometric; returns (z, zeta) samples.

    The parameter matches the boundary flow parameter: the fiber arc
    advances at the constant rate |zeta0|_K.  Each sample is one lane of
    a _shoot from (z0, zeta0) over its own s.  The lanes are not stopped
    at the edge of the fiber chart: a boundary orbit sweeps fiber arc
    pi, which on sphere_edge's polar chart leaves its z_box, and
    acceptance criterion 4 measures whole orbits.
    """
    return _shoot(spec.evaluator().fiber_cogeodesic, z0, zeta0,
                  np.atleast_1d(np.asarray(s_values, float)), (y,))


def fiber_geodesic_point(spec, y, z0, direction, arc):
    """Endpoint of the unit-speed fiber geodesic from z0 after signed arc;
    FlowEscapedError past the edge of the fiber chart.
    Kept because the benchmark's tracer wraps it."""
    end = _geodesic_ends(spec, y, z0, [direction], arc)[0]
    if np.isnan(end).any():
        raise _off_chart(spec, "fiber geodesic")
    return end


# --- the boundary flow itself -------------------------------------------

def boundary_maximal_interval(spec, q):
    """Open parameter interval of the boundary flow through q (x = 0)."""
    m = fiber_norm(spec, q.y, q.z, q.zeta)
    if m == 0.0:
        if q.xi == 0.0:
            return (-math.inf, math.inf)
        bound = 1.0 / q.xi
        return (bound, math.inf) if q.xi < 0.0 else (-math.inf, bound)
    C = math.atan2(q.xi, m)
    return ((-0.5 * math.pi - C) / m, (0.5 * math.pi - C) / m)


def boundary_flow(spec, q, s):
    """Flow q (with q.x = 0) for parameter s along the boundary field.

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


# --- fiber limit map ----------------------------------------------------

def fiber_limit_point(spec, q):
    """Limiting fiber position of the ray through q at the edge.

    Defined away from radial directions: (xi, zeta) != 0.  For
    zeta = 0 this is z itself; otherwise the unit geodesic from z in
    direction K zeta / m, followed for the signed arc arctan(m / xi),
    with m = |zeta|_K.  Constant along the flow on either side of the
    closest approach (exactly at x = 0, to first order in x nearby).
    Kept because the benchmark's tracer wraps it; the trace path calls
    fiber_limit_points.
    """
    return fiber_limit_points(spec, q.y[None], q.z[None], np.array([q.xi]),
                              q.zeta[None])[0]


def fiber_limit_points(spec, y, z, xi, zeta):
    """fiber_limit_point of many phase points, one per row of y, z and
    zeta (and entry of xi), from one shot.  A limit point past the edge
    of the fiber chart raises FlowEscapedError.  On a one-dimensional
    fiber m = |zeta| kzz^(-1/2), and the limit points are one _shoot_arc
    over the arc times the sign of zeta."""
    if spec.f == 1:
        speed = spec.evaluator().fiber_speed
        m = np.abs(zeta[:, 0]) * [speed(yk, zk) for yk, zk
                                  in zip(y.tolist(), z[:, 0].tolist())]
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(m * m < math.inf):
                raise IntegrationDivergedError("fiber norm |zeta|_K is not "
                                               "finite")
    else:
        field = spec.evaluator().fiber_cogeodesic
        m = np.sqrt(np.maximum((_velocity(field, z, zeta, y) * zeta).sum(1),
                               0.0))
    moving = m > 0.0
    if np.any(~moving & (xi == 0.0)):
        raise ValueError("fiber limit undefined on radial directions")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        arc = np.where(moving, np.where(xi == 0.0, 0.5 * math.pi,
                                        np.arctan(m / xi)), 0.0)
    if spec.f == 1:
        ends = np.array(_shoot_arc(spec, y, z[:, 0],
                                   np.sign(zeta[:, 0]) * arc))[:, None]
    else:
        ends = _shoot(field, z, zeta / np.where(moving, m, 1.0)[:, None], arc,
                      fixed=(y,), box=_chart_box(spec))[0]
    if np.isnan(ends).any():
        raise _off_chart(spec, "fiber limit point")
    return ends


# --- geometric partners -------------------------------------------------

@dataclass(frozen=True)
class PartnerResult:
    related: bool
    distance: float       # defect of the best arc-pi geodesic endpoint
    direction: np.ndarray


def _direction_grid(f, n):
    if f == 1:
        return [np.array([1.0]), np.array([-1.0])]
    if f == 2:
        angles = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        return [np.array([math.cos(a), math.sin(a)]) for a in angles]
    rng = np.random.default_rng(12345)
    dirs = rng.normal(size=(n, f))
    return [d / np.linalg.norm(d) for d in dirs]


def _geodesic_ends(spec, y, z0, directions, arc):
    """Endpoints of the unit geodesics from z0 in each direction after
    arc, shot as one ODE; shape (len(directions), f), with a NaN row for
    each geodesic stopped at the edge of the fiber chart.  On a
    one-dimensional fiber the directions' signs sign the arcs of one
    _shoot_arc."""
    if spec.f == 1:
        signs = np.sign(np.ravel(directions))
        if not signs.all():
            raise ValueError("zero fiber direction")
        return np.array(_shoot_arc(spec, [y] * len(signs),
                                   [z0[0]] * len(signs), signs * arc))[:, None]
    ev = spec.evaluator()
    kzz = ev.edge_matrix(0.0, y, z0)[ev.sz, ev.sz]
    zetas = [fiber_unit_covector(kzz, z0, d) for d in directions]
    return _shoot(ev.fiber_cogeodesic, z0, zetas,
                  np.full(len(zetas), arc), fixed=(y,),
                  box=_chart_box(spec))[0]


def geometric_partners(spec, y, z_bar, n_directions=None):
    """Fiber points at unit-speed geodesic distance exactly pi from z_bar.

    Samples initial directions, shoots every geodesic to arc pi in one
    batch, wraps periodic coordinates and deduplicates.  A geodesic that
    leaves the fiber chart before arc pi has no partner.  For
    one-dimensional fibers the two orientations are used directly.
    """
    if n_directions is None:
        n_directions = 2 if spec.f == 1 else 64
    y = np.atleast_1d(np.asarray(y, float))
    z_bar = np.atleast_1d(np.asarray(z_bar, float))
    out = []
    for z_end in _geodesic_ends(spec, y, z_bar,
                                _direction_grid(spec.f, n_directions),
                                math.pi):
        if np.isnan(z_end).any():
            continue
        z_end = spec.fiber.wrap(z_end)
        if not any(np.max(np.abs(spec.fiber.coordinate_delta(z_end, seen)))
                   < DEDUP_TOL for seen in out):
            out.append(z_end)
    return out


def _cap(center, radius, m):
    """Unit directions around center: geodesic offsets on a grid of
    2m + 1 steps in [-radius, radius] along each tangent axis, center
    left out.  Returns (directions, whether each lies on the cap's rim).
    """
    basis = np.linalg.svd(center[None, :])[2][1:]
    steps = np.linspace(-radius, radius, 2 * m + 1)
    index = np.array([ix for ix in itertools.product(range(2 * m + 1),
                                                     repeat=len(basis))
                      if any(i != m for i in ix)])
    offsets = steps[index] @ basis
    angle = np.linalg.norm(offsets, axis=1)[:, None]
    directions = np.cos(angle) * center + np.sin(angle) * offsets / angle
    rim = np.any((index == 0) | (index == 2 * m), axis=1)
    return directions, rim


def is_geometrically_related(spec, y, z1, z2):
    """Whether a unit-speed fiber geodesic of arc pi joins z1 to z2.

    Shoots geodesics over a grid of RELATED_GRID directions, then (for
    f >= 2) refines the best candidate in rounds: each round shoots a
    grid on a cap of launch directions around the best so far, and the
    cap shrinks unless the best lies on its rim.  The distance reported
    is the coordinate defect of the best endpoint; a geodesic that
    leaves the fiber chart before arc pi has defect inf, and when every
    geodesic of the grid does, the test stops there with distance inf.
    """
    y = np.atleast_1d(np.asarray(y, float))
    z1 = np.atleast_1d(np.asarray(z1, float))
    z2 = np.atleast_1d(np.asarray(z2, float))
    f = spec.f

    def defects(directions):
        gaps = [float(np.linalg.norm(spec.fiber.coordinate_delta(z, z2)))
                for z in _geodesic_ends(spec, y, z1, directions, math.pi)]
        return [math.inf if math.isnan(gap) else gap for gap in gaps]

    grid = np.array(_direction_grid(f, RELATED_GRID))
    grid_defects = defects(grid)
    i = int(np.argmin(grid_defects))
    best_dir, best = grid[i], grid_defects[i]
    if f > 1 and best < math.inf:
        others = np.delete(grid, i, axis=0) @ best_dir
        radius = float(np.arccos(np.clip(others.max(), -1.0, 1.0)))
        m = max(2, round(_CAP_LANES ** (1.0 / (f - 1)) / 2))
        for _ in range(_CAP_ROUNDS):
            if best <= 1e-3 * RELATED_TOL or radius < _CAP_FLOOR:
                break
            cap, rim = _cap(best_dir, radius, m)
            cap_defects = defects(cap)
            j = int(np.argmin(cap_defects))
            if cap_defects[j] < best:
                best_dir, best = cap[j], cap_defects[j]
                if rim[j]:
                    continue
            radius /= m
    return PartnerResult(best <= RELATED_TOL, best, best_dir)
