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

Geodesics at x = 0 are shot in lanes by one loop, _lanes: all lanes of
a shot are one ODE of one ``ode.rk45`` call, and it owns the chart
stops and the evaluation budget.  Two field builders feed it.  On a
one-dimensional fiber a unit-speed geodesic is arc length: after the
signed arc l it ends where dz/dl = kzz^(-1/2) takes it, and
``_shoot_arc`` builds those lanes on Python floats, stepped as interior
rays step (5(4), then DOP853 once the error sizes the steps), on the
generated ``MetricEvaluator.fiber_speed``: for f = 1 the limit points of
an edge event's whole extrapolation ladder (one step for the ladder's
short arcs) and the two arc-pi geodesics of a partner search or
relatedness test.  Every other geodesic is a lane of ``_shoot`` (each
with its own start, covector and signed parameter arc), stepped by
DOP853 on an array in a normalised parameter on the generated
cogeodesic field of a metric block (``MetricEvaluator.fiber_cogeodesic``
or ``base_cogeodesic``): for f >= 2 the launch directions of a partner
search (and each refinement round of the relatedness test) and the
ladder's limit points, for every f the cogeodesic flow, one lane per
parameter sample, and on the base block glancing continuation's
tangential geodesic, one lane per sample (see gbb).  The cogeodesic
flow keeps the field even on f = 1: it returns zeta as well as z at
many samples of the boundary flow's parameter, acceptance criterion 4
integrates |zeta|_K over those samples to measure the arc an orbit
sweeps, and no traced path calls it.

Partner searches and fiber limit points stop each lane at the edge of
the fiber chart, the z_box of every fiber coordinate without a period,
much as an interior ray on an all-chart fiber stops at CHART_EXIT: a
lane found past the edge at the end of a step drops out of the running
integration, and the others go on without a restart.  A dropped lane
is no endpoint (a NaN row of the shot): it gives no partner and an
infinite relatedness defect, and a fiber limit point off the chart
raises FlowEscapedError.  The boundary flow, whose orbits sweep fiber
arc pi across the z_box of sphere_edge, and base shots are not
stopped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import ode
from .errors import (DegenerateMetricError, FlowEscapedError,
                     IntegrationDivergedError)

_GEO_RTOL = 1e-11
_GEO_ATOL = 1e-13
MAX_GEODESIC_STEPS = 20000  # field evaluations per shot, one rk45 call
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


def _lanes(make_rhs, rows, span, d, box, floats):
    """End rows of lanes that are one ODE of ``ode.rk45`` over [0, span].

    Row k of rows, shape (n, w), starts lane k, its first d entries the
    lane's position q.  make_rhs(lanes) is the field of the lanes still
    running: all for lanes None, else those of the index array lanes.
    The ODE's state, to _GEO_RTOL and _GEO_ATOL, is the ravel of their
    rows: floats when floats is true, else an ndarray.

    box = (lo, hi), the bounds of a chart (see _chart_box), stops every
    lane that starts inside it at the box's edge: a lane whose margin to
    the box is at most 0 at the end of a step leaves the integration
    there (rk45's prune) and ends as a NaN row, while the others go on
    in the same call at the step size it has reached.  A shot is one
    rk45 call, and more than MAX_GEODESIC_STEPS evaluations raise
    StepLimitError.
    """
    n, w = rows.shape
    alive, prune = np.arange(n), None
    if box is not None:
        # lanes that start off the box, and entries past q, are not watched
        inside = np.all((box[0] <= rows[:, :d]) & (rows[:, :d] <= box[1]),
                        axis=1)
        lo, hi = np.full((n, w), -math.inf), np.full((n, w), math.inf)
        lo[inside, :d], hi[inside, :d] = box

        def prune(state):
            nonlocal alive, lo, hi
            state = np.reshape(state, (-1, w))
            keep = np.minimum(state - lo, hi - state).min(1) > 0.0
            if keep.all():
                return None
            alive, lo, hi = alive[keep], lo[keep], hi[keep]
            return np.repeat(keep, w), make_rhs(alive)
    with np.errstate(all="ignore"):
        sol = ode.rk45(make_rhs(None), span, rows.ravel().tolist() if floats
                       else rows.ravel(), _GEO_RTOL, _GEO_ATOL,
                       MAX_GEODESIC_STEPS, prune=prune)
    ends = np.full((n, w), np.nan)
    ends[alive] = sol.y_stop.reshape(-1, w)
    return ends


def _shoot(field, q0, p0, arc, fixed=(), box=None):
    """End points (q, p) of cogeodesic lanes, each of shape (n, d).

    field(*fixed, state, arc) is the cogeodesic field of an x = 0 metric
    block on the raveled lanes (q, p) of state, scaled lane by lane by
    arc (``MetricEvaluator.fiber_cogeodesic`` with fixed = (y,), y one
    row or one row per lane, or ``MetricEvaluator.base_cogeodesic``).
    Lane k starts at (q0[k], p0[k]) and follows it for the signed
    parameter arc[k]; q0 and p0 broadcast against the n lanes of arc, so
    samples along one geodesic are lanes with one start and their own
    arcs.  All lanes are one _lanes ODE on an array (DOP853 steps) in the
    fraction u in [0, 1], stopped at the edge of box.  The field writes
    a step's rows in place, and the step checks them once (ode.rk45).

    A zero pivot of the block in any lane raises DegenerateMetricError,
    a non-finite lane or a collapsing step IntegrationDivergedError, and
    more than MAX_GEODESIC_STEPS evaluations StepLimitError.
    """
    arc = np.asarray(arc, float)
    n, d = arc.size, np.shape(q0)[-1]
    state0 = np.stack((np.broadcast_to(q0, (n, d)),
                       np.broadcast_to(p0, (n, d))), axis=1)
    if not (np.all(np.isfinite(state0)) and np.all(np.isfinite(arc))):
        raise IntegrationDivergedError("non-finite geodesic launch")
    if not arc.any():
        return state0[:, 0], state0[:, 1]

    def make_rhs(lanes):   # a y row per lane follows its lane
        kept, lane_arc = fixed, arc
        if lanes is not None:
            kept = [v[lanes] if np.ndim(v) == 2 else v for v in fixed]
            lane_arc = arc[lanes]
        return lambda _, state, out=None: field(*kept, state, lane_arc, out)

    ends = _lanes(make_rhs, state0.reshape(n, 2 * d), 1.0, d, box, False)
    return ends[:, :d], ends[:, d:]


def _shoot_arc(spec, ys, zs, arcs):
    """End points of unit-speed geodesics of a one-dimensional fiber.

    Lane k solves dz/dl = kzz(0, ys[k], z)^(-1/2) (the generated
    ``MetricEvaluator.fiber_speed``) from zs[k] over the signed arc
    arcs[k].  The lanes with a nonzero arc are one _lanes ODE on floats
    in t in [0, L], L the longest |arc|, lane k at rate arcs[k] / L: in
    arc length itself, so the short arcs of an event's ladder take one
    step.  Returns the array of end points.  Tolerances, chart stops (a
    stopped lane ends nan), typed errors and the evaluation budget are
    those of _lanes and _shoot.
    """
    zs, arcs = list(map(float, zs)), list(map(float, arcs))
    if not all(map(math.isfinite, zs + arcs)):
        raise IntegrationDivergedError("non-finite geodesic launch")
    ends = np.array(zs)   # a lane with arc 0 ends where it starts
    lanes = [k for k, arc in enumerate(arcs) if arc]
    if not lanes:
        return ends
    speed = spec.evaluator().fiber_speed
    span = max(abs(arcs[k]) for k in lanes)
    rates = [arcs[k] / span for k in lanes]
    ys = [np.asarray(ys[k], float).tolist() for k in lanes]

    def make_rhs(kept):
        c, y = (rates, ys) if kept is None else (
            [rates[k] for k in kept], [ys[k] for k in kept])
        return lambda _, state: tuple([ck * speed(yk, z) for ck, yk, z
                                       in zip(c, y, state)])

    ends[lanes] = _lanes(make_rhs, ends[lanes, None], span, 1,
                         _chart_box(spec), True)[:, 0]
    return ends


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
        ends = _shoot_arc(spec, y, z[:, 0], np.sign(zeta[:, 0]) * arc)[:, None]
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
        return _shoot_arc(spec, [y] * len(signs), [z0[0]] * len(signs),
                          signs * arc)[:, None]
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
    ends = _geodesic_ends(spec, y, z_bar,
                          _direction_grid(spec.f, n_directions), math.pi)
    ends = spec.fiber.wrap(ends[~np.isnan(ends).any(axis=1)])
    close = np.max(np.abs(spec.fiber.coordinate_delta(
        ends[:, None], ends[None])), axis=-1) < DEDUP_TOL
    kept = []
    for i, row in enumerate(close.tolist()):
        if not any(row[j] for j in kept):
            kept.append(i)
    return list(ends[kept])


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
        gaps = np.linalg.norm(spec.fiber.coordinate_delta(
            _geodesic_ends(spec, y, z1, directions, math.pi), z2), axis=-1)
        return np.where(np.isnan(gaps), math.inf, gaps)

    grid = np.array(_direction_grid(f, RELATED_GRID))
    grid_defects = defects(grid)
    i = int(np.argmin(grid_defects))
    best_dir, best = grid[i], float(grid_defects[i])
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
                best_dir, best = cap[j], float(cap_defects[j])
                if rim[j]:
                    continue
            radius /= m
    return PartnerResult(best <= RELATED_TOL, best, best_dir)
