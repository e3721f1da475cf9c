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

Every geodesic at x = 0 is a lane of one shooter, ``_shoot``: the lanes
of a call (each with its own start, covector and signed parameter arc)
are one ``ode.rk45`` ODE in a normalised parameter, with at most
MAX_GEODESIC_STEPS field evaluations.  Its right-hand side is the
generated cogeodesic field of a metric block over the lanes
(``MetricEvaluator.fiber_cogeodesic`` or ``base_cogeodesic``): an
unrolled LDL^T solve of the block and the quadratic forms of its
nonzero partials, with no matrix library call.  On the fiber block a
partner search shoots all launch directions of an edge event (and each
refinement round of the relatedness test), an edge event the limit
points of its whole extrapolation ladder, and the cogeodesic flow one
lane per sign of its parameter samples; on the base block glancing
continuation shoots its tangential geodesic (see gbb).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import ode
from .errors import (DegenerateMetricError, FlowEscapedError,
                     IntegrationDivergedError)
from .phase import EdgePhasePoint

_GEO_RTOL = 1e-11
_GEO_ATOL = 1e-13
MAX_GEODESIC_STEPS = 200000  # field evaluations allowed per _shoot call
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


def fiber_unit_covector(spec, y, z, direction):
    """Covector zeta with |zeta|_K = 1 generating fiber velocity direction.

    Raises DegenerateMetricError when the fiber metric at z is not
    positive along the direction.
    """
    kzz = spec.evaluator().fiber(y, z)
    w = np.asarray(direction, float)
    speed2 = float(w @ kzz @ w)
    if not speed2 >= 0.0:
        raise DegenerateMetricError("fiber metric not positive at z=%s: "
                                    "w.k.w = %.3g" % (np.round(z, 6), speed2))
    speed = math.sqrt(speed2)
    if speed == 0.0:
        raise ValueError("zero fiber direction")
    return (kzz @ w) / speed


def _shoot(field, q0, p0, arc, u=(1.0,)):
    """(q, p) at the parameter fractions u of cogeodesic lanes.

    field(q, p) -> d/ds (q, p) is the cogeodesic field of an x = 0
    metric block over a lane axis, shape (n, 2, d)
    (``MetricEvaluator.fiber_cogeodesic`` at fixed y, or
    ``MetricEvaluator.base_cogeodesic``).  Lane k starts at (q0[k],
    p0[k]) and follows it for the signed parameter arc[k]; q0 and p0
    broadcast against the n lanes of arc.  All lanes are one ODE in the
    fraction u in [0, 1], whose state carries a leading lane axis.
    Returns q and p of shape (len(u), n, d).  A zero pivot of the block
    in any lane raises DegenerateMetricError, a non-finite lane or a
    collapsing step IntegrationDivergedError, and more than
    MAX_GEODESIC_STEPS evaluations StepLimitError.
    """
    arc = np.asarray(arc, float)
    n, d = arc.size, np.shape(q0)[-1]
    state0 = np.stack((np.broadcast_to(q0, (n, d)),
                       np.broadcast_to(p0, (n, d))), axis=1)
    if not (np.all(np.isfinite(state0)) and np.all(np.isfinite(arc))):
        raise IntegrationDivergedError("non-finite geodesic launch")
    if not arc.any():
        states = np.broadcast_to(state0, (len(u), n, 2, d))
        return states[:, :, 0].copy(), states[:, :, 1].copy()

    def rhs(_, state):
        q, p = state.reshape(n, 2, d).transpose(1, 0, 2)
        out = field(q, p)
        out *= arc[:, None, None]
        if not np.isfinite(out).all():
            raise IntegrationDivergedError("geodesic lanes left the finite "
                                           "range of the metric")
        return out.ravel()

    with np.errstate(all="ignore"):
        sol = ode.rk45(rhs, 1.0, state0.ravel(), _GEO_RTOL, _GEO_ATOL,
                       MAX_GEODESIC_STEPS, t_eval=u)
    states = sol.y.reshape(len(u), n, 2, d)
    return states[:, :, 0], states[:, :, 1]


def fiber_cogeodesic_flow(spec, y, z0, zeta0, s_values):
    """Cogeodesic flow of the fiber cometric; returns (z, zeta) samples.

    The parameter matches the boundary flow parameter: the fiber arc
    advances at the constant rate |zeta0|_K.  One lane runs to the most
    negative and one to the most positive s, sampled on the way.
    """
    s = np.atleast_1d(np.asarray(s_values, float))
    lo, hi = min(s.min(), 0.0), max(s.max(), 0.0)
    lane = (s >= 0.0).astype(int)
    u = s / np.where(lane, hi or 1.0, lo)
    u_eval = np.unique(u)
    ev = spec.evaluator()
    zs, zetas = _shoot(functools.partial(ev.fiber_cogeodesic, y), z0, zeta0,
                       [lo, hi], u_eval)
    at = np.searchsorted(u_eval, u)
    return zs[at, lane], zetas[at, lane]


def fiber_geodesic_point(spec, y, z0, direction, arc):
    """Endpoint of the unit-speed fiber geodesic from z0 after signed arc.
    Kept because the benchmark's tracer wraps it."""
    return _geodesic_ends(spec, y, z0, [direction], arc)[0]


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
        return EdgePhasePoint(t=q.t, x=0.0, y=q.y.copy(), z=q.z.copy(),
                              tau=q.tau * factor, xi=q.xi * factor,
                              eta=q.eta * factor, zeta=q.zeta.copy())
    C = math.atan2(q.xi, m)
    phase = m * s + C
    stretch = 1.0 / (math.cos(phase) / math.cos(C))
    zs, zetas = fiber_cogeodesic_flow(spec, q.y, q.z, q.zeta, [s])
    return EdgePhasePoint(t=q.t, x=0.0, y=q.y.copy(), z=zs[0],
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
    zeta (and entry of xi), from one shot."""
    field = functools.partial(spec.evaluator().fiber_cogeodesic, y)
    m = np.sqrt(np.maximum((field(z, zeta)[:, 0] * zeta).sum(axis=1), 0.0))
    moving = m > 0.0
    if np.any(~moving & (xi == 0.0)):
        raise ValueError("fiber limit undefined on radial directions")
    with np.errstate(divide="ignore", invalid="ignore"):
        arc = np.where(xi == 0.0, 0.5 * math.pi, np.arctan(m / xi))
    unit = zeta / np.where(moving, m, 1.0)[:, None]
    return _shoot(field, z, unit, np.where(moving, arc, 0.0))[0][-1]


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
    arc, shot as one ODE; shape (len(directions), f)."""
    zetas = [fiber_unit_covector(spec, y, z0, d) for d in directions]
    return _shoot(functools.partial(spec.evaluator().fiber_cogeodesic, y), z0,
                  zetas, np.full(len(zetas), arc))[0][-1]


def geometric_partners(spec, y, z_bar, n_directions=None):
    """Fiber points at unit-speed geodesic distance exactly pi from z_bar.

    Samples initial directions, shoots every geodesic to arc pi in one
    batch, wraps periodic coordinates and deduplicates.  For
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
    is the coordinate defect of the best endpoint.
    """
    y = np.atleast_1d(np.asarray(y, float))
    z1 = np.atleast_1d(np.asarray(z1, float))
    z2 = np.atleast_1d(np.asarray(z2, float))
    f = spec.f

    def defects(directions):
        return [float(np.linalg.norm(spec.fiber.coordinate_delta(z, z2)))
                for z in _geodesic_ends(spec, y, z1, directions, math.pi)]

    grid = np.array(_direction_grid(f, RELATED_GRID))
    grid_defects = defects(grid)
    i = int(np.argmin(grid_defects))
    best_dir, best = grid[i], grid_defects[i]
    if f > 1:
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
