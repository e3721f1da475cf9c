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

Partner search shoots many geodesics from one point: every launch
direction of an edge event (and of each refinement round of the
relatedness test) is integrated as one ODE whose state carries a
trailing lane axis, with the fiber metric evaluated by numpy-compiled
coefficient expressions.  Single geodesics (the limit map, the boundary
flow, the two orientations of a one-dimensional fiber) keep the scalar
right-hand side, which is cheaper per solve when there is only a lane
or two.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (DegenerateMetricError, FlowEscapedError,
                     IntegrationDivergedError)
from .expr import Num
from .metric import fiber_inverse, solve
from .phase import EdgePhasePoint

_GEO_RTOL = 1e-11
_GEO_ATOL = 1e-13
_BATCH_MIN_LANES = 3   # fewer geodesics are solved one at a time
_CAP_LANES = 64        # about this many launch directions per refinement round
_CAP_ROUNDS = 40
_CAP_FLOOR = 1e-10     # cap radius (radians) below which refinement stops


def fiber_norm(spec, y, z, zeta):
    """|zeta|_K with K the fiber cometric at (0, y, z)."""
    K = spec.evaluator().fiber_cometric(y, z)
    return math.sqrt(max(float(zeta @ K @ zeta), 0.0))


def fiber_unit_covector(spec, y, z, direction):
    """Covector zeta with |zeta|_K = 1 generating fiber velocity direction.

    Raises DegenerateMetricError when the fiber metric at z is not
    positive along the direction.
    """
    ev = spec.evaluator()
    G = ev.kernel(0.0, np.asarray(y, float), np.asarray(z, float))[0]
    kzz = G[ev.sz, ev.sz]
    w = np.asarray(direction, float)
    speed2 = float(w @ kzz @ w)
    if not speed2 >= 0.0:
        raise DegenerateMetricError("fiber metric not positive at z=%s: "
                                    "w.k.w = %.3g" % (np.round(z, 6), speed2))
    speed = math.sqrt(speed2)
    if speed == 0.0:
        raise ValueError("zero fiber direction")
    return (kzz @ w) / speed


def _cogeodesic_rhs(ev, y):
    b, f, sz = ev.b, ev.f, ev.sz

    def rhs(s, state):
        z = state[:f]
        zeta = state[f:]
        G, dG = ev.kernel(0.0, y, z)
        w = fiber_inverse(G[sz, sz], z) @ zeta
        dzeta = np.empty(f)
        for a in range(f):
            dzeta[a] = 0.5 * float(w @ dG[1 + b + a][sz, sz] @ w)
        return np.concatenate((w, dzeta))

    return rhs


def fiber_cogeodesic_flow(spec, y, z0, zeta0, s_values):
    """Cogeodesic flow of the fiber cometric; returns (z, zeta) samples.

    The parameter matches the boundary flow parameter: the fiber arc
    advances at the constant rate |zeta0|_K.
    """
    y = np.atleast_1d(np.asarray(y, float))
    z0 = np.atleast_1d(np.asarray(z0, float))
    zeta0 = np.atleast_1d(np.asarray(zeta0, float))
    s_values = np.atleast_1d(np.asarray(s_values, float))
    ev = spec.evaluator()
    f = spec.f
    order = np.argsort(s_values)
    zs = np.empty((len(s_values), f))
    zetas = np.empty((len(s_values), f))
    rhs = _cogeodesic_rhs(ev, y)
    state0 = np.concatenate((z0, zeta0))
    for sign in (-1.0, 1.0):
        sel = [i for i in order if (s_values[i] < 0) == (sign < 0)]
        if not sel:
            continue
        targets = sorted(abs(s_values[i]) for i in sel)
        span = targets[-1]
        if span == 0.0:
            for i in sel:
                zs[i], zetas[i] = z0, zeta0
            continue
        sol = solve_ivp(lambda s, st: sign * rhs(s, st), (0.0, span), state0,
                        method="RK45", rtol=_GEO_RTOL, atol=_GEO_ATOL,
                        dense_output=True)
        if sol.status != 0:
            raise IntegrationDivergedError("fiber geodesic integration "
                                           "failed: %s" % sol.message)
        for i in sel:
            st = sol.sol(abs(s_values[i]))
            zs[i], zetas[i] = st[:f], st[f:]
    return zs, zetas


def fiber_geodesic_point(spec, y, z0, direction, arc):
    """Endpoint of the unit-speed fiber geodesic from z0 after signed arc."""
    zeta0 = fiber_unit_covector(spec, y, z0, direction)
    zs, _ = fiber_cogeodesic_flow(spec, y, z0, zeta0, [arc])
    return zs[0]


def _shoot(spec, y, z0, zeta0s, arc):
    """Endpoints after signed arc of the cogeodesics from z0, one per row
    of zeta0s (shape (n, f)), integrated as one ODE over n lanes.

    The right-hand side is the cogeodesic field of _cogeodesic_rhs with
    a trailing lane axis; a singular fiber metric raises
    DegenerateMetricError and a non-finite lane IntegrationDivergedError.
    """
    zeta0s = np.asarray(zeta0s, float)
    n, f = zeta0s.shape
    kzz = spec.evaluator().kzz
    zvars = [(a, 1 + spec.b + a) for a in range(f)
             if any(node != Num(0.0) for row in kzz.deriv_nodes[1 + spec.b + a]
                    for node in row)]

    def rhs(s, state):
        z, zeta = state[:f * n].reshape(f, n), state[f * n:].reshape(f, n)
        w = solve(kzz.lanes(None, 0.0, y, z), zeta.T[:, :, None])[:, :, 0].T
        dzeta = np.zeros((f, n))
        for a, v in zvars:
            dzeta[a] = 0.5 * np.einsum("in,nij,jn->n", w,
                                       kzz.lanes(v, 0.0, y, z), w)
        out = np.concatenate((w.ravel(), dzeta.ravel()))
        if not np.all(np.isfinite(out)):
            raise IntegrationDivergedError("fiber geodesic lanes left the "
                                           "finite range of the metric")
        return out

    state0 = np.concatenate((np.repeat(z0, n), zeta0s.T.ravel()))
    if not np.all(np.isfinite(state0)):
        raise IntegrationDivergedError("non-finite fiber geodesic launch")
    with np.errstate(all="ignore"):
        sol = solve_ivp(rhs, (0.0, arc), state0, method="RK45",
                        t_eval=[arc], rtol=_GEO_RTOL, atol=_GEO_ATOL)
    if sol.status != 0:
        raise IntegrationDivergedError("fiber geodesic integration failed: "
                                       "%s" % sol.message)
    return sol.y[:f * n, -1].reshape(f, n).T


# --- the boundary flow itself -------------------------------------------

def _scalar_constants(xi0, m):
    if m == 0.0:
        return None
    return math.atan2(xi0, m)


@dataclass(frozen=True)
class BoundaryFlowConstants:
    """Constants of the closed-form scalar boundary flow through q.

    tau(s) = A sec(m s + C), eta_i(s) = B_i sec(m s + C),
    xi(s) = m tan(m s + C), with m = |zeta|_K conserved.
    """

    m: float
    C: float
    A: float
    B: np.ndarray


def boundary_flow_constants(spec, q):
    m = fiber_norm(spec, q.y, q.z, q.zeta)
    if m == 0.0:
        raise ValueError("closed-form constants need |zeta|_K > 0")
    C = _scalar_constants(q.xi, m)
    return BoundaryFlowConstants(m=m, C=C, A=q.tau * math.cos(C),
                                 B=q.eta * math.cos(C))


def boundary_maximal_interval(spec, q):
    """Open parameter interval of the boundary flow through q (x = 0)."""
    m = fiber_norm(spec, q.y, q.z, q.zeta)
    if m == 0.0:
        if q.xi == 0.0:
            return (-math.inf, math.inf)
        bound = 1.0 / q.xi
        return (bound, math.inf) if q.xi < 0.0 else (-math.inf, bound)
    C = _scalar_constants(q.xi, m)
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
    C = _scalar_constants(q.xi, m)
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
    """
    m = fiber_norm(spec, q.y, q.z, q.zeta)
    if m == 0.0:
        if q.xi == 0.0:
            raise ValueError("fiber limit undefined on radial directions")
        return q.z.copy()
    if q.xi == 0.0:
        arc = 0.5 * math.pi
    else:
        arc = math.atan(m / q.xi)
    zs, _ = fiber_cogeodesic_flow(spec, q.y, q.z, q.zeta / m, [arc])
    return zs[0]


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
    """Endpoints of the unit geodesics from z0 in each direction after arc.

    Three or more lanes are shot as one ODE; fewer are solved one at a
    time, because per solve the lane-axis right-hand side costs more than
    the scalar one.
    """
    if len(directions) < _BATCH_MIN_LANES:
        return [fiber_geodesic_point(spec, y, z0, d, arc) for d in directions]
    zetas = [fiber_unit_covector(spec, y, z0, d) for d in directions]
    return list(_shoot(spec, y, z0, zetas, arc))


def geometric_partners(spec, y, z_bar, n_directions=None, dedup_tol=1e-6):
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
                   < dedup_tol for seen in out):
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


def is_geometrically_related(spec, y, z1, z2, tol=1e-6, n_directions=None):
    """Whether a unit-speed fiber geodesic of arc pi joins z1 to z2.

    Shoots geodesics over a direction grid, then (for f >= 2) refines
    the best candidate in rounds: each round shoots a grid on a cap of
    launch directions around the best so far, and the cap shrinks
    unless the best lies on its rim.  The distance reported is the
    coordinate defect of the best endpoint.
    """
    y = np.atleast_1d(np.asarray(y, float))
    z1 = np.atleast_1d(np.asarray(z1, float))
    z2 = np.atleast_1d(np.asarray(z2, float))
    f = spec.f
    if n_directions is None:
        n_directions = 64

    def defects(directions):
        return [float(np.linalg.norm(spec.fiber.coordinate_delta(z, z2)))
                for z in _geodesic_ends(spec, y, z1, directions, math.pi)]

    grid = np.array(_direction_grid(f, n_directions))
    grid_defects = defects(grid)
    i = int(np.argmin(grid_defects))
    best_dir, best = grid[i], grid_defects[i]
    if f > 1:
        others = np.delete(grid, i, axis=0) @ best_dir
        radius = float(np.arccos(np.clip(others.max(), -1.0, 1.0)))
        m = max(2, round(_CAP_LANES ** (1.0 / (f - 1)) / 2))
        for _ in range(_CAP_ROUNDS):
            if best <= 1e-3 * tol or radius < _CAP_FLOOR:
                break
            cap, rim = _cap(best_dir, radius, m)
            cap_defects = defects(cap)
            j = int(np.argmin(cap_defects))
            if cap_defects[j] < best:
                best_dir, best = cap[j], cap_defects[j]
                if rim[j]:
                    continue
            radius /= m
    return PartnerResult(best <= tol, best, best_dir)
