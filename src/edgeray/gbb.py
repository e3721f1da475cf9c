"""Broken bicharacteristics: boundary events, branching, path assembly.

An interior ray that reaches the boundary-approach threshold is
extrapolated to x = 0 on a geometric ladder of cross sections (a
Richardson-style polynomial fit in x), producing the slow data
(t_bar, y_bar, sgn tau, xi_hat, eta_hat) and the limiting fiber point
z_bar from the fiber limit map.  Hyperbolic events (|eta_hat|_h < 1)
branch into outgoing rays sharing the slow data with the magnitude of
xi_hat preserved and its sign flipped to the outgoing convention; the
fiber point of each outgoing branch depends on the policy:

  * same_fiber    -- the diffracted ray at z_bar itself;
  * geometric     -- the endpoints of fiber geodesics of arc pi from
                     z_bar (geometric continuations);
  * fan(n)        -- n fiber points sampled uniformly over the fiber
                     (the whole diffracted front), anchored at z_bar.

Glancing events (|eta_hat|_h = 1) continue along the tangential flow
d/dt - (geodesic flow of h(0,y) on the unit base cosphere), shot as one
lane of the boundary shooter on the base block, then re-enter the
interior with an infinitesimal outgoing xi_hat.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import hamiltonian, ode
from .boundary import (_shoot, _velocity, fiber_limit_points,
                       geometric_partners)
from .errors import ConfigError, IllConditionedEventError, LaunchFailedError
from .hamiltonian import (BoundaryData, FlowSettings, Termination,
                          integrate_interior, stable_manifold_launch)
from .phase import (BoundaryClass, EdgePhasePoint, classify_boundary,
                    normalize_cosphere, split_state)

N_LADDER = 7
LADDER_RATIO = 1.6
GLANCING_INTERVAL = 0.5   # tangential travel of a glancing continuation
EVENT_FIT_TOL = 1e-5      # largest ladder-fit residual of an edge event
BRANCH_BUDGET = 64        # interior segments a traced tree may integrate
GLANCING_XI = 1e-6        # outgoing |xi_hat| of a glancing re-entry
TANGENTIAL_SAMPLES = 33   # samples of a glancing continuation's travel


class BranchKind:
    INCIDENT = "incident"
    DIFFRACTED = "diffracted"
    GEOMETRIC = "geometric"
    GLANCING = "glancing"


@dataclass(frozen=True)
class BranchPolicy:
    """How hyperbolic events branch: same_fiber | geometric | fan(n)."""

    kind: str
    n: int = 0

    @staticmethod
    def parse(text):
        text = str(text).strip()
        if text in ("same_fiber", "geometric"):
            return BranchPolicy(text)
        match = re.fullmatch(r"fan\((\d+)\)", text)
        if match:
            n = int(match.group(1))
            if n < 1:
                raise ConfigError("fan size must be at least 1")
            return BranchPolicy("fan", n)
        raise ConfigError("unknown branch policy %r" % text)

    def __str__(self):
        return "fan(%d)" % self.n if self.kind == "fan" else self.kind


SAME_FIBER = BranchPolicy("same_fiber")
GEOMETRIC_ONLY = BranchPolicy("geometric")


def fan(n):
    return BranchPolicy("fan", n)


@dataclass(frozen=True)
class BoundaryEvent:
    """Extrapolated data of a boundary interaction."""

    branch_id: str
    boundary_class: BoundaryClass
    t_bar: float
    y_bar: np.ndarray
    z_bar: np.ndarray
    sgn_tau: int
    xi_hat: float            # incoming-signed: sgn(xi_hat) = sgn_tau
    eta_hat: np.ndarray
    margin: float            # 1 - |eta_hat|^2 in the base cometric
    char_defect: float       # |xi_hat^2 + |eta_hat|^2 - 1|
    residual: float          # worst extrapolation-fit residual

    def data(self):
        return BoundaryData(t_bar=self.t_bar, y_bar=self.y_bar,
                            z_bar=self.z_bar, sgn_tau=self.sgn_tau,
                            xi_hat=self.xi_hat, eta_hat=self.eta_hat)

    def outgoing(self, z):
        """Outgoing boundary data at fiber point z: the event's slow data
        with xi_hat's sign flipped to the outgoing convention."""
        return BoundaryData(t_bar=self.t_bar, y_bar=self.y_bar, z_bar=z,
                            sgn_tau=self.sgn_tau, xi_hat=-self.xi_hat,
                            eta_hat=self.eta_hat)


def _ladder_parameters(segment):
    """Parameter values of the final monotone descent crossing the ladder."""
    x = segment.x
    s = segment.s
    end = len(x) - 1
    top = end
    while top > 0 and x[top - 1] > x[top]:
        top -= 1
    x_end = x[end]
    x_avail = 0.95 * x[top]
    if x_avail / x_end < 1.2:
        raise IllConditionedEventError(
            "segment descends only by factor %.3g before the boundary "
            "threshold; no room to extrapolate" % (x[top] / x_end))
    ratio = min(LADDER_RATIO, (x_avail / x_end) ** (1.0 / (N_LADDER - 1)))
    rungs = x_end * ratio ** np.arange(N_LADDER)
    dense = segment.dense
    out = [s[end]]
    for xj in rungs[1:]:
        lo, hi = s[top], s[end]
        out.append(ode.brent(lambda u: dense(u)[1] - xj, lo, hi,
                             1e-14, 1e-15))
    return np.array(out), rungs


def _extrapolate(xs, values, scales):
    """Quadratic fit in x of every ladder column, evaluated at x = 0.

    Returns the x = 0 row and the largest column residual
    max|fit - value| / max(1, |scale|), which keeps a NaN.
    """
    coeffs = np.polynomial.polynomial.polyfit(xs / xs[0], values, 2)
    fit = np.polynomial.polynomial.polyval(xs / xs[0], coeffs).T
    residuals = (np.max(np.abs(fit - values), axis=0)
                 / np.maximum(1.0, np.abs(scales)))
    return coeffs[0], float(np.max(residuals))


def detect_boundary_event(spec, segment, branch_id="0"):
    """Extrapolate a boundary-approaching segment to x = 0 and classify.

    Raises IllConditionedEventError when the fit residuals exceed
    EVENT_FIT_TOL, the extrapolated data are not finite, or they are off
    the characteristic set.
    """
    if segment.termination != Termination.BOUNDARY_APPROACH:
        raise ValueError("event detection requires a BoundaryApproach "
                         "segment, got %s" % segment.termination.value)
    b, f = spec.b, spec.f
    s_ladder, x_ladder = _ladder_parameters(segment)
    states = np.array([segment.dense(s) for s in s_ladder])
    t, _, y, z, tau, xi, eta, zeta = split_state(states, b, f)
    abs_tau = np.abs(tau)
    ups = fiber_limit_points(spec, y, z, xi, zeta)
    # Unwrap the fiber-limit sequence so the fit sees a continuous curve.
    for j in range(1, len(ups)):
        ups[j] = ups[j - 1] + spec.fiber.coordinate_delta(ups[j], ups[j - 1])
    # Columns t, y, xi_hat, eta_hat, z; t and y residuals are relative.
    row, residual = _extrapolate(
        x_ladder, np.column_stack((t, y, xi / abs_tau,
                                   eta / abs_tau[:, None], ups)),
        np.concatenate(([t[0]], y[0], np.ones(1 + b + f))))
    if not residual <= EVENT_FIT_TOL:
        raise IllConditionedEventError(
            "boundary extrapolation residual %.3g exceeds %.1g"
            % (residual, EVENT_FIT_TOL))
    if not np.isfinite(row).all():
        raise IllConditionedEventError(
            "boundary extrapolation gave non-finite event data")
    t_bar, y_bar, xi_hat = row[0], row[1:1 + b], row[1 + b]
    eta_hat = row[2 + b:2 + 2 * b]
    z_bar = spec.fiber.wrap(row[2 + 2 * b:])
    sgn_tau = 1 if tau[-1] > 0 else -1
    probe = EdgePhasePoint(t=t_bar, x=0.0, y=y_bar, z=z_bar,
                           tau=float(sgn_tau), xi=xi_hat, eta=eta_hat,
                           zeta=np.zeros(f))
    cls, margin = classify_boundary(spec, normalize_cosphere(probe))
    char_defect = abs(xi_hat * xi_hat - margin)
    if cls == BoundaryClass.HYPERBOLIC and not char_defect <= 1e-4:
        raise IllConditionedEventError(
            "extrapolated event misses the characteristic set by %.3g"
            % char_defect)
    return BoundaryEvent(branch_id=branch_id, boundary_class=cls,
                         t_bar=float(t_bar), y_bar=y_bar, z_bar=z_bar,
                         sgn_tau=sgn_tau, xi_hat=float(xi_hat),
                         eta_hat=eta_hat, margin=float(margin),
                         char_defect=float(char_defect),
                         residual=float(residual))


# --- branching -----------------------------------------------------------

@dataclass(frozen=True)
class BranchLaunch:
    data: BoundaryData
    kind: str
    fiber_point: np.ndarray


def _fan_points(spec, z_bar, n):
    """n fiber points spread uniformly over the fiber, anchored at z_bar."""
    f = spec.f
    per_axis = max(2, math.ceil(n ** (1.0 / f)))
    axes = []
    for a in range(f):
        period = spec.fiber.periods[a]
        if period is not None:
            axes.append(z_bar[a] + period * np.arange(per_axis) / per_axis)
        else:
            lo, hi = spec.z_box[a]
            axes.append(np.linspace(lo, hi, per_axis))
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    return [spec.fiber.wrap(row) for row in grid[:n]]


def branch_hyperbolic(spec, event, policy):
    """Outgoing launch data for a hyperbolic event under a branch policy.

    All launches share the event's slow data; xi_hat keeps its magnitude
    with the sign flipped to the outgoing convention.
    """
    if event.boundary_class != BoundaryClass.HYPERBOLIC:
        raise ValueError("branching applies to hyperbolic events only")

    def launch(z_point, kind):
        return BranchLaunch(data=event.outgoing(z_point), kind=kind,
                            fiber_point=np.asarray(z_point, float))

    if policy.kind == "same_fiber":
        return [launch(event.z_bar, BranchKind.DIFFRACTED)]
    if policy.kind == "geometric":
        partners = geometric_partners(spec, event.y_bar, event.z_bar)
        partners.sort(key=lambda z: tuple(np.round(z, 9)))
        return [launch(z, BranchKind.GEOMETRIC) for z in partners]
    if policy.kind == "fan":
        return [launch(z, BranchKind.DIFFRACTED)
                for z in _fan_points(spec, event.z_bar, policy.n)]
    raise ConfigError("unknown branch policy %r" % (policy,))


# --- glancing continuation ------------------------------------------------

@dataclass
class TangentialPath:
    """Unit-cosphere tangential travel (t, y, eta_hat) within the boundary."""

    t: np.ndarray
    y: np.ndarray            # (n, b)
    eta_hat: np.ndarray      # (n, b)
    norm_drift: float        # worst deviation of |eta_hat|_h from 1


def _tangential_flow(spec, t0, y0, eta0, sgn_tau, delta):
    """Geodesic flow of h(0, y)^{-1} for time delta, reversed for sgn_tau
    > 0, at TANGENTIAL_SAMPLES steps: one shooter lane on the base block
    per sample, each over its own share of the travel."""
    if not spec.b:
        return TangentialPath(t=np.array([t0, t0 + delta]), y=np.zeros((2, 0)),
                              eta_hat=np.zeros((2, 0)), norm_drift=0.0)
    ev = spec.evaluator()
    ys, etas = _shoot(ev.base_cogeodesic, y0, eta0,
                      np.linspace(0.0, -delta / sgn_tau, TANGENTIAL_SAMPLES))
    norms = np.einsum("ni,ni->n", etas, _velocity(ev.base_cogeodesic, ys,
                                                  etas))
    return TangentialPath(t=t0 + np.linspace(0.0, delta, TANGENTIAL_SAMPLES),
                          y=ys, eta_hat=etas,
                          norm_drift=float(np.max(np.abs(norms - 1.0))))


def continue_glancing(spec, event, delta):
    """Tangential travel for parameter delta, then a grazing re-entry.

    Returns (TangentialPath, BoundaryData): the re-entry uses an
    infinitesimal outgoing xi_hat with eta_hat rescaled back onto the
    unit cosphere, realizing one admissible continuation of the
    tangency.
    """
    if event.boundary_class != BoundaryClass.GLANCING:
        raise ValueError("glancing continuation applies to glancing events")
    ev = spec.evaluator()

    def unit(y, eta):   # onto the unit base cosphere (b = 0: stays empty)
        return eta / math.sqrt(float(eta @ ev.base_cometric(y, event.z_bar)
                                     @ eta))

    path = _tangential_flow(spec, event.t_bar, event.y_bar,
                            unit(event.y_bar, event.eta_hat), event.sgn_tau,
                            delta)
    xi_re = -event.sgn_tau * GLANCING_XI
    data = BoundaryData(t_bar=event.t_bar + delta, y_bar=path.y[-1],
                        z_bar=event.z_bar, sgn_tau=event.sgn_tau,
                        xi_hat=xi_re,
                        eta_hat=unit(path.y[-1], path.eta_hat[-1])
                        * math.sqrt(1.0 - xi_re * xi_re))
    return path, data


# --- path assembly ---------------------------------------------------------

@dataclass
class GbbBranch:
    branch_id: str
    kind: str
    parent_id: str | None = None
    fiber_point: np.ndarray | None = None
    seed: EdgePhasePoint | None = None
    segment: object = None
    event: BoundaryEvent | None = None
    tangential: TangentialPath | None = None
    children: list = field(default_factory=list)
    note: str = ""


@dataclass
class GbbPath:
    spec: object
    policy: BranchPolicy
    branches: dict
    root_id: str = "0"
    truncated: bool = False

    def events(self):
        out = []
        for bid in sorted(self.branches):
            ev = self.branches[bid].event
            if ev is not None:
                out.append(ev)
        return out

    def branch_ids(self):
        return sorted(self.branches)

    def segments(self):
        return [(bid, self.branches[bid].segment)
                for bid in sorted(self.branches)
                if self.branches[bid].segment is not None]


def trace_gbb(spec, q0, t_span, policy=SAME_FIBER, settings=FlowSettings()):
    """Trace the broken bicharacteristic tree from an interior point.

    Alternates interior integration, event extrapolation and branching
    until every branch leaves t_span or BRANCH_BUDGET segments are
    integrated (the partial path is returned with truncated=True).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ConfigError("t_span must be increasing")
    if q0.t < t0:
        raise ConfigError("launch point starts before t_span")
    if not q0.x > settings.x_stop:
        raise ConfigError("launch point x = %.6g is not above x_stop = %.6g"
                          % (q0.x, settings.x_stop))
    if q0.tau == 0.0:
        raise ConfigError("launch point has tau = 0; light rays need "
                          "tau != 0")
    p_rel = abs(spec.evaluator().hamilton(q0.to_vector().tolist(), 1.0)[0]
                / q0.tau ** 2)
    if not p_rel <= hamiltonian.P_DRIFT_MAX:
        raise ConfigError("launch point is off the characteristic set: "
                          "|p|/tau^2 = %.3g exceeds %.1g"
                          % (p_rel, hamiltonian.P_DRIFT_MAX))
    if not settings.x_stop < hamiltonian.EPS_LAUNCH:
        raise ConfigError("x_stop = %.6g must lie below the launch height "
                          "EPS_LAUNCH = %.6g of outgoing rays"
                          % (settings.x_stop, hamiltonian.EPS_LAUNCH))
    root = GbbBranch(branch_id="0", kind=BranchKind.INCIDENT, seed=q0)
    path = GbbPath(spec=spec, policy=policy, branches={"0": root})
    queue = deque(["0"])
    used = 0
    while queue:
        if used >= BRANCH_BUDGET:
            path.truncated = True
            break
        bid = queue.popleft()
        branch = path.branches[bid]
        seed = branch.seed
        s_max = t1 - seed.t
        if s_max <= 0.0:
            branch.note = "launched outside t_span"
            continue
        direction = -1 if seed.tau > 0 else 1
        segment = integrate_interior(spec, seed, direction, settings,
                                     s_max=s_max)
        used += 1
        branch.segment = segment
        if segment.termination != Termination.BOUNDARY_APPROACH:
            branch.note = segment.termination.value
            continue
        event = detect_boundary_event(spec, segment, branch_id=bid)
        branch.event = event
        if event.boundary_class == BoundaryClass.HYPERBOLIC:
            launches = branch_hyperbolic(spec, event, policy)
        else:
            tangential, re_data = continue_glancing(
                spec, event, min(GLANCING_INTERVAL, t1 - event.t_bar))
            branch.tangential = tangential
            launches = [BranchLaunch(data=re_data, kind=BranchKind.GLANCING,
                                     fiber_point=re_data.z_bar)]
        for i, launch in enumerate(launches):
            child_id = "%s.%d" % (bid, i)
            child = GbbBranch(branch_id=child_id, kind=launch.kind,
                              parent_id=bid, fiber_point=launch.fiber_point)
            try:
                child.seed = stable_manifold_launch(
                    spec, launch.data, settings,
                    newton=launch.kind != BranchKind.GLANCING)
            except LaunchFailedError as err:
                child.note = "launch failed: %s" % err
                path.branches[child_id] = child
                branch.children.append(child_id)
                continue
            path.branches[child_id] = child
            branch.children.append(child_id)
            if child.seed.t <= t1:
                queue.append(child_id)
            else:
                child.note = "re-entry beyond t_span"
    return path


# --- conformance checks -----------------------------------------------------

def backward_event(spec, seed, settings=FlowSettings()):
    """Integrate a launch seed back toward the edge and extrapolate.

    Used to verify the hand-off: the re-detected boundary data of an
    outgoing seed should reproduce the data it was launched from.
    """
    direction = -1 if seed.xi > 0 else 1
    xi_hat = abs(seed.xi / seed.tau)
    s_max = 8.0 * seed.x / max(xi_hat, 1e-3)
    segment = integrate_interior(spec, seed, direction, settings,
                                 s_max=s_max)
    if segment.termination != Termination.BOUNDARY_APPROACH:
        raise IllConditionedEventError("seed did not re-approach the edge")
    return detect_boundary_event(spec, segment)


def verify_handoff(spec, seed, data, settings=FlowSettings()):
    """Defects between a seed's re-detected boundary data and its target."""
    event = backward_event(spec, seed, settings)
    dz = spec.fiber.coordinate_delta(event.z_bar, data.z_bar)
    return {
        "t": abs(event.t_bar - data.t_bar),
        "y": float(np.max(np.abs(event.y_bar - data.y_bar))) if spec.b
             else 0.0,
        "eta": float(np.max(np.abs(event.eta_hat - data.eta_hat)))
               if spec.b else 0.0,
        "abs_xi": abs(abs(event.xi_hat) - abs(data.xi_hat)),
        "fiber": float(np.max(np.abs(dz))),
    }


@dataclass(frozen=True)
class LipschitzReport:
    max_segment_quotient: float
    max_slow_jump: float
    junction_jumps: tuple       # (branch_id, child_id, jump dict) triples
    fiber_jumps: tuple          # per-junction fiber-point movement (fast data)
    finite: bool


def lipschitz_check(path, settings=FlowSettings()):
    """Difference quotients of the slow variables along a traced path.

    Along segments the quotient uses the unit-|dt| parameter; across
    each event junction the outgoing branch seed is integrated back to
    the edge and its re-extrapolated slow data compared with the
    event's.  Fiber-point movement (fast data) is reported separately
    and never counted as a slow jump.
    """
    spec = path.spec
    max_quot = 0.0
    for _, segment in path.segments():
        if len(segment.s) < 2:
            continue
        ds = np.diff(segment.s)
        t, x, y, _, tau, _, eta, _ = split_state(segment.states, spec.b,
                                                 spec.f)
        slow = np.column_stack((t, x, y, eta / np.abs(tau)[:, None]))
        quot = np.abs(np.diff(slow, axis=0)) / ds[:, None]
        if quot.size:
            max_quot = max(max_quot, float(quot.max()))
    junctions = []
    fiber_jumps = []
    max_jump = 0.0
    for bid in path.branch_ids():
        branch = path.branches[bid]
        if branch.event is None:
            continue
        event = branch.event
        for child_id in branch.children:
            child = path.branches[child_id]
            if child.seed is None or child.kind == BranchKind.GLANCING:
                continue
            fiber_jumps.append(float(np.max(np.abs(
                spec.fiber.coordinate_delta(child.fiber_point,
                                            event.z_bar)))))
            defects = verify_handoff(spec, child.seed,
                                     event.outgoing(child.fiber_point),
                                     settings)
            slow_jump = max(defects["t"], defects["y"], defects["eta"],
                            defects["abs_xi"])
            max_jump = max(max_jump, slow_jump)
            junctions.append((bid, child_id, defects))
    return LipschitzReport(max_segment_quotient=max_quot,
                           max_slow_jump=max_jump,
                           junction_jumps=tuple(junctions),
                           fiber_jumps=tuple(fiber_jumps),
                           finite=math.isfinite(max_quot))
