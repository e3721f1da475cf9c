"""Bicharacteristic flow of the wave symbol in edge coordinates.

With p = tau^2 - u.G^{-1}(x,y,z).u, u = (xi, eta, zeta), the flow field
used throughout is the rescale H = -(x^2/2) * (Hamilton field of p/x^2),
which extends smoothly to x = 0.  Writing w = G^{-1} u it reads

    dt/ds    = -tau*x
    dx/ds    = x*w_xi                 dtau/ds  = tau*w_xi
    dy/ds    = x*w_eta                dxi/ds   = -p + tau^2 - eta.w_eta
                                                 + (x/2) w.dG/dx.w
    dz/ds    = w_zeta                 deta/ds  = eta*w_xi + (x/2) w.dG/dy.w
                                      dzeta/ds = (1/2) w.dG/dz.w

Along integral curves p and tau/x are conserved and t is monotone with
dt/ds = -tau*x, so the physical time direction corresponds to the flow
direction -sgn(tau).

The field is generated per metric as straight-line code
(``MetricEvaluator.hamilton``): w_xi = xi because G's x row is
(1, 0, .., 0), the (b + f) block is solved by an unrolled LDL^T
factorization, and the quadratic forms run over the nonzero entries of
dG.  It returns the symbol p with the field, and
``RaySegment.conserved_log`` reads p from it at each sample of a segment.

The unit-gauge version divides the covector by |tau| (hatted variables,
sigma = 1/|tau|) and rescales time by sigma; it vanishes exactly at
x = 0, zeta_hat = 0, sigma = 0 on the characteristic set (radial
points), where its linearization has eigenvalues -xi_hat, 0, +xi_hat.

Numerical integration (``ode.rk45`` stepping on tuples of floats, with
the boundary threshold and the chart exit as terminal events) further
rescales the field by 1/(x|tau|), a positive factor that leaves
trajectories unchanged while making the parameter advance at unit speed
in t; the approach to the boundary then costs a bounded parameter
interval instead of slowing down algebraically.

Launch seeds at x = EPS_LAUNCH are first order in x.  If h is constant
and h', kyy, kyz vanish (b = 0, product edges, sphere_edge), G_yy = h and
G_yz = 0: a ray with zeta = 0 keeps z, zeta and runs straight in
dx^2 + h dy^2, so the seed is exact; elsewhere a Newton probe corrects it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import ode
from .errors import (ConfigError, FlowEscapedError, IllConditionedEventError,
                     IntegrationDivergedError, LaunchFailedError,
                     StepLimitError)
from .metric import transverse_momentum
from .phase import EdgePhasePoint, set_float_arrays, split_state

EPS_LAUNCH = 1e-3      # height x at which outgoing rays are seeded
P_DRIFT_MAX = 1e-6     # largest |p|/tau^2 an interior segment may carry
MAX_STEPS = 500000     # field evaluations allowed per interior segment
FD_STEP = 1e-6         # central-difference step of the radial linearization


@dataclass(frozen=True)
class FlowSettings:
    """What a scene sets: integrator tolerances and the height x_stop at
    which an interior ray is handed to the edge machinery.  Values the
    integrator cannot use raise ConfigError."""

    rtol: float = 1e-10
    atol: float = 1e-12
    x_stop: float = 1e-4

    def __post_init__(self):
        if not (math.isfinite(self.rtol) and self.rtol >= 100 * ode.EPS):
            raise ConfigError("rtol = %r must be finite and at least %.3g"
                              % (self.rtol, 100 * ode.EPS))
        if not (math.isfinite(self.atol) and self.atol > 0.0):
            # the step size divides by atol at a zero state component
            raise ConfigError("atol = %r must be finite and positive"
                              % self.atol)
        if not (math.isfinite(self.x_stop) and self.x_stop > 0.0):
            # the integrated field is divided by x
            raise ConfigError("x_stop = %r must be finite and positive"
                              % self.x_stop)


class Termination(enum.Enum):
    BOUNDARY_APPROACH = "BoundaryApproach"
    TIME_LIMIT = "TimeLimit"
    CHART_EXIT = "ChartExit"


class RayEnd(enum.Enum):
    INCOMING = "incoming"
    OUTGOING = "outgoing"


def hamilton_field(spec, q):
    """Field value at an edge phase point, ordered like q.to_vector()."""
    return np.array(spec.evaluator().hamilton(q.to_vector().tolist(), 1.0)[1])


def rescaled_field(spec, q):
    """Unit-gauge field at a CospherePoint, ordered like q.to_vector().

    Equals sigma times the push-forward of hamilton_field under the
    gauge change wherever both are defined, and vanishes identically at
    radial points (x = 0, zeta_hat = 0, sigma = 0 on the characteristic
    set).
    """
    ev = spec.evaluator()
    return _rescaled_vector(ev, q.to_vector(), q.sgn_tau)


def _rescaled_vector(ev, vec, sgn_tau):
    # The field at tau = sgn_tau, pushed through the gauge change: sigma
    # and the hatted covector scale by -w_xi, which keeps it exact at
    # sigma = 0.
    isig = 2 + ev.b + ev.f
    out = np.array(ev.hamilton(vec[:isig].tolist() + [float(sgn_tau)]
                               + vec[isig + 1:].tolist(), 1.0)[1])
    w_xi = out[isig] * sgn_tau
    out[isig] = -vec[isig] * w_xi
    out[isig + 1:] -= vec[isig + 1:] * w_xi
    return out


@dataclass
class RaySegment:
    """One interior integration: samples, termination, conserved checks."""

    spec: object
    direction: int
    s: np.ndarray               # flow parameter, |dt/ds| = 1, from 0
    states: np.ndarray          # (n, 2*(2+b+f)) rows in to_vector order
    termination: Termination
    dense: object = None        # ode.DenseOutput over the parameter s
    nfev: int = 0
    rejected: int = 0           # step attempts the error control rejected
    p_rel: np.ndarray = None    # per-sample p/tau^2, from the drift gate

    def point(self, i):
        return EdgePhasePoint.from_vector(self.states[i], self.spec.b,
                                          self.spec.f)

    @property
    def x(self):
        return self.states[:, 1]

    @property
    def t(self):
        return self.states[:, 0]

    def conserved_log(self):
        """Per-sample (p, p/tau^2, tau/x, |tau|)."""
        _, x, _, _, tau, _, _, _ = split_state(self.states, self.spec.b,
                                               self.spec.f)
        hamilton = self.spec.evaluator().hamilton
        p = np.array([hamilton(row, 1.0)[0] for row in self.states.tolist()])
        return {
            "p": p,
            "p_rel": p / tau ** 2,
            "tau_over_x": tau / x,
            "abs_tau": np.abs(tau),
        }


def integrate_interior(spec, q0, direction, settings=FlowSettings(),
                       s_max=10.0):
    """Integrate the flow from q0 with the unit-|dt| parametrization.

    direction multiplies the field; the parameter s then advances t at
    rate -direction*sgn(tau).  Terminates on reaching settings.x_stop
    from above (BoundaryApproach), on exhausting s_max > 0 (TimeLimit), or
    on leaving the fiber chart for chart-only fiber topologies
    (ChartExit).  More than MAX_STEPS field evaluations raise
    StepLimitError while integrating.
    """
    if q0.x <= settings.x_stop:
        raise ValueError("initial point must start above x_stop")
    if q0.tau == 0.0:
        raise ValueError("tau must be nonzero along light rays")
    hamilton = spec.evaluator().hamilton
    itau = 2 + spec.b + spec.f

    def rhs(s, vec):
        return hamilton(vec, direction / (vec[1] * abs(vec[itau])))[1]

    def hit_boundary(s, vec):
        return vec[1] - settings.x_stop

    events = [(hit_boundary, -1)]
    if spec.fiber.kind == "chart":
        box = list(enumerate(spec.z_box, 2 + spec.b))   # (index, (lo, hi))

        def chart_exit(s, vec):
            return -max(max(vec[i] - hi, lo - vec[i]) for i, (lo, hi) in box)
        events.append((chart_exit, 0))

    sol = ode.rk45(rhs, s_max, q0.to_vector().tolist(), settings.rtol,
                   settings.atol, MAX_STEPS, events)
    if sol.event is None:
        termination = Termination.TIME_LIMIT
    elif sol.event == 0:
        termination = Termination.BOUNDARY_APPROACH
    else:
        termination = Termination.CHART_EXIT
    segment = RaySegment(spec=spec, direction=direction, s=sol.t,
                         states=sol.y, termination=termination,
                         dense=sol.dense, nfev=sol.nfev, rejected=sol.rejected)
    segment.p_rel = segment.conserved_log()["p_rel"]
    rel = np.abs(segment.p_rel)
    if not rel.max() <= P_DRIFT_MAX:
        raise IntegrationDivergedError(
            "characteristic drift |p|/tau^2 = %.3g exceeds %.1g"
            % (rel.max(), P_DRIFT_MAX))
    return segment


# --- radial-point linearization ----------------------------------------

@dataclass(frozen=True)
class LinearizationResult:
    matrix: np.ndarray
    eigenvalues: np.ndarray       # sorted real parts
    xi_hat: float
    counts: dict                  # multiplicities at -xi_hat, 0, +xi_hat
    max_residual: float           # worst distance to the expected set
    max_imag: float


def linearization_at_radial(spec, q):
    """Finite-difference Jacobian of the unit-gauge field at a radial point.

    The spectrum consists of -xi_hat (multiplicity 1 + f, covering the
    scale direction and the fiber covector), 0 (multiplicity 2b + f + 2),
    and +xi_hat (multiplicity 1, the normal direction).
    """
    ev = spec.evaluator()
    vec = q.to_vector()
    n = len(vec)
    L = np.empty((n, n))
    for j in range(n):
        vp = vec.copy()
        vm = vec.copy()
        vp[j] += FD_STEP
        vm[j] -= FD_STEP
        L[:, j] = (_rescaled_vector(ev, vp, q.sgn_tau)
                   - _rescaled_vector(ev, vm, q.sgn_tau)) / (2.0 * FD_STEP)
    eig = np.linalg.eigvals(L)
    order = np.argsort(eig.real)
    eig = eig[order]
    targets = np.array([-q.xi_hat, 0.0, q.xi_hat])
    dist = np.abs(eig.real[:, None] - targets[None, :])
    nearest = dist.argmin(axis=1)
    counts = {"-xi_hat": int((nearest == 0).sum()),
              "0": int((nearest == 1).sum()),
              "+xi_hat": int((nearest == 2).sum())}
    return LinearizationResult(
        matrix=L,
        eigenvalues=eig.real,
        xi_hat=q.xi_hat,
        counts=counts,
        max_residual=float(dist.min(axis=1).max()),
        max_imag=float(np.abs(eig.imag).max()))


# --- launching rays from boundary data ---------------------------------

@dataclass(frozen=True)
class BoundaryData:
    """Slow data of a ray endpoint on the edge, in the unit gauge."""

    t_bar: float
    y_bar: np.ndarray
    z_bar: np.ndarray
    sgn_tau: int
    xi_hat: float          # signed; sgn(xi_hat) = +sgn_tau on incoming rays
    eta_hat: np.ndarray

    def __post_init__(self):
        set_float_arrays(self, "y_bar", "z_bar", "eta_hat")

    @property
    def io(self):
        return (RayEnd.INCOMING if self.xi_hat * self.sgn_tau > 0
                else RayEnd.OUTGOING)


def _seed_from_data(spec, data):
    sgn_io = 1.0 if data.io == RayEnd.INCOMING else -1.0
    t_seed = data.t_bar - sgn_io * EPS_LAUNCH / abs(data.xi_hat)
    H = spec.evaluator().base_cometric(data.y_bar, data.z_bar)
    if spec.b:
        dydt = -(H @ data.eta_hat) / data.sgn_tau
        y_seed = data.y_bar + (t_seed - data.t_bar) * dydt
    else:
        y_seed = data.y_bar
    zeta = np.zeros(spec.f)
    try:
        xi = transverse_momentum(spec, EPS_LAUNCH, y_seed, data.z_bar,
                                 float(data.sgn_tau), data.eta_hat, zeta,
                                 sign=math.copysign(1.0, data.xi_hat))
    except ValueError as err:
        raise LaunchFailedError(str(err))
    return EdgePhasePoint(t=t_seed, x=EPS_LAUNCH, y=y_seed,
                          z=data.z_bar, tau=float(data.sgn_tau), xi=xi,
                          eta=data.eta_hat, zeta=zeta)


def stable_manifold_launch(spec, data, settings=FlowSettings(), newton=True):
    """Interior seed at x = EPS_LAUNCH on the ray with the given edge data.

    The ray is incoming or outgoing as data.io says.  The seed is built
    from the leading asymptotics (zeta_hat = O(x), xi solved exactly from
    p = 0).  Unless the evaluator's seed_exact says it is exact (see the
    module notes), one Newton correction follows: the seed is integrated
    toward the boundary, its leading-order boundary data are read off,
    and the position defect is subtracted.
    Set newton=False for grazing data, where the probe geometry
    degenerates and the leading-order seed is used as is.
    """
    if data.xi_hat == 0.0:
        raise LaunchFailedError("xi_hat = 0: glancing data cannot seed a "
                                "transversal ray")
    seed = _seed_from_data(spec, data)
    if not newton or spec.evaluator().seed_exact:
        return seed
    # Newton pass: probe toward the edge, extrapolate the limiting data
    # of the seeded ray, and subtract the measured position defect.
    from .gbb import backward_event
    try:
        readoff = backward_event(spec, seed, settings).data()
    except (IntegrationDivergedError, IllConditionedEventError,
            StepLimitError, FlowEscapedError) as err:
        raise LaunchFailedError("seed probe failed: %s" % err)
    dt = readoff.t_bar - data.t_bar
    dy = readoff.y_bar - data.y_bar
    dz = spec.fiber.coordinate_delta(readoff.z_bar, data.z_bar)
    corrected = replace(seed, t=seed.t - dt, y=seed.y - dy, z=seed.z - dz)
    try:
        xi = transverse_momentum(spec, corrected.x, corrected.y, corrected.z,
                                 corrected.tau, corrected.eta, corrected.zeta,
                                 sign=math.copysign(1.0, data.xi_hat))
    except ValueError as err:
        raise LaunchFailedError(str(err))
    return replace(corrected, xi=xi)
