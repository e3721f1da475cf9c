"""Phase-space point types, gauges, and boundary classification.

Points of the rescaled cotangent bundle carry coordinates
(t, x, y, z, tau, xi, eta, zeta) dual to (dt/x, dx/x, dy/x, dz).  The
unit gauge divides the covector by |tau| (sigma = 1/|tau| kept as the
scale bookkeeping variable, sigma = 0 marking ideal points).

Classification of boundary points into elliptic / glancing / hyperbolic
uses the sign of the margin tau_hat^2 - |eta_hat|^2_h = 1 - |eta_hat|^2
evaluated in the x = 0 base cometric.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

TOL_G = 1e-9    # |margin| at or below which a boundary point is glancing


class BoundaryClass(enum.Enum):
    ELLIPTIC = "elliptic"
    GLANCING = "glancing"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class EdgePhasePoint:
    """A point of the rescaled cotangent bundle over (t, x, y, z)."""

    t: float
    x: float
    y: np.ndarray
    z: np.ndarray
    tau: float
    xi: float
    eta: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, float)))
        object.__setattr__(self, "z", np.atleast_1d(np.asarray(self.z, float)))
        object.__setattr__(self, "eta", np.atleast_1d(np.asarray(self.eta, float)))
        object.__setattr__(self, "zeta", np.atleast_1d(np.asarray(self.zeta, float)))

    def to_vector(self):
        return np.concatenate(([self.t, self.x], self.y, self.z,
                               [self.tau, self.xi], self.eta, self.zeta))

    @staticmethod
    def from_vector(vec, b, f):
        vec = np.asarray(vec, float)
        iy, iz = 2, 2 + b
        itau = 2 + b + f
        return EdgePhasePoint(
            t=float(vec[0]), x=float(vec[1]),
            y=vec[iy:iz].copy(), z=vec[iz:itau].copy(),
            tau=float(vec[itau]), xi=float(vec[itau + 1]),
            eta=vec[itau + 2:itau + 2 + b].copy(),
            zeta=vec[itau + 2 + b:].copy())


@dataclass(frozen=True)
class CospherePoint:
    """Unit-gauge point: covector divided by |tau|, sign kept separately.

    sigma = 1/|tau| records the original scale; sigma = 0 is admissible
    and marks ideal boundary-at-infinity points such as radial points.
    """

    t: float
    x: float
    y: np.ndarray
    z: np.ndarray
    sgn_tau: int
    xi_hat: float
    eta_hat: np.ndarray
    zeta_hat: np.ndarray
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, float)))
        object.__setattr__(self, "z", np.atleast_1d(np.asarray(self.z, float)))
        object.__setattr__(self, "eta_hat",
                           np.atleast_1d(np.asarray(self.eta_hat, float)))
        object.__setattr__(self, "zeta_hat",
                           np.atleast_1d(np.asarray(self.zeta_hat, float)))

    def to_vector(self):
        """Order (t, x, y, z, sigma, xi_hat, eta_hat, zeta_hat)."""
        return np.concatenate(([self.t, self.x], self.y, self.z,
                               [self.sigma, self.xi_hat],
                               self.eta_hat, self.zeta_hat))

    @staticmethod
    def from_vector(vec, b, f, sgn_tau):
        vec = np.asarray(vec, float)
        iy, iz = 2, 2 + b
        isig = 2 + b + f
        return CospherePoint(
            t=float(vec[0]), x=float(vec[1]),
            y=vec[iy:iz].copy(), z=vec[iz:isig].copy(),
            sgn_tau=int(sgn_tau), sigma=float(vec[isig]),
            xi_hat=float(vec[isig + 1]),
            eta_hat=vec[isig + 2:isig + 2 + b].copy(),
            zeta_hat=vec[isig + 2 + b:].copy())


def normalize_cosphere(q):
    """Divide the covector by |tau|; requires tau != 0."""
    if q.tau == 0.0:
        raise ValueError("cannot normalize a covector with tau = 0")
    scale = abs(q.tau)
    return CospherePoint(
        t=q.t, x=q.x, y=q.y.copy(), z=q.z.copy(),
        sgn_tau=1 if q.tau > 0 else -1,
        xi_hat=q.xi / scale,
        eta_hat=q.eta / scale,
        zeta_hat=q.zeta / scale,
        sigma=1.0 / scale)


def boundary_margin(spec, q):
    """tau_hat^2 - |eta_hat|^2 in the x = 0 base cometric (= 1 - |eta_hat|^2)."""
    H = spec.evaluator().base_cometric(q.y)
    return 1.0 - float(q.eta_hat @ H @ q.eta_hat)


def classify_boundary(spec, q):
    """Classify a boundary point (x = 0) by the slow-data margin."""
    if q.x != 0.0:
        raise ValueError("classification applies to boundary points (x = 0)")
    margin = boundary_margin(spec, q)
    if margin > TOL_G:
        cls = BoundaryClass.HYPERBOLIC
    elif margin < -TOL_G:
        cls = BoundaryClass.ELLIPTIC
    else:
        cls = BoundaryClass.GLANCING
    return cls, margin
