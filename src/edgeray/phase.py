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

from .errors import NumericalError

TOL_G = 1e-9    # |margin| at or below which a boundary point is glancing


def split_state(states, b, f):
    """Views (t, x, y, z, tau, xi, eta, zeta) of the last axis of states
    in to_vector order; a cosphere vector reads (t, x, y, z, sigma,
    xi_hat, eta_hat, zeta_hat) in the same slots."""
    i = 2 + b + f
    return (states[..., 0], states[..., 1], states[..., 2:2 + b],
            states[..., 2 + b:i], states[..., i], states[..., i + 1],
            states[..., i + 2:i + 2 + b], states[..., i + 2 + b:])


def set_float_arrays(record, *names):
    """Store the named fields of a frozen dataclass as own 1-d arrays."""
    for name in names:
        object.__setattr__(record, name,
                           np.array(getattr(record, name), float, ndmin=1))


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
        set_float_arrays(self, "y", "z", "eta", "zeta")

    def to_vector(self):
        return np.concatenate(([self.t, self.x], self.y, self.z,
                               [self.tau, self.xi], self.eta, self.zeta))

    @staticmethod
    def from_vector(vec, b, f):
        t, x, y, z, tau, xi, eta, zeta = split_state(np.asarray(vec, float),
                                                     b, f)
        return EdgePhasePoint(float(t), float(x), y, z, float(tau), float(xi),
                              eta, zeta)


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
        set_float_arrays(self, "y", "z", "eta_hat", "zeta_hat")

    def to_vector(self):
        """Order (t, x, y, z, sigma, xi_hat, eta_hat, zeta_hat)."""
        return np.concatenate(([self.t, self.x], self.y, self.z,
                               [self.sigma, self.xi_hat],
                               self.eta_hat, self.zeta_hat))

    @staticmethod
    def from_vector(vec, b, f, sgn_tau):
        t, x, y, z, sigma, xi_hat, eta_hat, zeta_hat = split_state(
            np.asarray(vec, float), b, f)
        return CospherePoint(float(t), float(x), y, z, int(sgn_tau),
                             float(xi_hat), eta_hat, zeta_hat, float(sigma))


def normalize_cosphere(q):
    """Divide the covector by |tau|; requires tau != 0."""
    if q.tau == 0.0:
        raise ValueError("cannot normalize a covector with tau = 0")
    scale = abs(q.tau)
    return CospherePoint(
        t=q.t, x=q.x, y=q.y, z=q.z,
        sgn_tau=1 if q.tau > 0 else -1,
        xi_hat=q.xi / scale,
        eta_hat=q.eta / scale,
        zeta_hat=q.zeta / scale,
        sigma=1.0 / scale)


def classify_boundary(spec, y, z, eta_hat):
    """Classify the boundary point over (y, z) with base covector eta_hat
    by its margin 1 - |eta_hat|^2 in the x = 0 base cometric; returns
    (class, margin), and a margin that is not finite raises NumericalError."""
    H = spec.evaluator().base_cometric(y, z)
    margin = 1.0 - float(eta_hat @ H @ eta_hat)
    if not np.isfinite(margin):
        raise NumericalError("boundary margin %r is not finite" % margin)
    if margin > TOL_G:
        cls = BoundaryClass.HYPERBOLIC
    elif margin < -TOL_G:
        cls = BoundaryClass.ELLIPTIC
    else:
        cls = BoundaryClass.GLANCING
    return cls, margin
