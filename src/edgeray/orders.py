"""Sobolev-order bookkeeping for edge interactions, in exact arithmetic.

Orders are rational numbers; conclusions of the propagation rules are
suprema that are usually not attained ("for all r < s"), so open bounds
are first-class values, rendered as "<s".  All arithmetic uses
fractions.Fraction; floats are converted through their decimal string
so 0.6 means 3/5, and conversion back to float happens only at
serialization boundaries.

Rules implemented:

  * diffractive propagation preserves the incident order on every
    outgoing branch (fiber-globally);
  * with a nonfocusing hypothesis of space order s, outgoing branches
    all of whose geometric partners are clean improve to the open bound
    "< s";
  * the fundamental-solution orders are incident < -n/2 + 1 and
    diffracted < -n/2 + 1 + f/2, a gain of exactly f/2;
  * the edge propagation thresholds are strict: incoming needs
    m > l + f/2, outgoing needs m < l + f/2;
  * maintaining coisotropic order k costs nothing for eps > 1/2 and
    requires any k' > k/(2 eps) otherwise;
  * Lagrangian data of order s are nonfocusing of any degree
    < -s - n/4 + f/2 against the a-priori order -s - n/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boundary import RELATED_TOL, geometric_partners
from .hamiltonian import RayEnd


def as_rational(value):
    """Exact rational coercion; floats go through their decimal string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not orders")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("non-finite order %r" % value)
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError("cannot interpret %r as an order" % (value,))


@dataclass(frozen=True)
class OrderBound:
    """A Sobolev order bound; open=True means "for all r < value".

    value None encodes +infinity (smooth).
    """

    value: Fraction | None
    open: bool = False

    def __post_init__(self):
        if self.value is not None:
            object.__setattr__(self, "value", as_rational(self.value))
        elif self.open:
            raise ValueError("an infinite bound cannot be open")

    @property
    def infinite(self):
        return self.value is None

    def shifted(self, delta):
        if self.infinite:
            return self
        return OrderBound(self.value + as_rational(delta), self.open)

    def as_open(self):
        if self.infinite:
            return self
        return OrderBound(self.value, True)

    def sort_key(self):
        """Total order: by value, attained above open at equal value."""
        if self.infinite:
            return (1, Fraction(0), 1)
        return (0, self.value, 0 if self.open else 1)

    def __str__(self):
        if self.infinite:
            return "inf"
        return ("<%s" if self.open else "%s") % self.value

    @staticmethod
    def parse(text):
        text = str(text).strip()
        if text == "inf":
            return OrderBound(None)
        if text.startswith("<"):
            return OrderBound(Fraction(text[1:]), True)
        return OrderBound(Fraction(text), False)


INFINITE_ORDER = OrderBound(None)


def as_bound(value):
    """Coerce a number, string, or bound into an (attained) OrderBound."""
    if isinstance(value, OrderBound):
        return value
    if isinstance(value, str):
        return OrderBound.parse(value)
    if value == float("inf"):
        return INFINITE_ORDER
    return OrderBound(as_rational(value))


def bound_max(a, b):
    return a if a.sort_key() >= b.sort_key() else b


@dataclass(frozen=True)
class OrderRequirement:
    """A needed input order; strict=True means any value > this works."""

    value: Fraction
    strict: bool = False

    def __str__(self):
        return (">%s" if self.strict else "%s") % self.value

    def admits(self, candidate):
        candidate = as_rational(candidate)
        return candidate > self.value if self.strict \
            else candidate >= self.value


# --- propagation rules ----------------------------------------------------

def apply_diffractive(s_in):
    """Outgoing sup order after a hyperbolic event: the incident order.

    Wavefront absence up to order k on the incoming family implies
    absence on the whole outgoing family, independent of the order, so
    every branch shares the incident bound.
    """
    return as_bound(s_in)


def apply_geometric(s_nf, geo_clean, s_in=None):
    """Branch bound under a nonfocusing hypothesis of space order s_nf.

    A branch whose geometric partners are all clean gets the open bound
    "< s_nf"; a branch with a dirty partner falls back to the
    diffractive bound (s_in must then be given).  The result is never
    below the diffractive bound.
    """
    improved = as_bound(s_nf).as_open()
    fallback = None if s_in is None else apply_diffractive(s_in)
    if geo_clean:
        return improved if fallback is None \
            else bound_max(improved, fallback)
    if fallback is None:
        raise ValueError("dirty branch needs the incident order s_in")
    return fallback


def fundamental_solution_orders(n, f):
    """Sup orders of the fundamental solution near an edge interaction."""
    n = int(n)
    f = int(f)
    if n < 2:
        raise ValueError("need total dimension n >= 2")
    if not 1 <= f <= n - 1:
        raise ValueError("need fiber dimension 1 <= f <= n-1")
    incident = Fraction(-n, 2) + 1
    return {
        "incident_sup": OrderBound(incident, True),
        "diffracted_sup": OrderBound(incident + Fraction(f, 2), True),
    }


def edge_threshold_check(m, l, f, io):
    """Strict admissibility thresholds for edge propagation.

    Incoming estimates need m > l + f/2; outgoing need m < l + f/2;
    equality is admissible for neither.
    """
    m = as_rational(m)
    threshold = as_rational(l) + Fraction(int(f), 2)
    if isinstance(io, str):
        io = RayEnd(io.lower())
    if io == RayEnd.INCOMING:
        return m > threshold
    if io == RayEnd.OUTGOING:
        return m < threshold
    raise ValueError("unknown io %r" % (io,))


@dataclass(frozen=True)
class CoisotropicResult:
    k_prime: OrderRequirement
    space_order: Fraction     # the background space drops to s - eps

    def __str__(self):
        return "k'=%s over H^(%s)" % (self.k_prime, self.space_order)


def coisotropic_eps_loss(s, k, eps):
    """Input coisotropic order needed to conclude order k with an eps loss.

    k' = k suffices when eps > 1/2; otherwise any k' > k/(2 eps); k = 0
    costs nothing.  The output background space is H^(s - eps).
    """
    eps = as_rational(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    k = as_rational(k)
    if k < 0:
        raise ValueError("coisotropic order must be nonnegative")
    s = as_rational(s)
    if k == 0:
        requirement = OrderRequirement(Fraction(0), False)
    elif eps > Fraction(1, 2):
        requirement = OrderRequirement(k, False)
    else:
        requirement = OrderRequirement(k / (2 * eps), True)
    return CoisotropicResult(k_prime=requirement, space_order=s - eps)


@dataclass(frozen=True)
class LagrangianOrders:
    a_priori: Fraction        # background Sobolev order of the data
    degree: OrderBound        # open nonfocusing degree bound

    def __str__(self):
        return "a-priori %s, degree %s" % (self.a_priori, self.degree)


def lagrangian_nonfocusing_degree(s, n, f):
    """Nonfocusing degree carried by Lagrangian data of order s.

    The a-priori background order is -s - n/4 and the nonfocusing
    degree is any value < -s - n/4 + f/2: the gain over the background
    is exactly f/2.
    """
    s = as_rational(s)
    a_priori = -s - Fraction(int(n), 4)
    return LagrangianOrders(
        a_priori=a_priori,
        degree=OrderBound(a_priori + Fraction(int(f), 2), True))


# --- per-path records -------------------------------------------------------

@dataclass(frozen=True)
class Nonfocusing:
    """Nonfocusing hypothesis: space order s and module degree k."""

    space_order: Fraction
    degree: Fraction

    def __post_init__(self):
        object.__setattr__(self, "space_order",
                           as_rational(self.space_order))
        object.__setattr__(self, "degree", as_rational(self.degree))


@dataclass(frozen=True)
class BranchOrder:
    sup_order: OrderBound
    rule: str
    eps_loss: bool = False


@dataclass
class RegularityRecord:
    s_incident: OrderBound
    nonfocusing: Nonfocusing | None
    per_branch: dict


def _branch_clean(spec, event, branch, clean_flags, partners):
    """Whether a branch is clean: geometric branches never are, nor, on
    f = 1 fibers, a branch at an arc-pi partner of its event's fiber
    point.  partners caches those partners, so each event shoots once."""
    if clean_flags is not None:
        return clean_flags
    if branch.kind == "geometric":
        return False
    if event is not None and spec.f == 1:
        if event.branch_id not in partners:
            partners[event.branch_id] = geometric_partners(
                spec, event.y_bar, event.z_bar)
        return not any(
            np.linalg.norm(spec.fiber.coordinate_delta(z, branch.fiber_point))
            <= RELATED_TOL for z in partners[event.branch_id])
    return True


def annotate_path(path, s_incident, nonfocusing=None, clean_flags=None):
    """Attach sup-order bounds to every branch of a traced path.

    The incident branch carries its hypothesis; outgoing branches get
    the diffractive bound, improved to the open nonfocusing bound on
    branches whose geometric partners are clean.  clean_flags, a scene's
    clean key, overrides that determination on every branch when it is
    not None.
    """
    s_in = as_bound(s_incident)
    record = RegularityRecord(s_incident=s_in, nonfocusing=nonfocusing,
                              per_branch={})
    spec = path.spec
    partners = {}
    for bid in path.branch_ids():
        branch = path.branches[bid]
        if branch.kind == "incident":
            record.per_branch[bid] = BranchOrder(s_in, "incident data")
            continue
        diffractive = apply_diffractive(s_in)
        if nonfocusing is None:
            record.per_branch[bid] = BranchOrder(diffractive, "diffractive")
            continue
        parent = path.branches.get(branch.parent_id)
        event = parent.event if parent is not None else None
        clean = _branch_clean(spec, event, branch, clean_flags, partners)
        if clean:
            bound = apply_geometric(nonfocusing.space_order, True, s_in)
            record.per_branch[bid] = BranchOrder(bound,
                                                 "nonfocusing improvement")
        else:
            record.per_branch[bid] = BranchOrder(diffractive,
                                                 "diffractive (dirty partner)")
    return record
