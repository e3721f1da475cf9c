"""Tests for the exact-arithmetic order bookkeeping.

Everything here is rational arithmetic, so comparisons are exact: no
tolerances anywhere.
"""

from fractions import Fraction

import numpy as np
import pytest

from edgeray import boundary
from edgeray.boundary import is_geometrically_related
from edgeray.gbb import BranchPolicy, fan, trace_gbb
from edgeray.hamiltonian import RayEnd
from edgeray.orders import (
    INFINITE_ORDER,
    BranchOrder,
    Nonfocusing,
    OrderBound,
    OrderRequirement,
    annotate_path,
    apply_diffractive,
    apply_geometric,
    as_bound,
    as_rational,
    bound_max,
    coisotropic_eps_loss,
    edge_threshold_check,
    fundamental_solution_orders,
    lagrangian_nonfocusing_degree,
)
from edgeray.phase import EdgePhasePoint
from edgeray.scenes import builtin_scene


def test_rational_coercion_uses_decimal_strings():
    assert as_rational(0.6) == Fraction(3, 5)
    assert as_rational(0.1) == Fraction(1, 10)
    assert as_rational(-1.25) == Fraction(-5, 4)
    assert as_rational(3) == Fraction(3)
    assert as_rational("7/3") == Fraction(7, 3)
    assert as_rational(Fraction(2, 7)) == Fraction(2, 7)
    with pytest.raises(TypeError):
        as_rational(True)
    with pytest.raises(ValueError):
        as_rational(float("inf"))
    with pytest.raises(ValueError):
        as_rational(float("nan"))
    with pytest.raises(TypeError):
        as_rational(object())


def test_order_bound_parse_format_roundtrip():
    for text in ("<-1/2", "3/5", "inf", "<0", "-7/4", "<13/6"):
        assert str(OrderBound.parse(text)) == text
    b = OrderBound.parse("<-1/2")
    assert b.open and b.value == Fraction(-1, 2)
    assert OrderBound.parse("inf").infinite
    with pytest.raises(ValueError):
        OrderBound(None, True)


def test_order_bound_arithmetic_and_ordering():
    b = OrderBound(Fraction(1, 3))
    assert b.as_open() == OrderBound(Fraction(1, 3), True)
    assert INFINITE_ORDER.as_open() is INFINITE_ORDER
    # attained dominates open at the same value; infinity dominates all
    attained = OrderBound(Fraction(2))
    open_two = OrderBound(Fraction(2), True)
    assert bound_max(attained, open_two) == attained
    assert bound_max(open_two, attained) == attained
    assert bound_max(open_two, OrderBound(Fraction(1))) == open_two
    assert bound_max(INFINITE_ORDER, attained) == INFINITE_ORDER
    keys = [OrderBound(Fraction(1), True).sort_key(),
            OrderBound(Fraction(1)).sort_key(),
            OrderBound(Fraction(3, 2), True).sort_key(),
            INFINITE_ORDER.sort_key()]
    assert keys == sorted(keys)


def test_order_requirement_strictness():
    strict = OrderRequirement(Fraction(3, 2), True)
    assert strict.value == Fraction(3, 2) and strict.strict
    loose = OrderRequirement(Fraction(3, 2), False)
    assert loose.value == Fraction(3, 2) and not loose.strict
    assert str(strict) == ">3/2"
    assert str(loose) == "3/2"


def test_diffractive_rule_preserves_incident_order():
    out = apply_diffractive(0.1)
    assert out == OrderBound(Fraction(1, 10), False)
    assert apply_diffractive("<-1/2") == OrderBound(Fraction(-1, 2), True)
    assert apply_diffractive(Fraction(5, 4)).value == Fraction(5, 4)


def test_geometric_rule_improves_only_clean_branches():
    # clean branch: open nonfocusing bound
    assert apply_geometric(2, True, 0) == OrderBound(Fraction(2), True)
    # dirty branch: diffractive fallback
    assert apply_geometric(2, False, 0) == OrderBound(Fraction(0), False)
    # never below the diffractive bound, exactly at ties
    assert apply_geometric(1, True, 1) == OrderBound(Fraction(1), False)
    assert apply_geometric(1, True, 2) == OrderBound(Fraction(2), False)


def test_fundamental_solution_order_gain_is_half_fiber_dimension():
    out = fundamental_solution_orders(3, 1)
    assert out["incident_sup"] == OrderBound(Fraction(-1, 2), True)
    assert out["diffracted_sup"] == OrderBound(Fraction(0), True)
    for n, f in ((2, 1), (4, 2), (7, 3), (10, 9)):
        out = fundamental_solution_orders(n, f)
        assert out["incident_sup"].value == Fraction(-n, 2) + 1
        assert out["incident_sup"].open
        assert out["diffracted_sup"].open
        gain = out["diffracted_sup"].value - out["incident_sup"].value
        assert gain == Fraction(f, 2)
    with pytest.raises(ValueError):
        fundamental_solution_orders(1, 1)
    with pytest.raises(ValueError):
        fundamental_solution_orders(3, 0)
    with pytest.raises(ValueError):
        fundamental_solution_orders(3, 3)


def test_edge_thresholds_are_strict_on_both_sides():
    # threshold l + f/2 = 1/2 + 1/2 = 1
    l, f = Fraction(1, 2), 1
    tiny = Fraction(1, 10 ** 15)
    assert not edge_threshold_check(1, l, f, RayEnd.INCOMING)
    assert not edge_threshold_check(1, l, f, RayEnd.OUTGOING)
    assert edge_threshold_check(1 + tiny, l, f, RayEnd.INCOMING)
    assert not edge_threshold_check(1 + tiny, l, f, RayEnd.OUTGOING)
    assert edge_threshold_check(1 - tiny, l, f, RayEnd.OUTGOING)
    assert not edge_threshold_check(1 - tiny, l, f, RayEnd.INCOMING)
    assert edge_threshold_check("3/2", 0, 2, "incoming")
    assert edge_threshold_check("1/2", 0, 2, "outgoing")
    with pytest.raises(ValueError):
        edge_threshold_check(1, l, f, "sideways")


def test_coisotropic_loss_cases():
    # eps > 1/2: maintaining order k costs nothing beyond k itself
    res = coisotropic_eps_loss(Fraction(1, 2), 3, Fraction(3, 4))
    assert res.k_prime == OrderRequirement(Fraction(3), False)
    assert res.space_order == Fraction(1, 2) - Fraction(3, 4)
    # eps = 1/2 is NOT in the cheap regime: strict k' > k
    res = coisotropic_eps_loss(0, 3, Fraction(1, 2))
    assert res.k_prime == OrderRequirement(Fraction(3), True)
    assert res.k_prime.value == 3 and res.k_prime.strict
    # eps < 1/2: strict k' > k/(2 eps)
    res = coisotropic_eps_loss(1, 2, Fraction(1, 8))
    assert res.k_prime == OrderRequirement(Fraction(8), True)
    assert res.space_order == Fraction(7, 8)
    # k = 0 never costs anything
    res = coisotropic_eps_loss(0, 0, Fraction(1, 100))
    assert res.k_prime == OrderRequirement(Fraction(0), False)
    assert str(coisotropic_eps_loss(1, 2, Fraction(1, 8))) == \
        "k'=>8 over H^(7/8)"
    with pytest.raises(ValueError):
        coisotropic_eps_loss(0, -1, Fraction(1, 4))
    with pytest.raises(ValueError):
        coisotropic_eps_loss(0, 1, 0)


def test_lagrangian_nonfocusing_degree_gain():
    out = lagrangian_nonfocusing_degree(0, 3, 1)
    assert out.a_priori == Fraction(-3, 4)
    assert out.degree == OrderBound(Fraction(-1, 4), True)
    assert str(out) == "a-priori -3/4, degree <-1/4"
    for s, n, f in ((Fraction(1, 2), 4, 2), (-1, 5, 3), (Fraction(2, 3), 6, 1)):
        out = lagrangian_nonfocusing_degree(s, n, f)
        assert out.a_priori == -as_rational(s) - Fraction(n, 4)
        assert out.degree.value - out.a_priori == Fraction(f, 2)
        assert out.degree.open


def _cone_path(policy):
    spec = builtin_scene("product_cone(1.0)").spec
    q0 = EdgePhasePoint(t=0.0, x=0.5, y=np.zeros(0), z=np.array([1.0]),
                        tau=1.0, xi=1.0, eta=np.zeros(0),
                        zeta=np.zeros(1))
    return trace_gbb(spec, q0, (0.0, 1.2), policy=BranchPolicy.parse(policy))


def test_annotate_path_diffractive_only():
    path = _cone_path("same_fiber")
    record = annotate_path(path, Fraction(1, 4))
    assert record.per_branch["0"] == BranchOrder(
        OrderBound(Fraction(1, 4)), "incident data")
    assert record.per_branch["0.0"] == BranchOrder(
        OrderBound(Fraction(1, 4)), "diffractive")


def test_annotate_path_nonfocusing_improvement():
    """On the round circle the same-fiber point is not an arc-pi partner
    of itself, so the diffracted branch is clean and improves."""
    path = _cone_path("same_fiber")
    nf = Nonfocusing(space_order=Fraction(3, 2), degree=Fraction(1, 2))
    record = annotate_path(path, 0, nonfocusing=nf)
    child = record.per_branch["0.0"]
    assert child.sup_order == OrderBound(Fraction(3, 2), True)
    assert child.rule == "nonfocusing improvement"


def test_annotate_path_geometric_branch_is_dirty():
    path = _cone_path("geometric")
    nf = Nonfocusing(space_order=Fraction(3, 2), degree=Fraction(1, 2))
    record = annotate_path(path, 0, nonfocusing=nf)
    child = record.per_branch["0.0"]
    assert child.sup_order == OrderBound(Fraction(0))
    assert child.rule == "diffractive (dirty partner)"


def test_annotate_path_clean_flag_overrides():
    path = _cone_path("same_fiber")
    nf = Nonfocusing(space_order=Fraction(3, 2), degree=Fraction(1, 2))
    record = annotate_path(path, 0, nonfocusing=nf, clean_flags=False)
    assert record.per_branch["0.0"].rule == "diffractive (dirty partner)"
    geometric = _cone_path("geometric")
    record = annotate_path(geometric, 0, nonfocusing=nf, clean_flags=True)
    assert record.per_branch["0.0"].rule == "nonfocusing improvement"


def test_partners_are_shot_once_per_event(monkeypatch):
    """f = 1: annotate_path shoots each event's arc-pi geodesics once, in
    one arc-length shot, and a fan branch is clean exactly when
    is_geometrically_related finds its fiber point is no partner of the
    event's."""
    nf = Nonfocusing("1/2", 1)
    for name in ("perturbed_edge(0.3)", "product_cone(1.0)"):
        config = builtin_scene(name)
        spec = config.spec
        path = trace_gbb(spec, config.source, config.t_span, fan(8))
        shots = []
        shoot = boundary._shoot_arc

        def counted(*args, **kwargs):
            shots.append(1)
            return shoot(*args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(boundary, "_shoot_arc", counted)
            record = annotate_path(path, 0, nonfocusing=nf)
        assert path.events() and len(shots) == len(path.events())
        outcomes = set()
        for bid in path.branch_ids():
            branch = path.branches[bid]
            if branch.parent_id is None:
                continue
            event = path.branches[branch.parent_id].event
            clean = not is_geometrically_related(
                spec, event.y_bar, event.z_bar, branch.fiber_point).related
            rule = record.per_branch[bid].rule
            assert (rule == "nonfocusing improvement") == clean, (name, bid)
            outcomes.add(clean)
        # the round circle's fan holds the antipode z_bar + pi: one dirty
        if name == "product_cone(1.0)":
            assert outcomes == {True, False}
