"""Coefficient-expression grammar: parsing, formatting, derivatives."""

import math

import numpy as np
import pytest

from edgeray.errors import ExprSyntaxError
from edgeray.expr import diff, evaluate, format_expr, parse_expr, simplify


def test_basic_parse_and_eval():
    node = parse_expr("1 + x^2 * sin(z1)", 1, 1)
    val = evaluate(node, 2.0, [0.0], [math.pi / 2])
    assert abs(val - 5.0) < 1e-15


def test_aliases_y_z():
    n1 = parse_expr("y + z", 1, 1)
    n2 = parse_expr("y1 + z1", 1, 1)
    assert format_expr(n1) == format_expr(n2)


def test_implicit_multiplication():
    node = parse_expr("2x + 3sin(z1)", 0, 1)
    val = evaluate(node, 0.5, [], [0.0])
    assert abs(val - 1.0) < 1e-15
    node = parse_expr("2(1 + x)", 0, 1)
    assert abs(evaluate(node, 1.0, [], [0.0]) - 4.0) < 1e-15


def test_power_binds_tighter_than_unary_minus():
    node = parse_expr("-x^2", 0, 1)
    assert evaluate(node, 3.0, [], [0.0]) == -9.0


def test_unknown_identifier_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("q + 1", 1, 1)
    with pytest.raises(ExprSyntaxError):
        parse_expr("z2", 1, 1)          # fiber has one coordinate
    with pytest.raises(ExprSyntaxError):
        parse_expr("z1", 1, 1, include_fiber=False)


def test_syntax_errors_have_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("1 + $", 1, 1)
    assert "col" in str(err.value)
    with pytest.raises(ExprSyntaxError):
        parse_expr("sin(x", 1, 1)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x ^ y1", 1, 1)      # exponent must be a literal integer
    with pytest.raises(ExprSyntaxError):
        parse_expr("x ^ 1.5", 1, 1)
    with pytest.raises(ExprSyntaxError):
        parse_expr("", 1, 1)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x x", 1, 1)


def test_simplify_folds_constants():
    node = parse_expr("0*x + 1*z1 + (2 + 3)", 0, 1)
    assert format_expr(node) == "z1 + 5"
    node = parse_expr("x^0 + x^1", 0, 1)
    assert format_expr(node) == "1 + x"


def _random_expr(rng, b, f, depth):
    """Random expression tree as source text, for round-trip fuzzing."""
    variables = ["x"] + ["y%d" % (i + 1) for i in range(b)] \
                      + ["z%d" % (a + 1) for a in range(f)]
    if depth == 0 or rng.uniform() < 0.3:
        if rng.uniform() < 0.5:
            return repr(round(float(rng.uniform(0.1, 3.0)), 3))
        return str(rng.choice(variables))
    kind = rng.integers(0, 5)
    a = _random_expr(rng, b, f, depth - 1)
    c = _random_expr(rng, b, f, depth - 1)
    if kind == 0:
        return "(%s + %s)" % (a, c)
    if kind == 1:
        return "(%s - %s)" % (a, c)
    if kind == 2:
        return "(%s * %s)" % (a, c)
    if kind == 3:
        fn = str(rng.choice(["sin", "cos", "exp"]))
        return "%s(%s)" % (fn, a)
    return "(%s)^%d" % (a, int(rng.integers(1, 4)))


def test_roundtrip_and_derivative_fuzz():
    """Format/parse round-trip is exact; symbolic derivative matches FD."""
    rng = np.random.default_rng(42)
    b, f = 2, 2
    checked = 0
    for _ in range(200):
        text = _random_expr(rng, b, f, 3)
        node = parse_expr(text, b, f)
        again = parse_expr(format_expr(node), b, f)
        x = float(rng.uniform(0.1, 0.9))
        y = rng.uniform(-0.8, 0.8, b)
        z = rng.uniform(0.1, 1.2, f)
        v1 = evaluate(node, x, y, z)
        v2 = evaluate(again, x, y, z)
        assert v1 == pytest.approx(v2, rel=1e-15, abs=1e-15), text
        if abs(v1) > 1e6:
            continue                     # too steep for a fair FD check
        for var, bump in (("x", "x"), ("y1", "y"), ("z2", "z")):
            d = diff(node, var)
            h = 1e-6
            if bump == "x":
                vp = evaluate(node, x + h, y, z)
                vm = evaluate(node, x - h, y, z)
            elif bump == "y":
                yp, ym = y.copy(), y.copy()
                yp[0] += h
                ym[0] -= h
                vp = evaluate(node, x, yp, z)
                vm = evaluate(node, x, ym, z)
            else:
                zp, zm = z.copy(), z.copy()
                zp[1] += h
                zm[1] -= h
                vp = evaluate(node, x, y, zp)
                vm = evaluate(node, x, y, zm)
            fd = (vp - vm) / (2 * h)
            sym = evaluate(d, x, y, z)
            scale = max(1.0, abs(fd), abs(sym))
            assert abs(sym - fd) / scale < 1e-5, (text, var)
            checked += 1
    assert checked > 100


def test_second_derivatives_commute():
    rng = np.random.default_rng(7)
    node = parse_expr("exp(x * sin(y1)) / (2 + cos(z1))", 1, 1)
    dxy = diff(diff(node, "x"), "y1")
    dyx = diff(diff(node, "y1"), "x")
    for _ in range(20):
        x = float(rng.uniform(0.0, 1.0))
        y = rng.uniform(-1, 1, 1)
        z = rng.uniform(-1, 1, 1)
        assert evaluate(dxy, x, y, z) == pytest.approx(
            evaluate(dyx, x, y, z), rel=1e-12, abs=1e-12)


def test_division_and_sqrt_log_derivatives():
    node = parse_expr("sqrt(1 + x) / log(2 + x)", 0, 1)
    d = diff(node, "x")
    x, h = 0.4, 1e-6
    fd = (evaluate(node, x + h, [], [0.0])
          - evaluate(node, x - h, [], [0.0])) / (2 * h)
    assert evaluate(d, x, [], [0.0]) == pytest.approx(fd, rel=1e-8)
