"""Coefficient-expression language for metric entries.

Metric coefficients are written in a small arithmetic grammar over the
chart variables::

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' integer)?
    base   := number | ident | func '(' expr ')' | '(' expr ')'

with ``func`` one of sin, cos, exp, sqrt, log and identifiers drawn from
``x``, ``y1..yb``, ``z1..zf`` (``y``/``z`` are accepted as aliases for
``y1``/``z1``).  A number immediately followed by an identifier, function
or parenthesis denotes multiplication (``2x`` means ``2*x``).

Expressions parse to a small immutable AST that supports exact symbolic
differentiation, light simplification, round-trippable formatting, and
translation to Python source, from which the metric evaluator generates
its functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ExprSyntaxError

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "log")


# --- AST -------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True)
class PowInt:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


# --- tokenizer -------------------------------------------------------

_TOKEN_OPS = "+-*/^()"


def _tokenize(text):
    """Yield (kind, value, line, col) tuples; kinds: num, ident, op, end."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c in _TOKEN_OPS:
            tokens.append(("op", c, line, col))
            i += 1
            col += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lex = text[i:j]
            try:
                value = float(lex)
            except ValueError:
                raise ExprSyntaxError("bad number literal %r" % lex, line, col)
            tokens.append(("num", value, line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ExprSyntaxError("unexpected character %r" % c, line, col)
    tokens.append(("end", None, line, col))
    return tokens


# --- parser ----------------------------------------------------------

class _Parser:
    def __init__(self, tokens, allowed_vars, aliases):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed_vars
        self.aliases = aliases

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, line, col = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError("expected %r" % op, line, col)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, value, line, col = self.peek()
        if kind != "end":
            raise ExprSyntaxError("unexpected trailing input %r" % (value,), line, col)
        return node

    def expr(self):
        kind, value, _, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            node = Neg(self.term())
        else:
            node = self.term()
        while True:
            kind, value, _, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.base()
        kind, value, _, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, line, col = self.advance()
            if kind != "num" or value != int(value):
                raise ExprSyntaxError("exponent must be an integer literal", line, col)
            node = PowInt(node, int(value))
        return node

    def base(self):
        kind, value, line, col = self.advance()
        if kind == "num":
            node = Num(value)
            # implicit multiplication: 2x, 3sin(z), 2(x+1)
            nk, nv, _, _ = self.peek()
            if nk == "ident" or (nk == "op" and nv == "("):
                return BinOp("*", node, self.factor())
            return node
        if kind == "ident":
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            name = self.aliases.get(value, value)
            if name not in self.allowed:
                raise ExprSyntaxError("unknown identifier %r" % value, line, col)
            return Var(name)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected a value, got %r" % (value,), line, col)


def allowed_variables(b, f, include_fiber=True):
    """Variable names admissible in a coefficient for base dim b, fiber dim f."""
    names = {"x"}
    names.update("y%d" % (i + 1) for i in range(b))
    if include_fiber:
        names.update("z%d" % (a + 1) for a in range(f))
    return names


def parse_expr(text, b, f, include_fiber=True):
    """Parse a coefficient expression; restrict identifiers to the chart vars."""
    allowed = allowed_variables(b, f, include_fiber)
    aliases = {}
    if b >= 1:
        aliases["y"] = "y1"
    if f >= 1 and include_fiber:
        aliases["z"] = "z1"
    tokens = _tokenize(text)
    return simplify(_Parser(tokens, allowed, aliases).parse())


# --- simplification --------------------------------------------------

def _is_num(node, value=None):
    return isinstance(node, Num) and (value is None or node.value == value)


def simplify(node):
    """Constant folding and unit/zero identities, applied bottom-up."""
    if isinstance(node, (Num, Var)):
        return node
    if isinstance(node, Neg):
        arg = simplify(node.arg)
        if _is_num(arg):
            return Num(-arg.value)
        if isinstance(arg, Neg):
            return arg.arg
        return Neg(arg)
    if isinstance(node, PowInt):
        base = simplify(node.base)
        if node.exponent == 0:
            return Num(1.0)
        if node.exponent == 1:
            return base
        if _is_num(base):
            return Num(base.value ** node.exponent)
        return PowInt(base, node.exponent)
    if isinstance(node, Call):
        arg = simplify(node.arg)
        if _is_num(arg):
            return Num(getattr(math, node.func)(arg.value))
        return Call(node.func, arg)
    left = simplify(node.left)
    right = simplify(node.right)
    op = node.op
    if _is_num(left) and _is_num(right):
        if op == "+":
            return Num(left.value + right.value)
        if op == "-":
            return Num(left.value - right.value)
        if op == "*":
            return Num(left.value * right.value)
        return Num(left.value / right.value)
    if op == "+":
        if _is_num(left, 0.0):
            return right
        if _is_num(right, 0.0):
            return left
    elif op == "-":
        if _is_num(right, 0.0):
            return left
        if _is_num(left, 0.0):
            return Neg(right)
    elif op == "*":
        if _is_num(left, 0.0) or _is_num(right, 0.0):
            return Num(0.0)
        if _is_num(left, 1.0):
            return right
        if _is_num(right, 1.0):
            return left
    elif op == "/":
        if _is_num(left, 0.0):
            return Num(0.0)
        if _is_num(right, 1.0):
            return left
    return BinOp(op, left, right)


# --- differentiation -------------------------------------------------

def diff(node, var):
    """Exact partial derivative with respect to variable name ``var``."""
    return simplify(_diff(node, var))


def _diff(node, var):
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.name == var else 0.0)
    if isinstance(node, Neg):
        return Neg(_diff(node.arg, var))
    if isinstance(node, PowInt):
        db = _diff(node.base, var)
        return BinOp("*", BinOp("*", Num(float(node.exponent)),
                                PowInt(node.base, node.exponent - 1)), db)
    if isinstance(node, Call):
        da = _diff(node.arg, var)
        f, a = node.func, node.arg
        if f == "sin":
            outer = Call("cos", a)
        elif f == "cos":
            outer = Neg(Call("sin", a))
        elif f == "exp":
            outer = Call("exp", a)
        elif f == "sqrt":
            outer = BinOp("/", Num(0.5), Call("sqrt", a))
        else:  # log
            outer = BinOp("/", Num(1.0), a)
        return BinOp("*", outer, da)
    dl = _diff(node.left, var)
    dr = _diff(node.right, var)
    if node.op in "+-":
        return BinOp(node.op, dl, dr)
    if node.op == "*":
        return BinOp("+", BinOp("*", dl, node.right), BinOp("*", node.left, dr))
    # quotient rule
    num = BinOp("-", BinOp("*", dl, node.right), BinOp("*", node.left, dr))
    return BinOp("/", num, PowInt(node.right, 2))


# --- formatting (round-trippable) -------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def format_expr(node):
    """Render an AST back into the coefficient grammar."""
    return _format(node, 0)


def _format(node, parent_prec):
    if isinstance(node, Num):
        value = node.value
        if value == int(value) and abs(value) < 1e16:
            text = repr(int(value))
        else:
            text = repr(value)
        if value < 0 and parent_prec > 0:
            return "(" + text + ")"
        return text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = "-" + _format(node.arg, 2)
        return "(" + inner + ")" if parent_prec > 1 else inner
    if isinstance(node, PowInt):
        text = _format(node.base, 5) + "^" + repr(node.exponent)
        return "(" + text + ")" if parent_prec >= 5 else text
    if isinstance(node, Call):
        return node.func + "(" + _format(node.arg, 0) + ")"
    prec = _PRECEDENCE[node.op]
    left = _format(node.left, prec)
    # the grammar is left associative, so a right operand of equal
    # precedence keeps its parentheses (preserves the exact tree)
    right = _format(node.right, prec + 1)
    text = left + " " + node.op + " " + right if prec == 1 else left + node.op + right
    return "(" + text + ")" if prec < parent_prec else text


# --- source translation and reference evaluation ----------------------

def _to_source(node, call=str):   # call(text) binds a Call or squared base
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        if node.name == "x":
            return "x"
        idx = int(node.name[1:]) - 1
        return "%s[%d]" % (node.name[0], idx)
    if isinstance(node, Neg):
        return "(-%s)" % _to_source(node.arg, call)
    if isinstance(node, PowInt):
        if node.exponent == 2:   # a product, as numpy squares an array
            base = call(_to_source(node.base, call))
            return "(%s*%s)" % (base, base)
        return "(%s)**%d" % (_to_source(node.base, call), node.exponent)
    if isinstance(node, Call):
        return call("_%s(%s)" % (node.func, _to_source(node.arg, call)))
    return "(%s %s %s)" % (_to_source(node.left, call), node.op,
                           _to_source(node.right, call))


def evaluate(node, x, y, z):
    """Tree-walking evaluation; reference for the generated functions."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name == "x":
            return x
        seq = y if node.name[0] == "y" else z
        return seq[int(node.name[1:]) - 1]
    if isinstance(node, Neg):
        return -evaluate(node.arg, x, y, z)
    if isinstance(node, PowInt):
        base = evaluate(node.base, x, y, z)
        return base * base if node.exponent == 2 else base ** node.exponent
    if isinstance(node, Call):
        return getattr(math, node.func)(evaluate(node.arg, x, y, z))
    a = evaluate(node.left, x, y, z)
    b = evaluate(node.right, x, y, z)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    return a / b
