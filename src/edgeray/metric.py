"""Edge-metric model data and pointwise evaluation.

An edge metric in adapted coordinates (x, y, z), with x >= 0 the distance
to the edge, y the b base coordinates and z the f fiber coordinates, has
the normal form

    g = dx^2 + h(x, y, dy) + x*h'(x, y, z, dy) + x^2*k(x, y, z, dy, dz),

so the dx row and column carry no cross terms.  Covectors are expanded in
the rescaled coframe (dt/x, dx/x, dy/x, dz) with coefficients
(tau, xi, eta, zeta).  In the matching frame (x d/dx, x d/dy, d/dz) the
spatial metric is x^2 * G(x, y, z) with

    G = [[1, 0,                      0       ],
         [0, h + x h' + x^2 kyy,     x kyz   ],
         [0, x kyz^T,                kzz     ]],

block-diagonal in the dx slot identically and fully block-diagonal at
x = 0.  The dual quadratic form on spatial covectors (xi, eta, zeta) is
G^{-1}, and the wave-operator symbol in this scaling is

    p = tau^2 - (xi, eta, zeta) . G^{-1} . (xi, eta, zeta).

Coefficient entries are expression ASTs (see expr).  From their source
the evaluator generates straight-line code, one statement per distinct
entry and per distinct function call:

  * the kernel returns G and every partial dG/dv from a single call, and
    each pointwise reader slices it;
  * the Hamilton field of the hamiltonian module and the symbol p at
    one phase point, in math on a sequence of floats;
  * for each x = 0 block, the fiber block kzz along z and the base block
    h along y, the cogeodesic field of its inverse on the geodesic
    shooter's flat state of lanes, which alone reads the block's nonzero
    partials; the blocks themselves are slices of the kernel's G at
    x = 0 (the fiber and base cometrics read them there);
  * for a one-dimensional fiber only, the speed kzz^(-1/2) of its
    unit-speed geodesics at one point, in math on floats.

The fields solve with their metric block by an unrolled LDL^T
factorization without pivoting (the blocks are positive definite), over
the entries that are not identically zero; a zero pivot raises
DegenerateMetricError, in a cogeodesic field as soon as it leaves a lane
that is not finite (any other such lane raises IntegrationDivergedError).
A coefficient outside its domain (a math domain error or overflow in a
float instance) raises DegenerateMetricError as well.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from ._config import config_float, config_int
from .errors import (ConfigError, DegenerateMetricError, DimensionError,
                     IntegrationDivergedError)

COND_LIMIT = 1e12
VALIDATION_SAMPLES = 200   # chart points validate_normal_form checks
VALIDATION_TOL = 1e-10     # smallest metric eigenvalue it accepts
_compile = functools.lru_cache(maxsize=256)(compile)   # once per text


@dataclass(frozen=True)
class FiberTopology:
    """Per-coordinate periods of the fiber chart; None = unwrapped."""

    periods: tuple

    @property
    def kind(self):
        if all(p is None for p in self.periods):
            return "chart"
        if len(self.periods) == 1 and self.periods[0] is not None:
            return "circle"
        return "torus"

    def wrap(self, z):
        """z with its periodic coordinates (last axis) taken mod period."""
        z = np.array(z, dtype=float)
        for a, period in enumerate(self.periods):
            if period is not None:
                z[..., a] = z[..., a] % period
        return z

    def coordinate_delta(self, z1, z2):
        """Signed per-coordinate difference z1 - z2 (last axis, broadcast),
        shortest wrap."""
        d = np.asarray(z1, dtype=float) - np.asarray(z2, dtype=float)
        for a, period in enumerate(self.periods):
            if period is not None:
                d[..., a] = (d[..., a] + period / 2.0) % period - period / 2.0
        return d


def _parse_fiber(raw, f):
    raw = str(raw).strip()
    if raw == "chart":
        return FiberTopology((None,) * f)
    if raw.startswith("circle(") and raw.endswith(")"):
        if f != 1:
            raise DimensionError("circle fiber topology requires f = 1")
        return FiberTopology((config_float(raw[7:-1], "fiber"),))
    if raw == "torus":
        return FiberTopology((2.0 * math.pi,) * f)
    if raw.startswith("torus(") and raw.endswith(")"):
        items = [piece.strip() for piece in raw[6:-1].split(",")]
        if len(items) != f:
            raise DimensionError("torus periods must list all %d fiber coordinates" % f)
        periods = tuple(None if item == "none" else config_float(item, "fiber")
                        for item in items)
        return FiberTopology(periods)
    raise ConfigError("unknown fiber topology %r" % raw)


@dataclass(frozen=True)
class EdgeMetricSpec:
    """Validated edge-metric coefficient data."""

    b: int
    f: int
    fiber: FiberTopology
    h: tuple          # b x b ASTs, functions of (x, y)
    hprime: tuple     # b x b ASTs, functions of (x, y, z)
    k: tuple          # f x f ASTs, functions of (x, y, z)
    kyy: tuple        # b x b ASTs
    kyz: tuple        # b x f ASTs
    x_max: float = 1.0
    y_box: tuple = ()
    z_box: tuple = ()
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def evaluator(self):
        if "evaluator" not in self._cache:
            self._cache["evaluator"] = MetricEvaluator(self)
        return self._cache["evaluator"]


def _zeros(rows, cols):
    return tuple(tuple(ex.Num(0.0) for _ in range(cols)) for _ in range(rows))


def _parse_matrix(rows, b, f, shape, key, include_fiber=True):
    nrows, ncols = shape
    if rows is None:
        return _zeros(nrows, ncols)
    if not isinstance(rows, list):
        raise DimensionError("%s must be a matrix of expression rows" % key)
    if len(rows) != nrows:
        raise DimensionError("%s must have %d rows, got %d" % (key, nrows, len(rows)))
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != ncols:
            raise DimensionError("%s rows must have %d entries" % (key, ncols))
        out.append(tuple(ex.parse_expr(str(entry), b, f, include_fiber)
                         for entry in row))
    return tuple(out)


def _require_symmetric(matrix, key):
    n = len(matrix)
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise DimensionError("%s must be symmetric entrywise "
                                     "(mismatch at %d,%d)" % (key, i, j))


def make_metric_spec(b, f, h=None, hprime=None, k=None, kyy=None, kyz=None,
                     fiber=None, x_max=1.0, y_box=None, z_box=None):
    """Build a metric spec from matrices (lists of rows) whose entries are
    expression texts or numbers, each parsed from its str()."""
    if b < 0 or f < 1:
        raise DimensionError("need b >= 0 and f >= 1, got b=%d f=%d" % (b, f))
    if k is None:
        raise DimensionError("fiber block k is required")
    if b > 0 and h is None:
        raise DimensionError("base block h is required when b > 0")
    hm = _parse_matrix(h if b else [], b, f, (b, b), "h", include_fiber=False)
    hp = _parse_matrix(hprime, b, f, (b, b), "hprime")
    km = _parse_matrix(k, b, f, (f, f), "k")
    kyym = _parse_matrix(kyy, b, f, (b, b), "kyy")
    kyzm = _parse_matrix(kyz, b, f, (b, f), "kyz")
    _require_symmetric(hm, "h")
    _require_symmetric(hp, "hprime")
    _require_symmetric(km, "k")
    _require_symmetric(kyym, "kyy")
    fiber = _parse_fiber("torus" if fiber is None else fiber, f)
    if y_box is None:
        y_box = tuple((-1.0, 1.0) for _ in range(b))
    if z_box is None:
        z_box = tuple((0.0, p) if p is not None else (-math.pi, math.pi)
                      for p in fiber.periods)
    return EdgeMetricSpec(b=b, f=f, fiber=fiber, h=hm, hprime=hp, k=km,
                          kyy=kyym, kyz=kyzm, x_max=float(x_max),
                          y_box=tuple(map(tuple, y_box)),
                          z_box=tuple(map(tuple, z_box)))


METRIC_KEYS = ("b", "f", "fiber", "h", "hprime", "k", "kyy", "kyz")


def _as_float_pairs(raw, key):
    if not isinstance(raw, list) or not all(
            isinstance(item, list) and len(item) == 2 for item in raw):
        raise ConfigError("%s must be a list of [lo, hi] pairs" % key)
    return tuple((config_float(lo, key), config_float(hi, key))
                 for lo, hi in raw)


def metric_spec_from_values(values):
    """Metric spec from parsed METRIC_KEYS values, plus the optional
    coordinate extents x_max, y_box and z_box."""
    for required in ("b", "f", "k"):
        if required not in values:
            raise ConfigError("missing metric key %r" % required)
    extent = {key: _as_float_pairs(values[key], key)
              for key in ("y_box", "z_box") if key in values}
    if "x_max" in values:
        extent["x_max"] = config_float(values["x_max"], "x_max")
    return make_metric_spec(
        config_int(values["b"], "b"), config_int(values["f"], "f"),
        h=values.get("h"),
        hprime=values.get("hprime"),
        k=values.get("k"),
        kyy=values.get("kyy"),
        kyz=values.get("kyz"),
        fiber=values.get("fiber"),
        **extent)


# --- pointwise evaluation ---------------------------------------------

class _Source:
    """Body of generated functions: one local per distinct expression."""

    def __init__(self):
        self.body, self.names = [], {}

    def local(self, text):
        if text.isidentifier() or _is_number(text):
            return text
        if text not in self.names:
            self.names[text] = "c%d" % len(self.names)
            self.body.append("    %s = %s" % (self.names[text], text))
        return self.names[text]

    def term(self, node):
        if isinstance(node, ex.Num):
            return repr(node.value)
        return self.local(ex._to_source(node, self.local))

    def define(self, head, start, tail, functions, **names):
        """Exec "def head: start; body; tail" with sin..log from functions,
        where a ZeroDivisionError raises DegenerateMetricError, and so
        does a math domain error or overflow of a coefficient."""
        text = "\n".join(["def %s:\n  try:" % head, start] + self.body + [
            tail, "  except ZeroDivisionError:\n    raise _Degenerate("
            "'metric not invertible: division by zero') from None",
            "  except (ValueError, OverflowError) as err:\n    raise "
            "_Degenerate('metric coefficient undefined: %s' % err) from None"])
        namespace = {"_" + name: getattr(functions, name)
                     for name in ex.FUNCTIONS}
        namespace.update(names, ZeroDivisionError=ZeroDivisionError,
                         ValueError=ValueError, OverflowError=OverflowError,
                         _Degenerate=DegenerateMetricError, __builtins__={})
        exec(_compile(text, "<metric>", "exec"), namespace)
        return namespace[head[:head.index("(")]]


def _metric_entries(spec, names, src):
    """{(v, i, j): source} of the entries of G (v = 0) and of dG/du for
    u = names[v - 1], with their locals in src.

    The y rows spell out the normal form term by term, zero coefficients
    included, so their rounding does not depend on which coefficients
    vanish: G_yy = (h + x*h') + (x*x)*kyy, G_yz = x*kyz, and their x
    partials add the product-rule terms + h' + (2x)*kyy and + kyz.  Only a
    slot whose coefficients all vanish is left out; it holds 0.
    """
    b, f = spec.b, spec.f
    nv = 1 + b + f
    entries = {(0, 0, 0): "1.0"}

    def term(matrix, v, i, j):   # v = 0: the entry, v = 1 + u: d/du
        node = matrix[i][j] if v == 0 else ex.diff(matrix[i][j], names[v - 1])
        return src.term(node)

    for v in range(1 + nv):
        def put(i, j, form, *terms):
            if any(t != "0.0" for t in terms):
                entries[v, i, j] = entries[v, j, i] = src.local(form % terms)

        for a, c in itertools.product(range(f), repeat=2):
            put(1 + b + a, 1 + b + c, "%s", term(spec.k, v, a, c))
        for i, j in itertools.product(range(b), repeat=2):
            form = "(%s + x * %s) + (x * x) * %s"
            terms = [term(m, v, i, j) for m in (spec.h, spec.hprime, spec.kyy)]
            if v == 1:
                form += " + %s + (2.0 * x) * %s"
                terms += [term(spec.hprime, 0, i, j), term(spec.kyy, 0, i, j)]
            put(1 + i, 1 + j, form, *terms)
        for i, a in itertools.product(range(b), range(f)):
            form, terms = "x * %s", [term(spec.kyz, v, i, a)]
            if v == 1:
                form += " + %s"
                terms.append(term(spec.kyz, 0, i, a))
            put(1 + i, 1 + b + a, form, *terms)
    return entries


def _generate_kernel(nv, entries, src):
    """kernel(x, y, z) -> (G, dG) from the _metric_entries in src."""
    slots = {(v * nv + i) * nv + j: text for (v, i, j), text
             in entries.items()}
    return src.define(
        "kernel(x, y, z)", "",
        "    out = _zeros(%d)\n    out[_slots] = (%s,)\n"
        "    return out[:%d].reshape(%d, %d), out[%d:].reshape(%d, %d, %d)"
        % (nv * nv * (1 + nv), ", ".join(slots.values()), nv * nv, nv,
           nv, nv * nv, nv, nv, nv),
        math, _zeros=np.zeros, _slots=np.array(list(slots), dtype=np.intp))


def _finite(out, *pivots):
    """out, the lanes of a cogeodesic field, when all are finite; else
    DegenerateMetricError if one of its pivots is zero in some lane, and
    IntegrationDivergedError if none is."""
    if np.isfinite(out).all():
        return out
    zero = False
    for d in pivots:
        zero = zero | (d == 0.0)
    if np.any(zero):
        raise DegenerateMetricError("metric not invertible: zero pivot in "
                                    "%d lane(s)" % np.sum(zero))
    raise IntegrationDivergedError("geodesic lanes left the finite range of "
                                   "the metric")


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _symmetric_solve(a, rhs, src):
    """Names of w = A^{-1} rhs and of the pivots d_j, solved by an
    unrolled LDL^T factorization.

    a maps (i, j), i <= j, to the source of each entry of the symmetric
    matrix A that is not identically zero, and rhs lists the sources of
    the right-hand side; pivots, factors and solution are locals of
    src.  Factor entries that stay zero are never formed, so a diagonal
    A costs one division per entry (none by a literal 1.0).  There is no
    pivoting: the metric blocks are positive definite, and a zero pivot
    d_j leaves inf or nan in w_j (ZeroDivisionError on floats).
    """
    n = len(rhs)

    def over(num, pivot):
        return num if pivot == "1.0" else "%s / %s" % (num, pivot)

    def minus(head, terms):   # head - terms[0] - ..., left to right
        if head is None:
            if not terms:
                return None
            head, terms = "-" + terms[0], terms[1:]
        return " - ".join([head] + terms)

    low, pivots = {}, []   # low[i, k] = (L_ik, L_ik d_k) for i > k
    for j in range(n):
        d = minus(a.get((j, j)), ["%s * %s" % low[j, k]
                                  for k in range(j) if (j, k) in low])
        pivots.append(src.local(d or "0.0"))
        for i in range(j + 1, n):
            e = minus(a.get((j, i)),
                      ["%s * %s" % (low[i, k][1], low[j, k][0])
                       for k in range(j) if (i, k) in low and (j, k) in low])
            if e is not None:
                e = src.local(e)
                low[i, j] = (src.local(over(e, pivots[j])), e)
    forward = []
    for i in range(n):
        forward.append(src.local(minus(rhs[i], [
            "%s * %s" % (low[i, k][0], forward[k])
            for k in range(i) if (i, k) in low])))
    w = [None] * n
    for i in reversed(range(n)):
        w[i] = src.local(minus(over(forward[i], pivots[i]), [
            "%s * %s" % (low[k, i][0], w[k])
            for k in range(i + 1, n) if (k, i) in low]))
    return w, pivots


def _quadratic(a, w):
    """Source of w.A.w over the entries a[(i, j)], i <= j, of a symmetric
    A (see _symmetric_solve), in row order; None when A vanishes."""
    terms = ["%s * %s * %s" % (w[i], text, w[j]) if i == j
             else "2.0 * %s * %s * %s" % (w[i], text, w[j])
             for (i, j), text in sorted(a.items())]
    return " + ".join(terms) or None


def _generate_hamilton(b, f, entries, src):
    """hamilton(state, scale) -> (p, scale * H), from the _metric_entries
    in src, with math on a sequence of floats: p a float, H a tuple.

    H is the flow field of the hamiltonian module at the phase point
    state, ordered like EdgePhasePoint.to_vector(), and p the symbol
    there.  G's x row is (1, 0, .., 0), so w = G^{-1} u has w_xi = xi,
    and only the (b + f) block is solved (_symmetric_solve); the
    quadratic forms w.dG/dv.w run over the nonzero entries.  Each entry
    of H is summed left to right as the hamiltonian module writes it.
    """
    nv = 1 + b + f
    itau = 1 + nv
    u = ["u%d" % k for k in range(b + f)]

    def block(v):
        return {(i - 1, j - 1): text for (vv, i, j), text in entries.items()
                if vv == v and 1 <= i <= j}

    lines, quad = [], []
    w = _symmetric_solve(block(0), u, src)[0]
    for v in range(nv):
        form = _quadratic(block(1 + v), w)
        if form:
            lines.append("    q%d = %s" % (v, form))
        quad.append(form and "q%d" % v)
    eta = u[:b]
    dxi = "-p + tau * tau"
    if b:
        dxi += " - (%s)" % " + ".join("%s * %s" % pair
                                      for pair in zip(eta, w[:b]))
    if quad[0]:
        dxi += " + 0.5 * x * q0"
    field = (["-tau * x", "x * xi"] + ["x * %s" % wi for wi in w[:b]]
             + w[b:] + ["tau * xi", dxi]
             + ["%s * xi" % e + (" + 0.5 * x * %s" % q if q else "")
                for e, q in zip(eta, quad[1:])]
             + ["0.5 * %s" % q if q else "0.0" for q in quad[1 + b:]])
    lines.append("    p = tau * tau - (%s)" % " + ".join(
        ["xi * xi"] + ["%s * %s" % pair for pair in zip(u, w)]))
    start = ("    x, y, z = state[1], state[2:%d], state[%d:%d]\n"
             "    tau, xi, %s = state[%d:]"
             % (2 + b, 2 + b, itau, ", ".join(u), itau))
    values = ", ".join("(%s) * scale" % text for text in field)
    return src.define("hamilton(state, scale)", start, "\n".join(
        lines + ["    return p, (%s,)" % values]), math)


def _generate_cogeodesic(matrix, var):
    """The cogeodesic field of the inverse of an x = 0 metric block M,
    numpy code over lanes.

    M is the square matrix of ASTs, as wide as var ("z", fiber, or "y",
    base) has coordinates.  The field takes y first when var is "z",
    then a state, the ravel of lanes (var, p) of shape (lanes, 2, n),
    and arc, scalar or per lane, and returns arc times d/ds of (var, p),
    (w, (1/2) w.dM.w) with w = M^{-1} p from _symmetric_solve and dM the
    partials of M along var, in the layout of state, each row one
    np.multiply by arc.  The result is a new array that _finite checks:
    it types the lanes a zero pivot or an overflow leaves inf or nan in;
    or, given out, it is written into out and not checked
    (ode._dop853_step checks a step's rows once).
    """
    n = len(matrix)
    src = _Source()

    def entries(a):   # {(i, j), i <= j: source} of M, or of dM/d(var)_a
        out = {}
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            node = matrix[i][j] if a is None else ex.diff(
                matrix[i][j], "%s%d" % (var, a + 1))
            if node != ex.Num(0.0):
                out[i, j] = src.term(node)
        return out

    m = entries(None)
    partials = [entries(a) for a in range(n)]
    lines = ["    checked = out is None\n    if checked:\n"
             "      out = _empty(state.shape)"]
    w, pivots = _symmetric_solve(m, ["p[%d]" % i for i in range(n)], src)
    rows = w + ["0.5 * (%s)" % _quadratic(dm, w) if dm else "0.0"
                for dm in partials]
    lines += ["    _multiply(%s, arc, out=out[%d::%d])" % (row, k, 2 * n)
              for k, row in enumerate(rows)]
    lines.append("    return _finite(%s) if checked else out" % ", ".join(
        ["out"] + [d for d in pivots if not (_is_number(d) and float(d))]))
    fixed = ["y"] if var == "z" else []   # k reads y, h reads no z
    head = "%s_cogeodesic(%s)" % ("fiber" if fixed else "base", ", ".join(
        fixed + ["state", "arc", "out=None"]))
    views = ["(%s)" % "".join("state[%d::%d], " % (k, 2 * n) for k in ks)
             for ks in (range(n), range(n, 2 * n))]
    start = "    x, %s = 0.0, %s" % (", ".join(fixed + [var, "p"]), ", ".join(
        ["_asarray(y).T"] * len(fixed) + views))
    return src.define(head, start, "\n".join(lines), np, _empty=np.empty,
                      _asarray=np.asarray, _multiply=np.multiply,
                      _finite=_finite)


def _generate_fiber_speed(k):
    """fiber_speed(y, z1) -> kzz(0, y, z1)^(-1/2), on floats, of the one
    entry k of a one-dimensional fiber block: dz/dl of its unit-speed
    geodesics.  A kzz that is not positive raises DegenerateMetricError,
    one that is nan IntegrationDivergedError, as a lane of the
    cogeodesic field would."""
    src = _Source()
    kzz = src.term(k)
    return src.define(
        "fiber_speed(y, z1)", "    x, z = 0.0, (z1,)",
        "    if %s > 0.0:\n      return 1.0 / _sqrt(%s)\n    if %s <= 0.0:\n"
        "      raise _Degenerate('fiber metric not positive at z1 = %%.6g: "
        "k = %%.3g' %% (z1, %s))\n    raise _Diverged('geodesic lanes left "
        "the finite range of the metric')" % (kzz, kzz, kzz, kzz),
        math, _Diverged=IntegrationDivergedError)


class MetricEvaluator:
    """Evaluates G, dG and derived quantities at chart points.

    Index order for matrix slots and for derivative directions is
    (x, y1..yb, z1..zf); nv = 1 + b + f.  ``kernel(x, y, z)`` returns
    (G, dG) with dG[v] = dG/dv, shapes (nv, nv) and (nv, nv, nv).
    ``hamilton(state, scale)`` returns (p, scale * H), the symbol and
    the flow field of the hamiltonian module at one phase point (floats),
    as a float and a tuple.
    ``fiber_cogeodesic(y, state, arc, out=None)`` returns arc times the
    cogeodesic field of kzz^{-1}, d/ds of (z, zeta), on the raveled
    lanes (n, 2, f) of state, and ``base_cogeodesic(state, arc,
    out=None)`` that of h^{-1}, d/ds of (y, eta), checked, or written
    into out unchecked (see _generate_cogeodesic).  For f = 1 only,
    ``fiber_speed(y, z1)`` returns kzz(0, y, z1)^(-1/2) on floats, the
    rate dz/dl of a unit-speed fiber geodesic, generated on first use,
    so a trace that never reaches the edge does not build it.  The blocks
    kzz and h are read from G at x = 0 (``fiber_cometric``,
    ``base_cometric``).
    ``seed_exact``: h is constant and h', kyy, kyz vanish identically
    (the hamiltonian module notes say why the launch seed is then exact).
    """

    def __init__(self, spec):
        self.spec = spec
        b, f = spec.b, spec.f
        self.nv = 1 + b + f
        self.b, self.f = b, f
        vars_ = ["x"] + ["y%d" % (i + 1) for i in range(b)] \
                      + ["z%d" % (a + 1) for a in range(f)]
        self.sy = slice(1, 1 + b)
        self.sz = slice(1 + b, 1 + b + f)
        src = _Source()
        entries = _metric_entries(spec, vars_, src)
        self.kernel = _generate_kernel(self.nv, entries, src)
        self.hamilton = _generate_hamilton(b, f, entries, src)
        self.fiber_cogeodesic = _generate_cogeodesic(spec.k, "z")
        self.base_cogeodesic = _generate_cogeodesic(spec.h, "y")
        cross = (spec.hprime, spec.kyy, spec.kyz)
        self.seed_exact = (
            all(isinstance(node, ex.Num) for row in spec.h for node in row)
            and all(node == ex.Num(0.0)
                    for block in cross for row in block for node in row))

    @functools.cached_property
    def fiber_speed(self):
        """kzz(0, y, z1)^(-1/2) of an f = 1 fiber on floats, generated on
        first use (see _generate_fiber_speed); None for f >= 2."""
        if self.f == 1:
            return _generate_fiber_speed(self.spec.k[0][0])
        return None

    def edge_matrix(self, x, y, z):
        """The frame metric G(x, y, z)."""
        return self.kernel(x, y, z)[0]

    def edge_matrix_derivs(self, x, y, z):
        """Stack dG/dv for v in (x, y.., z..); shape (nv, nv, nv).  Kept
        because the benchmark's tracer wraps it."""
        return self.kernel(x, y, z)[1]

    def dual_matrix(self, x, y, z, check=True):
        """G^{-1}; raises DegenerateMetricError past the condition limit."""
        G = self.edge_matrix(x, y, z)
        if check:
            cond = np.linalg.cond(G)
            if not np.isfinite(cond) or cond > COND_LIMIT:
                raise DegenerateMetricError(
                    "metric condition number %.3g at x=%.3g exceeds %.1g"
                    % (cond, x, COND_LIMIT))
        try:
            return np.linalg.inv(G)
        except np.linalg.LinAlgError as err:
            raise DegenerateMetricError("metric not invertible at x=%.3g: %s"
                                        % (x, err))

    def fiber_cometric(self, y, z):
        """K = kzz(0, y, z)^{-1}, the inverse fiber block of G at x = 0.

        Raises DegenerateMetricError where kzz is not finite, singular,
        or so near singular that its inverse overflows.
        """
        kzz = self.edge_matrix(0.0, y, z)[self.sz, self.sz]
        if not np.isfinite(kzz).all():
            raise DegenerateMetricError("fiber metric not finite at z=%s"
                                        % np.round(z, 6))
        try:
            K = np.linalg.inv(kzz)
        except np.linalg.LinAlgError as err:
            raise DegenerateMetricError("fiber metric not invertible: %s"
                                        % err)
        if not np.isfinite(K).all():
            raise DegenerateMetricError("fiber metric not invertible at "
                                        "z=%s: its inverse overflows" % z)
        return K

    def base_cometric(self, y, z):
        """H = h(0, y)^{-1}, the inverse base block of G at (0, y, z)
        (b = 0 gives a 0x0 matrix)."""
        h = self.edge_matrix(0.0, y, z)[self.sy, self.sy]
        try:
            return np.linalg.solve(h, np.eye(self.b))
        except np.linalg.LinAlgError as err:
            raise DegenerateMetricError("metric not invertible: %s" % err)


def transverse_momentum(spec, x, y, z, tau, eta, zeta, sign):
    """Solve p = 0 for xi at fixed remaining covector data.

    Returns sign * sqrt(tau^2 - |(eta, zeta)|^2_dual); raises ValueError
    when the data are spacelike (no real solution).
    """
    ev = spec.evaluator()
    Ginv = ev.dual_matrix(x, y, z, check=False)
    w = np.concatenate((eta, zeta))
    q2 = float(w @ Ginv[1:, 1:] @ w)
    disc = tau * tau - q2
    if disc < 0.0:
        raise ValueError("no real transverse momentum: tau^2 - |slow|^2 = %.3g"
                         % disc)
    return float(sign) * math.sqrt(disc)


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    min_base_eigenvalue: float
    min_fiber_eigenvalue: float
    worst_cond: float
    n_samples: int
    failures: tuple


def validate_normal_form(spec, seed=0):
    """Sample the chart domain and check positivity of the metric blocks.

    Failures list sample points where the base or fiber block loses
    positive-definiteness (eigenvalue below VALIDATION_TOL), a
    coefficient is undefined (a math domain error or overflow), or
    conditioning blows up.
    """
    ev = spec.evaluator()
    rng = np.random.default_rng(seed)
    xs = np.concatenate(([0.0], rng.uniform(0.0, spec.x_max,
                                            VALIDATION_SAMPLES - 1)))
    failures = []
    min_h, min_k, worst_cond = math.inf, math.inf, 0.0
    for x in xs:
        y = np.array([rng.uniform(lo, hi) for lo, hi in spec.y_box])
        z = np.array([rng.uniform(lo, hi) for lo, hi in spec.z_box])
        try:
            G = ev.edge_matrix(float(x), y, z)
        except DegenerateMetricError as err:
            failures.append("%s at x=%.4g y=%s z=%s" % (
                err, x, np.round(y, 4), np.round(z, 4)))
            continue
        if not np.all(np.isfinite(G)):
            failures.append("non-finite metric entry at x=%.4g" % x)
            continue
        eig_all = np.linalg.eigvalsh(G)
        kzz = G[ev.sz, ev.sz]
        min_k = min(min_k, float(np.linalg.eigvalsh(kzz).min()))
        if spec.b:
            base = G[ev.sy, ev.sy]
            min_h = min(min_h, float(np.linalg.eigvalsh(base).min()))
        cond = float(np.linalg.cond(G))
        worst_cond = max(worst_cond, cond)
        if eig_all.min() <= VALIDATION_TOL:
            failures.append("metric eigenvalue %.4g <= %.1g at x=%.4g y=%s z=%s"
                            % (eig_all.min(), VALIDATION_TOL, x,
                               np.round(y, 4), np.round(z, 4)))
        elif cond > COND_LIMIT:
            failures.append("condition number %.4g at x=%.4g" % (cond, x))
    if not spec.b:
        min_h = math.inf
    return ValidationReport(
        passed=not failures,
        min_base_eigenvalue=min_h,
        min_fiber_eigenvalue=min_k,
        worst_cond=worst_cond,
        n_samples=VALIDATION_SAMPLES,
        failures=tuple(failures),
    )
