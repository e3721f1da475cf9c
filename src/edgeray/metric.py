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
the evaluator generates two functions per metric: one returns G and
every partial dG/dv from a single call, and each pointwise reader slices
it; the other returns the x = 0 fiber block kzz and its nonzero z
partials over a lane axis, for the fiber-geodesic shooter and the fiber
cometric.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from ._config import parse_value, split_statements
from .errors import ConfigError, DegenerateMetricError, DimensionError

COND_LIMIT = 1e12


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
        z = np.array(z, dtype=float)
        for a, period in enumerate(self.periods):
            if period is not None:
                z[a] = z[a] % period
        return z

    def coordinate_delta(self, z1, z2):
        """Signed per-coordinate difference z1 - z2, shortest wrap."""
        d = np.asarray(z1, dtype=float) - np.asarray(z2, dtype=float)
        for a, period in enumerate(self.periods):
            if period is not None:
                d[a] = (d[a] + period / 2.0) % period - period / 2.0
        return d


def _parse_fiber(raw, f):
    raw = str(raw).strip()
    if raw == "chart":
        return FiberTopology((None,) * f)
    if raw.startswith("circle(") and raw.endswith(")"):
        if f != 1:
            raise DimensionError("circle fiber topology requires f = 1")
        return FiberTopology((float(raw[7:-1]),))
    if raw == "torus":
        return FiberTopology((2.0 * math.pi,) * f)
    if raw.startswith("torus(") and raw.endswith(")"):
        items = [piece.strip() for piece in raw[6:-1].split(",")]
        if len(items) != f:
            raise DimensionError("torus periods must list all %d fiber coordinates" % f)
        periods = tuple(None if item == "none" else float(item) for item in items)
        return FiberTopology(periods)
    raise ConfigError("unknown fiber topology %r" % raw)


def _format_fiber(fiber):
    if fiber.kind == "chart":
        return "chart"
    if fiber.kind == "circle":
        return "circle(%r)" % fiber.periods[0]
    items = ", ".join("none" if p is None else repr(p) for p in fiber.periods)
    return "torus(%s)" % items


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
    """Build a metric spec from matrices of expression strings (or ASTs)."""
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
    if fiber is None:
        fiber = FiberTopology((2.0 * math.pi,) * f)
    elif not isinstance(fiber, FiberTopology):
        fiber = _parse_fiber(fiber, f)
    elif len(fiber.periods) != f:
        raise DimensionError("fiber topology lists %d periods for f=%d"
                             % (len(fiber.periods), f))
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


def parse_metric_spec(text):
    """Parse the metric portion of a structured-text config."""
    values = {}
    for key, raw, lineno in split_statements(text):
        if key in METRIC_KEYS:
            values[key] = parse_value(raw, lineno)
    return metric_spec_from_values(values)


def _as_float_pairs(raw, key):
    if not isinstance(raw, list) or not all(
            isinstance(item, list) and len(item) == 2 for item in raw):
        raise ConfigError("%s must be a list of [lo, hi] pairs" % key)
    return tuple((float(lo), float(hi)) for lo, hi in raw)


def metric_spec_from_values(values):
    """Metric spec from parsed METRIC_KEYS values, plus the optional
    coordinate extents x_max, y_box and z_box."""
    for required in ("b", "f", "k"):
        if required not in values:
            raise ConfigError("missing metric key %r" % required)
    extent = {key: _as_float_pairs(values[key], key)
              for key in ("y_box", "z_box") if key in values}
    if "x_max" in values:
        extent["x_max"] = float(values["x_max"])
    return make_metric_spec(
        int(values["b"]), int(values["f"]),
        h=values.get("h"),
        hprime=values.get("hprime"),
        k=values.get("k"),
        kyy=values.get("kyy"),
        kyz=values.get("kyz"),
        fiber=values.get("fiber"),
        **extent)


def metric_spec_values(spec):
    """Serializable key -> raw-value mapping; inverse of parse side."""
    def fmt(matrix):
        return [[ex.format_expr(entry) for entry in row] for row in matrix]

    values = {
        "b": spec.b,
        "f": spec.f,
        "fiber": _format_fiber(spec.fiber),
        "k": fmt(spec.k),
    }
    if spec.b:
        values["h"] = fmt(spec.h)
        if any(entry != ex.Num(0.0) for row in spec.hprime for entry in row):
            values["hprime"] = fmt(spec.hprime)
        if any(entry != ex.Num(0.0) for row in spec.kyy for entry in row):
            values["kyy"] = fmt(spec.kyy)
        if any(entry != ex.Num(0.0) for row in spec.kyz for entry in row):
            values["kyz"] = fmt(spec.kyz)
    return values


# --- pointwise evaluation ---------------------------------------------

class _Source:
    """Body of a generated function: one local per distinct expression."""

    def __init__(self):
        self.body, self.names = [], {}

    def local(self, text):
        if text not in self.names:
            self.names[text] = "c%d" % len(self.names)
            self.body.append("    %s = %s" % (self.names[text], text))
        return self.names[text]

    def term(self, node):
        if isinstance(node, ex.Num):
            return repr(node.value)
        return self.local(ex._to_source(node))

    def define(self, head, tail, functions, **names):
        """Exec "def head: body; tail" with sin..log from functions."""
        namespace = {"_" + name: getattr(functions, name)
                     for name in ex.FUNCTIONS}
        namespace.update(names, __builtins__={})
        exec("def %s:\n%s\n%s" % (head, "\n".join(self.body), tail),
             namespace)
        return namespace[head[:head.index("(")]]


def _generate_kernel(spec, names):
    """kernel(x, y, z) -> (G, dG), one statement per distinct entry.

    The y rows spell out the normal form term by term, zeros included, so
    their rounding does not depend on which coefficients vanish:
    G_yy = (h + x*h') + (x*x)*kyy, G_yz = x*kyz, and their x partials add
    the product-rule terms + h' + (2x)*kyy and + kyz.
    """
    b, f = spec.b, spec.f
    nv = 1 + b + f
    src, entries = _Source(), {0: "1.0"}   # flat slot -> value

    def term(matrix, v, i, j):   # v = 0: the entry, v = 1 + u: d/du
        node = matrix[i][j] if v == 0 else ex.diff(matrix[i][j], names[v - 1])
        return src.term(node)

    for v in range(1 + nv):
        def put(i, j, text):
            if text != "0.0":   # the slots start at zero
                entries[(v * nv + i) * nv + j] = text

        for a, c in itertools.product(range(f), repeat=2):
            put(1 + b + a, 1 + b + c, term(spec.k, v, a, c))
        for i, j in itertools.product(range(b), repeat=2):
            text = "(%s + x * %s) + (x * x) * %s" % (
                term(spec.h, v, i, j), term(spec.hprime, v, i, j),
                term(spec.kyy, v, i, j))
            if v == 1:
                text = "(%s + %s) + (2.0 * x) * %s" % (
                    src.local(text), term(spec.hprime, 0, i, j),
                    term(spec.kyy, 0, i, j))
            put(1 + i, 1 + j, src.local(text))
        for i, a in itertools.product(range(b), range(f)):
            text = "x * %s" % term(spec.kyz, v, i, a)
            if v == 1:
                text += " + %s" % term(spec.kyz, 0, i, a)
            put(1 + i, 1 + b + a, src.local(text))
            put(1 + b + a, 1 + i, src.local(text))
    return src.define(
        "kernel(x, y, z)",
        "    out = _zeros(%d)\n    out[_slots] = (%s,)\n"
        "    return out[:%d].reshape(%d, %d), out[%d:].reshape(%d, %d, %d)"
        % (nv * nv * (1 + nv), ", ".join(entries.values()), nv * nv, nv,
           nv, nv * nv, nv, nv, nv),
        math, _zeros=np.zeros, _slots=np.array(list(entries), dtype=np.intp))


def _generate_fiber(spec):
    """(fiber(y, z) -> (kzz, dkzz), dirs) at x = 0, numpy functions.

    dirs lists the fiber directions a along which kzz varies; dkzz[..., d]
    is dkzz/dz_{dirs[d]}.  Only nonzero entries are written, each
    symmetric pair from one statement.
    """
    f = spec.f
    zs = ["z%d" % (a + 1) for a in range(f)]
    dirs = [a for a in range(f)
            if any(ex.diff(node, zs[a]) != ex.Num(0.0)
                   for row in spec.k for node in row)]
    src, lines = _Source(), []
    src.body.append("    x, y, z = 0.0, _asarray(y).T, _asarray(z).T")
    for d, a in enumerate([None] + dirs):
        for i, j in itertools.combinations_with_replacement(range(f), 2):
            node = spec.k[i][j] if a is None else ex.diff(spec.k[i][j], zs[a])
            if node != ex.Num(0.0):
                text = src.term(node)
                lines += ["    out[..., %d, %d, %d] = %s" % (d, p, q, text)
                          for p, q in {(i, j), (j, i)}]
    fiber = src.define(
        "fiber(y, z)",
        "    out = _zeros(z.T.shape[:-1] + (%d, %d, %d))\n%s\n"
        "    return out[..., 0, :, :], out[..., 1:, :, :]"
        % (1 + len(dirs), f, f, "\n".join(lines)),
        np, _zeros=np.zeros, _asarray=np.asarray)
    return fiber, tuple(dirs)


class MetricEvaluator:
    """Evaluates G, dG and derived quantities at chart points.

    Index order for matrix slots and for derivative directions is
    (x, y1..yb, z1..zf); nv = 1 + b + f.  ``kernel(x, y, z)`` returns
    (G, dG) with dG[v] = dG/dv, shapes (nv, nv) and (nv, nv, nv).
    ``fiber(y, z)`` returns the x = 0 fiber block kzz and its partials
    dkzz/dz_a for the directions a in ``fiber_dirs``, shapes (f, f) and
    (len(fiber_dirs), f, f); y and z may carry a leading lane axis
    (shapes (n, b) and (n, f)), which the results then carry too, as
    numpy.linalg stacks matrices.
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
        self.kernel = _generate_kernel(spec, vars_)
        self.fiber, self.fiber_dirs = _generate_fiber(spec)

    def edge_matrix(self, x, y, z):
        """The frame metric G(x, y, z)."""
        return self.kernel(x, y, z)[0]

    def edge_matrix_derivs(self, x, y, z):
        """Stack dG/dv for v in (x, y.., z..); shape (nv, nv, nv)."""
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
        """K = inverse fiber block at x = 0, per lane like ``fiber``.

        Raises DegenerateMetricError where kzz is not finite or singular.
        """
        kzz = self.fiber(y, z)[0]
        if not np.isfinite(kzz).all():
            raise DegenerateMetricError("fiber metric not finite at z=%s"
                                        % np.round(z, 6))
        try:
            return np.linalg.inv(kzz)
        except np.linalg.LinAlgError as err:
            raise DegenerateMetricError("fiber metric not invertible: %s"
                                        % err)

    def base_cometric(self, y):
        """H = inverse base block h(0, y)^{-1} (b = 0 gives a 0x0 matrix)."""
        if not self.b:
            return np.zeros((0, 0))
        G = self.kernel(0.0, y, np.zeros(self.f))[0]
        return solve(G[self.sy, self.sy], np.eye(self.b))


def solve(matrix, rhs):
    """matrix^{-1} rhs; a singular matrix raises DegenerateMetricError."""
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as err:
        raise DegenerateMetricError("metric not invertible: %s" % err)


def wave_symbol(spec, q):
    """p = tau^2 - |covector|^2 in the edge scaling; vanishes on light rays."""
    ev = spec.evaluator()
    Ginv = ev.dual_matrix(q.x, q.y, q.z, check=False)
    u = np.concatenate(([q.xi], q.eta, q.zeta))
    return float(q.tau * q.tau - u @ Ginv @ u)


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
    dx_row_clean: bool
    failures: tuple


def validate_normal_form(spec, n_samples=200, tol=1e-10, seed=0):
    """Sample the chart domain and check positivity of the metric blocks.

    The dx row/column of g carries no cross terms by construction; the
    report records that structurally.  Failures list sample points where
    the base or fiber block loses positive-definiteness (eigenvalue below
    tol) or conditioning blows up.
    """
    ev = spec.evaluator()
    rng = np.random.default_rng(seed)
    xs = np.concatenate(([0.0], rng.uniform(0.0, spec.x_max, n_samples - 1)))
    failures = []
    min_h, min_k, worst_cond = math.inf, math.inf, 0.0
    for x in xs:
        y = np.array([rng.uniform(lo, hi) for lo, hi in spec.y_box])
        z = np.array([rng.uniform(lo, hi) for lo, hi in spec.z_box])
        G = ev.edge_matrix(float(x), y, z)
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
        if eig_all.min() <= tol:
            failures.append("metric eigenvalue %.4g <= %.1g at x=%.4g y=%s z=%s"
                            % (eig_all.min(), tol, x, np.round(y, 4),
                               np.round(z, 4)))
        elif cond > COND_LIMIT:
            failures.append("condition number %.4g at x=%.4g" % (cond, x))
    if not spec.b:
        min_h = math.inf
    return ValidationReport(
        passed=not failures,
        min_base_eigenvalue=min_h,
        min_fiber_eigenvalue=min_k,
        worst_cond=worst_cond,
        n_samples=n_samples,
        dx_row_clean=True,
        failures=tuple(failures),
    )
