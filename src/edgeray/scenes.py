"""Scene configuration: builtin models, scene files, and ray sources.

A scene bundles a metric model with a ray source, a time window, a
branching policy, numerical settings and regularity inputs.  Scene
files are plain key = value text; builtin scenes are referenced by name:

    product_cone(rho)      cone over a circle of radius rho (b=0, f=1)
    product_edge(b, f)     flat product edge with torus fiber
    blowup_curve_r3        R^3 blown up along a line (b=1, f=1); the
                           blow-down (x, y, z) -> (x cos z, x sin z, y)
                           sends geodesics to straight lines
    perturbed_edge(a)      product edge with an amplitude-a fiber
                           ripple and a first-order cross term
    sphere_edge            b=1 edge with a round 2-sphere fiber

The point-source fan launches rays at unit time frequency uniformly
over covector directions using a seeded low-discrepancy sequence, so a
scene is reproducible from its text alone.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ._config import config_float, config_int, parse_value, split_statements
from .errors import ConfigError, DimensionError
from .gbb import SAME_FIBER, BranchPolicy
from .hamiltonian import FlowSettings
from .metric import (METRIC_KEYS, EdgeMetricSpec, make_metric_spec,
                     metric_spec_from_values)
from .orders import Nonfocusing, OrderBound
from .phase import EdgePhasePoint

SCENE_KEYS = ("builtin", "x_max", "y_box", "z_box", "source", "origin",
              "fan_count", "seed", "t_span", "policy", "s_incident",
              "nonfocusing", "clean", "out", "format", "rtol", "atol",
              "x_stop")


@dataclass(frozen=True)
class PointSource:
    """Fan of rays from a spatial point over all covector directions."""

    origin: np.ndarray          # (x, y.., z..)
    fan_count: int = 16

    def __post_init__(self):
        object.__setattr__(self, "origin",
                           np.atleast_1d(np.asarray(self.origin, float)))
        if self.fan_count < 1:
            raise ConfigError("fan_count must be at least 1")


@dataclass
class SceneConfig:
    name: str                   # builtin string or "custom"
    spec: EdgeMetricSpec
    source: object              # EdgePhasePoint or PointSource
    t_span: tuple = (0.0, 2.0)
    policy: BranchPolicy = SAME_FIBER
    settings: FlowSettings = field(default_factory=FlowSettings)
    seed: int = 0
    s_incident: str = "0"
    nonfocusing: Nonfocusing | None = None
    clean: bool | None = None
    out: str | None = None
    format: str = "csv"


# --- builtin scenes -------------------------------------------------------

def _cone_metric(rho):
    if rho <= 0:
        raise ConfigError("cone radius must be positive")
    return make_metric_spec(0, 1, k=[["%r" % (rho * rho)]], fiber="circle(%r)"
                            % (2.0 * math.pi))


def _product_edge_metric(b, f):
    b, f = int(b), int(f)
    h = [["1" if i == j else "0" for j in range(b)] for i in range(b)]
    k = [["1" if i == j else "0" for j in range(f)] for i in range(f)]
    return make_metric_spec(b, f, h=h if b else None, k=k, fiber="torus")


def _blowup_metric():
    return make_metric_spec(1, 1, h=[["1"]], k=[["1"]],
                            fiber="circle(%r)" % (2.0 * math.pi))


def _perturbed_metric(a):
    if abs(a) >= 0.5:
        raise ConfigError("perturbation amplitude must stay below 0.5")
    return make_metric_spec(
        1, 1, h=[["1"]],
        hprime=[["%r*sin(z1)" % a]],
        k=[["(1+%r*sin(z1))^2" % a]],
        fiber="circle(%r)" % (2.0 * math.pi))


def _sphere_metric():
    return make_metric_spec(
        1, 2, h=[["1"]],
        k=[["1", "0"], ["0", "sin(z1)^2"]],
        fiber="torus(none, %r)" % (2.0 * math.pi),
        z_box=((0.4, math.pi - 0.4), (0.0, 2.0 * math.pi)))


def _radial_source(spec, x0, y=None, z=None):
    """Incoming radial characteristic ray: tau = xi = 1, eta = zeta = 0."""
    return EdgePhasePoint(
        t=0.0, x=x0,
        y=np.zeros(spec.b) if y is None else np.asarray(y, float),
        z=np.zeros(spec.f) if z is None else np.asarray(z, float),
        tau=1.0, xi=1.0, eta=np.zeros(spec.b), zeta=np.zeros(spec.f))


def _scene_product_cone(rho=1.0):
    spec = _cone_metric(float(rho))
    return SceneConfig(name="product_cone(%r)" % float(rho), spec=spec,
                       source=_radial_source(spec, 0.9), t_span=(0.0, 1.7))


def _scene_product_edge(b=1, f=1):
    spec = _product_edge_metric(b, f)
    return SceneConfig(name="product_edge(%d, %d)" % (int(b), int(f)),
                       spec=spec, source=_radial_source(spec, 0.9),
                       t_span=(0.0, 1.7))


def _scene_blowup():
    spec = _blowup_metric()
    source = EdgePhasePoint(t=0.0, x=0.8, y=np.array([0.0]),
                            z=np.array([0.0]), tau=1.0, xi=0.8,
                            eta=np.array([0.6]), zeta=np.array([0.0]))
    return SceneConfig(name="blowup_curve_r3", spec=spec, source=source,
                       t_span=(0.0, 1.9), policy=BranchPolicy("geometric"))


def _scene_perturbed(a=0.05):
    spec = _perturbed_metric(float(a))
    return SceneConfig(name="perturbed_edge(%r)" % float(a), spec=spec,
                       source=_radial_source(spec, 0.5, z=[0.7]),
                       t_span=(0.0, 0.95))


def _scene_sphere():
    spec = _sphere_metric()
    return SceneConfig(name="sphere_edge", spec=spec,
                       source=_radial_source(spec, 0.8, z=[1.2, 0.4]),
                       t_span=(0.0, 1.5))


BUILTIN_SCENES = {
    "product_cone": _scene_product_cone,
    "product_edge": _scene_product_edge,
    "blowup_curve_r3": _scene_blowup,
    "perturbed_edge": _scene_perturbed,
    "sphere_edge": _scene_sphere,
}


def builtin_scene(name):
    """Instantiate a builtin scene from 'name' or 'name(arg, ...)'."""
    text = str(name).strip()
    match = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?", text)
    if not match:
        raise ConfigError("malformed builtin scene reference %r" % text)
    base, argtext = match.group(1), match.group(2)
    if base not in BUILTIN_SCENES:
        raise ConfigError("unknown builtin scene %r (have: %s)"
                          % (base, ", ".join(sorted(BUILTIN_SCENES))))
    args = []
    if argtext is not None and argtext.strip():
        for piece in argtext.split(","):
            piece = piece.strip()
            try:
                args.append(int(piece) if re.fullmatch(r"[+-]?\d+", piece)
                            else float(piece))
            except ValueError:
                raise ConfigError("bad builtin argument %r" % piece)
    try:
        return BUILTIN_SCENES[base](*args)
    except TypeError as err:
        raise ConfigError("bad arguments for %s: %s" % (base, err))


# --- scene files -----------------------------------------------------------

def parse_scene(text):
    """Parse a scene file; returns a SceneConfig."""
    values = {}
    for key, raw, lineno in split_statements(text):
        if key not in SCENE_KEYS and key not in METRIC_KEYS:
            raise ConfigError("unknown scene key %r (line %d)" % (key, lineno))
        if key in values:
            raise ConfigError("duplicate scene key %r (line %d)"
                              % (key, lineno))
        values[key] = parse_value(raw, lineno)
    return scene_from_values(values)


def scene_from_values(values):
    values = dict(values)
    spec_keys = METRIC_KEYS + ("x_max", "y_box", "z_box")
    if "builtin" in values:
        for key in spec_keys:
            if key in values:
                raise ConfigError("builtin scenes fix the metric; "
                                  "remove key %r" % key)
        config = builtin_scene(values.pop("builtin"))
    else:
        spec = metric_spec_from_values({k: values.pop(k) for k in spec_keys
                                        if k in values})
        config = SceneConfig(name="custom", spec=spec,
                             source=_radial_source(spec, 0.9 * spec.x_max))
    spec = config.spec
    if "source" in values and "origin" in values:
        raise ConfigError("give either source or origin, not both")
    if "source" in values:
        vec = _vector(values.pop("source"), "source")
        want = 2 * (2 + spec.b + spec.f)
        if vec.shape != (want,):
            raise DimensionError("source must list %d numbers "
                                 "(t x y.. z.. tau xi eta.. zeta..)" % want)
        config.source = EdgePhasePoint.from_vector(vec, spec.b, spec.f)
    if "origin" in values:
        vec = _vector(values.pop("origin"), "origin")
        want = 1 + spec.b + spec.f
        if vec.shape != (want,):
            raise DimensionError("origin must list %d numbers (x y.. z..)"
                                 % want)
        config.source = PointSource(origin=vec, fan_count=config_int(
            values.pop("fan_count", 16), "fan_count"))
    elif "fan_count" in values:
        raise ConfigError("fan_count requires a point-source origin")
    if "t_span" in values:
        span = values.pop("t_span")
        if not isinstance(span, list) or len(span) != 2:
            raise ConfigError("t_span must be [t0, t1]")
        config.t_span = (config_float(span[0], "t_span"),
                         config_float(span[1], "t_span"))
    if not config.t_span[1] > config.t_span[0]:
        raise ConfigError("t_span must be increasing")
    if "policy" in values:
        config.policy = BranchPolicy.parse(values.pop("policy"))
    if "seed" in values:
        config.seed = config_int(values.pop("seed"), "seed")
    if "s_incident" in values:
        config.s_incident = str(values.pop("s_incident"))
        _order("s_incident", OrderBound.parse, config.s_incident)
    if "nonfocusing" in values:
        pair = values.pop("nonfocusing")
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError("nonfocusing must be [space_order, degree]")
        config.nonfocusing = _order("nonfocusing", Nonfocusing, str(pair[0]),
                                    str(pair[1]))
    if "clean" in values:
        raw = str(values.pop("clean")).lower()
        if raw not in ("auto", "true", "false"):
            raise ConfigError("clean must be auto, true, or false")
        config.clean = None if raw == "auto" else raw == "true"
    if "out" in values:
        config.out = str(values.pop("out"))
    if "format" in values:
        fmt = str(values.pop("format")).lower()
        if fmt not in ("csv", "jsonl"):
            raise ConfigError("format must be csv or jsonl")
        config.format = fmt
    numeric = {key: config_float(values.pop(key), key)
               for key in ("rtol", "atol", "x_stop") if key in values}
    if numeric:
        config.settings = replace(config.settings, **numeric)
    if values:
        raise ConfigError("unused scene keys: %s" % ", ".join(sorted(values)))
    return config


def _vector(raw, key):
    """A list value as a float array, each entry checked by config_float."""
    return np.array([config_float(item, key)
                     for item in (raw if isinstance(raw, list) else [raw])])


def _order(key, make, *texts):
    """make(*texts) of the order texts of a scene key; ConfigError naming
    the key if one is not a rational order."""
    try:
        return make(*texts)
    except (ValueError, ZeroDivisionError):
        raise ConfigError("%s = %s is not a rational order"
                          % (key, ", ".join(texts))) from None


def blow_down(x, y, z):
    """Blow-down of the blowup_curve_r3 chart to Cartesian R^3.

    (x, y, z) -> (x cos z, x sin z, y); interior geodesics map to
    straight lines and the edge x = 0 collapses onto the y-axis.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    return np.stack((x * np.cos(z), x * np.sin(z), y), axis=-1)


def blow_down_segment(segment):
    """Cartesian R^3 sample path of a blowup_curve_r3 ray segment."""
    states = segment.states
    return blow_down(states[:, 1], states[:, 2], states[:, 3])


# --- ray sources ------------------------------------------------------------

def fan_directions(dim, count, seed):
    """Low-discrepancy unit directions in R^dim, deterministic per seed."""
    if dim == 1:
        return np.array([[1.0 if i % 2 == 0 else -1.0] for i in range(count)])
    # scipy.stats is slow to import and only fans need it
    from scipy.stats import norm, qmc
    sampler = qmc.Sobol(d=dim, scramble=True, seed=seed)
    with warnings.catch_warnings():
        # fan counts need not be powers of two; balance is irrelevant here
        warnings.simplefilter("ignore", UserWarning)
        raw = sampler.random(count)
    # Map to Gaussians, then normalize: uniform on the Euclidean sphere.
    gauss = norm.ppf(np.clip(raw, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(gauss, axis=1)
    norms[norms == 0.0] = 1.0
    return gauss / norms[:, None]


def scenario_rays(config):
    """The list of launch points a scene defines, in deterministic order."""
    if isinstance(config.source, EdgePhasePoint):
        return [config.source]
    spec = config.spec
    o = config.source.origin
    x0 = float(o[0])
    if x0 <= 0.0:
        raise ConfigError("point source must sit in the interior (x > 0)")
    y0 = o[1:1 + spec.b]
    z0 = o[1 + spec.b:]
    ev = spec.evaluator()
    Ginv = ev.dual_matrix(x0, y0, z0)
    dirs = fan_directions(1 + spec.b + spec.f, config.source.fan_count,
                          config.seed)
    rays = []
    for v in dirs:
        scale = math.sqrt(float(v @ Ginv @ v))
        u = v / scale
        rays.append(EdgePhasePoint(
            t=config.t_span[0], x=x0, y=y0.copy(), z=z0.copy(), tau=1.0,
            xi=u[0], eta=u[1:1 + spec.b], zeta=u[1 + spec.b:]))
    return rays
