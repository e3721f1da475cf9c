"""Command-line interface.

Subcommands:

  validate <scene>     check the metric normal form over sampled points
  trace <scene>        trace the scene's rays and dump the results
  eigencheck <scene>   radial-point linearization spectrum check
  partners <scene>     geometric partners of a fiber point
  orders               exact order formulas (no scene needed)

A <scene> argument is either a builtin name like product_cone(1.0) or
the path of a scene file.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from ._config import config_float, config_int
from .boundary import geometric_partners, is_geometrically_related
from .errors import ConfigError, EdgeRayError, NumericalError
from .hamiltonian import linearization_at_radial
from .metric import validate_normal_form
from .orders import (as_rational, coisotropic_eps_loss, edge_threshold_check,
                     fundamental_solution_orders,
                     lagrangian_nonfocusing_degree)
from .phase import CospherePoint
from .rays_io import serialize_dump
from .run import run_scenario
from .scenes import builtin_scene, parse_scene

FAIL_LINES = 5   # FAIL lines edgeray validate prints before a summary line


def _load_scene(ref, seed=None):
    if os.path.exists(ref):
        with open(ref) as handle:
            config = parse_scene(handle.read())
    else:
        config = builtin_scene(ref)
    if seed is not None:
        config.seed = config_int(seed, "--seed", 0)
    return config


def _floats(text, flag):
    return np.array([config_float(piece, flag)
                     for piece in str(text).split(",") if piece.strip() != ""])


def cmd_validate(args):
    config = _load_scene(args.scene, args.seed)
    report = validate_normal_form(config.spec, seed=config.seed)
    print("scene %s: b=%d f=%d fiber=%s" % (config.name, config.spec.b,
                                            config.spec.f,
                                            config.spec.fiber.kind))
    print("samples checked: %d" % report.n_samples)
    print("min fiber-block eigenvalue: %.6g" % report.min_fiber_eigenvalue)
    if config.spec.b:
        print("min base-block eigenvalue: %.6g" % report.min_base_eigenvalue)
    print("worst condition number: %.6g" % report.worst_cond)
    if not report.passed:
        for failure in report.failures[:FAIL_LINES]:
            print("FAIL: %s" % failure)
        if len(report.failures) > FAIL_LINES:
            print("... and %d more" % (len(report.failures) - FAIL_LINES))
        raise ConfigError("metric failed validation at %d points"
                          % len(report.failures))
    print("normal form OK")
    return 0


def cmd_trace(args):
    config = _load_scene(args.scene, args.seed)
    if args.rtol is not None:
        config.settings = replace(config.settings, rtol=args.rtol)
    if args.x_stop is not None:
        config.settings = replace(config.settings, x_stop=args.x_stop)
    if args.out is not None:
        config.out = args.out
    if args.format is not None:
        config.format = args.format
    result = run_scenario(config)
    sys.stdout.write(result.summary)
    if config.out:
        print("dump written to %s (%s)" % (config.out, config.format))
    else:
        sys.stdout.write(serialize_dump(result.dump, config.format))
    return 0


def _random_radial_points(spec, count, seed):
    rng = np.random.default_rng(seed)
    ev = spec.evaluator()
    points = []
    for _ in range(count):
        y = np.array([rng.uniform(lo, hi) for lo, hi in spec.y_box])
        z = np.array([rng.uniform(lo, hi) for lo, hi in spec.z_box])
        sgn_tau = 1 if rng.uniform() < 0.5 else -1
        if spec.b:
            g = rng.normal(size=spec.b)
            H = ev.base_cometric(y, z)
            g_norm = math.sqrt(float(g @ H @ g))
            rho = rng.uniform(0.1, 0.9)
            eta = rho * g / g_norm
            xi_mag = math.sqrt(1.0 - rho * rho)
        else:
            eta = np.zeros(0)
            xi_mag = 1.0
        xi = sgn_tau * xi_mag  # incoming-signed; the spectrum only needs |xi|
        points.append(CospherePoint(
            t=rng.uniform(-1.0, 1.0), x=0.0, y=y, z=z, sgn_tau=sgn_tau,
            xi_hat=xi, eta_hat=eta, zeta_hat=np.zeros(spec.f), sigma=0.0))
    return points


def cmd_eigencheck(args):
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ConfigError("--tol %r must be finite and nonnegative" % args.tol)
    config = _load_scene(args.scene, args.seed)
    spec = config.spec
    if args.point is not None:
        vec = _floats(args.point, "--point")
        want = 2 * (2 + spec.b + spec.f)
        if len(vec) != want:
            raise ConfigError("--point needs %d numbers "
                              "(t,x,y..,z..,sigma,xi,eta..,zeta..)" % want)
        points = [CospherePoint.from_vector(vec, spec.b, spec.f,
                                            args.sgn_tau)]
    elif args.count < 1:
        raise ConfigError("--count must be at least 1")
    else:
        points = _random_radial_points(spec, args.count, config.seed)
    worst = 0.0
    for i, q in enumerate(points):
        res = linearization_at_radial(spec, q)
        worst = max(worst, res.max_residual)
        print("point %d: xi_hat=%.6g eigenvalues within %.3g of "
              "{-xi_hat, 0, +xi_hat} (multiplicities %d/%d/%d)"
              % (i, q.xi_hat, res.max_residual, res.counts["-xi_hat"],
                 res.counts["0"], res.counts["+xi_hat"]))
    print("worst eigenvalue residual: %.3g" % worst)
    if worst > args.tol:
        raise NumericalError("eigenvalue residual %.3g exceeds %.1g"
                             % (worst, args.tol))
    print("radial linearization OK")
    return 0


def cmd_partners(args):
    spec = _load_scene(args.scene).spec
    y = _floats(args.y, "--y") if args.y else np.zeros(spec.b)
    z = _floats(args.z, "--z")
    if len(y) != spec.b or len(z) != spec.f:
        raise ConfigError("need %d base and %d fiber coordinates"
                          % (spec.b, spec.f))
    if args.directions is not None and args.directions < 1:
        raise ConfigError("--directions must be at least 1")
    partners = geometric_partners(spec, y, z,
                                  n_directions=args.directions)
    print("fiber point (%s)" % ", ".join(repr(float(v)) for v in z))
    for zp in partners:
        check = is_geometrically_related(spec, y, z, zp)
        print("partner (%s)  defect %.3g"
              % (", ".join(repr(float(v)) for v in zp), check.distance))
    print("%d partner(s) at fiber arc pi" % len(partners))
    return 0


def cmd_orders(args):
    for flag in ("s", "m", "l", "k", "eps"):
        text = getattr(args, flag)
        if text is not None:
            try:
                as_rational(text)
            except (ValueError, ZeroDivisionError):
                raise ConfigError("--%s %s is not a rational number"
                                  % (flag, text)) from None
    try:
        did = _print_orders(args)
    except ValueError as err:
        # the exact order formulas reject values outside their domain
        raise ConfigError(str(err)) from None
    if not did:
        raise ConfigError("orders needs --n/--f, --m/--l/--f, or --k/--eps")
    return 0


def _print_orders(args):
    did = False
    if args.n is not None and args.f is not None:
        out = fundamental_solution_orders(args.n, args.f)
        print("fundamental solution (n=%d, f=%d): incident %s, diffracted %s"
              % (args.n, args.f, out["incident_sup"], out["diffracted_sup"]))
        did = True
        if args.s is not None:
            lag = lagrangian_nonfocusing_degree(args.s, args.n, args.f)
            print("lagrangian data s=%s: a-priori %s, nonfocusing degree %s"
                  % (args.s, lag.a_priori, lag.degree))
    if args.m is not None and args.l is not None and args.f is not None:
        for io in ("incoming", "outgoing"):
            ok = edge_threshold_check(args.m, args.l, args.f, io)
            print("threshold %s (m=%s, l=%s, f=%d): %s"
                  % (io, args.m, args.l, args.f,
                     "admissible" if ok else "inadmissible"))
        did = True
    if args.k is not None and args.eps is not None:
        res = coisotropic_eps_loss(args.s or "0", args.k, args.eps)
        print("coisotropic (k=%s, eps=%s): %s" % (args.k, args.eps, res))
        did = True
    return did


def build_parser():
    parser = argparse.ArgumentParser(
        prog="edgeray",
        description="Trace broken bicharacteristics on edge manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the metric normal form")
    p.add_argument("scene")
    p.add_argument("--seed", type=int, help="sampling seed override")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("trace", help="trace a scene's rays")
    p.add_argument("scene")
    p.add_argument("--out", help="write the ray dump to this path")
    p.add_argument("--format", choices=("csv", "jsonl"),
                   help="dump format (default csv)")
    p.add_argument("--seed", type=int, help="random seed override")
    p.add_argument("--rtol", type=float, help="integrator relative tolerance")
    p.add_argument("--x-stop", dest="x_stop", type=float,
                   help="boundary-approach threshold")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("eigencheck",
                       help="radial-point linearization spectrum")
    p.add_argument("scene")
    p.add_argument("--seed", type=int, help="random point seed override")
    p.add_argument("--point", help="explicit point: t,x,y..,z..,sigma,"
                                   "xi,eta..,zeta..")
    p.add_argument("--sgn-tau", dest="sgn_tau", type=int, default=1,
                   choices=(-1, 1))
    p.add_argument("--count", type=int, default=5,
                   help="number of random radial points")
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_eigencheck)

    p = sub.add_parser("partners", help="geometric partners of a fiber point")
    p.add_argument("scene")
    p.add_argument("--y", help="base coordinates, comma separated")
    p.add_argument("--z", required=True,
                   help="fiber coordinates, comma separated")
    p.add_argument("--directions", type=int, default=None)
    p.set_defaults(func=cmd_partners)

    p = sub.add_parser("orders", help="exact order formulas")
    p.add_argument("--n", type=int)
    p.add_argument("--f", type=int)
    p.add_argument("--s", help="Sobolev/Lagrangian order (rational)")
    p.add_argument("--m", help="edge Sobolev order (rational)")
    p.add_argument("--l", help="edge weight (rational)")
    p.add_argument("--k", help="coisotropic order (rational)")
    p.add_argument("--eps", help="loss parameter (rational)")
    p.set_defaults(func=cmd_orders)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2
    except NumericalError as err:
        print("numerical failure: %s" % err, file=sys.stderr)
        return 3
    except EdgeRayError as err:
        print("error: %s" % err, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
