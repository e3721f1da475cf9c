"""One benchmark operation: one ``edgeray trace`` of one scene text.

The operation makes the calls ``cmd_trace`` makes, in process:
``parse_scene`` -> ``run_scenario`` -> ``serialize_dump``.  It fails
when it raises (exit class 2 or 3, mapped as ``cli.main`` maps them; 1
for anything that would escape ``cli.main`` as a traceback) or when its
output breaks one of the checks below.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from edgeray import rays_io, run, scenes
from edgeray.errors import ConfigError, EdgeRayError
from edgeray.phase import EdgePhasePoint

P_RESIDUAL_MAX = 1e-6
T_BAR_TOL = 1e-6
ANTIPODE_TOL = 1e-6
FLAT_SCENES = ("product_cone", "blowup_curve_r3")


@dataclass
class Outcome:
    wall_s: float
    exit_class: int = 0          # 0 ok, 2 config error, 3 numerical, 1 other
    error: str = ""
    rays: int = 0
    branches: int = 0            # branches with an integrated segment
    digest: str = ""
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return self.exit_class == 0 and not self.violations


def edgeray_trace(text):
    """The calls ``cmd_trace`` makes; the timed part of an operation."""
    config = scenes.parse_scene(text)
    result = run.run_scenario(config)
    return config, result, rays_io.serialize_dump(result.dump, config.format)


def trace_scene(text, calls=edgeray_trace):
    """Time one operation and check its output.

    ``calls`` stands in for ``edgeray_trace``; the traced run passes it
    wrapped as the root span.
    """
    t0 = time.perf_counter()
    try:
        config, result, dump_text = calls(text)
    except ConfigError as err:
        return Outcome(time.perf_counter() - t0, 2, _describe(err))
    except EdgeRayError as err:
        return Outcome(time.perf_counter() - t0, 3, _describe(err))
    except Exception as err:  # escapes cli.main as a traceback, exit 1
        traceback.print_exc()
        return Outcome(time.perf_counter() - t0, 1, _describe(err))
    wall = time.perf_counter() - t0
    paths = [r.path for r in result.results]
    return Outcome(
        wall_s=wall, rays=len(paths),
        branches=sum(1 for p in paths for br in p.branches.values()
                     if br.segment is not None),
        digest=hashlib.sha256(dump_text.encode()).hexdigest(),
        violations=check_output(config, result))


def _describe(err):
    return "%s: %s" % (type(err).__name__, err)


def check_output(config, result):
    """Output checks; returns a list of violation messages."""
    out = []
    dump = result.dump
    ip = dump.columns.index("p_residual")
    worst = max((row[ip] for row in dump.rows), default=0.0)
    if not worst <= P_RESIDUAL_MAX:
        out.append("dump p_residual %.3g > %.0e" % (worst, P_RESIDUAL_MAX))
    base = config.name.split("(")[0]
    spec = config.spec
    source = config.source
    for r in result.results:
        path = r.path
        root = path.branches[path.root_id]
        if (base in FLAT_SCENES and isinstance(source, EdgePhasePoint)
                and root.event is not None):
            want = source.t + source.x / (source.xi / abs(source.tau))
            if not abs(root.event.t_bar - want) <= T_BAR_TOL:
                out.append("ray %d: flat-scene t_bar %r != x0/xi_hat %r"
                           % (r.ray_id, root.event.t_bar, want))
        if base != "sphere_edge" or config.policy.kind != "geometric":
            continue
        for branch in path.branches.values():
            if branch.event is None:
                continue
            z1, z2 = branch.event.z_bar
            antipode = np.array([math.pi - z1, z2 + math.pi])
            if not branch.children:
                out.append("branch %s: no geometric partner"
                           % branch.branch_id)
            for child_id in branch.children:
                child = path.branches[child_id]
                gap = np.max(np.abs(spec.fiber.coordinate_delta(
                    child.fiber_point, antipode)))
                if not gap <= ANTIPODE_TOL:
                    out.append("branch %s: partner %s is %.3g from the "
                               "antipode" % (child_id, child.fiber_point, gap))
    return out
