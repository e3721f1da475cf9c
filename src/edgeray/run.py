"""Scenario driver: trace every ray of a scene and assemble outputs.

Rays are traced one after another on one thread, in launch order, so
the output bytes are a pure function of the scene and its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .gbb import trace_gbb
from .metric import validate_normal_form
from .orders import annotate_path
from .rays_io import RayDump, build_dump, serialize_dump
from .scenes import scenario_rays


@dataclass
class RayResult:
    ray_id: int
    path: object
    record: object


@dataclass
class ScenarioResult:
    config: object
    results: list
    dump: RayDump
    summary: str


def worker_count(n_tasks):
    """Always 1: run_scenario traces rays serially, on one thread.

    Kept only because the benchmark in bench/ still reads it (the run
    environment, the per-layer tracer and the self-test); the next
    benchmark change deletes it together with those uses.
    """
    return 1


def run_scenario(config):
    """Trace all rays of a scene; deterministic for a fixed config+seed.
    A custom metric that fails validate_normal_form is a ConfigError."""
    spec = config.spec
    if config.name == "custom":
        report = validate_normal_form(spec, seed=config.seed)
        if not report.passed:
            raise ConfigError("metric failed validation at %d points, "
                              "first: %s" % (len(report.failures),
                                             report.failures[0]))
    results = []
    for index, q0 in enumerate(scenario_rays(config)):
        path = trace_gbb(spec, q0, config.t_span, config.policy,
                         config.settings)
        record = annotate_path(path, config.s_incident, config.nonfocusing,
                               clean_flags=config.clean)
        results.append(RayResult(ray_id=index, path=path, record=record))
    dump = build_dump(spec, [(r.ray_id, r.path, r.record) for r in results])
    result = ScenarioResult(config=config, results=results, dump=dump,
                            summary="")
    result.summary = summary_text(result)
    if config.out:
        with open(config.out, "w") as handle:
            handle.write(serialize_dump(dump, config.format))
    return result


def summary_text(result):
    """Human-readable, deterministic digest of a scenario run."""
    lines = []
    config = result.config
    lines.append("scene %s  policy %s  t_span [%r, %r]"
                 % (config.name, config.policy, config.t_span[0],
                    config.t_span[1]))
    lines.append("rays traced: %d" % len(result.results))
    for r in result.results:
        path = r.path
        n_events = len(path.events())
        flag = "  [truncated]" if path.truncated else ""
        lines.append("ray %d: %d branches, %d events%s"
                     % (r.ray_id, len(path.branches), n_events, flag))
        for event in path.events():
            z_txt = ", ".join(repr(float(v)) for v in event.z_bar)
            lines.append(
                "  event on %s: %s at t=%.9g, fiber point (%s), "
                "|xi|=%.9g" % (event.branch_id,
                               event.boundary_class.value, event.t_bar,
                               z_txt, abs(event.xi_hat)))
        for bid in path.branch_ids():
            branch = path.branches[bid]
            entry = r.record.per_branch[bid]
            note = "  note: %s" % branch.note if branch.note else ""
            lines.append("  branch %s [%s]  order %s (%s)%s"
                         % (bid, branch.kind, entry.sup_order, entry.rule,
                            note))
    return "\n".join(lines) + "\n"
