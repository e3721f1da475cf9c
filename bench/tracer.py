"""Span tracing of edgeray layers, wrapped from outside the package.

``instrument(tracer)`` replaces each traced public function at every
name it is bound to (the defining module, modules that imported it by
name, and the package namespace), and each traced method on its class.
Modules that import at call time (``orders`` -> is_geometrically_related,
``hamiltonian`` -> fiber_limit_point and backward_event) read the
defining module then, so they see the wrappers too.  Everything is put
back on exit.

Spans are aggregated in memory as they close, keyed by (parent layer,
layer): call count, total time, self time and raised exceptions.  A
span's self time is its duration minus the part covered by its child
spans.  Each thread keeps its own span stack and tables, because
``run_scenario`` traces the rays of a fan on a thread pool; a span that
opens on a pool thread with an empty stack gets the innermost open span
of the thread that runs the operations as its parent, and that parent
subtracts the union of such child intervals.  Pool threads run at the
same time, so the self times of all layers can add up to more than the
wall time; the root span's self time is the part of the operation that
no wrapped layer covers.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

from edgeray import boundary, gbb, hamiltonian, metric, orders, rays_io, run
from edgeray import scenes


def _integrate_interior(c, seg):
    c.add("hamiltonian.nfev", seg.nfev)
    c.add("hamiltonian.steps", len(seg.s) - 1)


def _conserved_log(c, log):
    c.maximum("hamiltonian.max_p_rel", float(abs(log["p_rel"]).max()))


def _detect_boundary_event(c, event):
    c.maximum("gbb.event_residual_max", event.residual)


def _trace_gbb(c, path):
    c.add("gbb.truncated", int(path.truncated))


def _geometric_partners(c, partners):
    c.add("boundary.partners", len(partners))


def _build_dump(c, dump):
    c.add("rays_io.rows", len(dump.rows))


def _serialize_dump(c, text):
    c.add("rays_io.dump_bytes", len(text.encode()))


def _worker_count(c, n):
    c.maximum("run.workers", n)


# (owner, attribute, layer name, observer of the returned value)
TARGETS = (
    (metric.MetricEvaluator, "__init__", "metric.evaluator_build", None),
    (metric.MetricEvaluator, "edge_matrix", "metric.edge_matrix", None),
    (metric.MetricEvaluator, "edge_matrix_derivs",
     "metric.edge_matrix_derivs", None),
    (metric.MetricEvaluator, "fiber_cometric", "metric.fiber_cometric", None),
    (metric.MetricEvaluator, "dual_matrix", "metric.dual_matrix", None),
    (metric.MetricEvaluator, "base_cometric", "metric.base_cometric", None),
    (metric, "transverse_momentum", "metric.transverse_momentum", None),
    (scenes, "parse_scene", "scenes.parse", None),
    (scenes, "scenario_rays", "scenes.scenario_rays", None),
    (hamiltonian, "integrate_interior", "hamiltonian.integrate_interior",
     _integrate_interior),
    (hamiltonian.RaySegment, "conserved_log", "hamiltonian.conserved_log",
     _conserved_log),
    (hamiltonian, "stable_manifold_launch",
     "hamiltonian.stable_manifold_launch", None),
    (gbb, "trace_gbb", "gbb.trace_gbb", _trace_gbb),
    (gbb, "detect_boundary_event", "gbb.detect_boundary_event",
     _detect_boundary_event),
    (gbb, "branch_hyperbolic", "gbb.branch_hyperbolic", None),
    (gbb, "continue_glancing", "gbb.continue_glancing", None),
    (gbb, "backward_event", "gbb.backward_event", None),
    (boundary, "geometric_partners", "boundary.geometric_partners",
     _geometric_partners),
    (boundary, "is_geometrically_related", "boundary.is_geometrically_related",
     None),
    (boundary, "fiber_limit_point", "boundary.fiber_limit_point", None),
    (boundary, "fiber_geodesic_point", "boundary.fiber_geodesic_point", None),
    (boundary, "fiber_cogeodesic_flow", "boundary.fiber_cogeodesic_flow",
     None),
    (boundary, "fiber_norm", "boundary.fiber_norm", None),
    (orders, "annotate_path", "orders.annotate_path", None),
    (rays_io, "build_dump", "rays_io.build_dump", _build_dump),
    (rays_io, "serialize_dump", "rays_io.serialize_dump", _serialize_dump),
    (run, "run_scenario", "run.run_scenario", None),
    (run, "worker_count", "run.worker_count", _worker_count),
    (run, "summary_text", "run.summary_text", None),
)


class Counters:
    """Named sums and maxima read from returned values."""

    def __init__(self):
        self.sums = defaultdict(float)
        self.maxima = defaultdict(float)

    def add(self, name, value):
        self.sums[name] += value

    def maximum(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def get(self, name):
        return self.sums.get(name, self.maxima.get(name, 0.0))


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []           # (span table, counters) per thread
        self._root_stack = None      # span stack of the thread running operations

    def _thread_state(self):
        local = self._local
        local.stack, local.spans, local.counters = [], {}, Counters()
        with self._lock:
            self._threads.append((local.spans, local.counters))
        return local.stack, local.spans, local.counters

    def wrap(self, name, fn, observe=None):
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack, spans, counters = (local.stack, local.spans,
                                          local.counters)
            except AttributeError:
                stack, spans, counters = self._thread_state()
            foreign = None
            if stack:
                parent = stack[-1]
            else:
                owner = self._root_stack
                foreign = owner[-1] if owner else None
                parent = foreign
            frame = [name, 0.0, None]    # layer, child time, foreign spans
            stack.append(frame)
            raised = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                if frame[2]:
                    own -= self._covered(frame[2])
                if stack:
                    stack[-1][1] += dur
                elif foreign is not None:
                    with self._lock:
                        if foreign[2] is None:
                            foreign[2] = []
                        foreign[2].append((t0, t1))
                key = (parent[0] if parent else None, name)
                row = spans.get(key)
                if row is None:
                    row = spans[key] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += dur
                row[2] += own
                row[3] += raised
            if observe is not None:
                observe(counters, result)
            return result

        return traced

    @staticmethod
    def _covered(intervals):
        """Union length of child intervals from pool threads."""
        total, end = 0.0, -float("inf")
        for lo, hi in sorted(intervals):
            if hi > end:
                total += hi - max(lo, end)
                end = hi
        return total

    def root(self, fn):
        """fn wrapped as the root span of an operation on this thread."""
        traced = self.wrap("bench.operation", fn)

        def call(*args):
            try:
                stack = self._local.stack
            except AttributeError:
                stack = self._thread_state()[0]
            self._root_stack = stack
            return traced(*args)

        return call

    def spans(self):
        """Merged {(parent, layer): [calls, total_s, self_s, raised]}."""
        merged = {}
        with self._lock:
            tables = [spans for spans, _ in self._threads]
        for table in tables:
            for key, row in table.items():
                acc = merged.setdefault(key, [0, 0.0, 0.0, 0])
                for i, v in enumerate(row):
                    acc[i] += v
        return merged

    def counters(self):
        merged = Counters()
        with self._lock:
            tables = [c for _, c in self._threads]
        for table in tables:
            for name, value in table.sums.items():
                merged.add(name, value)
            for name, value in table.maxima.items():
                merged.maximum(name, value)
        return merged


class instrument:
    """Context manager installing a tracer's wrappers on edgeray."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "edgeray" or n.startswith("edgeray.")]
        for owner, attr, name, observe in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self.tracer.wrap(name, original, observe)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        return self.tracer

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False
