"""Span tracing of pointconic's public functions, installed from outside.

The package's modules import each other's functions by name
(`from .geometry import conic_conic_intersections`), so a function is
replaced at every module attribute that refers to it, not only where it is
defined. Methods are replaced on their class. No file of the package is
changed, and `uninstall` puts every original back.

Each call records a span (name, start, end, parent span, operation id).
Spans stay in memory; the caller writes them out when the run ends.
Per name the tracer keeps calls, total seconds and self seconds (duration
minus the time covered by child spans). A recursive call of the same name
counts as a call but adds no total time, so totals never double-count.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter

# (module, attribute, span name). A class attribute is written "Class.method".
TARGETS = (
    ("pointconic.io", "read_configuration", "io.read_configuration"),
    ("pointconic.io", "write_configuration", "io.write_configuration"),
    ("pointconic.io", "from_document", "io.from_document"),
    ("pointconic.configuration", "GeometricConfiguration.points_of_conic",
     "configuration.points_of_conic"),
    ("pointconic.analysis", "audit", "analysis.audit"),
    ("pointconic.analysis", "intersection_type", "analysis.intersection_type"),
    ("pointconic.geometry", "conic_conic_intersections",
     "geometry.conic_conic_intersections"),
    ("pointconic.geometry", "conic_from_5_points",
     "geometry.conic_from_5_points"),
    ("pointconic.constructions", "realize_by_conics",
     "constructions.realize_by_conics"),
    ("pointconic.constructions", "realize_lineal_by_circles",
     "constructions.realize_lineal_by_circles"),
    ("pointconic.constructions", "product", "constructions.product"),
    ("pointconic.constructions", "pmn", "constructions.builders"),
    ("pointconic.constructions", "cell24", "constructions.builders"),
    ("pointconic.constructions", "qcube_48", "constructions.builders"),
    ("pointconic.constructions", "dipyramid_carnot", "constructions.builders"),
    ("pointconic.constructions", "richter_gebert", "constructions.builders"),
    ("pointconic.incidence", "property_report", "incidence.property_report"),
    ("pointconic.incidence", "has_biclique", "incidence.has_biclique"),
    ("pointconic.incidence", "vertex_connectivity",
     "incidence.vertex_connectivity"),
    ("pointconic.incidence", "girth", "incidence.girth"),
    ("pointconic.incidence", "IncidenceStructure.points_of_block",
     "incidence.points_of_block"),
    ("pointconic.svg", "render_svg", "svg.render_svg"),
)

REALIZERS = ("constructions.realize_by_conics",
             "constructions.realize_lineal_by_circles")


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent id, op id, name, start, end)
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()  # counters recorded at the same boundaries
        self.by_verb = Counter()  # (op verb, name) -> total seconds
        self.op = None           # (index, verb) of the running operation
        self._stack = []         # [span id, name, child seconds]
        self._depth = Counter()
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        for module, attr, name in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(orig, name))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "pointconic":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, orig, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _set(self, owner, key, orig, wrapper):
        self._undo.append((owner, key, orig))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name)
            tracer._count(name, args, kwargs, result)
            return result
        return traced

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        span_id = len(self.spans)
        self.spans.append([span_id, parent, self.op, name, 0.0, 0.0])
        self._depth[name] += 1
        self._stack.append([span_id, name, 0.0])
        if any(frame[1] in REALIZERS for frame in self._stack[:-1]):
            self.counts[f"{name}.in_realize"] += 1
        self.spans[span_id][4] = time.perf_counter()

    def _exit(self, name):
        end = time.perf_counter()
        span_id, _, child = self._stack.pop()
        span = self.spans[span_id]
        span[5] = end
        duration = end - span[4]
        self._depth[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += duration - child
        if self._depth[name] == 0:
            self.total[name] += duration
            if self.op is not None:
                self.by_verb[self.op[1], name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def _count(self, name, args, kwargs, result):
        """Counters of a call that returned."""
        c = self.counts
        if name == "io.read_configuration":
            c["io.bytes_read"] += os.path.getsize(args[0])
        elif name == "io.write_configuration":
            c["io.bytes_written"] += os.path.getsize(args[1])
        elif name == "svg.render_svg":
            c["svg.bytes_written"] += len(result.encode())
        elif name == "analysis.audit":
            G = args[0]
            scan = kwargs.get("spurious_scan", args[1] if args[1:] else True)
            if scan:
                c["analysis.audit.pairs_scanned"] += \
                    G.num_points * G.num_conics
            c["analysis.audit.failed"] += not result.passed
            c["analysis.audit.spurious"] += len(result.spurious_incidences)
        elif name == "geometry.conic_conic_intersections":
            c["geometry.conic_conic_intersections.hits"] += len(result) > 0
        elif name in REALIZERS:
            c[f"{name}.successes"] += 1

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block of the benchmark's own code."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit(name)
