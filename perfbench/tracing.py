"""Spans around the public entry points of each layer, recorded from outside.

:func:`install` replaces a handful of public callables of ``repro`` with
wrappers that record one span per call: ``(id, parent, name, start, end,
attrs)``, with ``start``/``end`` from :func:`time.monotonic` (one clock
for every process on the host, so server spans line up with client
timestamps).  Spans are kept in memory and written out when the run ends;
the parent is the innermost open span of the same thread.

A layer's self time is the duration of its spans minus the part covered
by their child spans (:func:`layer_self_seconds`).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

# Span name -> layer (the ``repro`` package the wrapped callable lives in).
LAYERS = {
    "PlannerApp.handle": "service",
    "UtilityAnalyticModel.solve": "core",
    "ErlangCache.min_servers_grid": "parallel",
    "min_servers": "queueing",
    "LossNetwork.run": "simulation",
    "ConsolidationController.tick": "control",
}
EXPERIMENT_PREFIX = "experiment:"


def layer_of(name: str) -> str:
    if name.startswith(EXPERIMENT_PREFIX):
        return "experiments"
    return LAYERS[name]


class Tracer:
    """In-memory span recorder, safe to share between threads."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``attrs(args, result)`` may return a dict stored with the span.
        """
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
        self.spans.append(
            (span_id, parent, name, start, end, attrs(args, result) if attrs else None)
        )
        return result

    def wrap(self, owner, attr: str, name: str, attrs=None):
        """Replace ``owner.attr`` by a traced wrapper; returns the wrapper."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, attrs)

        setattr(owner, attr, traced)
        return traced


def _points(args, result) -> dict:
    import numpy as np

    return {"points": int(np.size(result))}


def _handle_path(args, result) -> dict:
    # PlannerApp.handle(self, method, path, ...)
    return {"path": args[2] if len(args) > 2 else None}


def _arrivals(args, result) -> dict:
    return {"arrivals": int(result.total_arrived)}


# (module, class or None, attribute, span name, attrs): the entry points wrapped.
TARGETS = [
    ("repro.service.app", "PlannerApp", "handle", "PlannerApp.handle", _handle_path),
    ("repro.core.model", "UtilityAnalyticModel", "solve", "UtilityAnalyticModel.solve", None),
    ("repro.parallel.cache", "ErlangCache", "min_servers_grid", "ErlangCache.min_servers_grid", _points),
    ("repro.queueing.vectorized", None, "min_servers", "min_servers", _points),
    ("repro.simulation.loss_network", "LossNetwork", "run", "LossNetwork.run", _arrivals),
    ("repro.control.controller", "ConsolidationController", "observe", "ConsolidationController.tick", None),
]


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of the ``repro`` modules already imported.

    Modules the process has not imported are left alone, so tracing adds
    no imports (and no memory) of its own.  ``min_servers`` is replaced on
    :mod:`repro.queueing.vectorized`, which the Erlang cache and the scalar
    wrappers call through at run time, and on :mod:`repro.queueing`, the
    public name the grid workload calls.  ``ConsolidationController.tick``
    delegates to ``observe``, which the fluid control loop also calls
    directly, so ``observe`` is wrapped and recorded under the ``tick`` name.
    """
    for module, owner, attr, name, attrs in TARGETS:
        mod = sys.modules.get(module)
        if mod is None:
            continue
        traced = tracer.wrap(getattr(mod, owner) if owner else mod, attr, name, attrs)
        if module == "repro.queueing.vectorized":
            sys.modules["repro.queueing"].min_servers = traced


def child_seconds(spans) -> dict[int, float]:
    """Span id -> seconds covered by its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent:
            covered[parent] += end - start
    return covered


def layer_self_seconds(spans) -> dict[str, float]:
    """Layer -> summed self time of its spans."""
    covered = child_seconds(spans)
    totals: dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end, _ in spans:
        totals[layer_of(name)] += (end - start) - covered.get(span_id, 0.0)
    return dict(totals)


def within(spans, t0: float, t1: float) -> list[tuple]:
    """Spans whose root span started in ``[t0, t1)`` (a timed phase)."""
    by_id = {s[0]: s for s in spans}
    roots: dict[int, int] = {}

    def root(span_id: int) -> int:
        if span_id not in roots:
            parent = by_id[span_id][1]
            roots[span_id] = span_id if not parent or parent not in by_id else root(parent)
        return roots[span_id]

    return [s for s in spans if t0 <= by_id[root(s[0])][3] < t1]


def summarize(spans) -> dict[str, float]:
    """The per-layer metrics every workload's spans give."""
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)

    def total(name: str) -> float:
        return sum(s[4] - s[3] for s in by_name[name])

    def mean_us(name: str) -> float:
        n = len(by_name[name])
        return total(name) / n * 1e6 if n else 0.0

    selfs = layer_self_seconds(spans)
    points = sum(s[5]["points"] for s in by_name["min_servers"])
    arrivals = sum(s[5]["arrivals"] for s in by_name["LossNetwork.run"])
    out = {
        "core.solve_us": mean_us("UtilityAnalyticModel.solve"),
        "core.solves": len(by_name["UtilityAnalyticModel.solve"]),
        "parallel.min_servers_grid_us": mean_us("ErlangCache.min_servers_grid"),
        "queueing.min_servers_calls": len(by_name["min_servers"]),
        "queueing.min_servers_points": points,
        "queueing.min_servers_us_per_point": total("min_servers") / points * 1e6 if points else 0.0,
        "simulation.loss_network_s": selfs.get("simulation", 0.0),
        "simulation.arrivals": arrivals,
        "simulation.us_per_arrival": selfs.get("simulation", 0.0) / arrivals * 1e6 if arrivals else 0.0,
        "control.tick_us": mean_us("ConsolidationController.tick"),
        "control.ticks": len(by_name["ConsolidationController.tick"]),
    }
    for layer in ("service", "core", "parallel", "queueing", "control", "experiments"):
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    for name, group in by_name.items():
        if name.startswith(EXPERIMENT_PREFIX):
            out[f"experiments.{name[len(EXPERIMENT_PREFIX):]}_s"] = total(name)
    return out
