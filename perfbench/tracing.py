"""Spans around the program's layer entry points, recorded from outside.

The traced run installs thin wrappers on the public entry points of
each layer (``install``), so no program file changes.  Every wrapper
records one span — name, start, end, parent, answer index and a unit
count — into an in-memory :class:`Tracer`; the runner writes the spans
out when the run ends.  The harness itself opens one ``request`` root
span per answer it asks the engine for.

Self time is a span's duration minus the durations of its direct
children.  Spans come from one thread and nest strictly, so summing
self times over a root's subtree gives the root's duration exactly;
the driver's share is whatever the named layers do not cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from contextlib import contextmanager

#: Span name -> reported layer.
LAYER_OF = {
    "request": "driver",
    "graph": "graph",
    "sepgen": "sepgen",
    "extend": "extend",
    "crossing": "crossing",
    "materialise": "materialise",
    "wire.encode": "wire",
    "wire.decode": "wire",
    "ipc.wait": "ipc",
    "checkpoint": "checkpoint",
}


class Clock:
    """``perf_counter_ns`` with stretches marked as excluded cut out.

    The correctness check runs between answers; wrapping it in
    :meth:`excluded` keeps its time out of every delay, wall time and
    span, and out of the CPU figure.
    """

    def __init__(self) -> None:
        self._excluded_ns = 0
        self._excluded_cpu_ns = 0

    def now(self) -> int:
        return time.perf_counter_ns() - self._excluded_ns

    def cpu(self) -> int:
        return time.process_time_ns() - self._excluded_cpu_ns

    @contextmanager
    def excluded(self):
        start, cpu = time.perf_counter_ns(), time.process_time_ns()
        try:
            yield
        finally:
            self._excluded_ns += time.perf_counter_ns() - start
            self._excluded_cpu_ns += time.process_time_ns() - cpu


class Tracer:
    """In-memory span store.  Spans are tuples
    ``(id, name, start_ns, end_ns, parent_id, answer, units)``."""

    def __init__(self, clock: Clock | None = None) -> None:
        self._now = (clock or Clock()).now
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self.answer: int | None = None
        self._ids = itertools.count()
        self.bytes_written = 0

    def begin(self, name: str, units: int = 1) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [next(self._ids), name, self._now(), parent, units]
        self._stack.append(frame)
        return frame

    def end(self, frame: list, units: int | None = None) -> None:
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        span_id, name, start, parent, default_units = frame
        self.spans.append(
            (span_id, name, start, self._now(), parent, self.answer,
             default_units if units is None else units)
        )

    @contextmanager
    def span(self, name: str, units: int = 1):
        frame = self.begin(name, units)
        try:
            yield frame
        finally:
            self.end(frame)

    def dump(self, path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        keys = ("id", "name", "start_ns", "end_ns", "parent", "answer", "units")
        with open(path, "w") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> dict[str, int]:
    """Self time (ns) per span name: duration minus direct children."""
    child_ns: dict[int, int] = {}
    for span_id, __, start, end, parent, __, __ in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    totals: dict[str, int] = {}
    for span_id, name, start, end, __, __, __ in spans:
        own = (end - start) - child_ns.get(span_id, 0)
        totals[name] = totals.get(name, 0) + own
    return totals


def layer_split(spans, wall_ns: int) -> dict[str, dict]:
    """Per-layer ``{calls, busy_ns}``; ``driver`` takes the remainder.

    ``calls`` sums the span units (pairs for crossing sweeps, one per
    call otherwise; a separator generator's exhausting call counts 0).
    The driver's busy time is ``wall_ns`` minus every named layer's
    self time, so the layers add up to the wall time by construction.
    """
    own = self_times(spans)
    split: dict[str, dict] = {}
    for name, busy in own.items():
        layer = LAYER_OF[name]
        entry = split.setdefault(layer, {"calls": 0, "busy_ns": 0})
        entry["busy_ns"] += busy
    for __, name, __, __, __, __, units in spans:
        split[LAYER_OF[name]]["calls"] += units
    named = sum(v["busy_ns"] for k, v in split.items() if k != "driver")
    driver = split.setdefault("driver", {"calls": 0, "busy_ns": 0})
    driver["busy_ns"] = wall_ns - named
    return split


# ----------------------------------------------------------------------
# Wrappers on the program's layer entry points
# ----------------------------------------------------------------------


def _wrap_call(tracer: Tracer, name: str, func, units=None):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        frame = tracer.begin(name)
        try:
            return func(*args, **kwargs)
        finally:
            tracer.end(frame, None if units is None else units(args))

    return traced


def _wrap_iterator(tracer: Tracer, name: str, func):
    """Wrap a generator function: one span per ``next()``."""

    @functools.wraps(func)
    def traced(*args, **kwargs):
        inner = func(*args, **kwargs)
        while True:
            frame = tracer.begin(name)
            try:
                item = next(inner)
            except StopIteration:
                tracer.end(frame, 0)
                return
            except BaseException:
                tracer.end(frame, 0)
                raise
            tracer.end(frame)
            yield item

    return traced


def install(tracer: Tracer):
    """Patch every traced entry point; returns a function undoing it."""
    from repro import graph as graph_pkg
    from repro.core.triangulation import Triangulation
    from repro.engine import coordinator, engine, wire
    from repro.engine.checkpoint import CheckpointManager
    from repro.sgr.separator_graph import MinimalSeparatorSGR

    patches = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    sgr = MinimalSeparatorSGR
    patch(sgr, "iter_nodes", _wrap_iterator(tracer, "sepgen", sgr.iter_nodes))
    patch(sgr, "extend", _wrap_call(tracer, "extend", sgr.extend))
    patch(
        sgr,
        "has_edges_batch",
        _wrap_call(tracer, "crossing", sgr.has_edges_batch, lambda a: len(a[2])),
    )
    patch(sgr, "has_edge", _wrap_call(tracer, "crossing", sgr.has_edge))
    for attr in ("width", "fill"):
        prop = Triangulation.__dict__[attr]
        patch(
            Triangulation,
            attr,
            property(_wrap_call(tracer, "materialise", prop.fget)),
        )
    for module in (graph_pkg, engine):
        patch(
            module,
            "resolve_graph_backend",
            _wrap_call(tracer, "graph", module.resolve_graph_backend),
        )
    # The sharded coordinator pulls separators and computes its seed
    # Extend in-process through these module-level names.
    patch(
        coordinator,
        "minimal_separator_masks",
        _wrap_iterator(tracer, "sepgen", coordinator.minimal_separator_masks),
    )
    patch(
        coordinator,
        "extend_parallel_set",
        _wrap_call(tracer, "extend", coordinator.extend_parallel_set),
    )
    patch(coordinator, "wait", _wrap_call(tracer, "ipc.wait", coordinator.wait))
    patch(
        wire,
        "encode_batch",
        _wrap_call(
            tracer,
            "wire.encode",
            wire.encode_batch,
            lambda a: len(a[1]) * len(a[2]),
        ),
    )
    patch(wire, "decode_result", _wrap_call(tracer, "wire.decode", wire.decode_result))

    save = CheckpointManager.save_document

    @functools.wraps(save)
    def traced_save(self, *args, **kwargs):
        with tracer.span("checkpoint"):
            result = save(self, *args, **kwargs)
        tracer.bytes_written += self.path.stat().st_size
        return result

    patch(CheckpointManager, "save_document", traced_save)

    def uninstall() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return uninstall
