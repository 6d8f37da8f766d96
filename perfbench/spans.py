"""In-memory span recorder installed around the program's public API.

A :class:`Tracer` replaces module and class attributes (``T2FSNN.run``,
``ExecutionPlan.run``, ``events.apply_stage_events``, ...) with thin
wrappers that record one span per call: ``(name, start, end, parent,
request id)`` plus the phase the benchmark was in and an optional note
taken from the call (events delivered, budgeted or not).  Parents come
from a per-thread stack, so spans opened by the service's dispatch thread
nest under that thread's flush, not under the generator's submit.

Nothing is written until the run ends (:meth:`Tracer.dump`); uninstalling
restores every original attribute.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

__all__ = ["Tracer", "PROBES"]

#: (module, class or None, attribute, span name, note) for every wrapped
#: call.  ``note`` names a function of ``(args, kwargs, result)`` below.
PROBES = (
    ("repro.core.t2fsnn", "T2FSNN", "run", "runtime.run", None),
    ("repro.snn.plan", None, "compile_plan", "plan.compile", "plan"),
    ("repro.snn.plan", "ExecutionPlan", "run", "plan.run", "budget"),
    ("repro.snn.plan", "StagePlan", "apply_dense", "plan.apply_dense", None),
    ("repro.snn.events", None, "apply_stage_events", "events.apply_stage_events", "events"),
    ("repro.snn.events", None, "merge_packets", "events.merge_packets", None),
    ("repro.coding.ttfs", "TTFSNeurons", "step", "ttfs.step", None),
    ("repro.coding.ttfs", "TTFSNeurons", "drain_fire_events", "ttfs.drain_fire_events", None),
    ("repro.coding.ttfs", "TTFSInputEncoder", "reset", "ttfs.encoder", None),
    ("repro.coding.ttfs", "TTFSInputEncoder", "step", "ttfs.encoder", None),
    ("repro.coding.ttfs", "TTFSInputEncoder", "drain_events", "ttfs.encoder", None),
    ("repro.snn.neurons", "ReadoutAccumulator", "reset", "readout", None),
    ("repro.snn.neurons", "ReadoutAccumulator", "accumulate", "readout", None),
    ("repro.snn.neurons", "ReadoutAccumulator", "absorb", "readout", None),
    ("repro.snn.neurons", "ReadoutAccumulator", "seal_rows", "readout", None),
    ("repro.serve.service", "InferenceService", "submit", "service.submit", None),
)


def _note_plan(args, kwargs, result):
    return result  # the compiled ExecutionPlan (thresholds, arena size)


def _note_budget(args, kwargs, result):
    return kwargs.get("budget") is not None or len(args) > 3 and args[3] is not None


def _note_events(args, kwargs, result):
    return int(args[1].count)


_NOTES = {"plan": _note_plan, "budget": _note_budget, "events": _note_events}


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "phase", "note")

    def __init__(self, name, start, parent, rid, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.phase = phase
        self.note = None


class Tracer:
    """Records spans around :data:`PROBES` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        #: Most recently finished span per name (read by request callbacks
        #: to link a settled request to the flush that carried it).
        self.last: dict[str, Span] = {}
        self._local = threading.local()
        self._installed: list = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid) -> None:
        """Request id stamped on spans this thread opens from now on."""
        self._local.rid = rid

    def record(self, name, start, end, parent=None, rid=None, note=None) -> Span:
        """Append a finished span (e.g. a request's settle instant)."""
        span = Span(name, start, parent, rid, self.phase)
        span.end = end
        span.note = note
        self.spans.append(span)
        return span

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        original = getattr(owner, attr)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(
                name,
                clock(),
                stack[-1] if stack else None,
                getattr(tracer._local, "rid", None),
                tracer.phase,
            )
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
                tracer.last[name] = span
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def install(self, names=None) -> "Tracer":
        """Wrap every probe (or only those whose span name is in ``names``)."""
        for module_name, cls, attr, name, note in PROBES:
            if names is not None and name not in names:
                continue
            owner = importlib.import_module(module_name)
            if cls is not None:
                owner = getattr(owner, cls)
            self.wrap(owner, attr, name, _NOTES.get(note))
        return self

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # queries and export
    # ------------------------------------------------------------------ #

    def select(self, name: str, phase: str = "timed") -> list[Span]:
        return [s for s in self.spans if s.name == name and s.phase == phase]

    def table(self) -> list[tuple]:
        """Spans as ``(name, start, end, parent_index, rid, phase)`` rows."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            (
                s.name,
                s.start,
                s.end,
                None if s.parent is None else index[id(s.parent)],
                s.rid,
                s.phase,
            )
            for s in self.spans
        ]

    def dump(self, path) -> None:
        """Write every span, one JSON row each, at the end of the run."""
        rows = self.table()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start", "end", "parent", "rid", "phase"],\n')
            fh.write(' "spans": [\n')
            fh.write(",\n".join(json.dumps(list(r)) for r in rows))
            fh.write("\n]}\n")
