"""In-memory spans recorded around the library calls a workload makes.

A span has a name (``layer.stage``), start and end times, the id of the span
that was open when it began, and the operation id the workload set.  Spans
are kept in a list and summarised after the pass; ``self time`` is a span's
duration minus the time covered by its direct children, so the self times of
every span under a root span add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import os
import signal
import statistics
import time

#: a round figure for the time of one reference_kernel call on the machine
#: the bounds in BENCHMARK.json were set on (see NOTES.md, Noise)
REFERENCE_TICK_S = 1.0e-4
#: wall time between two ticks of the metronome
TICK_INTERVAL_S = 0.01


def reference_kernel():
    """Fixed pure-Python work whose time measures the host's current speed."""
    total = 0
    for i in range(1200):
        total += i * i % 7
    return total


class NoTrace:
    """Tracing switched off: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return contextlib.nullcontext({})

    @contextlib.contextmanager
    def operation(self, op):
        yield

    @contextlib.contextmanager
    def patched(self, targets):
        yield []


class Metronome(NoTrace):
    """Tracing off; while a span is open the reference kernel is timed
    every TICK_INTERVAL_S.

    A timer signal runs the kernel between the workload's bytecodes (a long
    C call defers it to the call's end).  The host changes speed while a
    pass runs, and the kernel's time changes with it, so a pass's work time
    over the kernel's median time is steady.
    """

    def __init__(self):
        self.ticks: list[float] = []

    def tick(self, *_):
        start = time.perf_counter()
        reference_kernel()
        self.ticks.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def span(self, name):
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        try:
            yield {}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def at_reference_speed(self, seconds: float) -> float:
        """``seconds`` measured beside the ticks, scaled to the reference
        machine's speed."""
        return seconds * REFERENCE_TICK_S / statistics.median(self.ticks)


class Tracer(NoTrace):
    """Records one span per wrapped call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.matrices: list = []  # weighted matrices handed to decompose
        self._open: list[int] = []
        self._op = None

    @contextlib.contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "op": self._op, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name) as rec:
            result = fn(*args, **kwargs)
            _annotate(self, name, rec, args, result)
            return result

    @contextlib.contextmanager
    def operation(self, op):
        prev, self._op = self._op, op
        try:
            yield
        finally:
            self._op = prev

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace ``module.attr`` for each (module, attr, span name) target.

        Returns, through the context, the names that no longer exist; those
        layers are reported as unmeasured rather than failing the run.
        """
        saved, missing = [], []
        for module, attr, name in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(name, fn))
        try:
            yield missing
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapped


def _annotate(tracer, name, rec, args, result):
    """Counts taken at the span boundary, and the inputs of decompose."""
    if name == "dataio.write":
        rec["bytes_written"] = os.path.getsize(args[1])
    elif name == "dataio.read":
        rec["bytes_read"] = os.path.getsize(args[0])
    elif name == "dda.zbuild":
        rec["unknowns"] = result.n_unknowns
    elif name == "tracking.track":
        rec["traces"] = len(result.traces)
    elif name == "modes.decompose":
        tracer.matrices.append(args[0].matrix)


def self_times(*span_lists) -> dict:
    """Total self time and call count per span name.

    Span ids are local to one tracer, so each list is one tracer's spans.
    """
    out = {}
    for spans in span_lists:
        child_time = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        for s in spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            total, calls = out.get(s["name"], (0.0, 0))
            out[s["name"]] = (total + own, calls + 1)
    return out
