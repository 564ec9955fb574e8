"""Span accounting for the traced benchmark run.

A span is one call into a layer: its name, start, end, the span that caused
it, and a request id shared by every span of one request.  Spans are
recorded from outside the program, by replacing module attributes and
callables with wrappers for the duration of a traced pass (``patch``), and
restoring them afterwards (``restore``).

Stacks are per thread.  A fan-out span (the experiment harness handing seed
runs to its thread pool) marks itself open; a span that opens on another
thread with an empty stack while it is open becomes the root of a new
request whose parent is the fan-out span.  Every other root span (one per
library call or CLI command made by the benchmark) also starts a new
request.

Self time is a span's duration minus the part of its interval that its
children cover: its nested children on the same thread, plus the union of
the intervals of the requests it fanned out to other threads.

By default only per-(leg, name) totals are kept, so a traced pass with a few
hundred thousand oracle spans stays small; ``keep=True`` also keeps every
span record for inspection.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    span_id: int
    parent_id: int | None
    request_id: int
    thread: int
    start_ns: int
    end_ns: int
    self_ns: int


class _Frame:
    __slots__ = ("name", "span_id", "parent_id", "request_id", "start",
                 "child_ns", "remote", "fan_parent")


# positions in a per-(leg, name) stats entry
COUNT, TOTAL_NS, SELF_NS, REMOTE_NS = range(4)


def covered_ns(intervals, start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self, clock=time.perf_counter_ns, keep: bool = False):
        self.clock = clock
        self.keep = keep
        self.spans: list[Span] = []
        self.leg = ""          # label of the workload leg running now
        self.root_ns = 0       # time inside root spans of the driving thread
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tables: list[dict] = []
        self._lock = threading.Lock()
        self._fanout: _Frame | None = None
        self._patches: list = []

    def _thread_state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
        return stack, local.table

    def _enter(self, name: str) -> _Frame:
        stack, _ = self._thread_state()
        frame = _Frame()
        frame.name = name
        frame.span_id = next(self._ids)
        frame.child_ns = 0
        frame.remote = None
        frame.fan_parent = None
        if stack:
            parent = stack[-1]
            frame.parent_id = parent.span_id
            frame.request_id = parent.request_id
        else:
            fan = self._fanout
            if fan is not None:
                frame.fan_parent = fan
                frame.parent_id = fan.span_id
            else:
                frame.parent_id = None
            frame.request_id = frame.span_id
        stack.append(frame)
        frame.start = self.clock()
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = self.clock()
        stack, table = self._thread_state()
        stack.pop()
        duration = end - frame.start
        covered = frame.child_ns
        remote_ns = 0
        if frame.remote:
            covered += covered_ns(frame.remote, frame.start, end)
            remote_ns = sum(hi - lo for lo, hi in frame.remote)
        self_ns = duration - covered
        if stack:
            stack[-1].child_ns += duration
        elif frame.fan_parent is not None:
            frame.fan_parent.remote.append((frame.start, end))
        else:
            self.root_ns += duration
        key = (self.leg, frame.name)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [0, 0, 0, 0]
        entry[COUNT] += 1
        entry[TOTAL_NS] += duration
        entry[SELF_NS] += self_ns
        entry[REMOTE_NS] += remote_ns
        if self.keep:
            self.spans.append(Span(frame.name, frame.span_id, frame.parent_id,
                                   frame.request_id, threading.get_ident(),
                                   frame.start, end, self_ns))

    def wrap(self, fn, name: str, fanout: bool = False, after=None):
        """``fn`` recorded as span ``name``.  A fan-out span parents the
        requests other threads start while it is open.  ``after(result,
        *args, **kwargs)`` runs once the span has closed, outside it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            if fanout:
                outer = tracer._fanout
                frame.remote = []
                tracer._fanout = frame
            try:
                result = fn(*args, **kwargs)
            finally:
                if fanout:
                    tracer._fanout = outer
                tracer._exit(frame)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, fanout: bool = False, after=None) -> None:
        """Replace ``owner.attr`` by its traced wrapper until ``restore``."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, fanout=fanout, after=after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def stats(self) -> dict:
        """Merged per-(leg, name) entries [count, total_ns, self_ns, remote_ns]."""
        merged: dict = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, entry in table.items():
                into = merged.setdefault(key, [0, 0, 0, 0])
                for i, v in enumerate(entry):
                    into[i] += v
        return merged
