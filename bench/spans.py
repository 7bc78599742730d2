"""In-memory span recorder and the arithmetic the traced runs are read with.

A span has a name, a start, an end, its parent span and the run it belongs
to.  Each thread keeps its own stack of open spans, so spans opened by pool
workers nest under their own parents instead of under whatever the main
thread has open.  A worker thread whose stack is empty adopts the span
registered in ``Recorder.adopted`` (the span that submitted the work).

Spans stay in memory while the run goes on; ``dump`` writes them out once,
after the run has ended.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

clock = time.monotonic   # CLOCK_MONOTONIC: comparable across processes


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "thread",
                 "attrs")

    def __init__(self, id, name, start, end, parent, run, thread, attrs):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run
        self.thread = thread
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}

    @classmethod
    def from_json(cls, obj) -> "Span":
        return cls(**obj)


class Recorder:
    """Collects the spans of one process for one run id."""

    def __init__(self, run: str = "0"):
        self.run = run
        self.spans = []
        self.children = []   # span lists written by traced child processes
        self.adopted = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1].id if stack else self.adopted
        with self._lock:
            sid = next(self._ids)
        sp = Span(sid, name, clock(), None, parent, self.run,
                  threading.get_ident(), attrs)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = clock()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """A span measured elsewhere (e.g. across a process start)."""
        with self._lock:
            sid = next(self._ids)
            self.spans.append(Span(sid, name, start, end, None, self.run,
                                   threading.get_ident(), attrs))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_json() for s in self.spans], fh)


def maybe_span(rec, name: str, **attrs):
    """``rec.span(...)`` in a traced cycle, a no-op when ``rec`` is None."""
    return rec.span(name, **attrs) if rec is not None else nullcontext()


def load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [Span.from_json(o) for o in json.load(fh)]


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Trace:
    """Read-only view of one process's spans: self times and ancestry."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        self.self_time = {
            s.id: s.duration - covered_length(children[s.id], s.start, s.end)
            for s in self.spans}

    def ancestors(self, span):
        parent = self.by_id.get(span.parent)
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent.parent)

    def nearest(self, span, names):
        """The closest ancestor whose name is in ``names``, or None."""
        for a in self.ancestors(span):
            if a.name in names:
                return a
        return None

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Wall time inside spans of this name; nested repeats count once."""
        return sum(s.duration for s in self.named(name)
                   if all(a.name != name for a in self.ancestors(s)))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[s.id] for s in self.named(name))

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for sid, t in self.self_time.items()
                   if self.by_id[sid].name.startswith(prefix))
