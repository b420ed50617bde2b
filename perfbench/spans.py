"""Spans recorded around the benchmark's calls into each layer.

A span is ``(id, name, start, end, parent, op)``: ``parent`` is the id
of the span open around it on the same thread, ``op`` the operation
(epoch decode, chunk, grid cell, block) it belongs to.  Spans stay in
memory and are written out once, when the run ends.  A disabled tracer
records nothing and costs one attribute test per call, which is how
the untraced run and the untraced half of a traced run measure.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], Optional[object]]


class Tracer:
    def __init__(self, enabled: bool = False, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: object = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = len(self.spans)
            self.spans.append((span_id, name, self.clock(), 0.0, parent,
                               op))
        stack.append(span_id)
        try:
            yield
        finally:
            stack.pop()
            end = self.clock()
            with self._lock:
                sid, nm, start, _, par, o = self.spans[span_id]
                self.spans[span_id] = (sid, nm, start, end, par, o)

    def record(self, name: str, start: float, end: float,
               op: object = None) -> None:
        """Add a span timed elsewhere (e.g. on a service worker thread)."""
        if not self.enabled:
            return
        stack = self._stack()
        with self._lock:
            self.spans.append((len(self.spans), name, start, end,
                               stack[-1] if stack else None, op))

    def durations(self, name: str) -> List[Tuple[float, object]]:
        """``(seconds, op)`` of every span called ``name``."""
        return [(end - start, op) for _, nm, start, end, _, op
                in self.spans if nm == name]

    def write(self, path) -> None:
        rows = [{"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "op": op if op is None
                 or isinstance(op, (int, str)) else str(op)}
                for sid, name, start, end, parent, op in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)
