"""In-memory span tracing by wrapping layer entry points from outside.

The benchmark never edits the program: :class:`Tracer` replaces the
public functions of each layer with thin wrappers *in the namespace the
caller reads them from* (a class attribute for methods, the importing
module's global for functions such as ``repro.dist.worker.reconstruct_box``)
and puts the originals back on :meth:`Tracer.restore`.

Each wrapper records one :class:`Span` ``(name, layer, start, end,
parent)`` per call.  Spans stay in memory; :func:`chrome_trace` turns
them into Chrome trace-event JSON (chrome://tracing, Perfetto) when the
run ends, and :func:`attribute` splits a wall-clock window into per-layer
self time.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    """One call of a wrapped function."""

    span_id: int
    name: str
    #: metric the span's self time is charged to
    layer: str
    start: float
    end: float
    thread: int
    #: enclosing span on the same thread, if any
    parent: Optional[int]
    depth: int


#: ``on_exit(args, kwargs, result)`` -> False drops the span (its time
#: then counts as the caller's).
ExitHook = Callable[[tuple, dict, object], Optional[bool]]


class Tracer:
    """Records spans from wrapped functions; installs and removes wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, fn, name: str, layer: str, on_exit: Optional[ExitHook],
             args: tuple, kwargs: dict):
        """Run ``fn(*args, **kwargs)`` inside a span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        depth = len(stack)
        stack.append(span_id)
        start = time.perf_counter()
        keep = True
        try:
            result = fn(*args, **kwargs)
            if on_exit is not None:
                keep = on_exit(args, kwargs, result) is not False
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if keep:
                self.spans.append(
                    Span(span_id, name, layer, start, end,
                         threading.get_ident(), parent, depth)
                )

    def wrap(self, fn, name: str, layer: str,
             on_exit: Optional[ExitHook] = None):
        """A traced stand-in for ``fn``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(fn, name, layer, on_exit, args, kwargs)

        return traced

    # -- patching ------------------------------------------------------------
    def patch(self, owner, attr: str, name: str = "", layer: str = "",
              on_exit: Optional[ExitHook] = None,
              factory: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (module global or class method) with a
        traced wrapper until :meth:`restore`.

        ``factory(original)`` builds a custom wrapper instead of
        :meth:`wrap` (for wrappers that must look at state before the
        call).
        """
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} defines no {attr!r} to trace")
        original = vars(owner)[attr]
        wrapper = (factory(original) if factory is not None
                   else self.wrap(original, name, layer, on_exit))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched original back (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries -------------------------------------------------------------
    def spans_between(self, t0: float, t1: float) -> List[Span]:
        """Spans overlapping the window ``[t0, t1)``."""
        return [s for s in self.spans if s.end > t0 and s.start < t1]

    def durations(self, name: str) -> List[float]:
        """Wall durations of every span called ``name``."""
        return [s.end - s.start for s in self.spans if s.name == name]


def attribute(spans: Iterable[Span], t0: float, t1: float
              ) -> Tuple[Dict[str, float], float]:
    """Split the wall window ``[t0, t1)`` into per-layer self time.

    At every instant each thread's innermost open span is the one doing
    work; a span's self time is therefore its duration minus what its
    child spans cover.  When several threads are inside spans at the same
    instant, that instant is shared equally between them, so the layer
    totals plus the returned *unattributed* time (no span open on any
    thread) add up to ``t1 - t0`` exactly.
    """
    events = []
    for s in spans:
        a, b = max(s.start, t0), min(s.end, t1)
        if a < b:
            # at equal times: ends before starts, inner ends before outer
            events.append((a, 1, s.depth, s))
            events.append((b, 0, -s.depth, s))
    events.sort(key=lambda e: e[:3])
    open_spans: Dict[int, List[Span]] = defaultdict(list)
    totals: Dict[str, float] = defaultdict(float)
    unattributed = 0.0
    prev = t0
    for t, starting, _order, span in events:
        dt = t - prev
        if dt > 0:
            active = [max(ss, key=lambda x: x.depth)
                      for ss in open_spans.values() if ss]
            if active:
                for inner in active:
                    totals[inner.layer] += dt / len(active)
            else:
                unattributed += dt
        prev = t
        if starting:
            open_spans[span.thread].append(span)
        else:
            open_spans[span.thread].remove(span)
    unattributed += max(0.0, t1 - prev)
    return dict(totals), unattributed


def chrome_trace(spans: Iterable[Span], origin: float, meta: dict) -> dict:
    """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
    pid = os.getpid()
    events = [
        {
            "name": s.name,
            "cat": s.layer,
            "ph": "X",
            "ts": (s.start - origin) * 1e6,
            "dur": (s.end - s.start) * 1e6,
            "pid": pid,
            "tid": s.thread,
            "args": {"id": s.span_id, "parent": s.parent},
        }
        for s in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
