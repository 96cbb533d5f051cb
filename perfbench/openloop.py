"""Open-loop request generation: send on a schedule, time from due time.

Requests are sent at fixed offsets whether or not earlier ones have
finished, so a stall shows up as queueing.  Each request's latency runs
from when it was *due* to when it completed, which charges the wait a
stall imposes on later requests even when the generator itself ran late;
how late it ran is reported separately.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

#: How long the waiter blocks on one request before stamping again.
POLL_SLICE_S = 0.002


def arrival_offsets(rate_per_s: float, seconds: float, seed) -> List[float]:
    """Poisson arrivals at ``rate_per_s`` over ``[0, seconds)``.

    The count is fixed at ``round(rate * seconds)`` and the times are
    sorted uniform draws: a Poisson process conditioned on its count, so
    every run offers the same load and only the arrival pattern varies
    with the seed.
    """
    count = max(1, int(round(rate_per_s * seconds)))
    rng = np.random.default_rng(seed)
    return sorted(float(t) for t in rng.uniform(0.0, seconds, count))


@dataclass
class Arrival:
    """One request of the schedule."""

    index: int
    due: float
    sent: float
    handle: object
    completed: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        """Due time to completion (None until completed)."""
        return None if self.completed is None else self.completed - self.due

    @property
    def late(self) -> float:
        """How long after its due time the request was sent."""
        return self.sent - self.due


class OpenLoop:
    """Sends ``submit(i)`` at ``start + offsets[i]`` on ``clock``.

    ``submit`` returns a handle with ``done()`` and ``wait(timeout)``
    (a :class:`repro.serve.request.RequestHandle`).  Completion times are
    stamped by :meth:`poll`, which a waiter thread runs while requests
    are in flight (:meth:`run`), or a test calls directly.
    """

    def __init__(self, clock, offsets: Sequence[float]):
        self.clock = clock
        self.offsets = list(offsets)
        self.arrivals: List[Arrival] = []
        self._lock = threading.Lock()
        self._sent_all = threading.Event()

    def submit_all(self, submit: Callable[[int], object]) -> None:
        """Send every request at its due time (late ones immediately)."""
        try:
            start = self.clock.now()
            for i, offset in enumerate(self.offsets):
                due = start + offset
                self.clock.sleep(due - self.clock.now())
                sent = self.clock.now()
                handle = submit(i)
                with self._lock:
                    self.arrivals.append(Arrival(i, due, sent, handle))
        finally:
            self._sent_all.set()

    def poll(self) -> List[Arrival]:
        """Stamp newly finished requests; return those still pending."""
        with self._lock:
            pending = [a for a in self.arrivals if a.completed is None]
        now = self.clock.now()
        still = []
        for arrival in pending:
            if arrival.handle.done():
                arrival.completed = now
            else:
                still.append(arrival)
        return still

    def wait_all(self, deadline: float) -> None:
        """Poll until everything sent has finished or ``deadline`` passes."""
        while self.clock.now() < deadline:
            pending = self.poll()
            if not pending:
                if self._sent_all.is_set():
                    # a request appended between poll and here is
                    # caught by the re-check
                    if not self.poll():
                        return
                else:
                    self._sent_all.wait(POLL_SLICE_S)
                continue
            pending[0].handle.wait(POLL_SLICE_S)

    def run(self, submit: Callable[[int], object], deadline: float) -> List[Arrival]:
        """Send the schedule from this thread while a waiter thread stamps
        completions; returns once all finished or ``deadline`` passed."""
        waiter = threading.Thread(target=self.wait_all, args=(deadline,),
                                  name="perfbench-waiter", daemon=True)
        waiter.start()
        try:
            self.submit_all(submit)
        finally:
            waiter.join(max(0.0, deadline - self.clock.now()) + 5.0)
        return list(self.arrivals)
