"""Bounded admission queue with backpressure and explicit load shedding.

Open-loop traffic cannot be slowed down, so overload has to surface
somewhere visible: when the queue is at capacity an arriving request is
moved to the terminal ``SHED`` state (counted, never silently dropped).
Requests that outlive their class's ``queue_timeout_ns`` while waiting are
``ABORTED`` at pull time — serving a request long past its deadline would
burn capacity on guaranteed SLO misses.

The consumer side (the batcher) blocks on :meth:`wait_for_request` when
the queue is empty and applies backpressure simply by not pulling — the
queue then fills and sheds, which is the entire overload-control story:
dispatch pressure -> batcher stops pulling -> admission sheds.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from repro.serve.request import Request, RequestState
from repro.sim.engine import Event, Simulator
from repro.telemetry.metrics import Counter, Gauge


class AdmissionQueue:
    """A bounded FIFO of admitted requests, instrumented on the spine."""

    def __init__(
        self,
        sim: Simulator,
        capacity: int,
        events: Counter,
        depth_gauge: Optional[Gauge] = None,
        on_terminal: Optional[Callable[[Request], None]] = None,
    ):
        self.sim = sim
        self.capacity = capacity
        #: Shared serve event counter (shed / queue_timeout labels).
        self.events = events
        self.depth = depth_gauge
        #: Callback run on every terminal transition this queue performs
        #: (the engine's single accounting hook).
        self.on_terminal = on_terminal
        self._q: Deque[Request] = deque()
        self._waiter: Optional[Event] = None
        self._closed = False

    # -- producer side (arrival processes) --------------------------------

    def offer(self, req: Request) -> bool:
        """Admit ``req`` or shed it; returns True when admitted."""
        if self._closed:
            raise RuntimeError("admission queue is closed")
        now = self.sim.now
        if len(self._q) >= self.capacity:
            req.transition(RequestState.SHED, now)
            self.events.add("shed")
            if self.on_terminal is not None:
                self.on_terminal(req)
            return False
        req.transition(RequestState.QUEUED, now)
        self._q.append(req)
        if self.depth is not None:
            self.depth.set(len(self._q))
        self._notify()
        return True

    def close(self) -> None:
        """No more arrivals; wakes the consumer so it can drain and exit."""
        self._closed = True
        self._notify()

    # -- consumer side (the batcher) --------------------------------------

    def poll(self) -> Optional[Request]:
        """Pull the next live request, aborting queue-timeout expirees on
        the way; None when the queue is (currently) empty."""
        now = self.sim.now
        while self._q:
            req = self._q.popleft()
            if self.depth is not None:
                self.depth.set(len(self._q))
            admitted = req.admitted_ns if req.admitted_ns is not None else now
            if now - admitted > req.cls.queue_timeout_ns:
                req.transition(RequestState.ABORTED, now)
                self.events.add("queue_timeout")
                if self.on_terminal is not None:
                    self.on_terminal(req)
                continue
            return req
        return None

    def wait_for_request(self) -> Generator[Any, Any, None]:
        """Block until the queue is non-empty or closed."""
        while not self._q and not self._closed:
            ev = self.sim.event("serve.admit.wait")
            self._waiter = ev
            yield ev

    def _notify(self) -> None:
        if self._waiter is not None and not self._waiter.triggered:
            ev = self._waiter
            self._waiter = None
            ev.trigger()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def drained(self) -> bool:
        return self._closed and not self._q

    def __len__(self) -> int:
        return len(self._q)
