"""Shared-resource models: semaphores, FIFO servers, bandwidth pipes, and a
capped processor-sharing server.

All ``acquire``/``process``/``transfer`` methods are generators intended to
be driven with ``yield from`` inside a simulation process.  A call that can
be satisfied immediately completes without yielding, so the uncontended fast
path costs zero simulated time and zero events.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, Optional

from repro.sim.engine import Event, SimError, Simulator, Timeout

_INF = float("inf")


class Semaphore:
    """Counting semaphore with FIFO wakeup order."""

    __slots__ = ("sim", "name", "capacity", "_in_use", "_waiters", "_ev_name")

    def __init__(self, sim: Simulator, capacity: int, name: str = "sem"):
        if capacity < 1:
            raise ValueError("semaphore capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: list[Event] = []
        # Precomputed once: blocked acquires are hot and the name is debug-only.
        self._ev_name = f"{name}.acquire"

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def try_acquire(self) -> bool:
        """Non-blocking acquire; returns whether a token was taken."""
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return True
        return False

    def acquire(self) -> Generator[Any, Any, None]:
        """Blocking acquire (``yield from sem.acquire()``)."""
        if self.try_acquire():
            return
        ev = Event(self.sim, name=self._ev_name)
        self._waiters.append(ev)
        yield ev

    def acquire_or_event(self) -> Optional[Event]:
        """Non-generator acquire: take a token now (returns ``None``) or
        register and return the :class:`Event` the caller must yield.

        Lets hot callers avoid a generator frame per uncontended acquire
        while producing the exact same event sequence as :meth:`acquire`.
        """
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return None
        ev = Event(self.sim, name=self._ev_name)
        self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimError(f"semaphore {self.name!r} released too many times")
        if self._waiters:
            # Hand the token straight to the oldest waiter; _in_use unchanged.
            self._waiters.pop(0).trigger()
        else:
            self._in_use -= 1


class FifoServer:
    """Single server processing jobs one at a time in arrival order.

    ``process(service_ns)`` holds the server for exactly ``service_ns``.
    Used for strictly serialized hardware such as an SSD's command fetch
    engine or a DMA engine.
    """

    __slots__ = ("sim", "name", "_sem", "busy_time")

    def __init__(self, sim: Simulator, name: str = "server"):
        self.sim = sim
        self.name = name
        self._sem = Semaphore(sim, 1, name=f"{name}.sem")
        #: Total simulated time the server has been busy (for utilization).
        self.busy_time = 0.0

    def process(self, service_ns: float) -> Generator[Any, Any, None]:
        ev = self._sem.acquire_or_event()
        if ev is not None:
            yield ev
        try:
            if service_ns > 0:
                yield Timeout(service_ns)
            self.busy_time += service_ns
        finally:
            self._sem.release()

    def utilization(self) -> float:
        """Fraction of elapsed simulated time the server was busy."""
        if self.sim.now <= 0:
            return 0.0
        return self.busy_time / self.sim.now


class BandwidthPipe:
    """A link with finite bandwidth and fixed propagation latency.

    Transfers serialize on the wire (store-and-forward at message
    granularity) and then experience propagation latency concurrently, the
    standard first-order PCIe/DMA model.
    """

    __slots__ = ("sim", "name", "bytes_per_ns", "latency_ns", "_server",
                 "bytes_moved")

    def __init__(
        self,
        sim: Simulator,
        bytes_per_ns: float,
        latency_ns: float = 0.0,
        name: str = "pipe",
    ):
        if bytes_per_ns <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bytes_per_ns = bytes_per_ns
        self.latency_ns = latency_ns
        self._server = FifoServer(sim, name=f"{name}.wire")
        self.bytes_moved = 0

    def transfer(self, nbytes: int) -> Generator[Any, Any, None]:
        if nbytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        # Inlined FifoServer.process: transfers happen once per DMA burst,
        # so the delegating generator frame is measurable overhead.
        server = self._server
        service_ns = nbytes / self.bytes_per_ns
        ev = server._sem.acquire_or_event()
        if ev is not None:
            yield ev
        try:
            if service_ns > 0:
                yield Timeout(service_ns)
            server.busy_time += service_ns
        finally:
            server._sem.release()
        self.bytes_moved += nbytes
        if self.latency_ns > 0:
            yield Timeout(self.latency_ns)

    def utilization(self) -> float:
        return self._server.utilization()


class FairShareServer:
    """Capped processor-sharing server (models an SM's issue bandwidth).

    ``total_rate`` work units per ns are divided equally among the ``n``
    active jobs, but no job ever progresses faster than ``per_job_cap``
    units/ns (a single warp cannot use more than one issue slot per cycle).
    Because the cap is uniform, every active job always runs at the same
    instantaneous rate ``r(n) = min(per_job_cap, total_rate / n)``, so the
    classic virtual-time formulation applies: virtual time ``V`` advances at
    ``r(n)`` and a job with ``w`` units of work departs when ``V`` has grown
    by ``w`` since its arrival.

    Jobs live on a heap of plain ``(vfinish, seq, event)`` tuples so heap
    sifting compares in C.  One departure callback is live at a time, armed
    for the head job, and it is armed lazily: an arrival re-arms it only when
    the new job became the head.  Any other arrival can only delay the head
    (by pushing ``n`` past ``total_rate / per_job_cap``), which the callback
    finds out when it fires; under the cap, the common case on an SM, it
    fires on time and nothing was rescheduled.
    """

    _EPS = 1e-9

    def __init__(
        self,
        sim: Simulator,
        total_rate: float,
        per_job_cap: Optional[float] = None,
        name: str = "ps",
    ):
        if total_rate <= 0:
            raise ValueError("total_rate must be positive")
        self.sim = sim
        self.name = name
        self.total_rate = total_rate
        self.per_job_cap = per_job_cap if per_job_cap is not None else total_rate
        self._V = 0.0
        self._last_t = 0.0
        self._jobs: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._version = 0
        #: Fire time of the live departure callback; inf while there is none.
        self._armed = _INF
        self.work_done = 0.0
        self._job_name = f"{name}.job"

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    def _advance(self, now: float) -> None:
        """Bring virtual time to ``now`` at r(n) = min(per_job_cap,
        total_rate / n), the rate the n jobs active since _last_t shared."""
        dt = now - self._last_t
        if dt > 0:
            n = len(self._jobs)
            if n:
                rate = self.total_rate / n
                cap = self.per_job_cap
                if cap < rate:
                    rate = cap
                self._V += dt * rate
                self.work_done += dt * rate * n
        self._last_t = now

    def _head_departure(self) -> float:
        """When the head job departs if nothing arrives first: from _last_t
        on, each of the n active jobs runs at r(n)."""
        jobs = self._jobs
        rate = self.total_rate / len(jobs)
        cap = self.per_job_cap
        if cap < rate:
            rate = cap
        dt = (jobs[0][0] - self._V) / rate
        return self._last_t + dt if dt > 0.0 else self._last_t

    def _arm(self, when: float) -> None:
        """Supersede the pending departure callback with one at ``when``
        (narrow scheduler API: no per-departure closure)."""
        self._version += 1
        self._armed = when
        self.sim.schedule_at(when, self._on_departure, self._version)

    def _on_departure(self, version: int) -> None:
        if version != self._version:
            return  # superseded: a later arrival became the head
        self._armed = _INF
        now = self.sim.now
        # Armed before later arrivals lowered the share?  Nothing has touched
        # _V, _last_t or the heap since the last of them, so this is the very
        # time that arrival computed, and it is never earlier than the armed
        # one: either it is now, or the re-arm lands strictly later — the
        # callback can never re-fire in place.
        when = self._head_departure()
        if when > now:
            self._arm(when)
            return
        self._advance(now)
        # The head is due now, so if it still appears un-finished it is pure
        # floating-point residue: the real-time delay rounded down and the
        # advance under-shot vfinish.  Snap virtual time forward.
        jobs = self._jobs
        V = self._V
        if V < jobs[0][0]:
            V = self._V = jobs[0][0]
        lim = V + self._EPS
        ready: list[tuple[float, int, Event]] = []
        heappop = heapq.heappop
        while jobs and jobs[0][0] <= lim:
            ready.append(heappop(jobs))
        if jobs:
            self._arm(self._head_departure())
        for job in ready:
            job[2].trigger()

    def process(self, work: float) -> Generator[Any, Any, None]:
        """Receive ``work`` units of fair-shared service."""
        if work < 0:
            raise ValueError("work must be non-negative")
        if work == 0:
            return
        self._advance(self.sim.now)
        self._seq += 1
        ev = Event(self.sim, name=self._job_name)
        heapq.heappush(self._jobs, (self._V + work, self._seq, ev))
        when = self._head_departure()
        if when < self._armed:  # the new job is the head
            self._arm(when)
        yield ev
