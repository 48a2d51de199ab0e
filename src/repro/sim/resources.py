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
    sifting compares in C, and the arrival and departure paths each spell
    out the virtual-time advance and the departure rescheduling in place
    (the same expressions, so results stay bit-exact between the two):
    every GPU instruction issue passes through here, making this the
    hottest model code in the simulator.
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
        self.work_done = 0.0
        self._job_name = f"{name}.job"

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    def _on_departure(self, version: int) -> None:
        if version != self._version:
            return  # superseded by a later arrival/departure
        jobs = self._jobs
        now = self.sim.now
        # Advance virtual time to now at r(n) = min(per_job_cap,
        # total_rate / n), the rate the n jobs active since _last_t shared.
        dt = now - self._last_t
        if dt > 0:
            n = len(jobs)
            if n:
                rate = self.total_rate / n
                cap = self.per_job_cap
                if cap < rate:
                    rate = cap
                self._V += dt * rate
                self.work_done += dt * rate * n
        self._last_t = now
        # This callback fires exactly at the head job's scheduled departure
        # (any arrival in between would have bumped the version), so if the
        # head still appears un-finished it is pure floating-point residue:
        # the real-time delay rounded down and the advance under-shot vfinish.
        # Snap virtual time forward to guarantee progress (otherwise the
        # same zero-delay callback re-fires forever).
        V = self._V
        if jobs and V < jobs[0][0]:
            V = self._V = jobs[0][0]
        lim = V + self._EPS
        ready: list[tuple[float, int, Event]] = []
        heappop = heapq.heappop
        while jobs and jobs[0][0] <= lim:
            ready.append(heappop(jobs))
        # Supersede the pending departure callback and schedule the new
        # head job's (narrow scheduler API: no per-departure closure).
        self._version += 1
        if jobs:
            n = len(jobs)
            rate = self.total_rate / n
            cap = self.per_job_cap
            if cap < rate:
                rate = cap
            dt = (jobs[0][0] - V) / rate
            if dt < 0.0:
                dt = 0.0
            self.sim.schedule_at(now + dt, self._on_departure, self._version)
        for job in ready:
            job[2].trigger()

    def process(self, work: float) -> Generator[Any, Any, None]:
        """Receive ``work`` units of fair-shared service."""
        if work < 0:
            raise ValueError("work must be non-negative")
        if work == 0:
            return
        sim = self.sim
        now = sim.now
        jobs = self._jobs
        # Advance virtual time to now at r(n) = min(per_job_cap,
        # total_rate / n), the rate the n jobs active since _last_t shared.
        dt = now - self._last_t
        if dt > 0:
            n = len(jobs)
            if n:
                rate = self.total_rate / n
                cap = self.per_job_cap
                if cap < rate:
                    rate = cap
                self._V += dt * rate
                self.work_done += dt * rate * n
        self._last_t = now
        self._seq += 1
        ev = Event(sim, name=self._job_name)
        heapq.heappush(jobs, (self._V + work, self._seq, ev))
        # Supersede the pending departure callback and schedule the new
        # head job's (narrow scheduler API: no per-departure closure).
        self._version += 1
        n = len(jobs)
        rate = self.total_rate / n
        cap = self.per_job_cap
        if cap < rate:
            rate = cap
        dt = (jobs[0][0] - self._V) / rate
        if dt < 0.0:
            dt = 0.0
        sim.schedule_at(now + dt, self._on_departure, self._version)
        yield ev
