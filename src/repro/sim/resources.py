"""Shared-resource models: FIFO servers, bandwidth pipes, and a
capped processor-sharing server.

All ``acquire``/``process``/``transfer`` methods are generators intended to
be driven with ``yield from`` inside a simulation process.  A call that can
be satisfied immediately completes without yielding, so the uncontended fast
path costs zero simulated time and zero events; a strictly serialized
resource computes its completion time instead of simulating its queue.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, Optional

from repro.sim.engine import At, Event, Simulator

_INF = float("inf")


class FifoServer:
    """Single server processing jobs one at a time in arrival order.

    ``process(service_ns)`` holds the server for exactly ``service_ns``.
    Used for strictly serialized hardware such as an SSD's flash channel or
    the HBM port.  Closed-form: an arriving job's completion time is known
    at once — ``max(now, free_at) + service_ns`` — so the whole visit costs
    one wake-up, and a caller that owes more time afterwards (a load's
    latency) adds it to :meth:`reserve`'s result and sleeps once.  A
    reservation stands even if the process that made it is killed.
    """

    __slots__ = ("sim", "name", "free_at", "_booked")

    def __init__(self, sim: Simulator, name: str = "server"):
        self.sim = sim
        self.name = name
        #: When the last job accepted so far completes.
        self.free_at = 0.0
        self._booked = 0.0

    def reserve(self, service_ns: float) -> float:
        """Queue a job behind everything accepted so far; returns the
        absolute time it completes."""
        if service_ns < 0:
            raise ValueError("service time must be non-negative")
        now = self.sim.now
        start = self.free_at if self.free_at > now else now
        self.free_at = end = start + service_ns
        self._booked += service_ns
        return end

    def process(self, service_ns: float) -> Generator[Any, Any, None]:
        end = self.reserve(service_ns)
        if end > self.sim.now:
            yield At(end)

    @property
    def busy_time(self) -> float:
        """Simulated time the server has been busy so far (for utilization):
        the service booked, less the backlog still ahead of ``now`` — never
        more than ``now``, whatever the subtraction's last digit says."""
        now = self.sim.now
        if self.free_at <= now:
            return self._booked
        return min(self._booked - (self.free_at - now), now)

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
        arrives = self._server.reserve(nbytes / self.bytes_per_ns) + self.latency_ns
        if arrives > self.sim.now:
            yield At(arrives)
        self.bytes_moved += nbytes


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
        # _V, _last_t or the heap since the last of them, so this is the time
        # that arrival computed, never earlier than the armed one.  A re-arm
        # lands strictly later, so the callback cannot re-fire in place.
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
