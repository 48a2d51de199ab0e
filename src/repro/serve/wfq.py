"""Weighted-fair admission with SLO-aware shedding (the tenancy scheduler).

:class:`WeightedFairAdmission` is a drop-in replacement for the FIFO
:class:`~repro.serve.admission.AdmissionQueue` (same producer/consumer
interface, same terminal accounting hook) that adds two policies on top
of the same bounded buffer:

**Weighted-fair dispatch order.**  One virtual-time clock per class:
pulling a request from class *c* advances ``vt[c]`` by ``1 / weight[c]``,
and the next pull serves the non-empty class with the smallest clock
(ties break in share-declaration order, so scheduling is deterministic).
A class going idle cannot bank credit: when it becomes backlogged again
its clock jumps forward to the scheduler's current virtual time.  The
classic consequence is a *bounded* lag — over any window in which a
class stays backlogged it receives at least its weight share of pulls
minus a constant — which the Hypothesis property test asserts.

**SLO-aware shedding.**  The FIFO queue sheds whoever arrives while the
buffer is full — under overload the latency-critical tenant is shed in
proportion to its arrival rate, which is exactly backwards.  Here an
arrival into a full buffer triggers a *victim selection*: among the
arriving request and the youngest queued request of every class, shed
the one whose class can best afford it (lowest ``priority``, then
loosest SLO), subject to a starvation bound — a class whose shed
fraction would exceed its ``max_shed_frac`` is passed over while any
other candidate remains (when every candidate is guarded the bound is
waived for the least critical one and ``shed_guard_fallback`` counts
it).  Shedding a queued victim to admit a more critical arrival is the
whole mechanism by which "batch absorbs the storm": the batch tenant's
shed fraction rises while the inference tenant keeps its queue slots.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from repro.serve.request import Request, RequestState
from repro.sim.engine import Event, Simulator
from repro.telemetry.metrics import Counter, Gauge


class TenantShare:
    """One class's scheduling contract: dispatch weight, shed priority,
    and the starvation bound on shedding.

    ``priority`` orders shed victims (higher = more latency-critical =
    shed later); ``max_shed_frac`` is the bound the "never starve a class"
    guarantee rests on: once the class has shed that fraction of its
    offered requests, further sheds fall on someone else while any other
    candidate exists.
    """

    __slots__ = ("name", "weight", "priority", "max_shed_frac")

    def __init__(
        self,
        name: str,
        weight: float = 1.0,
        priority: int = 0,
        max_shed_frac: float = 1.0,
    ):
        if weight <= 0:
            raise ValueError(f"share {name!r}: weight must be > 0")
        if not 0.0 <= max_shed_frac <= 1.0:
            raise ValueError(
                f"share {name!r}: max_shed_frac must be in [0, 1]"
            )
        self.name = name
        self.weight = float(weight)
        self.priority = int(priority)
        self.max_shed_frac = float(max_shed_frac)


class TenancyConfig:
    """The tenancy scheduler's policy: one :class:`TenantShare` per class
    (declaration order is the deterministic tie-break order)."""

    def __init__(self, shares: Tuple[TenantShare, ...]):
        if not shares:
            raise ValueError("tenancy needs at least one share")
        names = [s.name for s in shares]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant shares: {names}")
        self.shares = tuple(shares)


class WeightedFairAdmission:
    """Bounded multi-class admission: weighted-fair pulls, SLO-aware sheds.

    Interface-compatible with :class:`~repro.serve.admission.AdmissionQueue`
    (the batcher and the engine cannot tell them apart); ``capacity``
    bounds the *total* buffered requests across classes.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int,
        tenancy: TenancyConfig,
        events: Counter,
        depth_gauge: Optional[Gauge] = None,
        on_terminal: Optional[Callable[[Request], None]] = None,
        class_events: Optional[Counter] = None,
    ):
        self.sim = sim
        self.capacity = capacity
        self.tenancy = tenancy
        self.events = events
        self.depth = depth_gauge
        self.on_terminal = on_terminal
        #: Per-class scheduler counters (``pull:<cls>`` / ``shed:<cls>`` /
        #: ``shed_guard_fallback``) on the backend's metric registry.
        self.class_events = class_events
        self._shares: Dict[str, TenantShare] = {
            s.name: s for s in tenancy.shares
        }
        #: Deterministic class order (declaration order = tie-break order).
        self._order: Tuple[str, ...] = tuple(s.name for s in tenancy.shares)
        self._queues: Dict[str, Deque[Request]] = {
            name: deque() for name in self._order
        }
        self._vt: Dict[str, float] = {name: 0.0 for name in self._order}
        self._vnow = 0.0
        self._offered: Dict[str, int] = {name: 0 for name in self._order}
        self._shed: Dict[str, int] = {name: 0 for name in self._order}
        self._pulls: Dict[str, int] = {name: 0 for name in self._order}
        self._size = 0
        self._waiter: Optional[Event] = None
        self._closed = False

    # -- bookkeeping --------------------------------------------------------

    def _share(self, req: Request) -> TenantShare:
        share = self._shares.get(req.cls.name)
        if share is None:
            raise KeyError(
                f"request class {req.cls.name!r} has no tenant share "
                f"(declared: {list(self._order)})"
            )
        return share

    def pull_counts(self) -> Dict[str, int]:
        """Requests handed to the batcher per class (property tests read
        this to check the weighted-fair share bound)."""
        return dict(self._pulls)

    def _do_shed(self, req: Request) -> None:
        req.transition(RequestState.SHED, self.sim.now)
        self._shed[req.cls.name] += 1
        self.events.add("shed")
        if self.class_events is not None:
            self.class_events.add(f"shed:{req.cls.name}")
        if self.on_terminal is not None:
            self.on_terminal(req)

    def _pick_victim(self, arriving: Request) -> Request:
        """Choose who gets shed when the buffer is full: the candidate
        whose class can best afford it.  Candidates are the arrival plus
        the *youngest* queued request of each backlogged class (the
        youngest has waited least — shedding it wastes the least queueing
        already invested)."""
        candidates: List[Request] = [arriving]
        for name in self._order:
            q = self._queues[name]
            if q:
                candidates.append(q[-1])

        def affordability(req: Request) -> Tuple[int, float, int]:
            share = self._share(req)
            # Lowest priority first; then loosest SLO; then latest class
            # declaration — all deterministic.
            order_idx = self._order.index(req.cls.name)
            return (share.priority, -req.cls.slo_ns, -order_idx)

        ranked = sorted(candidates, key=affordability)
        for cand in ranked:
            share = self._share(cand)
            offered = max(1, self._offered[cand.cls.name])
            if (self._shed[cand.cls.name] + 1) / offered <= share.max_shed_frac:
                return cand
        # Every candidate's class is at its shed bound: the guarantee is a
        # ratio, so waiving it once for the least critical candidate keeps
        # the system live without permanently starving anyone.
        if self.class_events is not None:
            self.class_events.add("shed_guard_fallback")
        return ranked[0]

    # -- producer side (arrival processes) ----------------------------------

    def offer(self, req: Request) -> bool:
        """Admit ``req``, or shed the most affordable victim (possibly
        ``req`` itself); returns True when ``req`` was admitted."""
        if self._closed:
            raise RuntimeError("admission queue is closed")
        self._share(req)  # unknown classes fail fast
        self._offered[req.cls.name] += 1
        if self._size >= self.capacity:
            victim = self._pick_victim(req)
            if victim is req:
                self._do_shed(req)
                return False
            # Evict the queued victim (QUEUED -> SHED is legal) and admit
            # the arrival into the freed slot.
            self._queues[victim.cls.name].remove(victim)
            self._size -= 1
            self._do_shed(victim)
        now = self.sim.now
        req.transition(RequestState.QUEUED, now)
        q = self._queues[req.cls.name]
        if not q:
            # A class returning from idle joins at the scheduler's current
            # virtual time: no banked credit from the idle period.
            self._vt[req.cls.name] = max(self._vt[req.cls.name], self._vnow)
        q.append(req)
        self._size += 1
        if self.depth is not None:
            self.depth.set(self._size)
        self._notify()
        return True

    def close(self) -> None:
        self._closed = True
        self._notify()

    # -- consumer side (the batcher) -----------------------------------------

    def _next_class(self) -> Optional[str]:
        best: Optional[str] = None
        best_vt = 0.0
        for name in self._order:
            if not self._queues[name]:
                continue
            vt = self._vt[name]
            if best is None or vt < best_vt:
                best, best_vt = name, vt
        return best

    def poll(self) -> Optional[Request]:
        """Pull the next live request in weighted-fair order, aborting
        queue-timeout expirees on the way; None when empty."""
        now = self.sim.now
        while self._size:
            name = self._next_class()
            assert name is not None
            req = self._queues[name].popleft()
            self._size -= 1
            if self.depth is not None:
                self.depth.set(self._size)
            share = self._shares[name]
            self._vt[name] += 1.0 / share.weight
            self._vnow = self._vt[name]
            admitted = req.admitted_ns if req.admitted_ns is not None else now
            if now - admitted > req.cls.queue_timeout_ns:
                req.transition(RequestState.ABORTED, now)
                self.events.add("queue_timeout")
                if self.on_terminal is not None:
                    self.on_terminal(req)
                continue
            self._pulls[name] += 1
            if self.class_events is not None:
                self.class_events.add(f"pull:{name}")
            return req
        return None

    def wait_for_request(self) -> Generator[Any, Any, None]:
        while not self._size and not self._closed:
            ev = self.sim.event("serve.admit.wait")
            self._waiter = ev
            yield ev

    def _notify(self) -> None:
        if self._waiter is not None and not self._waiter.triggered:
            ev = self._waiter
            self._waiter = None
            ev.trigger()

    @property
    def drained(self) -> bool:
        return self._closed and not self._size
