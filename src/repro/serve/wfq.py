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
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.config import Checked, ConfigError, legal
from repro.serve.admission import AdmissionQueue
from repro.serve.request import Request
from repro.sim.engine import Simulator
from repro.telemetry.metrics import Counter, Gauge


@dataclass(frozen=True)
class TenantShare(Checked):
    """One class's scheduling contract: dispatch weight, shed priority,
    and the starvation bound on shedding.

    ``priority`` orders shed victims (higher = more latency-critical =
    shed later); ``max_shed_frac`` is the bound the "never starve a class"
    guarantee rests on: once the class has shed that fraction of its
    offered requests, further sheds fall on someone else while any other
    candidate exists.
    """

    name: str
    weight: float = legal(1.0, gt=0)
    priority: int = legal(0)
    max_shed_frac: float = legal(1.0, ge=0, le=1)


@dataclass(frozen=True)
class TenancyConfig(Checked):
    """The tenancy scheduler's policy: one :class:`TenantShare` per class
    (declaration order is the deterministic tie-break order)."""

    shares: Tuple[TenantShare, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.shares:
            raise ConfigError("TenancyConfig.shares needs at least one share")
        names = [s.name for s in self.shares]
        if len(set(names)) != len(names):
            raise ConfigError(f"TenancyConfig.shares: duplicate names {names}")


class WeightedFairAdmission(AdmissionQueue):
    """Bounded multi-class admission: weighted-fair pulls, SLO-aware sheds.

    :class:`~repro.serve.admission.AdmissionQueue`'s bounded buffer (the
    batcher and the engine cannot tell them apart) with its own victim
    choice and pull order; ``capacity`` bounds the *total* buffered
    requests across classes.
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
        super().__init__(sim, capacity, events, depth_gauge, on_terminal)
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
        self._sheds: Dict[str, int] = {name: 0 for name in self._order}
        self._size = 0

    def _share(self, req: Request) -> TenantShare:
        share = self._shares.get(req.cls.name)
        if share is None:
            raise KeyError(
                f"request class {req.cls.name!r} has no tenant share "
                f"(declared: {list(self._order)})"
            )
        return share

    # -- victim choice --------------------------------------------------------

    def _evict(self, arriving: Request) -> Request:
        """Choose who gets shed when the buffer is full: the candidate
        whose class can best afford it.  Candidates are the arrival plus
        the *youngest* queued request of each backlogged class (the
        youngest has waited least — shedding it wastes the least queueing
        already invested).  A queued victim (QUEUED -> SHED is legal)
        frees its slot for the arrival."""
        victim = self._pick_victim(arriving)
        if victim is not arriving:
            self._queues[victim.cls.name].remove(victim)
            self._size -= 1
        return victim

    def _pick_victim(self, arriving: Request) -> Request:
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
            if (self._sheds[cand.cls.name] + 1) / offered <= share.max_shed_frac:
                return cand
        # Every candidate's class is at its shed bound: the guarantee is a
        # ratio, so waiving it once for the least critical candidate keeps
        # the system live without permanently starving anyone.
        if self.class_events is not None:
            self.class_events.add("shed_guard_fallback")
        return ranked[0]

    def _shed(self, req: Request) -> None:
        self._sheds[req.cls.name] += 1
        if self.class_events is not None:
            self.class_events.add(f"shed:{req.cls.name}")
        super()._shed(req)

    def offer(self, req: Request) -> bool:
        if not self._closed:
            self._offered[self._share(req).name] += 1  # unknown classes fail fast
        return super().offer(req)

    # -- pull order -----------------------------------------------------------

    def _push(self, req: Request) -> None:
        q = self._queues[req.cls.name]
        if not q:
            # A class returning from idle joins at the scheduler's current
            # virtual time: no banked credit from the idle period.
            self._vt[req.cls.name] = max(self._vt[req.cls.name], self._vnow)
        q.append(req)
        self._size += 1

    def _pop(self) -> Request:
        """The head of the backlogged class with the smallest clock; pulling
        advances that clock by ``1 / weight``."""
        best: Optional[str] = None
        best_vt = 0.0
        for name in self._order:
            if not self._queues[name]:
                continue
            vt = self._vt[name]
            if best is None or vt < best_vt:
                best, best_vt = name, vt
        assert best is not None
        self._size -= 1
        self._vt[best] += 1.0 / self._shares[best].weight
        self._vnow = self._vt[best]
        return self._queues[best].popleft()

    def poll(self) -> Optional[Request]:
        req = super().poll()
        if req is not None and self.class_events is not None:
            self.class_events.add(f"pull:{req.cls.name}")
        return req

    def __len__(self) -> int:
        return self._size
