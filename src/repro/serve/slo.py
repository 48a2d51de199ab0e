"""SLO accounting: per-class latency distributions, goodput, shed rates.

Everything lands on the host's telemetry spine so serve metrics appear in
``host.stats()`` snapshots and Chrome traces exactly like every other
layer's:

- ``serve.<class>`` counter family — offered / completed / shed /
  queue_timeout / aborted / slo_ok / slo_miss;
- ``serve.<class>.latency_ns`` histogram — exact p50/p95/p99 via the
  Histogram quantile extension;
- the admission-depth and dispatch-window gauges live in
  :mod:`repro.serve.engine` next to the structures they sample.

**Goodput** is the strict serving definition: completed requests that met
their class SLO, per second of offered-traffic window.  A completed-but-
late request is capacity spent without value; it counts as ``slo_miss``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.config import NS_PER_S
from repro.serve.request import Request, RequestClass, RequestState
from repro.telemetry.metrics import Counter, Histogram

#: Latency histogram bucket edges (ns): 10 us .. 100 ms, log-ish spacing.
LATENCY_BUCKETS_NS = (
    10_000.0, 25_000.0, 50_000.0, 100_000.0, 250_000.0, 500_000.0,
    1_000_000.0, 2_500_000.0, 5_000_000.0, 10_000_000.0, 25_000_000.0,
    100_000_000.0,
)

EVENT_LABELS = (
    "offered", "admitted", "shed", "queue_timeout", "completed",
    "aborted", "slo_ok", "slo_miss",
)


@dataclass(frozen=True)
class ClassReport:
    """One request class's slice of a serve run."""

    name: str
    offered: int
    completed: int
    shed: int
    queue_timeout: int
    aborted: int
    slo_ok: int
    p50_ns: float
    p95_ns: float
    p99_ns: float
    mean_latency_ns: float
    goodput_rps: float

    @property
    def slo_attainment(self) -> float:
        """Fraction of *offered* requests served within budget — sheds and
        timeouts count against the tenant, as they do in production."""
        return self.slo_ok / self.offered if self.offered else 1.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "queue_timeout": self.queue_timeout,
            "aborted": self.aborted,
            "slo_ok": self.slo_ok,
            "slo_attainment": self.slo_attainment,
            "p50_ns": self.p50_ns,
            "p95_ns": self.p95_ns,
            "p99_ns": self.p99_ns,
            "mean_latency_ns": self.mean_latency_ns,
            "goodput_rps": self.goodput_rps,
        }


@dataclass(frozen=True)
class ServeReport:
    """Whole-run accounting returned by ``ServeEngine.run()``."""

    system: str
    duration_ns: float
    offered_rps: float
    classes: Dict[str, ClassReport] = field(default_factory=dict)
    sim_events: int = 0
    batches: int = 0
    mean_batch_size: float = 0.0
    #: Placement-layer accounting (defaults keep hand-built reports valid).
    placement: str = ""
    num_ssds: int = 0
    #: Pages targeted per device index (offered traffic, pre-shed).
    device_pages: Tuple[int, ...] = ()
    #: Completed reads per device index (the driver's counters).
    device_reads: Tuple[int, ...] = ()
    #: Write-path accounting per device index (FTL ledger at run end):
    #: empty tuples mean a read-only run on a pre-write-path report.
    device_writes: Tuple[int, ...] = ()
    device_waf: Tuple[float, ...] = ()
    device_gc_busy_ns: Tuple[float, ...] = ()
    device_gc_stall_ns: Tuple[float, ...] = ()
    #: Cache eviction write-backs: snapshots taken / durably acked / lost.
    writebacks: int = 0
    writebacks_acked: int = 0
    writebacks_lost: int = 0

    @property
    def offered(self) -> int:
        return sum(c.offered for c in self.classes.values())

    @property
    def completed(self) -> int:
        return sum(c.completed for c in self.classes.values())

    @property
    def shed(self) -> int:
        return sum(c.shed for c in self.classes.values())

    @property
    def aborted(self) -> int:
        return sum(c.aborted + c.queue_timeout for c in self.classes.values())

    @property
    def goodput_rps(self) -> float:
        return sum(c.goodput_rps for c in self.classes.values())

    @property
    def events_per_request(self) -> float:
        """What the run cost to simulate, in machine-independent units."""
        return self.sim_events / self.offered if self.offered else 0.0

    @property
    def p99_ns(self) -> float:
        """Worst per-class p99 — the number a tenant-facing SLO quotes."""
        return max((c.p99_ns for c in self.classes.values()), default=0.0)

    @property
    def skew_ratio(self) -> float:
        """Per-device utilization skew: busiest device's completed reads
        over the even share (1.0 = perfectly balanced, ``num_ssds`` = all
        load on one device).  Falls back to offered page counts when no
        read completed; 1.0 when there is nothing to measure."""
        counts = (
            self.device_reads if any(self.device_reads) else self.device_pages
        )
        total = sum(counts)
        if not counts or total == 0:
            return 1.0
        return max(counts) * len(counts) / total

    @property
    def mean_waf(self) -> float:
        """Mean write amplification across devices that saw host programs
        (1.0 for a read-only run — the inert-FTL baseline)."""
        active = [w for w, n in zip(self.device_waf, self.device_writes) if n]
        if not active:
            return 1.0
        return sum(active) / len(active)

    @property
    def gc_busy_ns(self) -> float:
        return sum(self.device_gc_busy_ns)

    @property
    def gc_stall_ns(self) -> float:
        return sum(self.device_gc_stall_ns)

    def as_dict(self) -> Dict[str, object]:
        return {
            "system": self.system,
            "duration_ns": self.duration_ns,
            "offered_rps": self.offered_rps,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "aborted": self.aborted,
            "goodput_rps": self.goodput_rps,
            "p99_ns": self.p99_ns,
            "sim_events": self.sim_events,
            "events_per_request": self.events_per_request,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "placement": {
                "policy": self.placement,
                "num_ssds": self.num_ssds,
                "device_pages": list(self.device_pages),
                "device_reads": list(self.device_reads),
                "skew_ratio": self.skew_ratio,
            },
            "write_path": {
                "device_writes": list(self.device_writes),
                "device_waf": list(self.device_waf),
                "mean_waf": self.mean_waf,
                "gc_busy_ns": self.gc_busy_ns,
                "gc_stall_ns": self.gc_stall_ns,
                "writebacks": self.writebacks,
                "writebacks_acked": self.writebacks_acked,
                "writebacks_lost": self.writebacks_lost,
            },
            "classes": {
                name: rep.as_dict() for name, rep in sorted(self.classes.items())
            },
        }


class SloAccountant:
    """Routes every terminal request into the typed instruments."""

    def __init__(self, registry, classes: Sequence[RequestClass]):
        self.classes = {cls.name: cls for cls in classes}
        self.events: Dict[str, Counter] = {}
        self.latency: Dict[str, Histogram] = {}
        for cls in classes:
            self.events[cls.name] = registry.counter(
                f"serve.{cls.name}",
                description="per-class serve request outcomes",
                labels=EVENT_LABELS,
            )
            self.latency[cls.name] = registry.histogram(
                f"serve.{cls.name}.latency_ns",
                description="end-to-end request latency (arrival->terminal)",
                buckets=LATENCY_BUCKETS_NS,
            )

    def offered(self, cls: RequestClass) -> None:
        self.events[cls.name].add("offered")

    def admitted(self, cls: RequestClass) -> None:
        self.events[cls.name].add("admitted")

    def record_terminal(self, req: Request) -> None:
        """Called exactly once per request, from the engine's terminal hook."""
        events = self.events[req.cls.name]
        state = req.state
        if state is RequestState.SHED:
            events.add("shed")
            return
        if state is RequestState.ABORTED:
            # A request that never reached a batch expired in the admission
            # queue; one that did aborted on the service path (I/O error).
            if req.dispatched_ns is not None or req.batched_ns is not None:
                events.add("aborted")
            else:
                events.add("queue_timeout")
            return
        events.add("completed")
        self.latency[req.cls.name].observe(req.latency_ns)
        events.add("slo_ok" if req.within_slo else "slo_miss")

    def class_report(self, name: str, duration_ns: float) -> ClassReport:
        events = self.events[name]
        hist = self.latency[name]
        q = hist.quantiles()
        duration_s = duration_ns / NS_PER_S if duration_ns > 0 else 1.0
        return ClassReport(
            name=name,
            offered=int(events.get("offered")),
            completed=int(events.get("completed")),
            shed=int(events.get("shed")),
            queue_timeout=int(events.get("queue_timeout")),
            aborted=int(events.get("aborted")),
            slo_ok=int(events.get("slo_ok")),
            p50_ns=q["p50"],
            p95_ns=q["p95"],
            p99_ns=q["p99"],
            mean_latency_ns=hist.mean(),
            goodput_rps=events.get("slo_ok") / duration_s,
        )

    def reports(self, duration_ns: float) -> List[ClassReport]:
        return [
            self.class_report(name, duration_ns)
            for name in sorted(self.classes)
        ]
