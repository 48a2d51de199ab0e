"""The serve engine: arrival -> admission -> batching -> dispatch -> SLO.

One :class:`ServeEngine` drives one backend with open-loop traffic for a
fixed simulated window, then drains and reports.  All randomness flows
through per-class named :class:`~repro.sim.rng.RngStreams` streams
(``serve.arrival.<class>`` for gaps, ``serve.pages.<class>`` for page
targets), so a (seed, config) pair reproduces the identical request
timeline bit-for-bit on every backend — the property the saturation-curve
comparison and the determinism tests rest on.

Every request's terminal transition (shed at admission, timeout at pull,
abort or complete in a kernel) is reported once to
:meth:`SloAccountant.record_terminal`.  ``run()`` asserts the contract the
property tests check: when the window closes and the pipeline drains,
*every* offered request is in exactly one terminal state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Generator, List, Optional, Sequence

import numpy as np

from repro.config import NS_PER_S, Checked, legal
from repro.serve.admission import AdmissionQueue
from repro.serve.arrival import ArrivalProcess, TraceReplay
from repro.serve.backends import ServeBackend
from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.dispatch import Dispatcher
from repro.serve.request import Request, RequestClass, RequestState
from repro.serve.slo import ServeReport, SloAccountant
from repro.serve.wfq import TenancyConfig, WeightedFairAdmission
from repro.sim.engine import Timeout
from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class ServeConfig(Checked):
    """Engine knobs independent of the simulated machine."""

    #: Offered-traffic window (simulated ns); arrivals stop after this.
    duration_ns: float = legal(10_000_000.0, gt=0)
    #: Admission queue bound (requests; beyond it arrivals are SHED).
    admission_capacity: int = legal(256, ge=1)
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    #: Multi-tenant scheduling policy.  None (the default) keeps the FIFO
    #: :class:`~repro.serve.admission.AdmissionQueue` and its bit-exact
    #: timelines; a :class:`~repro.serve.wfq.TenancyConfig` swaps in
    #: weighted-fair admission with SLO-aware shedding.
    tenancy: Optional[TenancyConfig] = None


class ServeEngine:
    """Open-loop request serving on top of one backend."""

    def __init__(
        self,
        backend: ServeBackend,
        classes: Sequence[RequestClass],
        arrivals: Dict[str, ArrivalProcess],
        serve_cfg: Optional[ServeConfig] = None,
        seed: int = 7,
    ):
        if not classes:
            raise ValueError("at least one request class is required")
        missing = [c.name for c in classes if c.name not in arrivals]
        if missing:
            raise ValueError(f"no arrival process for class(es): {missing}")
        writers = [c.name for c in classes if c.op in ("write", "modify")]
        if writers and not backend.supports_writes:
            raise ValueError(
                f"backend {backend.system!r} is read-only; write/modify "
                f"class(es) not servable: {writers}"
            )
        cached = [c.name for c in classes if c.op in ("paged", "modify")]
        if cached and not backend.supports_cached:
            raise ValueError(
                f"backend {backend.system!r} has no cache-routed path over "
                f"one cache; paged/modify class(es) not servable: {cached}"
            )
        self.backend = backend
        self.classes = list(classes)
        self.arrivals = dict(arrivals)
        self.cfg = serve_cfg if serve_cfg is not None else ServeConfig()
        self.seed = seed
        self.rng = RngStreams(seed)
        self.sim = backend.sim
        #: The host's probe (None unless something listens): batch spans
        #: and queue-depth samples are recorded through it.
        self.probe = backend.host.probe
        registry = backend.trace

        self.slo = SloAccountant(registry, self.classes)
        admission_events = registry.counter(
            "serve.admission",
            description="admission-queue level outcomes",
            labels=("shed", "queue_timeout"),
        )
        admission_depth = self._gauge(
            registry, "serve.admission.depth", "queue", "admission"
        )
        if self.cfg.tenancy is not None:
            class_labels = tuple(
                f"{kind}:{c.name}"
                for c in self.classes
                for kind in ("pull", "shed")
            ) + ("shed_guard_fallback",)
            self.admission = WeightedFairAdmission(
                self.sim,
                self.cfg.admission_capacity,
                self.cfg.tenancy,
                events=admission_events,
                depth_gauge=admission_depth,
                on_terminal=self.slo.record_terminal,
                class_events=registry.counter(
                    "serve.tenancy",
                    description="per-class scheduler outcomes",
                    labels=class_labels,
                ),
            )
        else:
            self.admission = AdmissionQueue(
                self.sim,
                self.cfg.admission_capacity,
                events=admission_events,
                depth_gauge=admission_depth,
                on_terminal=self.slo.record_terminal,
            )
        max_batch = self.cfg.batch.max_batch
        if backend.max_batch:
            max_batch = min(max_batch, backend.max_batch)
        policy = BatchPolicy(
            max_batch=max_batch,
            max_wait_ns=self.cfg.batch.max_wait_ns,
        )
        self.dispatcher = Dispatcher(
            self.sim,
            num_workers=backend.num_workers,
            events=registry.counter(
                "serve.dispatch", description="batch dispatch counters"
            ),
            pending_gauge=self._gauge(
                registry, "serve.dispatch.pending", "queue", "dispatch"
            ),
        )
        self.batcher = DynamicBatcher(
            self.sim,
            self.admission,
            self.dispatcher,
            policy,
            size_hist=registry.histogram(
                "serve.batch_size",
                description="requests coalesced per kernel launch",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128),
            ),
        )
        #: Every request ever created, in arrival order (the property tests
        #: walk this to assert exactly-one-terminal-state).
        self.requests: List[Request] = []
        #: Pages targeted per device index (offered, not completed — counts
        #: shed requests too; the placement report pairs it with the
        #: driver's completed-read counters).
        self.device_pages: List[int] = [0] * len(backend.cfg.ssds)
        self._rid = 0
        self._ran = False

    def _gauge(self, registry, name: str, layer: str, track: str):
        gauge = registry.gauge(name)
        if self.probe is not None:
            gauge.sampler = partial(
                self.probe.emit, "gauge", name=name.rsplit(".", 1)[-1],
                layer=layer, track=track,
            )
        return gauge

    # -- request construction ----------------------------------------------

    def _make_request(self, cls: RequestClass, pages) -> Request:
        self._rid += 1
        req = Request(
            rid=self._rid,
            cls=cls,
            arrival_ns=self.sim.now,
            pages=tuple(pages),
        )
        for ssd, _lba in req.pages:
            self.device_pages[ssd] += 1
        self.requests.append(req)
        self.slo.offered(cls)
        return req

    def _sample_pages(self, cls: RequestClass, rng) -> List[tuple]:
        """Draw one request's logical LBAs (optionally hotspot-skewed) and
        resolve them through the backend's placement policy.

        The uniform draw always happens, and the skew draw only when
        ``cls.skew > 0`` — so skew-free classes consume the identical rng
        stream the pre-placement engine did, keeping serve timelines
        bit-exact across the refactor.
        """
        lbas = rng.integers(0, cls.lba_space, size=cls.pages)
        if cls.skew > 0.0:
            hot_space = max(1, int(cls.lba_space * cls.hot_fraction))
            hot = rng.random(size=cls.pages)
            lbas = np.where(hot < cls.skew, lbas % hot_space, lbas)
        return [
            self.backend.place(cls.lba_base + int(lba), tenant=cls.name)
            for lba in lbas
        ]

    # -- sim processes -------------------------------------------------------

    def _arrival_proc(
        self, cls: RequestClass, proc: ArrivalProcess
    ) -> Generator[Any, Any, None]:
        gap_rng = self.rng.stream(f"serve.arrival.{cls.name}")
        page_rng = self.rng.stream(f"serve.pages.{cls.name}")
        page_seq = (
            proc.page_sequence()
            if isinstance(proc, TraceReplay) and proc.pages is not None
            else None
        )
        logical_seq = (
            proc.logical_sequence()
            if isinstance(proc, TraceReplay) and proc.logical is not None
            else None
        )
        end = self.cfg.duration_ns
        for gap in proc.gaps(gap_rng):
            yield Timeout(gap)
            if self.sim.now >= end:
                return
            if page_seq is not None:
                pages = next(page_seq)
            elif logical_seq is not None:
                # Logical traces resolve through placement at arrival, like
                # sampled pages — the trace replays on any array layout.
                pages = [
                    self.backend.place(lba, tenant=cls.name)
                    for lba in next(logical_seq)
                ]
            else:
                pages = self._sample_pages(cls, page_rng)
            req = self._make_request(cls, pages)
            if self.admission.offer(req):
                self.slo.admitted(cls)

    def _run_batch(self, worker_idx: int, batch) -> Generator[Any, Any, None]:
        probe = self.probe
        start = self.sim.now
        yield from self.backend.run_batch(worker_idx, batch, self._finish)
        if probe is not None:
            probe.emit(
                "serve.batch", worker=worker_idx, bid=batch.bid, t0=start,
                requests=len(batch), pages=batch.total_pages,
            )

    # -- terminal accounting -------------------------------------------------

    def _finish(self, req: Request, ok: bool) -> None:
        """Kernel-side completion hook (runs at the thread's finish time)."""
        req.transition(
            RequestState.COMPLETED if ok else RequestState.ABORTED,
            self.sim.now,
        )
        self.slo.record_terminal(req)

    # -- the run -------------------------------------------------------------

    def run(self) -> ServeReport:
        """Offer traffic for the configured window, drain, and report."""
        if self._ran:
            raise RuntimeError("ServeEngine instances are one-shot")
        self._ran = True
        backend = self.backend
        backend.start()
        arrival_procs = [
            self.sim.spawn(
                self._arrival_proc(cls, self.arrivals[cls.name]),
                name=f"serve.arrival.{cls.name}",
            )
            for cls in self.classes
        ]
        self.sim.spawn(self.batcher.run(), name="serve.batcher")
        workers = self.dispatcher.spawn_workers(self._run_batch)

        def main() -> Generator[Any, Any, None]:
            for proc in arrival_procs:
                yield proc.done_event
            self.admission.close()
            # The batcher closes the dispatcher once admission drains, and
            # a worker returns when it is closed with nothing left to run:
            # by then every dispatched request is terminal.
            for proc in workers:
                yield proc.done_event

        main_proc = self.sim.spawn(main(), name="serve.main")
        self.sim.run(until_procs=[main_proc])
        # Drain before stopping the service: eviction write-backs are
        # fire-and-forget transactions the terminal accounting does not
        # wait on, and draining needs the service SM alive to retire them.
        backend.drain()
        backend.stop()

        leftovers = [r for r in self.requests if not r.terminal]
        if leftovers:
            raise RuntimeError(
                f"serve drain leak: {len(leftovers)} request(s) never "
                f"reached a terminal state (first: {leftovers[0]!r})"
            )
        return self.report()

    def report(self) -> ServeReport:
        duration = self.cfg.duration_ns
        class_reports = {
            rep.name: rep for rep in self.slo.reports(duration)
        }
        offered = sum(c.offered for c in class_reports.values())
        size_hist = self.batcher.size_hist
        write_stats = self.backend.device_write_stats()
        wb = self.backend.writeback_stats()
        return ServeReport(
            system=self.backend.system,
            duration_ns=duration,
            offered_rps=offered / (duration / NS_PER_S),
            classes=class_reports,
            sim_events=self.sim.event_count,
            batches=size_hist.count,
            mean_batch_size=size_hist.mean(),
            placement=self.backend.placement.name,
            num_ssds=len(self.backend.cfg.ssds),
            device_pages=tuple(self.device_pages),
            device_reads=tuple(self.backend.device_read_counts()),
            device_writes=tuple(
                int(s.get("completed_writes", 0)) for s in write_stats
            ),
            device_waf=tuple(s.get("waf", 1.0) for s in write_stats),
            device_gc_busy_ns=tuple(
                s.get("gc_busy_ns", 0.0) for s in write_stats
            ),
            device_gc_stall_ns=tuple(
                s.get("host_gc_stall_ns", 0.0) for s in write_stats
            ),
            writebacks=wb["writebacks"],
            writebacks_acked=wb["writebacks_acked"],
            writebacks_lost=wb["writebacks_lost"],
        )
