"""Dynamic batching: coalesce admitted requests into kernel launches.

The classic max-batch-size / max-wait policy: the batcher blocks until at
least one request is admitted, then keeps pulling until the batch is full
or the oldest member has waited ``max_wait_ns``.  Big batches amortise
kernel-launch and doorbell overhead; the wait bound keeps low-load latency
from ballooning to the batching window.

Backpressure flows *through* the batcher: it hands finished batches to the
dispatcher with a blocking submit, so when every GPU is busy and the
dispatch window is full the batcher stops pulling, the admission queue
fills, and arrivals shed — overload never hides in an unbounded buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List

from repro.config import Checked, legal
from repro.serve.admission import AdmissionQueue
from repro.serve.dispatch import Dispatcher
from repro.serve.request import Request, RequestState
from repro.sim.engine import Simulator, Timeout
from repro.telemetry.metrics import Histogram


@dataclass(frozen=True)
class BatchPolicy(Checked):
    """Dynamic batching knobs."""

    max_batch: int = legal(64, ge=1)
    max_wait_ns: float = legal(50_000.0, ge=0)
    #: Poll granularity while a partial batch waits for stragglers.
    poll_ns: float = legal(0.0, ge=0)

    @property
    def effective_poll_ns(self) -> float:
        if self.poll_ns > 0:
            return self.poll_ns
        # An eighth of the window keeps the wait bound tight without
        # flooding the scheduler with wakeups.
        return max(1_000.0, self.max_wait_ns / 8.0)


@dataclass
class Batch:
    """One coalesced unit of work (becomes one kernel launch)."""

    bid: int
    requests: List[Request]
    formed_ns: float

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def total_pages(self) -> int:
        return sum(len(r.pages) for r in self.requests)


class DynamicBatcher:
    """The coalescing loop between admission and dispatch."""

    def __init__(
        self,
        sim: Simulator,
        queue: AdmissionQueue,
        dispatcher: Dispatcher,
        policy: BatchPolicy,
        size_hist: Histogram,
    ):
        self.sim = sim
        self.queue = queue
        self.dispatcher = dispatcher
        self.policy = policy
        #: Batch-size distribution (1-sized batches at low load, full
        #: batches near saturation — the batching win made visible).
        self.size_hist = size_hist
        self._bid = 0

    def run(self) -> Generator[Any, Any, None]:
        """Sim process: form batches until admission is closed and drained."""
        policy = self.policy
        while True:
            yield from self.queue.wait_for_request()
            first = self.queue.poll()
            if first is None:
                if self.queue.drained:
                    break
                continue
            batch = [first]
            deadline = self.sim.now + policy.max_wait_ns
            while len(batch) < policy.max_batch:
                req = self.queue.poll()
                if req is not None:
                    batch.append(req)
                    continue
                if self.sim.now >= deadline or self.queue.drained:
                    break
                remaining = deadline - self.sim.now
                yield Timeout(min(policy.effective_poll_ns, remaining))
            yield from self._emit(batch)
        self.dispatcher.close()

    def _emit(self, requests: List[Request]) -> Generator[Any, Any, None]:
        now = self.sim.now
        for req in requests:
            req.transition(RequestState.BATCHED, now)
        self._bid += 1
        self.size_hist.observe(len(requests))
        batch = Batch(bid=self._bid, requests=requests, formed_ns=now)
        # Blocking: this is where dispatch backpressure reaches admission.
        yield from self.dispatcher.submit(batch)
