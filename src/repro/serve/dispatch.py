"""Batch dispatch: fair-share kernel launches across serving workers.

One worker process per simulated GPU pulls batches from a shared bounded
window and runs them through the backend — work-conserving fair sharing:
an idle GPU always takes the oldest waiting batch, so the GPUs of a
multi-GPU host split the load while contending for the shared SSDs.

The window is deliberately small (``PENDING_PER_WORKER``): queueing
belongs in the admission queue where it is bounded and shed-visible, not
in front of the GPUs where it would hide overload from the admission
policy.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Generator, List, Optional

from repro.serve.request import RequestState
from repro.sim.engine import Event, Process, Simulator
from repro.telemetry.metrics import Counter, Gauge

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (batcher -> here)
    from repro.serve.batcher import Batch

#: Batches allowed to wait per worker beyond the ones running.
PENDING_PER_WORKER = 2


class Dispatcher:
    """Bounded dispatch window + per-worker launch loops."""

    def __init__(
        self,
        sim: Simulator,
        num_workers: int,
        events: Counter,
        pending_gauge: Optional[Gauge] = None,
    ):
        if num_workers < 1:
            raise ValueError("need at least one dispatch worker")
        self.sim = sim
        self.num_workers = num_workers
        self.events = events
        self.pending_gauge = pending_gauge
        self._pending: Deque["Batch"] = deque()
        self._closed = False
        self._batch_waiters: List[Event] = []
        self._space_waiters: List[Event] = []
        self._procs: List[Process] = []

    # -- producer side (the batcher) ---------------------------------------

    def submit(self, batch: "Batch") -> Generator[Any, Any, None]:
        """Blocking hand-off; waits while the dispatch window is full."""
        while len(self._pending) >= PENDING_PER_WORKER * self.num_workers:
            ev = self.sim.event("serve.dispatch.space")
            self._space_waiters.append(ev)
            yield ev
        self._pending.append(batch)
        if self.pending_gauge is not None:
            self.pending_gauge.set(len(self._pending))
        self.events.add("batches_submitted")
        self._wake(self._batch_waiters)

    def close(self) -> None:
        """No more batches; workers exit once the window drains."""
        self._closed = True
        self._wake(self._batch_waiters)

    # -- worker side --------------------------------------------------------

    def spawn_workers(
        self, run_batch: Callable[[int, "Batch"], Generator[Any, Any, None]]
    ) -> List[Process]:
        """Start one worker per GPU; ``run_batch(worker, batch)`` serves
        one batch.  Only the workers hold it, so the hook (the engine's
        bound method) is dropped when they return, not kept in a cycle
        with the engine that owns this dispatcher."""
        self._procs = [
            self.sim.spawn(self._worker(w, run_batch), name=f"serve.worker{w}")
            for w in range(self.num_workers)
        ]
        return self._procs

    def _worker(
        self,
        worker_idx: int,
        run_batch: Callable[[int, "Batch"], Generator[Any, Any, None]],
    ) -> Generator[Any, Any, None]:
        while True:
            while not self._pending and not self._closed:
                ev = self.sim.event(f"serve.worker{worker_idx}.wait")
                self._batch_waiters.append(ev)
                yield ev
            if not self._pending:
                return
            batch = self._pending.popleft()
            if self.pending_gauge is not None:
                self.pending_gauge.set(len(self._pending))
            self._wake(self._space_waiters)
            now = self.sim.now
            for req in batch.requests:
                req.transition(RequestState.DISPATCHED, now)
            yield from run_batch(worker_idx, batch)
            self.events.add("batches_dispatched")
            self.events.add(f"worker{worker_idx}_batches")

    def _wake(self, waiters: List[Event]) -> None:
        while waiters:
            ev = waiters.pop()
            if not ev.triggered:
                ev.trigger()
