"""The lightweight AGILE service (paper §3.2): a background GPU kernel that
polls completion queues and releases shared resources on behalf of user
threads.

Algorithm 1 (warp-centric CQ polling) maps onto the simulator as follows:
each polling warp is one daemon process; it rotates round-robin over its
partition of the registered CQs; per visit it examines a 32-entry window
(offset + mask + phase bit).  The warp's 32 lanes check the window's CQEs
in parallel, so one visit costs a single ``poll_iteration_cycles`` charge on
the service SM regardless of how many of the 32 entries are valid — that
intra-CQ parallelism is exactly why few service warps keep up with many
application threads.

For every completion found the service:

1. releases the matching SQE via the CID -> slot mapping (Fig. 3, step 2),
   letting threads stuck on a full SQ proceed — the deadlock-elimination
   mechanism;
2. runs the transaction's completion action (cache-line READY, user-buffer
   ready, eviction bookkeeping);
3. clears the transaction barrier (Fig. 3, step 3).

The CQ head doorbell is rung whenever a full 32-entry window has been
consumed (Algorithm 1 lines 9-10), with a safety valve that also rings when
more than half the queue is pending release, so low-traffic phases cannot
stall the SSD.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.config import ServiceConfig
from repro.core.issue import IssueEngine
from repro.gpu.device import Gpu
from repro.nvme.queue import CompletionQueue
from repro.sim.engine import At, Process, Simulator, Timeout
from repro.sim.sync import Signal
from repro.telemetry import Counter

#: Lanes in a polling warp == CQEs examined per visit (Algorithm 1).
WINDOW = 32


class _Posted(Signal):
    """The ``on_post`` hook of one polling warp's CQs, which also counts
    their CQEs posted and not yet consumed: "every queue of the partition
    is empty" is one look, not a scan."""

    __slots__ = ("pending",)

    def __init__(self, sim: Simulator, cqs: List[CompletionQueue]):
        super().__init__(sim, "agile.service.cqe_posted")
        self.pending = sum(cq.device_tail - cq.host_head for cq in cqs)
        for cq in cqs:
            cq.on_post = self

    def fire(self) -> None:
        self.pending += 1
        super().fire()


class AgileService:
    """Manager for the polling-warp daemons."""

    def __init__(
        self,
        sim: Simulator,
        gpu: Gpu,
        issue: IssueEngine,
        cfg: ServiceConfig,
        stats: Optional[Counter] = None,
    ):
        self.sim = sim
        self.gpu = gpu
        self.issue = issue
        self.cfg = cfg
        self.stats = stats if stats is not None else Counter()
        #: (ssd_idx, CompletionQueue) in registration order.
        self.cqs: List[tuple[int, CompletionQueue]] = [
            (si, qp.cq)
            for si, qps in enumerate(issue.queue_pairs)
            for qp in qps
        ]
        #: Monotonic position up to which each CQ's head doorbell was rung.
        self._doorbelled = {id(cq): 0 for _, cq in self.cqs}
        self._procs: list[Process] = []
        #: One visit.  The service has the last SM to itself (the host
        #: reserves it) and never more warps than issue slots there (a
        #: cross-field rule of ``SystemConfig``), so its work is a plain delay.
        self._poll_ns = cfg.poll_iteration_cycles * gpu.cfg.cycle_ns
        #: CQ visits made by all polling warps, skipped idle ones included.
        self.visits = 0
        #: Optional :class:`repro.sim.probe.Probe` (per-command I/O).
        self.probe = None

    # -- lifecycle --------------------------------------------------------------

    @property
    def running(self) -> bool:
        return any(p.alive for p in self._procs)

    def start(self) -> None:
        """``host.startAgile()``: spawn the polling warps (and the recovery
        daemon, when one is attached to the issue engine)."""
        if self.running:
            return
        self._procs = [
            self.sim.spawn(
                self._polling_warp(w),
                name=f"agile.service.w{w}",
                daemon=True,
            )
            for w in range(self.cfg.polling_warps)
        ]
        if self.issue.recovery is not None:
            self.issue.recovery.start()

    def stop(self) -> None:
        """``host.stopAgile()``: terminate the polling warps."""
        for p in self._procs:
            p.kill()
        self._procs = []
        if self.issue.recovery is not None:
            self.issue.recovery.stop()

    def thread_cycles(self) -> float:
        """Cycles the polling warps have charged to the service SM."""
        done = self.stats.get("completions_processed")
        return self.visits * self.cfg.poll_iteration_cycles + 2.0 * done

    # -- Algorithm 1 -----------------------------------------------------------------

    def _partition(self, warp_idx: int) -> List[tuple[int, CompletionQueue]]:
        """CQs assigned to one polling warp (round-robin split)."""
        return self.cqs[warp_idx :: self.cfg.polling_warps]

    def visit_end(self, anchor: float, k: int, n_cqs: int) -> float:
        """The poll grid: after a sweep that found all ``n_cqs`` queues empty
        at ``anchor``, a warp repeats ``[idle_poll_ns, n_cqs visits]`` until a
        CQE lands; visit ``k`` (0-based) ends, and probes its queue, then."""
        backoff = (k // n_cqs + 1) * self.cfg.idle_poll_ns
        return anchor + backoff + (k + 1) * self._poll_ns

    def _park(
        self, n_cqs: int, posted: _Posted, pos: int
    ) -> Generator[Any, Any, int]:
        """Make the next visit that can find something, for two events: with
        every queue of the partition empty, block until a CQE is ``posted``
        to one of them, then resume exactly as the first visit to end at or
        after now.  The visits ahead are the rest of the current sweep
        (``n_cqs - pos`` of them, a poll apart), then the idle grid anchored
        where the sweep ends.  Returns how many visits were skipped."""
        sim = self.sim
        t = sim.now
        if not posted.pending:
            yield from posted.wait()
        skipped = 0
        while pos + skipped < n_cqs:
            t += self._poll_ns
            if t >= sim.now:
                yield At(t)
                return skipped
            skipped += 1
        # The first idle visit to end at or after now (a tie sees the CQE):
        # estimated by division, settled on the float grid itself.
        anchor = t
        period = self.cfg.idle_poll_ns + n_cqs * self._poll_ns
        sweeps = int((sim.now - anchor) / period)
        into = sim.now - anchor - sweeps * period - self.cfg.idle_poll_ns
        k = sweeps * n_cqs + min(max(int(into / self._poll_ns), 0), n_cqs - 1)
        while k > 0 and self.visit_end(anchor, k - 1, n_cqs) >= sim.now:
            k -= 1
        while self.visit_end(anchor, k, n_cqs) < sim.now:
            k += 1
        yield At(self.visit_end(anchor, k, n_cqs))
        return skipped + k

    def _polling_warp(self, warp_idx: int) -> Generator[Any, Any, None]:
        my_cqs = self._partition(warp_idx)
        if not my_cqs:
            return
        n_cqs = len(my_cqs)
        posted = _Posted(self.sim, [cq for _, cq in my_cqs])
        visit = Timeout(self._poll_ns)
        idx = 0  # round-robin cursor
        pos = 0  # empty visits so far in the current sweep
        while True:
            if posted.pending and pos < n_cqs:
                yield visit
            else:
                # Nothing to find, or an idle back-off is due: rejoin the
                # visits, cursor and sweep position where making each of
                # them would have them.
                skipped = yield from self._park(n_cqs, posted, pos)
                self.visits += skipped
                idx = (idx + skipped) % n_cqs
                pos += skipped
                if pos >= n_cqs:  # landed on the idle grid
                    pos = (pos - n_cqs) % n_cqs
            ssd_idx, cq = my_cqs[idx]
            idx = (idx + 1) % n_cqs
            pos += 1
            self.visits += 1
            # Empty-window fast path: with no visible completion the window
            # walk would do zero simulated work and never ring the doorbell
            # (host_head is unchanged since the last visit).
            if cq.peek(cq.host_head) is None:
                continue
            yield from self._poll_cq(ssd_idx, cq)
            pos = 0  # revisit queues promptly while traffic flows

    def _poll_cq(
        self, ssd_idx: int, cq: CompletionQueue
    ) -> Generator[Any, Any, None]:
        """Process the current 32-entry window of one CQ."""
        window_start = cq.host_head - (cq.host_head % WINDOW)
        window_end = window_start + WINDOW
        processed = 0
        pos = cq.host_head
        # All 32 lanes probe their CQE concurrently; the simulator walks the
        # same window sequentially but charges only the single warp-wide
        # iteration cost (already paid by the caller).
        recovery = self.issue.recovery
        while pos < window_end:
            completion = cq.peek(pos)
            if completion is None:
                break
            record = self.issue.complete(
                ssd_idx, completion.sq_id, completion.cid,
                token=completion.context,
            )
            if record is not None:
                if recovery is not None and recovery.on_completion(
                    record, completion
                ):
                    # Recovery took the command over (failed WRITE being
                    # abort-and-resubmitted): the transaction stays open
                    # until the retry — or a terminal ABORT — finishes it.
                    self.stats.add("retried_completions")
                    processed += 1
                    pos += 1
                    continue
                if not completion.ok:
                    self.stats.add("error_completions")
                record.txn.finish(completion)
                if self.probe is not None:
                    self.probe.emit(
                        "io.done", op=record.opcode.name.lower(), label=record.label,
                        t0=record.issued_at, ssd=record.ssd_idx, lba=record.lba,
                        cid=completion.cid, ok=completion.ok, retries=record.retries,
                    )
            else:
                # Stale: the late/duplicate CQE of an aborted or already
                # retired incarnation (recovery mode only) — consume it.
                self.stats.add("stale_completions")
            processed += 1
            pos += 1
        if processed:
            cq.consume_to(pos)
            cq.on_post.pending -= processed
            self.stats.add("completions_processed", processed)
            yield Timeout(2.0 * processed * self.gpu.cfg.cycle_ns)
        if pos == window_end or (
            cq.host_head - self._doorbelled[id(cq)] > cq.depth // 2
        ):
            # Window fully consumed (Algorithm 1 lines 9-10) or the safety
            # valve tripped: notify the SSD so it can reuse CQEs.
            if cq.host_head > self._doorbelled[id(cq)]:
                self._doorbelled[id(cq)] = cq.host_head
                yield from cq.doorbell.ring(cq.host_head)
                self.stats.add("cq_doorbell_rings")
