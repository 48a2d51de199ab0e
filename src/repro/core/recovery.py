"""Timeout tracking, bounded retry with exponential back-off, and per-device
circuit breaking for in-flight NVMe commands.

The fault injector (:mod:`repro.faults`) can lose completions, return NVMe
error statuses, and stall links; this module is the consumer-side answer.
A single daemon process scans the :class:`~repro.core.issue.IssueEngine`'s
pending table on a fixed period and drives each overdue command through the
recovery state machine::

    ISSUED --deadline passed, device fetched--> ABORTED-LOCALLY
        --retries left, breaker closed--> BACKOFF --> RESUBMITTED (new CID,
                                                      new generation token)
        --retries exhausted or breaker open--> FAILED (synthetic ABORTED
                                               completion finishes the txn)

Safety rules that keep the protocol models honest:

- a slot is only reclaimed once the device has *fetched* it
  (``sq.fetch_head > pos``); aborting an un-fetched SQE would let the slot
  be recycled under the controller's fetch pointer, so those commands get
  their deadline extended instead;
- a resubmission carries a fresh generation token, so the late completion
  of the aborted incarnation (if it was merely slow, not dropped) is
  recognized as stale by :meth:`IssueEngine.complete` and ignored;
- the transaction barrier is finished exactly once — either by a live
  completion or by the synthetic ABORTED completion, never both, because
  both paths retire the same pending-table entry.

The circuit breaker (one per device) counts *consecutive* failures —
timeouts and error-status completions — and opens at a threshold: pending
commands on that device fail fast with diagnostics at the next scan, and
new submissions raise :class:`~repro.core.issue.DeviceDeadError`
immediately instead of queueing behind a dead device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.config import RecoveryConfig
from repro.core.issue import IssueEngine, PendingCommand, ring_until_issued
from repro.core.locks import AgileLockChain
from repro.nvme.command import NvmeCommand, NvmeCompletion, Opcode, Status
from repro.sim.engine import Process, Simulator, Timeout
from repro.telemetry import Counter


@dataclass
class BreakerState:
    """Per-device circuit-breaker bookkeeping."""

    consecutive_failures: int = 0
    open: bool = False
    opened_at: float = 0.0
    reason: str = ""


class RecoveryManager:
    """Owns the per-CID deadline scan, retries, and circuit breakers."""

    def __init__(
        self,
        sim: Simulator,
        issue: IssueEngine,
        cfg: RecoveryConfig,
        stats: Optional[Counter] = None,
    ):
        self.sim = sim
        self.issue = issue
        self.cfg = cfg
        self.stats = stats if stats is not None else Counter()
        self.breakers = [BreakerState() for _ in issue.ssds]
        #: Commands popped from the pending table but not yet resubmitted
        #: (in back-off); counted by ``IssueEngine.inflight`` so drains and
        #: terminal-state checks cannot miss them.
        self.resubmitting = 0
        self._proc: Optional[Process] = None
        issue.recovery = self

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._proc is not None and self._proc.alive

    def start(self) -> None:
        if self.running:
            return
        self._proc = self.sim.spawn(
            self._scan_loop(), name="recovery.scan", daemon=True
        )

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.kill()
            self._proc = None

    # -- circuit breaker -----------------------------------------------------

    def device_dead(self, ssd_idx: int) -> bool:
        return self.breakers[ssd_idx].open

    def dead_reason(self, ssd_idx: int) -> str:
        br = self.breakers[ssd_idx]
        name = self.issue.ssds[ssd_idx].cfg.name
        return (
            f"{name}: circuit breaker open since t={br.opened_at:.0f} ns "
            f"after {br.consecutive_failures} consecutive failures "
            f"(last: {br.reason})"
        )

    def on_completion(
        self, record: PendingCommand, completion: NvmeCompletion
    ) -> bool:
        """Service-side hook: feed every live completion to the breaker.

        Returns ``True`` when recovery took the command over for retry —
        an error-status WRITE with retries left and a closed breaker.  The
        dirty snapshot still rides in ``record.data``, so the program is
        abort-and-resubmitted rather than surfaced: dirty cache lines are
        never silently dropped on a transient program fault.  The caller
        must then *not* finish the transaction; the record re-enters the
        pending table under a fresh generation token.
        """
        br = self.breakers[record.ssd_idx]
        if completion.ok:
            br.consecutive_failures = 0
            return False
        self.stats.add("error_completions")
        self._note_failure(record.ssd_idx, f"status {completion.status.name}")
        if (
            record.opcode is Opcode.WRITE
            and not br.open
            and record.retries < self.cfg.max_retries
        ):
            self.stats.add("write_retries")
            self.resubmitting += 1
            self.sim.spawn(
                self._resubmit(record),
                name=f"recovery.rewrite.{record.token}",
                daemon=True,
            )
            return True
        return False

    def _note_failure(self, ssd_idx: int, why: str) -> None:
        br = self.breakers[ssd_idx]
        br.consecutive_failures += 1
        br.reason = why
        if not br.open and br.consecutive_failures >= self.cfg.breaker_threshold:
            br.open = True
            br.opened_at = self.sim.now
            self.stats.add("breakers_opened")
            # Expedite every pending command on the dead device: the next
            # scan fails each one fast (once fetched) instead of letting it
            # ride out its full timeout.
            for (si, _qid, _cid), rec in self.issue.pending.items():
                if si == ssd_idx and rec.deadline > self.sim.now:
                    rec.deadline = self.sim.now

    # -- deadline scan -------------------------------------------------------

    def _scan_loop(self) -> Generator[Any, Any, None]:
        while True:
            yield Timeout(self.cfg.scan_interval_ns)
            self._scan()

    def _scan(self) -> None:
        now = self.sim.now
        overdue = [
            (key, rec)
            for key, rec in self.issue.pending.items()
            if 0.0 < rec.deadline <= now
        ]
        for key, rec in overdue:
            if rec.qp.sq.fetch_head <= rec.pos:
                # The controller has not fetched this SQE yet; reclaiming
                # the slot now would corrupt the fetch path.  Doorbell
                # delivery is reliable, so just re-check next scan.
                rec.deadline = now + self.cfg.scan_interval_ns
                self.stats.add("timeouts_deferred")
                continue
            del self.issue.pending[key]
            rec.qp.sq.release(rec.slot)
            br = self.breakers[rec.ssd_idx]
            if br.open:
                self._fail(rec)
                continue
            self.stats.add("timeouts")
            self._note_failure(rec.ssd_idx, f"timeout ({rec.label})")
            if br.open or rec.retries >= self.cfg.max_retries:
                self.stats.add("retries_exhausted")
                self._fail(rec)
            else:
                self.resubmitting += 1
                self.sim.spawn(
                    self._resubmit(rec),
                    name=f"recovery.retry.{rec.token}",
                    daemon=True,
                )

    def _fail(self, rec: PendingCommand) -> None:
        """Terminal failure: finish the transaction with a synthetic ABORTED
        completion so waiters observe a clean error, never a hang."""
        self.stats.add("commands_failed")
        rec.txn.finish(
            NvmeCompletion(
                cid=rec.slot,
                sq_id=rec.qp.qid,
                sq_head=rec.qp.sq.fetch_head,
                status=Status.ABORTED,
                context=rec.token,
            )
        )

    # -- abort-and-resubmit --------------------------------------------------

    def _resubmit(self, rec: PendingCommand) -> Generator[Any, Any, None]:
        try:
            backoff = self.cfg.retry_backoff_ns * (
                self.cfg.retry_backoff_mult ** rec.retries
            )
            rec.retries += 1
            yield Timeout(backoff)
            if self.device_dead(rec.ssd_idx):
                self._fail(rec)
                return
            qps = self.issue.queue_pairs[rec.ssd_idx]
            tried = 0
            full_backoff = IssueEngine.FULL_BACKOFF_NS
            while True:
                qp = qps[(rec.retries + tried) % len(qps)]
                reservation = qp.sq.try_reserve()
                if reservation is not None:
                    break
                tried += 1
                if tried % len(qps) == 0:
                    yield Timeout(full_backoff)
                    full_backoff = min(
                        full_backoff * 2, IssueEngine.MAX_BACKOFF_NS
                    )
                    if self.device_dead(rec.ssd_idx):
                        self._fail(rec)
                        return
            slot, cid = reservation
            rec.pos = qp.sq.alloc_tail - 1
            rec.qp = qp
            rec.slot = slot
            rec.token = self.issue.next_token()
            rec.deadline = self.sim.now + self.cfg.command_timeout_ns
            self.issue.pending[(rec.ssd_idx, qp.qid, cid)] = rec
            qp.sq.publish(
                slot,
                NvmeCommand(
                    opcode=rec.opcode, cid=cid, lba=rec.lba,
                    data=rec.data, context=rec.token,
                ),
            )
            self.stats.add("resubmissions")
            chain = AgileLockChain(f"recovery.{rec.token}")
            db_lock = self.issue.doorbell_locks[(rec.ssd_idx, qp.qid)]
            yield from ring_until_issued(qp.sq, slot, db_lock, chain)
        finally:
            self.resubmitting -= 1
