"""NVMe request issuing — the paper's Algorithm 2.

Per-SQE life cycle (EMPTY/UPDATED/ISSUED) lives in
:class:`repro.nvme.queue.SubmissionQueue`; this module adds the thread-side
protocol:

1. pick an SQ by thread index, falling over to the next SQ when full
   (``attempt_enqueue``);
2. if *every* SQ is full, back off until the AGILE service recycles SQEs —
   the thread waits on completions it does **not** own, which is exactly
   what makes the scheme deadlock-free (contrast Figure 1);
3. write the command, mark the SQE UPDATED;
4. ring the doorbell until the SQE is ISSUED (:func:`ring_until_issued`).

The returned :class:`~repro.core.buffers.Transaction` is the barrier the
AGILE service clears at completion time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

import numpy as np

from repro.config import ApiCostConfig
from repro.core.buffers import Transaction
from repro.core.locks import AgileLock, AgileLockChain, LockDebugger
from repro.gpu.thread import ThreadContext
from repro.nvme.command import SQE_SIZE, NvmeCommand, Opcode
from repro.nvme.device import SsdController
from repro.nvme.queue import QueuePair, SlotState, SubmissionQueue
from repro.sim.engine import SimError, Simulator, Timeout
from repro.telemetry import Counter


class AgileIoError(SimError):
    """An I/O request failed after the recovery policy was exhausted."""


class DeviceDeadError(AgileIoError):
    """The target device's circuit breaker is open; I/O fails fast."""


@dataclass
class PendingCommand:
    """Service-side record pairing a CID with its SQE and barrier.

    ``token`` is a per-submission generation number echoed through the
    command's ``context`` field: CIDs equal slot indices here, so after an
    abort-and-resubmit a late completion of the *old* incarnation could
    otherwise retire a reused slot's *new* command.  ``pos`` is the SQ's
    monotonic allocation position — the recovery daemon may only reclaim a
    slot the device has already fetched (``sq.fetch_head > pos``), or the
    fetch path would trip over a recycled entry.
    """

    txn: Transaction
    qp: QueuePair
    slot: int
    ssd_idx: int
    opcode: Opcode = Opcode.READ
    lba: int = 0
    data: Optional[np.ndarray] = None
    label: str = "io"
    #: Logical LBA this command serves, when the access was routed through
    #: a placement policy (None for physically-addressed submissions).
    logical_lba: Optional[int] = None
    token: int = 0
    pos: int = 0
    issued_at: float = 0.0
    #: Completion deadline (0.0 = no timeout tracking).
    deadline: float = 0.0
    retries: int = 0


#: Back-off between doorbell-lock attempts (ns).
DOORBELL_BACKOFF_NS = 60.0


def ring_until_issued(
    sq: SubmissionQueue,
    slot: int,
    db_lock: AgileLock,
    chain: AgileLockChain,
    stats: Optional[Counter] = None,
) -> Generator[Any, Any, float]:
    """``attempt_SQDB`` (§2.3.3): every ``DOORBELL_BACKOFF_NS`` the thread
    tries the SQ's doorbell lock; whoever wins batches every contiguous
    UPDATED entry into one tail move and one MMIO write, then all threads
    re-check whether their own SQE became ISSUED.  Visits that would find
    the same holder are sat out until the lock's release.  Returns the
    simulated ns spent backing off."""
    waited = 0.0
    while True:
        visits = 1
        if db_lock.try_acquire(chain):
            try:
                tail = sq.advance_tail()
                if tail is not None:
                    yield from sq.doorbell.ring(tail)
                    if stats is not None:
                        stats.add("doorbell_rings")
            finally:
                db_lock.release(chain)
        elif stats is not None:
            stats.add("doorbell_contended")
        if sq.state[slot] is SlotState.ISSUED:
            return waited
        if db_lock.locked:
            visits = yield from db_lock.released.park(DOORBELL_BACKOFF_NS)
            if stats is not None:
                stats.add("doorbell_contended", visits - 1)
        else:
            yield Timeout(DOORBELL_BACKOFF_NS)
        waited += visits * DOORBELL_BACKOFF_NS


class IssueEngine:
    """Shared issuing state: queue pairs, doorbell locks, transaction table."""

    #: Initial back-off when every SQ of an SSD is full (ns).
    FULL_BACKOFF_NS = 400.0
    #: Cap for the exponential full-queue back-off (ns).
    MAX_BACKOFF_NS = 12_000.0

    def __init__(
        self,
        sim: Simulator,
        ssds: List[SsdController],
        queue_pairs: List[List[QueuePair]],
        api: ApiCostConfig,
        debugger: Optional[LockDebugger] = None,
        stats: Optional[Counter] = None,
    ):
        if len(ssds) != len(queue_pairs):
            raise ValueError("one queue-pair list per SSD required")
        self.sim = sim
        self.ssds = ssds
        self.queue_pairs = queue_pairs
        self.api = api
        self.stats = stats if stats is not None else Counter()
        #: One lock per SQ doorbell (the serialization point of §2.3.3).
        self.doorbell_locks: Dict[tuple[int, int], AgileLock] = {
            (si, qp.qid): AgileLock(sim, f"sqdb.s{si}.q{qp.qid}", debugger)
            for si, qps in enumerate(queue_pairs)
            for qp in qps
        }
        #: (ssd_idx, qid, cid) -> in-flight command record.
        self.pending: Dict[tuple[int, int, int], PendingCommand] = {}
        self._txn_seq = 0
        #: Attached by :class:`repro.core.recovery.RecoveryManager`; while
        #: None, completion handling stays strict (unknown CID = protocol
        #: bug) and submissions carry no deadline.
        self.recovery = None
        #: Optional :class:`repro.sim.probe.Probe` (stall attribution).
        self.probe = None

    # -- public API ----------------------------------------------------------

    def submit(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        opcode: Opcode,
        lba: int,
        data: Optional[np.ndarray],
        label: str = "io",
        *,
        logical: Optional[int] = None,
    ) -> Generator[Any, Any, Transaction]:
        """Issue one NVMe command asynchronously; returns its transaction.

        Deadlock-free by construction: the calling thread never *holds* an
        SQE while blocking — a reserved SQE always progresses to ISSUED
        without waiting on other threads, and full queues are drained by
        the background service, not by this thread.
        """
        if not 0 <= ssd_idx < len(self.ssds):
            raise SimError(f"no SSD {ssd_idx} (have {len(self.ssds)})")
        if self.recovery is not None and self.recovery.device_dead(ssd_idx):
            self.stats.add("failed_fast")
            raise DeviceDeadError(self.recovery.dead_reason(ssd_idx))
        qps = self.queue_pairs[ssd_idx]
        yield from tc.compute(self.api.issue_setup_cycles)

        # -- attempt_enqueue: select an SQ with a free entry ---------------
        start = tc.tid % len(qps)
        attempt = 0
        backoff = self.FULL_BACKOFF_NS
        while True:
            qp = qps[(start + attempt) % len(qps)]
            yield from tc.atomic()  # the reservation CAS
            reservation = qp.sq.try_reserve()
            if reservation is not None:
                break
            attempt += 1
            self.stats.add("sq_full_retries")
            if attempt % len(qps) == 0:
                # All SQs full: wait (with exponential back-off) for the
                # service to recycle entries — the Fig. 9 single-QP stall.
                self.stats.add("sq_full_backoffs")
                if self.probe is not None:
                    self.probe.emit("gpu.stall", reason="sq_full", ns=backoff)
                yield Timeout(backoff)
                backoff = min(backoff * 2, self.MAX_BACKOFF_NS)
        slot, cid = reservation
        # Monotonic allocation position of this reservation (no yields have
        # run since try_reserve, so alloc_tail still reflects it).
        pos = qp.sq.alloc_tail - 1

        # -- build and publish the command ----------------------------------
        token = self.next_token()
        txn = Transaction(self.sim, label=f"{label}.{token}")
        self.pending[(ssd_idx, qp.qid, cid)] = PendingCommand(
            txn=txn, qp=qp, slot=slot, ssd_idx=ssd_idx,
            opcode=opcode, lba=lba, data=data, label=label,
            logical_lba=logical,
            token=token, pos=pos, issued_at=self.sim.now,
            deadline=(
                self.sim.now + self.recovery.cfg.command_timeout_ns
                if self.recovery is not None else 0.0
            ),
        )
        cmd = NvmeCommand(
            opcode=opcode, cid=cid, lba=lba, data=data, context=token
        )
        yield from tc.hbm_store(SQE_SIZE)
        qp.sq.publish(slot, cmd)
        self.stats.add("commands_submitted")
        self.stats.add(f"opcode_{opcode.name.lower()}")

        db_lock = self.doorbell_locks[(ssd_idx, qp.qid)]
        waited = yield from ring_until_issued(qp.sq, slot, db_lock, chain, self.stats)
        if waited and self.probe is not None:
            self.probe.emit("gpu.stall", reason="doorbell", ns=waited)
        return txn

    # -- service-side hooks --------------------------------------------------------

    def next_token(self) -> int:
        """Allocate the next per-submission generation token."""
        self._txn_seq += 1
        return self._txn_seq

    def complete(
        self, ssd_idx: int, qid: int, cid: int, token: Optional[int] = None
    ) -> Optional[PendingCommand]:
        """Look up and retire the pending record for a completion; releases
        the SQE so the slot can be reused (Fig. 3 step 2).

        ``token`` is the completion's echoed ``context``.  With recovery
        attached, a completion whose CID is unknown or whose token does not
        match the live record is *stale* — the late/duplicated CQE of an
        aborted or already-retired incarnation — and is ignored (returns
        None).  Without recovery the strict contract holds: an unknown CID
        is a protocol bug and raises.
        """
        key = (ssd_idx, qid, cid)
        record = self.pending.get(key)
        if record is None or (token is not None and record.token != token):
            if self.recovery is None and record is None:
                raise SimError(f"completion for unknown command {key}")
            self.stats.add("stale_completions")
            return None
        del self.pending[key]
        record.qp.sq.release(record.slot)
        return record

    def inflight(self) -> int:
        n = len(self.pending)
        if self.recovery is not None:
            n += self.recovery.resubmitting
        return n
