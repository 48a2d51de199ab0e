"""The strawman asynchronous design of the paper's Figure 1.

A thread that wants asynchrony without AGILE's service does the obvious
thing: reserve an SQ entry, issue the command, *keep holding the entry's
lock*, go do other work (or issue more commands), and only later poll the
CQ to retire its own commands and release its locks.

With more concurrently outstanding commands than SQ entries this deadlocks:
every thread blocks trying to reserve another entry while holding the
entries whose release depends on those same threads making progress.  The
AGILE lock-chain debugger (paper §3.5) detects the circular dependency and
raises :class:`~repro.core.locks.DeadlockError` instead of hanging.

Used by ``tests/core/test_deadlock.py`` and the deadlock example program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

import numpy as np

from repro.core.issue import ring_until_issued
from repro.core.locks import AgileLock, AgileLockChain, LockDebugger
from repro.gpu.thread import ThreadContext
from repro.nvme.command import SQE_SIZE, NvmeCommand, Opcode
from repro.nvme.queue import QueuePair
from repro.sim.engine import SimError, SimStallError, Simulator, Timeout


@dataclass
class NaiveToken:
    """Handle for one outstanding naive-async command."""

    qp: QueuePair
    slot: int
    cid: int
    lock: AgileLock
    completion: Any = None


class NaiveAsyncEngine:
    """Asynchronous issuing with thread-held SQE locks (Figure 1 lines 1-5)."""

    STALL_POLL_NS = 200.0

    def __init__(
        self,
        sim: Simulator,
        queue_pairs: List[QueuePair],
        debugger: Optional[LockDebugger] = None,
    ):
        self.sim = sim
        self.queue_pairs = queue_pairs
        #: One AgileLock per SQE — *held by the issuing thread* until that
        #: thread itself processes the completion.  This is the design flaw.
        self.slot_locks: Dict[tuple[int, int], AgileLock] = {
            (qp.qid, slot): AgileLock(
                sim, f"naive.sqe.q{qp.qid}.{slot}", debugger
            )
            for qp in queue_pairs
            for slot in range(qp.sq.depth)
        }
        self.doorbell_locks: Dict[int, AgileLock] = {
            qp.qid: AgileLock(sim, f"naive.sqdb.q{qp.qid}", debugger)
            for qp in queue_pairs
        }

    def async_issue(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        opcode: Opcode,
        lba: int,
        data: Optional[np.ndarray],
    ) -> Generator[Any, Any, NaiveToken]:
        """Figure 1, lines 1-3: lock an SQE, enqueue, ring; keep the lock."""
        qp = self.queue_pairs[tc.tid % len(self.queue_pairs)]
        # Line 2-3: wait for the next available SQ entry.  The blocking
        # acquire runs the deadlock check on every failed attempt.
        token: Optional[NaiveToken] = None
        while token is None:
            reservation = qp.sq.try_reserve()
            yield from tc.atomic()
            if reservation is not None:
                slot, cid = reservation
                lock = self.slot_locks[(qp.qid, slot)]
                # The reservation just succeeded, so the lock is free; the
                # thread takes it and will HOLD it across further issues.
                if not lock.try_acquire(chain):
                    raise SimError(
                        f"naive slot lock {lock.name} unexpectedly held"
                    )
                token = NaiveToken(qp=qp, slot=slot, cid=cid, lock=lock)
            else:
                # SQ full: block on the oldest slot's lock — exactly the
                # "spin at line 3" of Figure 1.  With the debugger enabled
                # the circular wait is reported here.
                oldest = qp.sq.alloc_tail % qp.sq.depth
                lock = self.slot_locks[(qp.qid, oldest)]
                yield from lock.acquire(chain)
                lock.release(chain)  # retry the reservation

        cmd = NvmeCommand(opcode=opcode, cid=token.cid, lba=lba, data=data)
        yield from tc.hbm_store(SQE_SIZE)
        qp.sq.publish(token.slot, cmd)
        db_lock = self.doorbell_locks[qp.qid]
        yield from ring_until_issued(qp.sq, token.slot, db_lock, chain)
        return token

    def wait_all(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        tokens: List[NaiveToken],
        stall_after_ns: Optional[float] = None,
    ) -> Generator[Any, Any, None]:
        """Figure 1, line 5+: poll the CQ for this thread's completions and
        release its SQE locks.

        The busy-poll loop makes scheduler-level watchdogs blind to a lost
        completion — the process steps forever, so the engine sees
        "progress".  ``stall_after_ns`` bounds that: once no completion has
        arrived for that long, a :class:`SimStallError` is raised whose
        report names every stalled CID and the SQE lock its chain still
        holds (the §3.5 lock-chain diagnosis of a dropped CQE)."""
        pending = {(t.qp.qid, t.cid): t for t in tokens}
        stalled_ns = 0.0
        while pending:
            progressed = False
            for qp in dict.fromkeys(t.qp for t in tokens):
                completion = qp.cq.peek(qp.cq.host_head)
                if completion is None:
                    continue
                qp.cq.consume_to(qp.cq.host_head + 1)
                yield from qp.cq.doorbell.ring(qp.cq.host_head)
                token = pending.pop((qp.qid, completion.cid), None)
                if token is not None:
                    token.completion = completion
                    qp.sq.release(token.slot)
                    token.lock.release(chain)
                    progressed = True
                # Completions belonging to other threads are dropped on the
                # floor here — another naive-design defect we keep faithful.
            if progressed:
                stalled_ns = 0.0
            else:
                if (
                    stall_after_ns is not None
                    and stalled_ns >= stall_after_ns
                ):
                    raise SimStallError(
                        self._stall_report(chain, pending, stalled_ns)
                    )
                yield Timeout(self.STALL_POLL_NS)
                stalled_ns += self.STALL_POLL_NS

    def _stall_report(
        self,
        chain: AgileLockChain,
        pending: Dict[tuple[int, int], NaiveToken],
        stalled_ns: float,
    ) -> str:
        """Name the stalled CID(s) and the locks the chain still holds."""
        lines = [
            f"naive-async wait stalled for {stalled_ns:.0f} ns: chain "
            f"{chain.name!r} saw no completion for {len(pending)} "
            f"outstanding command(s)",
        ]
        for (qid, cid), token in sorted(pending.items()):
            lines.append(
                f"  stalled CID {cid} on SQ{qid} (slot {token.slot}); "
                f"its completion never arrived and lock {token.lock.name} "
                f"is still held"
            )
        held = ", ".join(l.name for l in chain.held) or "none"
        lines.append(f"  locks held by {chain.name!r}: {held}")
        return "\n".join(lines)
