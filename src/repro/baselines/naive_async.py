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

The queue-pair table, doorbell locks and publish-and-ring are AGILE's
(:class:`~repro.core.issue.IssueEngine`); only the Figure 1 defects are
the strawman's: a thread holds its SQE's lock until its own poll retires
it, blocks on the oldest slot's lock when the SQ is full, and its CQ poll
drops siblings' completions.

Used by the naive serve backend, ``tests/core/test_deadlock.py`` and the
deadlock example program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

import numpy as np

from repro.core.issue import IssueEngine
from repro.core.locks import AgileLock, AgileLockChain
from repro.core.machine import Machine
from repro.gpu.thread import ThreadContext
from repro.nvme.command import NvmeCommand, Opcode
from repro.nvme.queue import QueuePair
from repro.sim.engine import SimError, SimStallError, Timeout


@dataclass
class NaiveToken:
    """Handle for one outstanding naive-async command."""

    ssd: int
    qp: QueuePair
    slot: int
    cid: int
    lock: AgileLock
    completion: Any = None


class NaiveAsyncEngine(IssueEngine):
    """Asynchronous issuing with thread-held SQE locks (Figure 1 lines 1-5)."""

    STALL_POLL_NS = 200.0

    def __init__(self, host: Machine):
        """Beside ``host``'s GPU-0 engine: its SSDs, queue pairs, costs,
        lock debugger, ``io`` group and probe."""
        sim, own = host.sim, host.nodes[0].issue
        super().__init__(
            sim, own.ssds, own.queue_pairs, own.api, host.debugger, own.stats
        )
        self.probe = host.probe
        #: One AgileLock per SQE — *held by the issuing thread* until that
        #: thread itself processes the completion.  This is the design flaw.
        self.slot_locks: Dict[tuple[int, int, int], AgileLock] = {
            (si, qp.qid, slot): AgileLock(
                sim, f"naive.sqe.s{si}.q{qp.qid}.{slot}", host.debugger
            )
            for si, qps in enumerate(own.queue_pairs)
            for qp in qps
            for slot in range(qp.sq.depth)
        }

    def async_issue(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        opcode: Opcode,
        lba: int,
        data: Optional[np.ndarray],
    ) -> Generator[Any, Any, NaiveToken]:
        """Figure 1, lines 1-3: lock an SQE, enqueue, ring; keep the lock."""
        qps = self.queue_pairs[ssd_idx]
        qp = qps[tc.tid % len(qps)]
        # Line 2-3: wait for the next available SQ entry.  The blocking
        # acquire runs the deadlock check on every failed attempt.
        token: Optional[NaiveToken] = None
        while token is None:
            reservation = qp.sq.try_reserve()
            yield from tc.atomic()
            if reservation is not None:
                slot, cid = reservation
                lock = self.slot_locks[(ssd_idx, qp.qid, slot)]
                # The reservation just succeeded, so the lock is free; the
                # thread takes it and will HOLD it across further issues.
                if not lock.try_acquire(chain):
                    raise SimError(
                        f"naive slot lock {lock.name} unexpectedly held"
                    )
                token = NaiveToken(ssd_idx, qp, slot, cid, lock)
            else:
                # SQ full: block on the oldest slot's lock — exactly the
                # "spin at line 3" of Figure 1.  With the debugger enabled
                # the circular wait is reported here.
                oldest = qp.sq.alloc_tail % qp.sq.depth
                lock = self.slot_locks[(ssd_idx, qp.qid, oldest)]
                yield from lock.acquire(chain)
                lock.release(chain)  # retry the reservation

        cmd = NvmeCommand(opcode=opcode, cid=token.cid, lba=lba, data=data)
        yield from self.publish_and_ring(tc, chain, ssd_idx, qp, token.slot, cmd)
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
        pending = {(t.ssd, t.qp.qid, t.cid): t for t in tokens}
        stalled_ns = 0.0
        while pending:
            progressed = False
            for ssd, qp in dict.fromkeys((t.ssd, t.qp) for t in tokens):
                completion = qp.cq.peek(qp.cq.host_head)
                if completion is None:
                    continue
                qp.cq.consume_to(qp.cq.host_head + 1)
                yield from qp.cq.doorbell.ring(qp.cq.host_head)
                token = pending.pop((ssd, qp.qid, completion.cid), None)
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
        pending: Dict[tuple[int, int, int], NaiveToken],
        stalled_ns: float,
    ) -> str:
        """Name the stalled CID(s) and the locks the chain still holds."""
        lines = [
            f"naive-async wait stalled for {stalled_ns:.0f} ns: chain "
            f"{chain.name!r} saw no completion for {len(pending)} "
            f"outstanding command(s)",
        ]
        for (ssd, qid, cid), token in sorted(pending.items()):
            lines.append(
                f"  stalled CID {cid} on SSD {ssd} SQ{qid} (slot "
                f"{token.slot}); its completion never arrived and lock "
                f"{token.lock.name} is still held"
            )
        held = ", ".join(l.name for l in chain.held) or "none"
        lines.append(f"  locks held by {chain.name!r}: {held}")
        return "\n".join(lines)
