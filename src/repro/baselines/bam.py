"""BaM reimplementation (the paper's state-of-the-art comparator).

BaM runs on AGILE's own cache (:class:`~repro.core.cache.SoftwareCache`)
and enqueue path (:meth:`~repro.core.issue.IssueEngine.attempt_enqueue`);
this module keeps only BaM's structural differences, all taken from the
paper's analysis:

1. **Synchronous I/O** (§1, §2.3): a thread that misses the cache issues
   the NVMe read and *polls the completion queue inline* until its command
   finishes; communication time is hidden only by warp scheduling.
2. **Thread-held queue entries**: the issuing thread owns its SQE until it
   has itself observed the completion — safe in the synchronous model
   (every hold is finite) but the reason the model cannot simply be made
   asynchronous (Figure 1).
3. **Inline completion handling**: polling burns application-thread cycles
   and registers (the CQ bookkeeping lives in the application kernel),
   which is where BaM's higher per-thread register usage (Fig. 12) and
   I/O-API overhead (Fig. 11) come from.
4. **Fixed cache policy**: CLOCK only, with a heavier bucket-lock critical
   section than AGILE's lean protocol (Fig. 11 cache-API overhead).
5. **No warp-level coalescing** of same-page requests; deduplication
   happens only at the cache (BUSY-hit) level.

:data:`BAM_API`, :class:`BamCostConfig` and
:attr:`BamCache.CRITICAL_SECTION_ATOMICS` encode differences 3-4 in
cycles; differences 1-2 and 5 are structural and emerge from the control
flow below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

import numpy as np

from repro.config import ApiCostConfig, SystemConfig
from repro.core.cache import CacheLine, SoftwareCache
from repro.core.issue import IssueEngine
from repro.core.locks import AgileLock, AgileLockChain, LockDebugger
from repro.core.policies import ClockPolicy
from repro.gpu.thread import ThreadContext
from repro.mem.hbm import Hbm
from repro.nvme.command import NvmeCommand, NvmeCompletion, Opcode
from repro.nvme.device import SsdController
from repro.nvme.queue import QueuePair
from repro.sim.engine import Simulator, Timeout
from repro.telemetry import Counter

#: BaM's API fast paths: heavier than ``ApiCostConfig()`` because the cache
#: critical sections carry more bookkeeping and every issuing thread sets
#: up its own CQ-polling state.
BAM_API = ApiCostConfig(
    cache_lookup_cycles=160.0, cache_insert_cycles=150.0, issue_setup_cycles=75.0
)


@dataclass(frozen=True)
class BamCostConfig:
    """BaM's inline CQ-polling costs (no AGILE counterpart: AGILE's
    completions are retired by the service, not the issuing thread)."""

    #: Cycles burned per inline CQ-poll iteration.
    poll_check_cycles: float = 60.0
    #: Cycles per CQE drained by an application thread.
    per_cqe_drain_cycles: float = 10.0
    #: Initial polling interval while waiting for a completion (ns).
    poll_interval_ns: float = 400.0
    #: Exponential poll back-off cap (ns).
    max_poll_interval_ns: float = 4_000.0


class BamIoEngine(IssueEngine):
    """BaM's per-thread synchronous NVMe path: AGILE's enqueue and
    doorbell, but the issuing thread holds its SQE and polls the CQ
    itself until its own completion shows."""

    def __init__(
        self,
        sim: Simulator,
        ssds: List[SsdController],
        queue_pairs: List[List[QueuePair]],
        debugger: Optional[LockDebugger] = None,
        stats: Optional[Counter] = None,
    ):
        super().__init__(sim, ssds, queue_pairs, BAM_API, debugger, stats)
        self.costs = BamCostConfig()
        #: Per-CQ completion boards: (ssd, qid) -> {cid: completion}.
        self._boards: Dict[tuple[int, int], Dict[int, NvmeCompletion]] = {
            key: {} for key in self.doorbell_locks
        }
        self._board_locks: Dict[tuple[int, int], AgileLock] = {
            (si, qid): AgileLock(sim, f"bam.cq.s{si}.q{qid}", debugger)
            for si, qid in self.doorbell_locks
        }
        self._doorbelled: Dict[tuple[int, int], int] = dict.fromkeys(
            self._boards, 0
        )

    def sync_io(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        opcode: Opcode,
        lba: int,
        data: Optional[np.ndarray],
    ) -> Generator[Any, Any, NvmeCompletion]:
        """Issue one command and poll until its completion arrives.

        The calling thread owns the SQE for the whole round trip and runs
        the completion-drain logic itself — BaM's defining structure.
        """
        yield from tc.compute(self.api.issue_setup_cycles)
        qp, slot, cid = yield from self.attempt_enqueue(tc, ssd_idx)
        cmd = NvmeCommand(opcode=opcode, cid=cid, lba=lba, data=data)
        yield from self.publish_and_ring(tc, chain, ssd_idx, qp, slot, cmd)
        # -- inline polling: the thread drains the CQ until its CID shows ----
        completion = yield from self._poll_for(tc, chain, ssd_idx, qp, cid)
        qp.sq.release(slot)
        return completion

    def _poll_for(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        qp: QueuePair,
        cid: int,
    ) -> Generator[Any, Any, NvmeCompletion]:
        key = (ssd_idx, qp.qid)
        board = self._boards[key]
        board_lock = self._board_locks[key]
        interval = self.costs.poll_interval_ns
        while True:
            yield from tc.compute(self.costs.poll_check_cycles)
            mine = board.pop(cid, None)
            if mine is not None:
                return mine
            # Try to become the drainer for this CQ.
            if board_lock.try_acquire(chain):
                try:
                    drained = 0
                    while True:
                        completion = qp.cq.peek(qp.cq.host_head)
                        if completion is None:
                            break
                        qp.cq.consume_to(qp.cq.host_head + 1)
                        board[completion.cid] = completion
                        drained += 1
                    if drained:
                        yield from tc.compute(
                            self.costs.per_cqe_drain_cycles * drained
                        )
                        yield from tc.atomic()
                        self.stats.add("cqes_drained", drained)
                    lag = qp.cq.host_head - self._doorbelled[key]
                    if lag >= qp.cq.depth // 2 or (drained and lag >= 32):
                        self._doorbelled[key] = qp.cq.host_head
                        yield from qp.cq.doorbell.ring(qp.cq.host_head)
                finally:
                    board_lock.release(chain)
                mine = board.pop(cid, None)
                if mine is not None:
                    return mine
            self.stats.add("poll_iterations")
            yield Timeout(interval)
            interval = min(interval * 1.5, self.costs.max_poll_interval_ns)


class BamCache(SoftwareCache):
    """AGILE's cache with BaM's two differences: a heavier bucket critical
    section, and a synchronous fill the missing thread runs itself."""

    #: Tag, lock and refcount atomics in BaM's bucket critical section,
    #: all serialized per bucket (paper §3.3.2, §4.5).
    CRITICAL_SECTION_ATOMICS = 4

    def _start_fill(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        line: CacheLine,
        tag: tuple[int, int],
        writeback: Optional[tuple[int, int, np.ndarray]],
    ) -> Generator[Any, Any, None]:
        """The whole synchronous NVMe round trip, write-back first."""
        yield from tc.compute(self.api.cache_insert_cycles)
        if writeback is not None:
            wb_ssd, wb_lba, snapshot = writeback
            yield from self.issue.sync_io(
                tc, chain, wb_ssd, Opcode.WRITE, wb_lba, snapshot
            )
        yield from self.issue.sync_io(
            tc, chain, tag[0], Opcode.READ, tag[1], line.buffer
        )
        self._finish_fill(line, tag)


class BamCtrl:
    """User-facing BaM controller: synchronous page reads through the
    cache."""

    def __init__(
        self,
        sim: Simulator,
        cfg: SystemConfig,
        hbm: Hbm,
        ssds: List[SsdController],
        queue_pairs: List[List[QueuePair]],
        debugger: Optional[LockDebugger] = None,
        stats: Optional[Counter] = None,
    ):
        self.io = BamIoEngine(sim, ssds, queue_pairs, debugger, stats)
        self.cache = BamCache(
            sim, cfg.cache, hbm, ClockPolicy(), self.io, BAM_API,
            debugger=debugger, stats=self.io.stats,
        )

    def read_page(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        lba: int,
    ) -> Generator[Any, Any, CacheLine]:
        """Blocking page access; caller must ``ctrl.cache.unpin`` the line."""
        return self.cache.acquire(tc, chain, ssd_idx, lba)
