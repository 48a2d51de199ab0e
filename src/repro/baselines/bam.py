"""BaM reimplementation (the paper's state-of-the-art comparator).

Structural differences from AGILE, all taken from the paper's analysis:

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

The cost constants in :class:`BamCostConfig` encode difference 3-4 in
cycles; differences 1-2 and 5 are structural and emerge from the control
flow below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

import numpy as np

from repro.config import CacheConfig, SystemConfig
from repro.core.cache import CacheLine, LineState
from repro.core.issue import ring_until_issued
from repro.core.locks import AgileLock, AgileLockChain, LockDebugger
from repro.core.policies import ClockPolicy
from repro.gpu.thread import ThreadContext
from repro.mem.hbm import Hbm
from repro.nvme.command import SQE_SIZE, NvmeCommand, NvmeCompletion, Opcode
from repro.nvme.device import SsdController
from repro.nvme.queue import QueuePair
from repro.sim.engine import Event, SimError, Simulator, Timeout
from repro.telemetry import Counter


@dataclass(frozen=True)
class BamCostConfig:
    """Instruction-cost model for BaM's API fast paths (cycles).

    Heavier than AGILE's :class:`~repro.config.ApiCostConfig` because the
    cache critical sections carry more atomics/bookkeeping and every thread
    runs the CQ-polling state machine itself.
    """

    cache_lookup_cycles: float = 160.0
    cache_insert_cycles: float = 150.0
    issue_setup_cycles: float = 75.0
    #: Cycles burned per inline CQ-poll iteration.
    poll_check_cycles: float = 60.0
    #: Cycles per CQE drained by an application thread.
    per_cqe_drain_cycles: float = 10.0
    #: Extra tag/refcount atomics per cache access (beyond AGILE's one).
    extra_cache_atomics: int = 3
    #: Initial polling interval while waiting for a completion (ns).
    poll_interval_ns: float = 400.0
    #: Exponential poll back-off cap (ns).
    max_poll_interval_ns: float = 4_000.0


class BamIoEngine:
    """BaM's per-thread synchronous NVMe path over the shared queue pairs."""

    FULL_BACKOFF_NS = 400.0
    MAX_BACKOFF_NS = 12_000.0

    def __init__(
        self,
        sim: Simulator,
        ssds: List[SsdController],
        queue_pairs: List[List[QueuePair]],
        costs: BamCostConfig,
        debugger: Optional[LockDebugger] = None,
        stats: Optional[Counter] = None,
    ):
        self.sim = sim
        self.ssds = ssds
        self.queue_pairs = queue_pairs
        self.costs = costs
        self.stats = stats if stats is not None else Counter()
        self.doorbell_locks: Dict[tuple[int, int], AgileLock] = {
            (si, qp.qid): AgileLock(sim, f"bam.sqdb.s{si}.q{qp.qid}", debugger)
            for si, qps in enumerate(queue_pairs)
            for qp in qps
        }
        #: Per-CQ completion boards: (ssd, qid) -> {cid: completion}.
        self._boards: Dict[tuple[int, int], Dict[int, NvmeCompletion]] = {
            (si, qp.qid): {}
            for si, qps in enumerate(queue_pairs)
            for qp in qps
        }
        self._board_locks: Dict[tuple[int, int], AgileLock] = {
            (si, qp.qid): AgileLock(sim, f"bam.cq.s{si}.q{qp.qid}", debugger)
            for si, qps in enumerate(queue_pairs)
            for qp in qps
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
        qps = self.queue_pairs[ssd_idx]
        yield from tc.compute(self.costs.issue_setup_cycles)

        # -- reserve an SQE (held until we see our own completion) ----------
        start = tc.tid % len(qps)
        attempt = 0
        backoff = self.FULL_BACKOFF_NS
        while True:
            qp = qps[(start + attempt) % len(qps)]
            yield from tc.atomic()
            reservation = qp.sq.try_reserve()
            if reservation is not None:
                break
            attempt += 1
            self.stats.add("sq_full_retries")
            if attempt % len(qps) == 0:
                yield Timeout(backoff)
                backoff = min(backoff * 2, self.MAX_BACKOFF_NS)
        slot, cid = reservation

        cmd = NvmeCommand(opcode=opcode, cid=cid, lba=lba, data=data)
        yield from tc.hbm_store(SQE_SIZE)
        qp.sq.publish(slot, cmd)
        self.stats.add("commands_submitted")

        # -- doorbell (same serialization constraint as AGILE, §2.3.3) -------
        db_lock = self.doorbell_locks[(ssd_idx, qp.qid)]
        yield from ring_until_issued(qp.sq, slot, db_lock, chain)

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


class BamCache:
    """BaM's software cache: CLOCK policy, heavier critical sections,
    synchronous miss handling (the missing thread fetches and waits)."""

    NO_VICTIM_BACKOFF_NS = 500.0
    MAX_BACKOFF_NS = 16_000.0

    def __init__(
        self,
        sim: Simulator,
        cfg: CacheConfig,
        hbm: Hbm,
        io: BamIoEngine,
        costs: BamCostConfig,
        debugger: Optional[LockDebugger] = None,
        stats: Optional[Counter] = None,
    ):
        self.sim = sim
        self.io = io
        self.costs = costs
        self.line_size = line_size = cfg.line_size
        self.stats = stats if stats is not None else Counter()
        self.num_sets, self.ways = cfg.num_sets, cfg.set_ways
        self.policy = ClockPolicy()
        self.policy.attach(self.num_sets, self.ways)
        backing = hbm.alloc(
            self.num_sets * self.ways * line_size, align=4096, label="bamcache"
        )
        self.lines: list[CacheLine] = []
        for idx in range(self.num_sets * self.ways):
            view = backing.view[idx * line_size : (idx + 1) * line_size]
            line = CacheLine(
                index=idx, set_idx=idx // self.ways, way=idx % self.ways,
                buffer=view,
            )
            self.lines.append(line)
        self._tags: dict[tuple[int, int], CacheLine] = {}
        self._set_locks = [
            AgileLock(sim, f"bamset{i}", debugger) for i in range(self.num_sets)
        ]

    def set_of(self, ssd_idx: int, lba: int) -> int:
        return (lba * len(self.io.ssds) + ssd_idx) % self.num_sets

    def _set_lines(self, set_idx: int) -> list[CacheLine]:
        base = set_idx * self.ways
        return self.lines[base : base + self.ways]

    def preload(self, ssd_idx: int, lba: int, data: np.ndarray) -> None:
        tag = (ssd_idx, lba)
        set_idx = self.set_of(ssd_idx, lba)
        for line in self._set_lines(set_idx):
            if line.state is LineState.INVALID:
                raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
                line.buffer[: raw.size] = raw
                line.tag = tag
                line.state = LineState.READY
                self._tags[tag] = line
                self.policy.on_fill(set_idx, line.way)
                return
        raise SimError(f"BamCache preload: set {set_idx} full")

    def acquire_sync(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        lba: int,
    ) -> Generator[Any, Any, CacheLine]:
        """Blocking cache access; on a miss the calling thread performs the
        whole synchronous NVMe round trip before returning."""
        tag = (ssd_idx, lba)
        set_idx = self.set_of(ssd_idx, lba)
        lock = self._set_locks[set_idx]
        backoff = self.NO_VICTIM_BACKOFF_NS
        while True:
            yield from lock.acquire(chain)
            # BaM's bucket critical section: tag probe plus lock/refcount
            # bookkeeping, all serialized per bucket — the heavier section
            # AGILE's lean protocol avoids (paper §3.3.2, §4.5).
            yield from tc.compute(self.costs.cache_lookup_cycles)
            for _ in range(1 + self.costs.extra_cache_atomics):
                yield from tc.atomic()
            writeback: Optional[tuple[int, int, np.ndarray]] = None
            fill_owner = False
            try:
                line = self._tags.get(tag)
                if line is not None:
                    if line.valid:
                        self.stats.add("hits")
                        self.policy.on_hit(line.set_idx, line.way)
                        line.pins += 1
                        return line
                    self.stats.add("busy_hits")
                    line.pins += 1
                else:
                    line, writeback = self._claim_way(set_idx, tag)
                    if line is None:
                        self.stats.add("victim_stalls")
                        lock.release(chain)
                        yield Timeout(backoff)
                        backoff = min(backoff * 2, self.MAX_BACKOFF_NS)
                        continue
                    fill_owner = True
                    line.pins += 1
            finally:
                if lock.owner is chain:
                    lock.release(chain)
            if fill_owner:
                yield from tc.compute(self.costs.cache_insert_cycles)
                if writeback is not None:
                    wb_ssd, wb_lba, snapshot = writeback
                    yield from self.io.sync_io(
                        tc, chain, wb_ssd, Opcode.WRITE, wb_lba, snapshot
                    )
                yield from self.io.sync_io(
                    tc, chain, ssd_idx, Opcode.READ, lba, line.buffer
                )
                line.state = LineState.READY
                self.policy.on_fill(line.set_idx, line.way)
                line.ready_gate.trigger()
            elif not line.valid:
                yield from line.ready_gate.wait()
            return line

    def _claim_way(
        self, set_idx: int, tag: tuple[int, int]
    ) -> tuple[Optional[CacheLine], Optional[tuple[int, int, np.ndarray]]]:
        lines = self._set_lines(set_idx)
        victim: Optional[CacheLine] = None
        for candidate in lines:
            if candidate.state is LineState.INVALID:
                victim = candidate
                break
        writeback: Optional[tuple[int, int, np.ndarray]] = None
        if victim is None:
            evictable = [l.way for l in lines if l.evictable]
            way = (
                self.policy.select_victim(set_idx, evictable)
                if evictable
                else None
            )
            if way is None:
                return None, None
            victim = lines[way]
            self.stats.add("evictions")
            if victim.tag is not None:
                del self._tags[victim.tag]
                if victim.state is LineState.MODIFIED:
                    writeback = (
                        victim.tag[0],
                        victim.tag[1],
                        np.array(victim.buffer, copy=True),
                    )
                    self.stats.add("writebacks")
        victim.tag = tag
        victim.state = LineState.BUSY
        victim.ready_gate = Event(self.sim, name=f"bamline{victim.index}.ready")
        victim.pins = 0
        self._tags[tag] = victim
        self.stats.add("misses")
        return victim, writeback

    def unpin(self, line: CacheLine) -> None:
        if line.pins <= 0:
            raise SimError("BamCache: unpin below zero")
        line.pins -= 1


class BamCtrl:
    """User-facing BaM controller: synchronous reads/writes through the
    cache, plus an element-level array view mirroring AGILE's for fair
    like-for-like kernels."""

    def __init__(
        self,
        sim: Simulator,
        cfg: SystemConfig,
        hbm: Hbm,
        ssds: List[SsdController],
        queue_pairs: List[List[QueuePair]],
        costs: Optional[BamCostConfig] = None,
        debugger: Optional[LockDebugger] = None,
        stats: Optional[Counter] = None,
    ):
        self.sim = sim
        self.cfg = cfg
        self.costs = costs if costs is not None else BamCostConfig()
        self.stats = stats if stats is not None else Counter()
        self.io = BamIoEngine(
            sim, ssds, queue_pairs, self.costs, debugger, self.stats
        )
        self.cache = BamCache(
            sim, cfg.cache, hbm, self.io, self.costs, debugger, self.stats
        )

    def read_page(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        lba: int,
    ) -> Generator[Any, Any, CacheLine]:
        """Blocking page access; caller must ``ctrl.cache.unpin`` the line."""
        line = yield from self.cache.acquire_sync(tc, chain, ssd_idx, lba)
        return line
