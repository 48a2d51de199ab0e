"""The AGILE software cache (paper §3.4).

Set-associative cache over GPU HBM, line size = SSD page size.  Line states
and the four access cases follow §3.4 exactly:

(a) hit, data valid (READY/MODIFIED)  -> use it;
(b) miss, free way (INVALID)          -> claim, issue NVMe read, BUSY;
(c) hit, data invalid (BUSY)          -> someone is already fetching; wait
                                          on the line's ready gate (this is
                                          also the second-level coalescing
                                          of §3.3.2);
(d) miss, eviction required           -> READY victims are reset, MODIFIED
                                          victims are written back, BUSY
                                          lines cannot be evicted and the
                                          policy decides wait-or-elsewhere.

Pinned lines (threads mid-access, §2.3.2) are never eviction candidates —
with the crucial difference from lock-holding designs that a pin is only
held across a bounded data copy, never across an NVMe wait, so pins cannot
form dependency cycles.

The optional host-DRAM victim tier implements the first §5 extension.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Generator, Optional

import numpy as np

from repro.config import ApiCostConfig, CacheConfig
from repro.core.issue import AgileIoError, IssueEngine
from repro.core.locks import AgileLock, AgileLockChain, LockDebugger
from repro.core.policies import CachePolicy
from repro.gpu.thread import ThreadContext
from repro.mem.hbm import Hbm
from repro.nvme.command import NvmeCompletion, Opcode
from repro.sim.engine import Event, SimError, Simulator, Timeout
from repro.telemetry import Counter


class LineState(enum.Enum):
    INVALID = "invalid"
    BUSY = "busy"
    READY = "ready"
    MODIFIED = "modified"


@dataclass
class CacheLine:
    """Metadata for one software cache line."""

    index: int
    set_idx: int
    way: int
    buffer: np.ndarray
    state: LineState = LineState.INVALID
    #: Cache key: the physical ``(ssd_idx, lba)`` the line fills from and
    #: writes back to (logical accesses resolve through placement first).
    tag: Optional[tuple[int, int]] = None
    pins: int = 0
    ready_gate: Optional[Event] = None
    #: Precomputed gate name: a fresh Event is built on every claim (stale
    #: waiters must keep seeing the old, opened gate), so the name string
    #: is hoisted out of the per-miss path.
    gate_name: str = field(default="", repr=False)

    @property
    def valid(self) -> bool:
        return self.state in (LineState.READY, LineState.MODIFIED)

    @property
    def evictable(self) -> bool:
        return self.valid and self.pins == 0


class DramTier:
    """Host-DRAM victim cache for evicted lines (§5 extension 1).

    Clean evicted lines are stashed in host memory; a subsequent miss
    checks here before paying the flash latency.  Exact LRU, capacity in
    lines.
    """

    def __init__(self, capacity_lines: int):
        self.capacity = capacity_lines
        self._store: dict[tuple[int, int], np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def put(self, tag: tuple[int, int], data: np.ndarray) -> None:
        if self.capacity <= 0:
            return
        self._store.pop(tag, None)
        self._store[tag] = np.array(data, copy=True)
        while len(self._store) > self.capacity:
            self._store.pop(next(iter(self._store)))

    def get(self, tag: tuple[int, int]) -> Optional[np.ndarray]:
        data = self._store.pop(tag, None)
        if data is None:
            self.misses += 1
            return None
        self._store[tag] = data  # refresh recency
        self.hits += 1
        return data

    def __len__(self) -> int:
        return len(self._store)


class SoftwareCache:
    """The HBM software cache controller."""

    #: Initial back-off while a set has no evictable way (ns).
    NO_VICTIM_BACKOFF_NS = 500.0
    #: Cap for the exponential victim-stall back-off (ns).
    MAX_BACKOFF_NS = 16_000.0
    #: Failed-fill re-attempts per access before raising ``AgileIoError``.
    FILL_FAILURE_LIMIT = 4

    def __init__(
        self,
        sim: Simulator,
        cfg: CacheConfig,
        hbm: Hbm,
        policy: CachePolicy,
        issue: IssueEngine,
        api: ApiCostConfig,
        dram_tier: Optional[DramTier] = None,
        debugger: Optional[LockDebugger] = None,
        stats: Optional[Counter] = None,
    ):
        self.sim = sim
        self.cfg = cfg
        self.policy = policy
        self.issue = issue
        self.api = api
        self.stats = stats if stats is not None else Counter()
        self.dram_tier = dram_tier
        self.num_sets, self.ways = cfg.num_sets, cfg.set_ways
        policy.attach(self.num_sets, self.ways)
        backing = hbm.alloc(
            self.num_sets * self.ways * cfg.line_size, align=4096, label="swcache"
        )
        self.lines: list[CacheLine] = []
        for idx in range(self.num_sets * self.ways):
            view = backing.view[idx * cfg.line_size : (idx + 1) * cfg.line_size]
            line = CacheLine(
                index=idx,
                set_idx=idx // self.ways,
                way=idx % self.ways,
                buffer=view,
                gate_name=f"line{idx}.ready",
            )
            self.lines.append(line)
        self._tags: dict[tuple[int, int], CacheLine] = {}
        self._set_locks = [
            AgileLock(sim, f"cacheset{i}", debugger) for i in range(self.num_sets)
        ]
        #: Optional :class:`repro.sim.probe.Probe` (lines, fills, stalls).
        self.probe = None

    # -- state transitions ---------------------------------------------------------

    def set_line_state(
        self, line: CacheLine, new: LineState, reason: str = ""
    ) -> None:
        """Single funnel for every line-state change, so an attached event
        log sees each transition (the cache state-machine checker validates
        them against the paper-legal set)."""
        old = line.state
        line.state = new
        if self.probe is not None and old is not new:
            self.probe.emit(
                "cache.state", src=self, line=line.index, set=line.set_idx,
                way=line.way, old=old, new=new, tag=line.tag, reason=reason,
            )

    # -- geometry ------------------------------------------------------------------

    def set_of(self, ssd_idx: int, lba: int) -> int:
        # Simple interleaved mapping; ssd_idx folded in so striped data does
        # not alias into the same sets.
        return (lba * len(self.issue.ssds) + ssd_idx) % self.num_sets

    def _set_lines(self, set_idx: int) -> list[CacheLine]:
        base = set_idx * self.ways
        return self.lines[base : base + self.ways]

    def lookup(self, ssd_idx: int, lba: int) -> Optional[CacheLine]:
        """Tag probe without timing (for tests and preloading)."""
        return self._tags.get((ssd_idx, lba))

    # -- main entry point ---------------------------------------------------------

    def acquire(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        lba: int,
        *,
        pin: bool = True,
        wait: bool = True,
        for_write: bool = False,
    ) -> Generator[Any, Any, Optional[CacheLine]]:
        """Route one SSD-page access through the cache (§3.4 cases a-d).

        Returns the line (pinned if ``pin``) or, when ``wait=False`` and the
        data is not yet resident, the BUSY line being filled (unpinned).
        Callers release pins with :meth:`unpin` after copying data out.
        """
        tag = (ssd_idx, lba)
        set_idx = self.set_of(ssd_idx, lba)
        lock = self._set_locks[set_idx]
        backoff = self.NO_VICTIM_BACKOFF_NS
        fill_failures = 0
        while True:
            yield from lock.acquire(chain)
            # The tag probe and line-state atomic form the critical section
            # (§2.3.3): concurrent accesses to the same set serialize here.
            # AGILE's section is short — the design point Fig. 11 measures.
            yield from tc.compute(self.api.cache_lookup_cycles)
            yield from tc.atomic()  # tag-check / line-lock atomic
            is_fill_owner = False
            writeback: Optional[tuple[int, int, np.ndarray]] = None
            try:
                line = self._tags.get(tag)
                if line is not None:
                    if line.valid:  # case (a)
                        self.stats.add("hits")
                        self.policy.on_hit(line.set_idx, line.way)
                        if pin:
                            line.pins += 1
                        if for_write:
                            self.set_line_state(
                                line, LineState.MODIFIED, reason="hit_write"
                            )
                        return line
                    # case (c): BUSY — another thread's fill is in flight.
                    self.stats.add("busy_hits")
                    if not wait:
                        return line
                    if pin:
                        line.pins += 1  # block eviction across our wait
                else:
                    # case (b)/(d): miss — claim a way (metadata only; all
                    # I/O is issued after the set lock is dropped, so the
                    # critical section never spans an NVMe wait).
                    line, writeback = self._claim_way(set_idx, tag)
                    if line is None:
                        # Exponential back-off: under heavy pin pressure
                        # (many threads, tiny cache — the paper's Fig. 10
                        # small-cache regime) retries would otherwise storm.
                        self.stats.add("victim_stalls")
                        lock.release(chain)
                        if self.probe is not None:
                            self.probe.emit(
                                "gpu.stall", reason="victim_wait", ns=backoff,
                            )
                        yield Timeout(backoff)
                        backoff = min(backoff * 2, self.MAX_BACKOFF_NS)
                        continue
                    is_fill_owner = True
                    if pin:
                        line.pins += 1
            finally:
                if lock.owner is chain:
                    lock.release(chain)
            if is_fill_owner:
                try:
                    yield from self._start_fill(tc, chain, line, tag, writeback)
                except AgileIoError:
                    # The fill could not even be issued (dead device): free
                    # the claim so waiters retry or fail, then surface it.
                    self._abort_fill(line, tag)
                    raise
            if not line.valid:
                if not wait:
                    return line
                gate = line.ready_gate
                if self.probe is not None:
                    wait_t0 = self.sim.now
                    yield from gate.wait()
                    self.probe.emit(
                        "gpu.stall", reason="fill_wait", ns=self.sim.now - wait_t0,
                    )
                else:
                    yield from gate.wait()
                if not (line.valid and line.ready_gate is gate):
                    # The fill failed: ``_finish_fill`` recycled the line to
                    # INVALID and wiped every pin (ours included — do NOT
                    # unpin), or another thread has already re-claimed it
                    # (fresh gate).  Retry the whole access, bounded.
                    fill_failures += 1
                    self.stats.add("fill_failures_observed")
                    if fill_failures >= self.FILL_FAILURE_LIMIT:
                        raise AgileIoError(
                            f"cache fill of lba {lba} on ssd {ssd_idx} "
                            f"failed {fill_failures} times"
                        )
                    continue
            if for_write:
                self.set_line_state(line, LineState.MODIFIED, reason="fill_write")
            return line

    def _claim_way(
        self, set_idx: int, tag: tuple[int, int]
    ) -> tuple[Optional[CacheLine], Optional[tuple[int, int, np.ndarray]]]:
        """Metadata-only way claim (set lock held, no simulated time).

        Returns ``(line, writeback)`` where ``writeback`` is
        ``(ssd, lba, snapshot)`` for an evicted MODIFIED victim, or
        ``(None, None)`` when no way is currently evictable — §3.4 case (d)
        with a BUSY/pinned set: the policy's "wait" decision.
        """
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
                    # Snapshot for write-back; the line is reused at once.
                    writeback = (
                        *victim.tag, np.array(victim.buffer, copy=True)
                    )
                    self.stats.add("writebacks")
                elif self.dram_tier is not None:
                    self.dram_tier.put(
                        victim.tag, np.array(victim.buffer, copy=True)
                    )
        victim.tag = tag
        self.set_line_state(victim, LineState.BUSY, reason="claim")
        victim.ready_gate = Event(self.sim, name=victim.gate_name)
        victim.pins = 0
        self._tags[tag] = victim
        self.stats.add("misses")
        return victim, writeback

    def _start_fill(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        line: CacheLine,
        tag: tuple[int, int],
        writeback: Optional[tuple[int, int, np.ndarray]],
    ) -> Generator[Any, Any, None]:
        """Issue the eviction write-back (if any) and the fill for a freshly
        claimed BUSY line.  Runs outside the set lock."""
        probe = self.probe
        fill_t0 = self.sim.now if probe is not None else 0.0
        if self.policy.decision_cycles:
            yield from tc.compute(self.policy.decision_cycles)
        yield from tc.compute(self.api.cache_insert_cycles)
        if writeback is not None:
            wb_ssd, wb_lba, snapshot = writeback
            wb_txn = yield from self.issue.submit(
                tc, chain, wb_ssd, Opcode.WRITE, wb_lba, snapshot, label="evict"
            )
            wb_txn.on_complete = self._finish_writeback
        # DRAM-tier short-circuit (§5 extension): serve the fill from host
        # memory when possible, skipping flash entirely.
        if self.dram_tier is not None:
            cached = self.dram_tier.get(tag)
            if cached is not None:
                self.stats.add("dram_tier_hits")
                yield from tc.hbm_store(cached.size)
                line.buffer[:] = cached
                self._finish_fill(line, tag)
                if probe is not None:
                    probe.emit(
                        "cache.dram_fill", t0=fill_t0, ssd=tag[0], lba=tag[1],
                    )
                return

        txn = yield from self.issue.submit(
            tc, chain, tag[0], Opcode.READ, tag[1], line.buffer, label="fill"
        )
        # The service invokes on_complete(completion); the line/tag context
        # rides in the partial instead of a per-fill closure.
        if probe is None:
            txn.on_complete = partial(self._finish_fill, line, tag)
        else:

            def _traced_fill(completion=None):
                self._finish_fill(line, tag, completion)
                probe.emit(
                    "cache.fill", t0=fill_t0, ssd=tag[0], lba=tag[1],
                    ok=completion is None or completion.ok,
                )

            txn.on_complete = _traced_fill

    def _finish_fill(
        self,
        line: CacheLine,
        tag: tuple[int, int],
        completion: Optional[NvmeCompletion] = None,
    ) -> None:
        if line.tag != tag:
            # The line was re-purposed between issue and completion; the
            # stale fill is dropped (its data went to the old buffer view,
            # which the new owner will overwrite).
            self.stats.add("stale_fills")
            return
        if completion is not None and not completion.ok:
            self.stats.add("fill_errors")
            self._abort_fill(line, tag)
            return
        self.set_line_state(line, LineState.READY, reason="fill")
        self.policy.on_fill(line.set_idx, line.way)
        line.ready_gate.trigger()

    def _finish_writeback(
        self, completion: Optional[NvmeCompletion] = None
    ) -> None:
        """Eviction write-back completion: durable ack or declared loss.

        Transient program faults are abort-and-resubmitted by recovery
        before this runs, so a non-ok completion here is terminal (retries
        exhausted, breaker open, or a synthetic ABORT) — the dirty snapshot
        is gone and the loss is counted, never silent.
        """
        if completion is None or completion.ok:
            self.stats.add("writebacks_acked")
        else:
            self.stats.add("writebacks_lost")

    def _abort_fill(self, line: CacheLine, tag: tuple[int, int]) -> None:
        """Failed fill: release the claim so the line cannot stick in BUSY.

        The tag mapping is dropped, the pins are wiped (waiters detect the
        recycled line after their gate wait and must not unpin), and the
        BUSY -> INVALID transition is emitted with the ``fill_error`` reason
        the cache-state checker accepts only for this path.
        """
        if line.tag != tag:
            return
        self._tags.pop(tag, None)
        line.tag = None
        line.pins = 0
        self.set_line_state(line, LineState.INVALID, reason="fill_error")
        line.ready_gate.trigger()

    # -- pin management and direct data paths -----------------------------------

    def unpin(self, line: CacheLine) -> None:
        if line.pins <= 0:
            raise SimError(f"line {line.index} unpinned below zero")
        line.pins -= 1

    def read_line(
        self, tc: ThreadContext, line: CacheLine, nbytes: Optional[int] = None
    ) -> Generator[Any, Any, np.ndarray]:
        """Copy data out of a pinned, valid line (charges HBM time)."""
        if not line.valid:
            raise SimError(f"reading line {line.index} in state {line.state}")
        n = line.buffer.size if nbytes is None else nbytes
        if self.probe is not None:
            self.probe.emit(
                "cache.access", src=self, line=line.index, tag=line.tag, tid=tc.tid,
                rw="r", pinned=line.pins > 0,
            )
        yield from tc.hbm_load(n)
        return line.buffer[:n]

    def write_line(
        self, tc: ThreadContext, line: CacheLine, data: np.ndarray, offset: int = 0
    ) -> Generator[Any, Any, None]:
        """Copy data into a pinned line and mark it MODIFIED."""
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        if self.probe is not None:
            self.probe.emit(
                "cache.access", src=self, line=line.index, tag=line.tag, tid=tc.tid,
                rw="w", pinned=line.pins > 0,
            )
        yield from tc.hbm_store(raw.size)
        line.buffer[offset : offset + raw.size] = raw
        self.set_line_state(line, LineState.MODIFIED, reason="write_line")

    # -- host-side helpers ------------------------------------------------------------

    def preload(self, ssd_idx: int, lba: int, data: np.ndarray) -> None:
        """Instantly install a page (test/bench setup: the paper's step-3
        methodology preloads all graph data to isolate cache-API overhead)."""
        tag = (ssd_idx, lba)
        set_idx = self.set_of(ssd_idx, lba)
        for line in self._set_lines(set_idx):
            if line.state is LineState.INVALID:
                raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
                line.buffer[: raw.size] = raw
                line.tag = tag
                self.set_line_state(line, LineState.READY, reason="preload")
                self._tags[tag] = line
                self.policy.on_fill(set_idx, line.way)
                return
        raise SimError(
            f"preload: set {set_idx} full; enlarge the cache for preloading"
        )
