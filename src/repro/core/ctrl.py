"""``AgileCtrl`` — the device-side controller GPU threads talk to.

The three access methods of the paper's Listing 1:

1. ``prefetch(tc, ssd, lba, chain)`` — asynchronous fetch into the software
   cache; returns as soon as the NVMe command is issued.
2. ``async_read``/``async_write`` — asynchronous transfers between SSDs and
   user-specified buffers (``async_issue(src, dst)``), coherent through the
   Share Table; ``buf.wait()`` is the completion barrier.
3. ``get_array_wrap(dtype)`` — the array-like synchronous API.

``prefetch`` and the array API use two-level coalescing (warp, then cache);
``async_read`` deliberately skips warp-level coalescing — each thread gets
its own copy, as ``cp.async`` semantics dictate — and is deduplicated only
via the Share Table / software cache (§3.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

from repro.config import ApiCostConfig, SystemConfig
from repro.core.arraywrap import AgileArray
from repro.core.buffers import AgileBuf, Transaction
from repro.core.cache import CacheLine, LineState, SoftwareCache
from repro.core.issue import IssueEngine
from repro.core.locks import AgileLockChain
from repro.core.sharetable import ShareTable
from repro.gpu.thread import ThreadContext
from repro.placement import PlacementPolicy
from repro.gpu.warp import NOT_PARTICIPATING
from repro.nvme.command import Opcode
from repro.sim.engine import SimError, Simulator
from repro.telemetry import Counter


@dataclass
class SharedPin:
    """Leader-published handle for a warp-coalesced page read: the pinned
    line plus a countdown of group members still using it."""

    line: CacheLine
    remaining: int


class AgileCtrl:
    """The AGILE controller (``AGILE_CTRL`` in Listing 1)."""

    def __init__(
        self,
        sim: Simulator,
        cfg: SystemConfig,
        cache: SoftwareCache,
        issue: IssueEngine,
        share_table: Optional[ShareTable],
        stats: Optional[Counter] = None,
        placement: Optional["PlacementPolicy"] = None,
    ):
        self.sim = sim
        self.cfg = cfg
        self.cache = cache
        self.issue = issue
        self.share_table = share_table
        self.api: ApiCostConfig = cfg.api
        self.stats = stats if stats is not None else Counter()
        #: The host's placement policy; None on controllers built without
        #: one (the logical access methods then raise).
        self.placement = placement
        self._buf_seq = 0

    @property
    def line_size(self) -> int:
        return self.cache.cfg.line_size

    # ------------------------------------------------------------------
    # Method 1: prefetch
    # ------------------------------------------------------------------

    def prefetch(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        lba: int,
    ) -> Generator[Any, Any, None]:
        """Asynchronously pull a page into the software cache.

        Warp-coalesced: duplicate (ssd, lba) requests within the warp
        collapse into one cache access; the cache then filters duplicates
        across warps (a BUSY hit).  Returns once the fill is *issued* —
        never waits for data, never holds a lock.
        """
        self.stats.add("prefetch_calls")
        slot = yield from tc.coalesce(("prefetch", ssd_idx, lba))
        yield from tc.compute(self.api.warp_coalesce_cycles)
        if slot is None:
            return
        if slot.leader:
            yield from self.cache.acquire(
                tc, chain, ssd_idx, lba, pin=False, wait=False
            )
            self.stats.add("prefetch_issued")
            slot.publish(None)
        else:
            self.stats.add("prefetch_coalesced")
            yield slot.result

    def prefetch_pass(self, tc: ThreadContext) -> Generator[Any, Any, None]:
        """Participate in the warp's prefetch convergence without requesting
        anything — the predicated-off lane of a divergent prefetch."""
        yield from tc.coalesce(NOT_PARTICIPATING)

    # ------------------------------------------------------------------
    # Coalesced synchronous page reads (used by the array API)
    # ------------------------------------------------------------------

    def read_page_coalesced(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        lba: int,
    ) -> Generator[Any, Any, SharedPin]:
        """Warp-coalesced, cache-routed, blocking page access.

        Returns a :class:`SharedPin`; every group member must call
        :meth:`finish_coalesced_read` exactly once after copying its data
        out — the last one releases the pin.
        """
        slot = yield from tc.coalesce(("read", ssd_idx, lba))
        yield from tc.compute(self.api.warp_coalesce_cycles)
        if slot is None:
            raise SimError("read_page_coalesced called as non-participating")
        if slot.leader:
            line = yield from self.cache.acquire(
                tc, chain, ssd_idx, lba, pin=True, wait=True
            )
            shared = SharedPin(line=line, remaining=len(slot.group))
            slot.publish(shared)
            return shared
        self.stats.add("reads_coalesced")
        shared = yield slot.result
        return shared

    def finish_coalesced_read(self, tc: ThreadContext, shared: SharedPin) -> None:
        shared.remaining -= 1
        if shared.remaining == 0:
            self.cache.unpin(shared.line)
        elif shared.remaining < 0:
            raise SimError("finish_coalesced_read called too many times")

    def read_page(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        lba: int,
    ) -> Generator[Any, Any, CacheLine]:
        """Uncoalesced blocking page access (single-thread convenience);
        caller must ``cache.unpin`` the returned line."""
        line = yield from self.cache.acquire(
            tc, chain, ssd_idx, lba, pin=True, wait=True
        )
        return line

    # ------------------------------------------------------------------
    # Logical addressing (routed through the placement policy)
    # ------------------------------------------------------------------

    def resolve(
        self, lba: int, tenant: Optional[str] = None
    ) -> tuple[int, int]:
        """Resolve a logical LBA to its physical ``(ssd_idx, device_lba)``
        via the attached placement policy."""
        if self.placement is None:
            raise SimError(
                "no placement policy attached; build the host from a "
                "SystemConfig (or pass placement=) to use logical LBAs"
            )
        return self.placement.place(lba, tenant=tenant)

    def read_page_logical(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        lba: int,
        tenant: Optional[str] = None,
    ) -> Generator[Any, Any, CacheLine]:
        """Blocking logical page access: placement-resolved, cache-tagged by
        the logical LBA; caller must ``cache.unpin`` the returned line."""
        self.stats.add("logical_reads")
        route = self.resolve(lba, tenant)
        line = yield from self.cache.acquire_logical(
            tc, chain, lba, route, pin=True, wait=True
        )
        return line

    # ------------------------------------------------------------------
    # Method 2: async_issue to user-specified buffers
    # ------------------------------------------------------------------

    def make_buffer(self, view: np.ndarray, label: str = "") -> AgileBuf:
        """Register a user-provided HBM view as an ``AgileBufPtr``."""
        self._buf_seq += 1
        return AgileBuf(self.sim, view, label=label or f"buf{self._buf_seq}")

    def async_read(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        lba: int,
        buf: AgileBuf,
    ) -> Generator[Any, Any, AgileBuf]:
        """``asyncRead``: fetch a page into a user buffer without holding
        any cache lock.  Returns the buffer actually carrying the data —
        possibly another thread's, when the Share Table finds an existing
        owner.  Call ``buf.wait()`` before reading (Listing 1 line 14).
        """
        self.stats.add("async_reads")
        tag = (ssd_idx, lba)
        if self.share_table is not None:
            existing = yield from self.share_table.lookup(tc, tag)
            if existing is not None:
                self.stats.add("async_read_shared")
                return existing
        # Consult the software cache (all SSD accesses route through it for
        # coherency, §3.4); a valid line is copied HBM->HBM, no NVMe I/O.
        yield from tc.compute(self.api.cache_lookup_cycles)
        yield from tc.atomic()
        line = self.cache.lookup(ssd_idx, lba)
        if line is not None and line.valid:
            line.pins += 1
            self.cache.policy.on_hit(line.set_idx, line.way)
            self.cache.stats.add("hits")
            n = min(buf.size, line.buffer.size)
            yield from tc.hbm_load(n)
            yield from tc.hbm_store(n)
            buf.view[:n] = line.buffer[:n]
            self.cache.unpin(line)
            buf.source = tag
            buf.finish_fill()
            if self.share_table is not None:
                entry, won = self.share_table.register(tc, tag, buf)
                if not won:
                    buf.source = None
                    return entry.buf
            self.stats.add("async_read_cache_hits")
            return buf
        # Miss everywhere: register ownership *before* issuing so concurrent
        # requesters join this fetch instead of duplicating it, then issue
        # SSD -> buffer directly.
        buf.begin_fill(tag)
        if self.share_table is not None:
            entry, won = self.share_table.register(tc, tag, buf)
            if not won:
                buf.source = None
                buf.finish_fill()  # our buffer carries nothing
                self.stats.add("async_read_shared")
                return entry.buf
        txn = yield from self.issue.submit(
            tc, chain, ssd_idx, Opcode.READ, lba,
            buf.view[: self.line_size], label="aread",
        )
        txn.on_complete = lambda c, b=buf, t=tag: self._finish_async_read(b, t, c)
        return buf

    def _finish_async_read(self, buf: AgileBuf, tag, completion) -> None:
        """Completion action for a Share-Table-owned buffer fill: on error,
        retire the table entry (sharers are notified through the shared
        buffer's failure flag) and mark the buffer failed."""
        if completion is not None and not completion.ok:
            self.stats.add("async_read_failures")
            if self.share_table is not None:
                self.share_table.on_fill_failed(tag, buf)
            buf.source = None
            buf.fail_fill()
            return
        buf.finish_fill()

    def async_write(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        lba: int,
        buf: AgileBuf,
    ) -> Generator[Any, Any, Transaction]:
        """``asyncWrite``: write-through from a user buffer.

        Updates the resident software-cache line (if any) so later readers
        see the new data, snapshots the buffer, and issues the NVMe write —
        the buffer is reusable immediately (paper §3.5)."""
        self.stats.add("async_writes")
        tag = (ssd_idx, lba)
        yield from tc.compute(self.api.cache_lookup_cycles)
        yield from tc.atomic()
        line = self.cache.lookup(ssd_idx, lba)
        n = min(buf.size, self.line_size)
        if line is not None and line.valid:
            line.pins += 1
            yield from tc.hbm_load(n)
            yield from tc.hbm_store(n)
            line.buffer[:n] = buf.view[:n]
            # Write-through: flash will match the line once the command
            # lands, so the line stays clean.
            line.state = LineState.READY
            self.cache.unpin(line)
            self.stats.add("async_write_cache_updates")
        snapshot = np.array(buf.view[: self.line_size], copy=True)
        txn = yield from self.issue.submit(
            tc, chain, ssd_idx, Opcode.WRITE, lba, snapshot, label="awrite"
        )
        buf.source = tag
        return txn

    def release_buffer(
        self, tc: ThreadContext, chain: AgileLockChain, buf: AgileBuf
    ) -> Generator[Any, Any, None]:
        """Drop this thread's Share-Table reference to ``buf``."""
        if self.share_table is not None and buf.source is not None:
            entry = self.share_table.entry(buf.source)
            if entry is not None and entry.buf is buf:
                yield from self.share_table.release(tc, buf.source)

    # ------------------------------------------------------------------
    # Method 3: array-like synchronous API
    # ------------------------------------------------------------------

    def get_array_wrap(
        self, dtype: np.dtype | str, base_lba: int = 0
    ) -> AgileArray:
        """``ctrl->getArrayWrap<T>()`` equivalent."""
        return AgileArray(self, dtype, base_lba=base_lba)

    # ------------------------------------------------------------------
    # Raw paths (calibration micro-benchmarks and tests)
    # ------------------------------------------------------------------

    def raw_read(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        lba: int,
        dest: np.ndarray,
    ) -> Generator[Any, Any, Transaction]:
        """Bare asynchronous NVMe read, bypassing cache and Share Table."""
        txn = yield from self.issue.submit(
            tc, chain, ssd_idx, Opcode.READ, lba, dest, label="raw"
        )
        return txn

    def raw_write(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        lba: int,
        src: np.ndarray,
    ) -> Generator[Any, Any, Transaction]:
        """Bare asynchronous NVMe write, bypassing cache and Share Table."""
        txn = yield from self.issue.submit(
            tc, chain, ssd_idx, Opcode.WRITE, lba, src, label="raw"
        )
        return txn

    def raw_read_logical(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        lba: int,
        dest: np.ndarray,
        tenant: Optional[str] = None,
    ) -> Generator[Any, Any, Transaction]:
        """Bare logical NVMe read: placement-resolved, cache-bypassing; the
        pending record carries the logical LBA for diagnostics."""
        ssd_idx, device_lba = self.resolve(lba, tenant)
        txn = yield from self.issue.submit(
            tc, chain, ssd_idx, Opcode.READ, device_lba, dest,
            label="raw", logical=int(lba),
        )
        return txn

    def raw_write_logical(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        lba: int,
        src: np.ndarray,
        tenant: Optional[str] = None,
    ) -> Generator[Any, Any, Transaction]:
        """Bare logical NVMe write: placement-resolved, cache-bypassing
        (streaming stores — checkpoint shards — that should not pollute
        the cache).  The caller owns ``src`` until the transaction
        completes; the device programs each page through its FTL."""
        self.stats.add("logical_writes")
        ssd_idx, device_lba = self.resolve(lba, tenant)
        txn = yield from self.issue.submit(
            tc, chain, ssd_idx, Opcode.WRITE, device_lba, src,
            label="raw", logical=int(lba),
        )
        return txn

    def write_page_logical(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        lba: int,
        data: np.ndarray,
        tenant: Optional[str] = None,
    ) -> Generator[Any, Any, None]:
        """Cache-routed logical page write: acquire-for-write, copy the
        payload into the pinned line (MODIFIED), unpin.  Durability rides
        on the eviction write-back path — this is what builds the dirty
        working set that makes eviction pressure produce device programs."""
        self.stats.add("logical_cache_writes")
        route = self.resolve(lba, tenant)
        line = yield from self.cache.acquire_logical(
            tc, chain, lba, route, pin=True, wait=True, for_write=True
        )
        yield from self.cache.write_line(tc, line, data)
        self.cache.unpin(line)
