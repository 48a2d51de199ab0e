"""Share Table: MOESI-inspired coherency for user-specified buffers
(paper §3.4.1).

``async_issue`` lets threads fetch SSD data straight into private buffers,
which creates RAW/WAR/WAW hazards against the software cache and against
other threads' buffers.  The Share Table closes them by tracking buffer
*ownership* rather than data copies: when a second thread requests data
some buffer already mirrors, it receives a pointer to the same physical
buffer and a reference count is bumped — no duplication, no extra copy.

State meanings (the paper's reinterpretation of MOESI for buffers):

- ``EXCLUSIVE`` — one thread owns the only up-to-date private copy;
- ``SHARED``    — several threads hold the same buffer pointer;
- ``MODIFIED``  — the buffer diverged from the SSD/cache; the *original
  owner* must propagate the update to the L2 software cache once the other
  users finish;
- ``OWNED``     — modified *and* shared: dirty data visible to readers,
  propagation still owed;
- ``INVALID``   — entry retired.

Sharing decisions are delegated to a :class:`SharePolicy`, mirroring the
paper's customizable sharing policy hook.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

import numpy as np

from repro.config import ApiCostConfig
from repro.core.buffers import AgileBuf
from repro.core.cache import LineState, SoftwareCache
from repro.gpu.thread import ThreadContext
from repro.sim.engine import SimError, Simulator
from repro.telemetry import Counter


class BufState(enum.Enum):
    INVALID = "invalid"
    EXCLUSIVE = "exclusive"
    SHARED = "shared"
    MODIFIED = "modified"
    OWNED = "owned"


@dataclass
class ShareEntry:
    """Ownership record for one (ssd, lba) source."""

    tag: tuple[int, int]
    buf: AgileBuf
    owner_tid: int
    state: BufState = BufState.EXCLUSIVE
    refcount: int = 1


class SharePolicy:
    """Default sharing policy: always share a valid buffer.

    Subclass and override :meth:`should_share` to customize (e.g. refuse
    sharing across thread blocks, or cap the fan-out per buffer).
    """

    def should_share(self, entry: ShareEntry, requester_tid: int) -> bool:
        return True


class ShareTable:
    """Hash-table of user-buffer ownership with highest lookup priority in
    the AGILE cache hierarchy (consulted before the software cache)."""

    def __init__(
        self,
        sim: Simulator,
        cache: SoftwareCache,
        api: ApiCostConfig,
        policy: Optional[SharePolicy] = None,
        stats: Optional[Counter] = None,
    ):
        self.sim = sim
        self.cache = cache
        self.api = api
        self.policy = policy if policy is not None else SharePolicy()
        self.stats = stats if stats is not None else Counter()
        self._entries: Dict[tuple[int, int], ShareEntry] = {}
        #: Optional :class:`~repro.sim.probe.Probe` for protocol records.
        self.probe = None

    def _set_state(self, entry: ShareEntry, new: BufState, reason: str) -> None:
        """Single funnel for entry-state changes (checked by analysis)."""
        old = entry.state
        entry.state = new
        if self.probe is not None and old is not new:
            self.probe.emit(
                "share.state", src=self, tag=entry.tag, old=old, new=new,
                refcount=entry.refcount, owner_tid=entry.owner_tid, reason=reason,
            )

    def entry(self, tag: tuple[int, int]) -> Optional[ShareEntry]:
        return self._entries.get(tag)

    # -- device-side operations ------------------------------------------------

    def lookup(
        self, tc: ThreadContext, tag: tuple[int, int]
    ) -> Generator[Any, Any, Optional[AgileBuf]]:
        """Consult the table first (highest priority).  On a sharable hit
        the requester gets the existing buffer pointer and the refcount is
        bumped; EXCLUSIVE entries become SHARED, MODIFIED become OWNED."""
        yield from tc.compute(self.api.share_table_cycles)
        yield from tc.atomic()
        entry = self._entries.get(tag)
        if entry is None or entry.state is BufState.INVALID:
            self.stats.add("share_misses")
            return None
        if entry.buf.source != tag:
            # Owner re-targeted the buffer; entry is stale.
            self._entries.pop(tag, None)
            self.stats.add("share_stale")
            return None
        if not self.policy.should_share(entry, tc.tid):
            self.stats.add("share_declined")
            return None
        entry.refcount += 1
        if entry.state is BufState.EXCLUSIVE:
            self._set_state(entry, BufState.SHARED, "lookup_share")
        elif entry.state is BufState.MODIFIED:
            self._set_state(entry, BufState.OWNED, "lookup_share")
        self.stats.add("share_hits")
        return entry.buf

    def register(
        self, tc: ThreadContext, tag: tuple[int, int], buf: AgileBuf
    ) -> tuple[ShareEntry, bool]:
        """Atomically record ownership of ``tag`` by ``buf`` (CAS-style).

        Returns ``(entry, won)``.  Losing the race (another thread
        registered a different buffer for the same source first) joins the
        winner's entry as a sharer instead — the caller must use
        ``entry.buf`` and must not issue its own fetch."""
        old = self._entries.get(tag)
        if old is not None and old.buf is not buf and old.refcount > 0:
            # A concurrent fetch of the same source into a different buffer;
            # the first registration is authoritative, we become a sharer.
            self.stats.add("share_races")
            old.refcount += 1
            if old.state is BufState.EXCLUSIVE:
                self._set_state(old, BufState.SHARED, "register_race")
            elif old.state is BufState.MODIFIED:
                self._set_state(old, BufState.OWNED, "register_race")
            return old, False
        entry = ShareEntry(tag=tag, buf=buf, owner_tid=tc.tid)
        self._entries[tag] = entry
        self.stats.add("share_registers")
        if self.probe is not None:
            self.probe.emit(
                "share.register", src=self, tag=tag, owner_tid=tc.tid,
                replaced_refcount=old.refcount if old is not None else 0,
                replaced_same_buf=old is not None and old.buf is buf,
            )
        return entry, True

    def on_fill_failed(self, tag: tuple[int, int], buf: AgileBuf) -> None:
        """The fetch backing ``tag``'s entry failed: retire the entry so
        future lookups miss (and re-fetch) instead of sharing garbage.

        Owner and sharers all hold the same :class:`AgileBuf`; its failure
        flag plus gate opening is the owner-notification path, so the
        references are force-dropped here (refcount to zero precedes the
        INVALID transition, as the Share Table checker requires).
        """
        entry = self._entries.get(tag)
        if entry is None or entry.buf is not buf:
            return
        self._entries.pop(tag, None)
        self.stats.add("share_fill_failures")
        entry.refcount = 0
        self._set_state(entry, BufState.INVALID, "fill_failed")

    def mark_modified(self, tc: ThreadContext, tag: tuple[int, int]) -> None:
        """A thread wrote the buffer: EXCLUSIVE->MODIFIED, SHARED->OWNED."""
        entry = self._entries.get(tag)
        if entry is None:
            raise SimError(f"mark_modified on unregistered source {tag}")
        if entry.state in (BufState.EXCLUSIVE, BufState.MODIFIED):
            self._set_state(entry, BufState.MODIFIED, "mark_modified")
        else:
            self._set_state(entry, BufState.OWNED, "mark_modified")
        self.stats.add("share_modifications")

    def release(
        self, tc: ThreadContext, tag: tuple[int, int]
    ) -> Generator[Any, Any, None]:
        """A thread is done with its reference.  When the last reference of
        a MODIFIED/OWNED buffer drops, the owner propagates the update to
        the L2 software cache (the paper's propagation responsibility)."""
        entry = self._entries.get(tag)
        if entry is None:
            raise SimError(f"release on unregistered source {tag}")
        if entry.refcount <= 0:
            raise SimError(f"share entry {tag} over-released")
        entry.refcount -= 1
        if entry.refcount > 0:
            return
        if entry.state in (BufState.MODIFIED, BufState.OWNED):
            yield from self._propagate_to_cache(tc, entry)
        self._entries.pop(tag, None)
        self._set_state(entry, BufState.INVALID, "retire")

    def _propagate_to_cache(
        self, tc: ThreadContext, entry: ShareEntry
    ) -> Generator[Any, Any, None]:
        """Write dirty buffer contents into the resident L2 line, if any,
        leaving it MODIFIED so normal eviction write-back persists it."""
        line = self.cache.lookup(*entry.tag)
        if line is None or line.state is LineState.BUSY:
            self.stats.add("share_propagate_skipped")
            return
        # Pin before the copy yields, or the line can be evicted and
        # re-claimed for another page while the bytes are in flight.
        line.pins += 1
        data = np.asarray(entry.buf.view[: line.buffer.size])
        yield from self.cache.write_line(tc, line, data)
        self.cache.unpin(line)
        self.stats.add("share_propagated")
