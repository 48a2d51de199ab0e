"""Page-mapped flash translation layer: L2P mapping, out-of-place programs,
garbage collection, and write-amplification accounting.

Every page access on an SSD flows through one :class:`Ftl` (owned by its
:class:`~repro.nvme.flash.FlashArray`):

- **Reads** resolve the logical LBA through the L2P map.  Never-written
  LBAs fall back to the *identity* physical page (``phys == lba``), so a
  read-only run — no simulated programs, hence an empty allocator and an
  idle GC — touches exactly the channels the pre-FTL model touched and its
  golden traces stay bit-identical.
- **Host programs** (when ``SsdConfig.gc_enabled``) are out-of-place: a
  fresh physical page is allocated from the active block, the old mapping
  is invalidated, and the device slowly consumes its over-provisioned
  spare blocks.  With GC disabled, programs update in place (WAF = 1.0,
  no erases) — the legacy timing model and the GC-off baseline.
- **Garbage collection** runs as a lazily-spawned daemon once the free
  pool drops below ``gc_low_water_blocks``: it picks victims (``greedy``
  min-valid or Rosenblum-style ``cost_benefit``), relocates live pages
  (NAND read + program, *stealing host channel bandwidth*), then erases
  the block at ``erase_latency_ns`` — the program/erase asymmetry GC
  pauses are made of.

The page store ``Ftl._pages`` (physical page -> bytes) is the only place
flash contents live; mutating it anywhere outside this module is banned by
lint rule AGL014.  Accounting invariant (checked by tests): every committed
program adds one live page and every invalidation removes one, so
``host_programs + gc_programs + seeded_pages - invalidations == live_pages``.

Design space per EagleTree and the Amber/SimpleSSD holistic model; the
channel-striped page layout (page ``p`` on channel ``p mod channels``) is
inherited from the existing flash model, so an erase is charged to channel
``block mod channels`` as the block's nominal home channel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

import numpy as np

from repro.config import SsdConfig
from repro.sim.engine import Process, SimError, Simulator
from repro.sim.sync import Signal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (flash owns us)
    from repro.nvme.flash import FlashArray

#: Block states.
_FREE = 0
_ACTIVE = 1
_OCCUPIED = 2
_COLLECTING = 3
_BAD = 4


class Ftl:
    """One SSD's translation layer, block accounting, and GC machinery."""

    #: Free blocks held back from host allocation so GC always has a
    #: relocation target (the classic reserved-block rule).
    GC_RESERVE = 1

    def __init__(self, sim: Simulator, cfg: SsdConfig):
        self.sim = sim
        self.cfg = cfg
        #: Logical LBA -> physical page (absent = identity, never written).
        self._l2p: dict[int, int] = {}
        #: Physical page -> owning logical LBA (live pages only).
        self._p2l: dict[int, int] = {}
        #: Physical page -> contents.  THE page store (see AGL014).
        self._pages: dict[int, np.ndarray] = {}
        self._state = [_FREE] * cfg.physical_blocks
        self._valid = [0] * cfg.physical_blocks
        self._sealed_at = [0.0] * cfg.physical_blocks
        #: Pages allocated but not yet committed (or burned), per block.
        #: GC must not victimize a block with programs still in flight:
        #: erasing under them would drop the committing page's data.
        self._inflight = [0] * cfg.physical_blocks
        #: Free pool as a lazy stack: blocks seeded by host preload keep a
        #: stale entry here and are skipped at pop time by state check.
        self._free_list = list(range(cfg.physical_blocks - 1, -1, -1))
        self.free_blocks = cfg.physical_blocks
        #: Separate write frontiers: host programs and GC relocations fill
        #: different active blocks.  A shared frontier lets a host stall
        #: loop drain the pages of the very block GC just opened out of the
        #: reserve — starving relocation until the device wedges with
        #: reclaimable space it can no longer reach.
        self._active: Optional[int] = None
        self._next_off = 0
        self._gc_active: Optional[int] = None
        self._gc_next_off = 0
        # -- accounting (surfaced through SsdController.stats()) -----------
        self.host_programs = 0
        self.gc_programs = 0
        self.gc_reads = 0
        self.erases = 0
        self.invalidations = 0
        self.seeded_pages = 0
        self.bad_blocks = 0
        self.gc_runs = 0
        #: Simulated ns the GC daemon spent relocating/erasing.
        self.gc_busy_ns = 0.0
        #: Simulated ns host programs stalled waiting for GC to free blocks.
        self.host_gc_stall_ns = 0.0
        self.host_gc_stalls = 0
        self._gc_proc: Optional[Process] = None
        #: True while a GC run has a victim in hand: it will free a block
        #: or end, and fires ``gc_progress`` either way — what a host
        #: program stalled on a full device parks on.
        self.collecting = False
        self.gc_progress = Signal(self.sim, f"{cfg.name}.ftl.gc_progress")
        self._gc_name = f"{cfg.name}.ftl.gc"
        self._zero_page = np.zeros(cfg.page_size, dtype=np.uint8)
        self._zero_page.flags.writeable = False
        #: Optional :class:`repro.sim.probe.Probe` (GC runs).
        self.probe = None

    # -- translation ---------------------------------------------------------

    def phys(self, lba: int) -> int:
        """Physical page serving ``lba`` (identity when never written)."""
        return self._l2p.get(lba, lba)

    def mapped_pages(self) -> int:
        return len(self._l2p)

    @property
    def live_pages(self) -> int:
        return len(self._p2l)

    @property
    def waf(self) -> float:
        """Write amplification: (host + GC programs) / host programs."""
        if self.host_programs == 0:
            return 1.0
        return (self.host_programs + self.gc_programs) / self.host_programs

    # -- data plane (host-side, no simulated time) ---------------------------

    def read(self, lba: int) -> np.ndarray:
        """Contents of a logical page; a shared read-only zero page when the
        LBA was never written (cold scans allocate nothing)."""
        pp = self._l2p.get(lba)
        if pp is None:
            return self._zero_page
        page = self._pages.get(pp)
        return page if page is not None else self._zero_page

    def host_write(self, lba: int, data: np.ndarray) -> None:
        """Untimed host-side page install (dataset preload).

        A never-written LBA is placed at its identity physical page so the
        read path's channel assignment — and therefore every read-only
        golden trace — is unchanged; already-mapped LBAs are overwritten in
        place.  Identity pages made unusable by earlier simulated programs
        (owned, mid-GC, or ahead of the active block's allocation cursor)
        fall back to the normal allocator.
        """
        pp = self._l2p.get(lba)
        if pp is None:
            pp = lba
            blk = pp // self.cfg.pages_per_block
            usable = (
                pp not in self._p2l
                and self._state[blk] not in (_COLLECTING, _BAD)
                and not (
                    blk == self._active
                    and pp - blk * self.cfg.pages_per_block >= self._next_off
                )
                and not (
                    blk == self._gc_active
                    and pp - blk * self.cfg.pages_per_block
                    >= self._gc_next_off
                )
            )
            if not usable:
                alt = self.alloc_page()
                if alt is None:
                    raise SimError(
                        f"{self.cfg.name}: no physical page for host preload "
                        f"of lba {lba}"
                    )
                pp = alt
                self._clear_inflight(pp)  # installed synchronously below
            self._l2p[lba] = pp
            self._claim(pp, lba)
            self.seeded_pages += 1
        self._pages[pp] = np.array(data, dtype=np.uint8, copy=True)

    # -- allocation and commit -----------------------------------------------

    def alloc_page(self, *, gc: bool = False) -> Optional[int]:
        """Next out-of-place program target, or None when the device is out
        of writable blocks (host callers then stall on GC).

        Host and GC allocate from *separate* active blocks: the host
        frontier refuses to open a block out of the GC reserve, and never
        touches the GC frontier's pages, so relocation always has room to
        make forward progress.
        """
        ppb = self.cfg.pages_per_block
        active = self._gc_active if gc else self._active
        if active is None:
            if not gc and self.free_blocks <= self.GC_RESERVE:
                return None
            blk = self._pop_free()
            if blk is None:
                return None
            self._state[blk] = _ACTIVE
            self.free_blocks -= 1
            if gc:
                self._gc_active = blk
                self._gc_next_off = 0
            else:
                self._active = blk
                self._next_off = 0
            active = blk
        if gc:
            pp = active * ppb + self._gc_next_off
            self._gc_next_off += 1
            if self._gc_next_off >= ppb:
                self._seal(active)
                self._gc_active = None
        else:
            pp = active * ppb + self._next_off
            self._next_off += 1
            if self._next_off >= ppb:
                self._seal(active)
                self._active = None
        self._inflight[pp // ppb] += 1
        return pp

    def _pop_free(self) -> Optional[int]:
        while self._free_list:
            blk = self._free_list.pop()
            if self._state[blk] == _FREE:
                return blk
        return None

    def _seal(self, blk: int) -> None:
        self._state[blk] = _OCCUPIED
        self._sealed_at[blk] = self.sim.now

    def _clear_inflight(self, pp: int) -> None:
        blk = pp // self.cfg.pages_per_block
        if self._inflight[blk] > 0:
            self._inflight[blk] -= 1

    def burn_page(self, pp: int) -> None:
        """An allocated page's program faulted: the page is dead space
        until its block is erased, and its block is collectible again."""
        self._clear_inflight(pp)

    def _claim(self, pp: int, lba: int) -> None:
        """Record ``pp`` as the live copy of ``lba`` (block bookkeeping)."""
        self._p2l[pp] = lba
        blk = pp // self.cfg.pages_per_block
        self._valid[blk] += 1
        if self._state[blk] == _FREE:
            # In-place/identity writes land in blocks the allocator never
            # opened; they leave the free pool here.
            self._state[blk] = _OCCUPIED
            self.free_blocks -= 1

    def commit_program(
        self,
        lba: int,
        pp: int,
        data: Optional[np.ndarray] = None,
        *,
        gc: bool = False,
    ) -> None:
        """Make a successful page program visible: store data, flip the L2P
        entry, invalidate the superseded physical page."""
        self._clear_inflight(pp)
        old = self._l2p.get(lba)
        if data is not None:
            self._pages[pp] = np.array(data, dtype=np.uint8, copy=True)
        elif old is not None and old != pp and old in self._pages:
            # Logical rewrite without payload (timing-only callers) and GC
            # relocation both carry the old contents forward.
            self._pages[pp] = self._pages[old]
        self._l2p[lba] = pp
        if self._p2l.get(pp) != lba:
            self._claim(pp, lba)
        if gc:
            self.gc_programs += 1
        else:
            self.host_programs += 1
        if old is not None:
            if old != pp:
                self._invalidate(old)
            else:
                # In-place rewrite (GC disabled): the superseded copy died
                # at the same physical page; the ledger still records it.
                self.invalidations += 1

    def _invalidate(self, pp: int) -> None:
        self._valid[pp // self.cfg.pages_per_block] -= 1
        self._p2l.pop(pp, None)
        self._pages.pop(pp, None)
        self.invalidations += 1

    # -- garbage collection --------------------------------------------------

    def maybe_start_gc(
        self, flash: "FlashArray", *, force: bool = False
    ) -> None:
        """Spawn the GC daemon when the free pool is low (lazy: a run that
        never programs never creates the process).  ``flash`` is the array
        this FTL serves, whose channels the run occupies: handed in, not
        stored, because the array owns the FTL."""
        cfg = self.cfg
        if not cfg.gc_enabled:
            return
        if self._gc_proc is not None and self._gc_proc.alive:
            return
        if not force and self.free_blocks >= cfg.gc_low_water_blocks:
            return
        self._gc_proc = self.sim.spawn(
            self._gc_run(flash), name=self._gc_name, daemon=True
        )

    def _gc_run(self, flash: "FlashArray") -> Generator[Any, Any, None]:
        cfg = self.cfg
        t0 = self.sim.now
        moved = 0
        collected = 0
        self.gc_runs += 1
        while self.free_blocks < cfg.gc_high_water_blocks:
            victim = self._pick_victim()
            if victim is None:
                break
            self.collecting = True
            mark = self.sim.now
            res = yield from self._collect(victim, flash)
            # Accrue per victim, not per run: a daemon still collecting
            # when the experiment window closes has already spent this.
            self.gc_busy_ns += self.sim.now - mark
            if res is None:
                # Out of relocation targets (bad-block attrition or fault
                # burn): no forward progress is possible this run.
                break
            moved += res
            collected += 1
        self.collecting = False
        self.gc_progress.fire()
        if self.probe is not None:
            self.probe.emit(
                "ftl.gc", src=self, t0=t0, moved_pages=moved, blocks=collected,
                free_blocks=self.free_blocks,
            )

    def _pick_victim(self) -> Optional[int]:
        """Victim block id, or None when nothing reclaimable exists."""
        ppb = self.cfg.pages_per_block
        best: Optional[int] = None
        if self.cfg.gc_policy == "greedy":
            best_valid = ppb
            for blk, state in enumerate(self._state):
                if state != _OCCUPIED or self._inflight[blk]:
                    continue
                v = self._valid[blk]
                if v < best_valid:
                    best, best_valid = blk, v
        else:  # cost_benefit
            now = self.sim.now
            best_score = 0.0
            for blk, state in enumerate(self._state):
                if state != _OCCUPIED or self._inflight[blk]:
                    continue
                v = self._valid[blk]
                if v >= ppb:
                    continue
                u = v / ppb
                # Rosenblum benefit/cost with a +1 ns age floor so fully
                # cold, fully invalid blocks still score.
                score = (1.0 - u) / (1.0 + u) * (
                    now - self._sealed_at[blk] + 1.0
                )
                if best is None or score > best_score:
                    best, best_score = blk, score
        return best

    def _collect(
        self, victim: int, flash: "FlashArray"
    ) -> Generator[Any, Any, Optional[int]]:
        """Relocate the victim's live pages, then erase it.  Returns the
        number of pages moved, or None when the collection had to abort
        for lack of relocation targets (the victim keeps its remaining
        live pages and returns to the occupied pool)."""
        cfg = self.cfg
        ppb = cfg.pages_per_block
        base = victim * ppb
        self._state[victim] = _COLLECTING
        moved = 0
        for pp in range(base, base + ppb):
            lba = self._p2l.get(pp)
            if lba is None:
                continue
            yield from flash.channel_process(pp, cfg.read_latency_ns)
            self.gc_reads += 1
            while True:
                new_pp = self.alloc_page(gc=True)
                if new_pp is None:
                    # Already-moved pages are committed; the rest stay
                    # live where they are.
                    self._state[victim] = _OCCUPIED
                    return None
                ok = yield from flash.timed_program(new_pp)
                if ok:
                    break
                # Program fault burned the page; redraw from the allocator.
                self._clear_inflight(new_pp)
            if self._p2l.get(pp) != lba:
                # A concurrent host rewrite superseded this page while the
                # relocation was in flight; committing the stale copy would
                # clobber the fresh write, so the move is dropped.
                self._clear_inflight(new_pp)
                continue
            self.commit_program(lba, new_pp, gc=True)
            moved += 1
        # Erase-before-rewrite, charged to the block's home channel.
        yield from flash.channel_process(victim, cfg.erase_latency_ns)
        injector = flash.injector
        if injector is not None and injector.flash_erase_fails(victim):
            self._state[victim] = _BAD
            self.bad_blocks += 1
        else:
            self._state[victim] = _FREE
            self._free_list.append(victim)
            self.free_blocks += 1
            self.erases += 1
            self.gc_progress.fire()
        self._valid[victim] = 0
        for pp in range(base, base + ppb):
            self._pages.pop(pp, None)  # stale data of burned pages
        return moved

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """FTL counters merged into ``SsdController.stats()``."""
        return {
            "host_programs": self.host_programs,
            "gc_programs": self.gc_programs,
            "gc_reads": self.gc_reads,
            "erases": self.erases,
            "invalidations": self.invalidations,
            "live_pages": self.live_pages,
            "seeded_pages": self.seeded_pages,
            "free_blocks": self.free_blocks,
            "bad_blocks": self.bad_blocks,
            "waf": self.waf,
            "gc_runs": self.gc_runs,
            "gc_busy_ns": self.gc_busy_ns,
            "host_gc_stall_ns": self.host_gc_stall_ns,
            "host_gc_stalls": self.host_gc_stalls,
        }

    def check_conservation(self) -> None:
        """Assert the program/invalidation/live-page ledger balances (test
        and chaos-harness hook; raises :class:`SimError` on drift)."""
        expect = (
            self.host_programs
            + self.gc_programs
            + self.seeded_pages
            - self.invalidations
        )
        if expect != self.live_pages:
            raise SimError(
                f"{self.cfg.name}: FTL ledger drift: programs+seeded-"
                f"invalidations={expect} but live_pages={self.live_pages}"
            )
        by_blocks = sum(v for v in self._valid)
        if by_blocks != self.live_pages:
            raise SimError(
                f"{self.cfg.name}: per-block valid counts sum to "
                f"{by_blocks}, expected {self.live_pages}"
            )
