"""Flash array: channel-parallel NAND with a page-mapped FTL behind it.

Page ``p`` is served by channel ``p mod channels``; each channel is a FIFO
server, which yields the classic flash throughput curve: bandwidth rises
with concurrency until all channels are busy and then saturates at
``channels * page_size / latency`` — the calibration anchor for the paper's
Figures 5 and 6.

Data and mapping live in the :class:`~repro.nvme.ftl.Ftl`: reads resolve
logical LBAs through the L2P map (identity for never-written pages, so
read-only golden traces are unchanged), and programs are out-of-place with
invalidation and background GC when ``SsdConfig.gc_enabled``.  The timing
plane here charges channel occupancy for host reads/programs and for the
FTL's GC relocations and erases — GC visibly steals host bandwidth.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import numpy as np

from repro.config import SsdConfig
from repro.nvme.ftl import Ftl
from repro.sim.engine import Simulator, Timeout
from repro.sim.resources import FifoServer


class FlashArray:
    """NAND flash behind one SSD controller."""

    #: Poll period while a host program waits for GC to free blocks (ns).
    GC_WAIT_POLL_NS = 50_000.0
    #: Polls before a blocked program gives up with a write fault (a full
    #: device that GC cannot help is surfaced, not hung).
    GC_WAIT_LIMIT = 1024

    def __init__(self, sim: Simulator, cfg: SsdConfig):
        self.sim = sim
        self.cfg = cfg
        self._channels = [
            FifoServer(sim, name=f"{cfg.name}.ch{i}") for i in range(cfg.channels)
        ]
        self.reads = 0
        self.writes = 0
        self.read_errors = 0
        self.write_errors = 0
        #: Armed by the host when the fault plan is active
        #: (:class:`repro.faults.FaultInjector`); None costs nothing.
        self.injector = None
        #: Logical->physical mapping, page store, and GC (the page store
        #: is mutated only inside ``repro/nvme/ftl.py``).
        self.ftl = Ftl(sim, cfg)

    # -- data plane ------------------------------------------------------------

    def page_in_range(self, lba: int) -> bool:
        return 0 <= lba < self.cfg.num_pages

    def read_page_data(self, lba: int) -> np.ndarray:
        """Current contents of a page.  Never-written pages return a shared
        read-only zero page (no per-read allocation on cold scans)."""
        return self.ftl.read(lba)

    def write_page_data(self, lba: int, data: np.ndarray) -> None:
        """Host-side page install (no simulated time); see
        :meth:`Ftl.host_write` for placement rules."""
        if data.size != self.cfg.page_size:
            raise ValueError(
                f"flash writes are page-granular: got {data.size} B, "
                f"expected {self.cfg.page_size} B"
            )
        self.ftl.host_write(lba, data)

    # -- timing plane ------------------------------------------------------------

    def _channel(self, pp: int) -> FifoServer:
        return self._channels[pp % self.cfg.channels]

    def channel_process(
        self, key: int, latency_ns: float
    ) -> Generator[Any, Any, None]:
        """Occupy channel ``key mod channels`` for ``latency_ns`` (the FTL's
        GC charges its relocation reads and block erases through this)."""
        yield from self._channels[key % self.cfg.channels].process(latency_ns)

    def read_service(self, lba: int) -> Generator[Any, Any, bool]:
        """Occupy the page's channel for one flash read; returns success."""
        self.reads += 1
        pp = self.ftl.phys(lba)
        if self.injector is None:
            yield from self._channel(pp).process(self.cfg.read_latency_ns)
            return True
        latency = self.cfg.read_latency_ns * self.injector.flash_latency_mult(pp)
        yield from self._channel(pp).process(latency)
        if self.injector.flash_read_fails(pp):
            self.read_errors += 1
            return False
        return True

    def timed_program(self, pp: int) -> Generator[Any, Any, bool]:
        """Channel occupancy + fault dice for one page program at a known
        physical page (host path and GC relocations share this)."""
        if self.injector is None:
            yield from self._channel(pp).process(self.cfg.write_latency_ns)
            return True
        latency = self.cfg.write_latency_ns * self.injector.flash_latency_mult(pp)
        yield from self._channel(pp).process(latency)
        if self.injector.flash_write_fails(pp):
            self.write_errors += 1
            return False
        return True

    def program_service(
        self, lba: int, data: Optional[np.ndarray] = None
    ) -> Generator[Any, Any, bool]:
        """One host page program through the FTL; returns success.

        With GC enabled the program is out-of-place: allocate, occupy the
        *new* page's channel, then commit mapping + data and invalidate the
        old copy.  A full device stalls here polling for GC progress — the
        GC pause tail — and eventually faults rather than hanging.  With GC
        disabled the program lands in place at the legacy channel.
        """
        self.writes += 1
        ftl = self.ftl
        if self.cfg.gc_enabled:
            pp = ftl.alloc_page()
            spins = 0
            while pp is None:
                ftl.maybe_start_gc(self, force=True)
                if spins >= self.GC_WAIT_LIMIT:
                    break
                if ftl.collecting:
                    # No poll can succeed before GC frees a block or ends.
                    spins += yield from ftl.gc_progress.park(
                        self.GC_WAIT_POLL_NS, self.GC_WAIT_LIMIT - spins
                    )
                else:
                    spins += 1
                    yield Timeout(self.GC_WAIT_POLL_NS)
                pp = ftl.alloc_page()
            if spins:
                ftl.host_gc_stalls += 1
                ftl.host_gc_stall_ns += spins * self.GC_WAIT_POLL_NS
            if pp is None:  # GC could not help: fault, do not hang
                self.write_errors += 1
                return False
        else:
            pp = ftl.phys(lba)
        ok = yield from self.timed_program(pp)
        if not ok:
            if self.cfg.gc_enabled:
                ftl.burn_page(pp)
            return False
        ftl.commit_program(lba, pp, data)
        ftl.maybe_start_gc(self)
        return True

