"""SSD controller: doorbell-triggered SQE fetch, flash execution, DMA, CQE post.

Pipeline per command (paper §2.1):

1. GPU rings the SQ tail doorbell; the doorbell observer wakes this SSD's
   fetch loop for that queue.
2. The controller DMA-reads the SQE from GPU HBM over its PCIe link.
3. The command occupies one flash channel for a page read/program.
4. Data moves by DMA between flash and the command's HBM target, consuming
   the SSD link, the GPU link, and HBM bandwidth — and the *actual bytes*
   are copied, so results are value-checked end to end.
5. A CQE is posted to the completion queue with the correct phase bit; if
   the CQ is full the controller stalls until the host rings the CQ head
   doorbell (the stall the paper warns about in §2.1/§2.3.3).
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Generator, Optional

import numpy as np

from repro.config import SsdConfig
from repro.mem.hbm import Hbm
from repro.mem.pcie import PcieLink
from repro.nvme.command import (
    CQE_SIZE,
    SQE_SIZE,
    NvmeCommand,
    NvmeCompletion,
    Opcode,
    Status,
)
from repro.nvme.flash import FlashArray
from repro.nvme.queue import QueuePair
from repro.sim.engine import SimError, Simulator, Timeout
from repro.sim.resources import BandwidthPipe


def _weak_observer(
    handler: Callable[[int], None], qid: int
) -> Callable[[int], None]:
    """A doorbell observer that calls ``handler(qid)`` without owning the
    controller behind it: the controller owns its queue pairs, so a strong
    observer would close a reference cycle through the doorbell."""
    ref = weakref.WeakMethod(handler)

    def observe(_value: int) -> None:
        fn = ref()
        if fn is not None:
            fn(qid)

    return observe


class SsdController:
    """One NVMe SSD attached over PCIe."""

    def __init__(
        self,
        sim: Simulator,
        cfg: SsdConfig,
        hbm: Hbm,
        index: int = 0,
        gpu_pipe: Optional[BandwidthPipe] = None,
    ):
        self.sim = sim
        self.cfg = cfg
        self.hbm = hbm
        self.index = index
        #: Shared pipe modelling the GPU's own PCIe x16 link (optional).
        self.gpu_pipe = gpu_pipe
        self.link = PcieLink(sim, cfg.pcie, name=f"{cfg.name}.pcie")
        self.flash = FlashArray(sim, cfg)
        self.queue_pairs: list[QueuePair] = []
        self._pair_of: dict[int, QueuePair] = {}
        self._fetcher_active: dict[int, bool] = {}
        #: Precomputed per-queue process/event names: the controller spawns
        #: one process per fetched command, so name formatting is hot.
        self._fetch_names: dict[int, str] = {}
        self._exec_prefixes: dict[int, str] = {}
        self.completed_reads = 0
        self.completed_writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.errors = 0
        self.dropped_cqes = 0
        self.duplicated_cqes = 0
        #: Armed by the host when the fault plan is active
        #: (:class:`repro.faults.FaultInjector`); None costs nothing.
        self.injector = None
        #: Optional :class:`repro.sim.probe.Probe` (fetches, executions).
        self.probe = None

    def arm_faults(self, injector) -> None:
        """Wire one fault injector into the controller, its flash array and
        its PCIe link (host-side setup, no simulated time)."""
        self.injector = injector
        self.flash.injector = injector
        self.link.injector = injector

    # -- registration ------------------------------------------------------------

    def register_queue_pair(self, qp: QueuePair) -> None:
        """Attach a queue pair: wire both doorbells to controller logic."""
        if len(self.queue_pairs) >= self.cfg.max_queue_pairs:
            raise SimError(
                f"{self.cfg.name}: exceeded {self.cfg.max_queue_pairs} queue pairs"
            )
        self.queue_pairs.append(qp)
        self._pair_of[qp.qid] = qp
        self._fetcher_active[qp.qid] = False
        self._fetch_names[qp.qid] = f"{self.cfg.name}.fetch.q{qp.qid}"
        self._exec_prefixes[qp.qid] = f"{self.cfg.name}.exec.q{qp.qid}.c"
        qp.sq.doorbell.observer = _weak_observer(self._on_sq_doorbell, qp.qid)
        qp.cq.doorbell.observer = _weak_observer(self._on_cq_doorbell, qp.qid)

    def _on_cq_doorbell(self, qid: int) -> None:
        self._pair_of[qid].cq.space.fire()

    # -- SQ fetch path -------------------------------------------------------------

    def _on_sq_doorbell(self, qid: int) -> None:
        if self._fetcher_active[qid]:
            return
        self._fetcher_active[qid] = True
        self.sim.spawn(
            self._fetch_loop(self._pair_of[qid]),
            name=self._fetch_names[qid],
            daemon=True,
        )

    #: SQEs fetched per DMA burst (controllers batch command fetches).
    FETCH_BATCH = 16

    def _fetch_loop(self, qp: QueuePair) -> Generator[Any, Any, None]:
        exec_prefix = self._exec_prefixes[qp.qid]
        while qp.sq.device_pending() > 0:
            batch = min(qp.sq.device_pending(), self.FETCH_BATCH)
            if self.probe is not None:
                self.probe.emit("nvme.fetch", src=self, batch=batch)
            yield from self.link.dma_read(SQE_SIZE * batch)
            yield Timeout(self.cfg.sqe_fetch_ns)
            for _ in range(batch):
                cmd = qp.sq.device_fetch()
                self.sim.spawn(
                    self._execute(qp, cmd),
                    name=exec_prefix + str(cmd.cid),
                    daemon=True,
                )
        self._fetcher_active[qp.qid] = False
        # Re-check: a doorbell may have landed while we were finishing.
        if qp.sq.device_pending() > 0:
            self._on_sq_doorbell(qp.qid)

    # -- command execution ------------------------------------------------------------

    def _execute(self, qp: QueuePair, cmd: NvmeCommand) -> Generator[Any, Any, None]:
        probe = self.probe
        exec_t0 = self.sim.now if probe is not None else 0.0
        yield Timeout(self.cfg.cmd_overhead_ns)
        status = Status.SUCCESS
        nbytes = cmd.num_pages * self.cfg.page_size
        if cmd.opcode is Opcode.READ:
            if not self.flash.page_in_range(cmd.lba + cmd.num_pages - 1):
                status = Status.LBA_OUT_OF_RANGE
            else:
                ok = True
                for p in range(cmd.num_pages):
                    ok = yield from self.flash.read_service(cmd.lba + p)
                    if not ok:
                        break
                if not ok:
                    # Unrecovered media error: no data leaves the device.
                    status = Status.UNRECOVERED_READ_ERROR
                else:
                    yield from self.link.dma_write(nbytes)
                    if self.gpu_pipe is not None:
                        yield from self.gpu_pipe.transfer(nbytes)
                    if cmd.data is not None:
                        self._copy_flash_to_target(cmd)
                    yield from self.hbm.store(nbytes)
                    self.completed_reads += 1
                    self.bytes_read += nbytes
        elif cmd.opcode is Opcode.WRITE:
            if not self.flash.page_in_range(cmd.lba + cmd.num_pages - 1):
                status = Status.LBA_OUT_OF_RANGE
            else:
                yield from self.hbm.load(nbytes)
                yield from self.link.dma_read(nbytes)
                if self.gpu_pipe is not None:
                    yield from self.gpu_pipe.transfer(nbytes)
                ok = True
                page = self.cfg.page_size
                for p in range(cmd.num_pages):
                    chunk = (
                        np.asarray(cmd.data[p * page : (p + 1) * page])
                        if cmd.data is not None
                        else None
                    )
                    ok = yield from self.flash.program_service(
                        cmd.lba + p, chunk
                    )
                    if not ok:
                        break
                if not ok:
                    # Program failed: the FTL never committed the faulted
                    # page, so the old mapping stays visible (pages earlier
                    # in the command are already durable).
                    status = Status.WRITE_FAULT
                else:
                    self.completed_writes += 1
                    self.bytes_written += nbytes
        elif cmd.opcode is Opcode.FLUSH:
            pass  # data is durable on program completion in this model
        else:
            status = Status.INVALID_OPCODE
        if status is not Status.SUCCESS:
            self.errors += 1
        yield from self._post_completion(qp, cmd, status)
        if probe is not None:
            probe.emit(
                "nvme.exec", src=self, op=cmd.opcode.name.lower(), t0=exec_t0,
                qid=qp.qid, cid=cmd.cid, lba=cmd.lba, pages=cmd.num_pages,
                status=status.name,
            )

    def _copy_flash_to_target(self, cmd: NvmeCommand) -> None:
        page = self.cfg.page_size
        for p in range(cmd.num_pages):
            data = self.flash.read_page_data(cmd.lba + p)
            cmd.data[p * page : (p + 1) * page] = data

    def _post_completion(
        self, qp: QueuePair, cmd: NvmeCommand, status: Status
    ) -> Generator[Any, Any, None]:
        if self.injector is not None and self.injector.drop_cqe(qp.qid):
            # Completion silently lost: the host's recovery daemon must
            # time the command out and abort-and-resubmit.
            self.dropped_cqes += 1
            if self.probe is not None:
                self.probe.emit(
                    "fault.cqe_drop", src=qp.cq, qid=qp.qid, cid=cmd.cid, status=status,
                )
            return
        copies = 1
        if self.injector is not None and self.injector.duplicate_cqe(qp.qid):
            self.duplicated_cqes += 1
            copies = 2
        for _ in range(copies):
            yield from self._post_one(qp, cmd, status)

    def _post_one(
        self, qp: QueuePair, cmd: NvmeCommand, status: Status
    ) -> Generator[Any, Any, None]:
        while not qp.cq.device_try_reserve():
            yield from qp.cq.space.wait()
        yield Timeout(self.cfg.cqe_post_ns)
        yield from self.link.dma_write(CQE_SIZE)
        completion = NvmeCompletion(
            cid=cmd.cid,
            sq_id=qp.qid,
            sq_head=qp.sq.fetch_head,
            status=status,
            context=cmd.context,
        )
        qp.cq.device_post(completion)

    # -- stats ----------------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Health/throughput counters for bench reports and diagnostics
        (FTL write-path accounting — WAF, GC, free blocks — rides along)."""
        return {
            "completed_reads": self.completed_reads,
            "completed_writes": self.completed_writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "errors": self.errors,
            "flash_read_errors": self.flash.read_errors,
            "flash_write_errors": self.flash.write_errors,
            "dropped_cqes": self.dropped_cqes,
            "duplicated_cqes": self.duplicated_cqes,
            **self.flash.ftl.stats(),
        }
