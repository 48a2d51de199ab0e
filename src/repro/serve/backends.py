"""Serving backends: identical batch semantics on AGILE, BaM, and naive.

A backend owns the simulated machine and turns one :class:`Batch` into one
kernel launch — one GPU thread per request, each thread reading its
request's pages and reporting its own finish time (so per-request latency
is exact, not batch-granular).  :class:`ServeBackend` is that kernel, once:
the application-side logic is literally the same code on every system, and
a subclass supplies only the I/O discipline (its ``_access`` generator),
mirroring the paper's "identical kernel implementations" methodology:

- **agile** — ``ctrl.raw_read`` issues every page asynchronously, then the
  thread waits on the transactions; completions are retired by the AGILE
  service SM (paper §3.2).  With ``num_gpus > 1`` the host runs one stack
  per GPU and the serve engine one dispatch worker per GPU, SSDs shared.
- **bam** — ``ctrl.read_page`` (the AGILE cache, filled synchronously):
  every thread polls the CQ inline and pays BaM's heavier critical sections.
- **naive** — the Figure 1 strawman via
  :class:`~repro.baselines.naive_async.NaiveAsyncEngine`: threads hold SQE
  locks across their own issues and retire their own completions; the
  backend caps batch size so one batch cannot exceed the SQ slots (a
  production-shaped guard against the design's native deadlock).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

import numpy as np

from repro.baselines.harness import BamHost
from repro.baselines.naive_async import NaiveAsyncEngine
from repro.config import SystemConfig
from repro.core import AgileHost, AgileLockChain
from repro.core.issue import AgileIoError
from repro.core.locks import DeadlockError
from repro.core.machine import Machine
from repro.gpu.kernel import KernelSpec, LaunchConfig
from repro.nvme.command import Opcode
from repro.serve.batcher import Batch
from repro.serve.request import Request
from repro.sim.engine import SimStallError

#: Registers per serving-kernel thread (raw-read loop + wait, no cache walk).
SERVE_KERNEL_REGISTERS = 48

#: How long a naive-async thread may see zero completion progress before
#: its wait is declared lost (a sibling consumed-and-dropped its CQE) and
#: the request aborts.  Generous against honest queueing delay, small
#: enough to keep saturation sweeps finite.
NAIVE_STALL_NS = 200_000.0


class ServeBackend:
    """The batch kernel on one :class:`~repro.core.machine.Machine`:
    scratch buffers, launch geometry, one thread per request, exactly one
    ``finish`` each.  Subclasses build the host and implement ``_access``."""

    system = "base"
    #: Backend-imposed ceiling on requests per batch (0 = none).
    max_batch = 0
    #: Whether ``op="write"``/``"modify"`` request classes can be served
    #: (the AGILE write path; BaM and naive are read-only baselines here).
    supports_writes = False
    #: Whether cache-routed classes can be served: ``op="paged"`` reads
    #: (KV-cache paging residency) and ``"modify"`` read-modify-writes.
    #: Both need one software cache, or per-GPU copies of a page diverge.
    supports_cached = False

    def __init__(self, host: Machine) -> None:
        self.host = host
        self.sim = host.sim
        #: The host's metric registry (serve instruments register here).
        self.trace = host.trace
        self.cfg = host.cfg
        #: The host's :class:`~repro.placement.PlacementPolicy`.
        self.placement = host.placement
        #: One dispatch worker per GPU.
        self.num_workers = len(host.gpus)
        self._scratch: Dict[int, List[Any]] = {}

    # -- interface the engine drives ---------------------------------------

    def start(self) -> None:
        self.host.start()

    def stop(self) -> None:
        self.host.stop()

    def drain(self) -> None:
        self.host.drain()

    def place(self, lba: int, tenant: Optional[str] = None) -> tuple:
        """Resolve one logical LBA to physical ``(ssd_idx, device_lba)``.

        The engine resolves every request's pages through this exactly once
        at arrival; below it a page is named only by ``(ssd, lba)``.
        """
        return self.placement.place(lba, tenant=tenant)

    def device_read_counts(self) -> List[int]:
        """Completed reads per device, by device index."""
        stats = self.host.driver.device_stats()
        counts = [0] * len(stats)
        for entry in stats:
            counts[int(entry["index"])] = int(entry["completed_reads"])
        return counts

    def device_write_stats(self) -> List[Dict[str, float]]:
        """Per-device write-path counters (joined on ``index``): the FTL's
        WAF ledger plus completed write count, for the serve report's
        write-amplification and GC-stall columns."""
        stats = self.host.driver.device_stats()
        rows: List[Dict[str, float]] = [{} for _ in stats]
        keys = (
            "completed_writes", "host_programs", "gc_programs", "erases",
            "invalidations", "waf", "gc_runs", "gc_busy_ns",
            "host_gc_stall_ns", "host_gc_stalls", "free_blocks",
            "bad_blocks",
        )
        for entry in stats:
            rows[int(entry["index"])] = {
                k: float(entry[k]) for k in keys if k in entry
            }
        return rows

    def writeback_stats(self) -> Dict[str, int]:
        """Eviction write-back ledger summed over every GPU's software
        cache: snapshots taken, durably acked, and declared lost (terminal
        write failure after recovery retries)."""
        totals = {"writebacks": 0, "writebacks_acked": 0, "writebacks_lost": 0}
        for ctrl in self.host.ctrls:
            for key in totals:
                totals[key] += int(ctrl.cache.stats.get(key))
        return totals

    def load_pattern(self, classes: Sequence, page_size: int = 4096) -> None:
        """Stage a recognisable pattern under each class's logical region,
        placed through the backend's placement policy with the class name
        as the tenant key (what tenant-affine placement pivots on)."""
        for cls in classes:
            data = np.arange(cls.lba_space * page_size, dtype=np.uint8)
            self.host.load_logical(cls.lba_base, data, tenant=cls.name)

    def _access(
        self, tc, ctrl, chain: AgileLockChain, req: Request, dest
    ) -> Generator[Any, Any, bool]:
        """One thread's I/O for one request, under this system's
        discipline; returns whether every page arrived intact."""
        raise NotImplementedError

    def run_batch(
        self,
        worker_idx: int,
        batch: Batch,
        finish: Callable[[Request, bool], None],
    ) -> Generator[Any, Any, None]:
        """Serve one batch on one worker; ``finish(req, ok)`` is called
        exactly once per request at that request's own completion time."""
        requests = batch.requests
        # Per-(worker, thread) 4 KiB destination buffers in that worker's
        # HBM, grown on demand and reused across batches (host-side
        # allocation, no simulated time).
        scratch = self._scratch.setdefault(worker_idx, [])
        while len(scratch) < len(requests):
            view = self.host.alloc_view(4096, "serve", gpu_idx=worker_idx)
            view[:] = 0
            scratch.append(view)
        cfg = LaunchConfig.for_threads(len(requests), 128)
        n_threads = cfg.total_threads

        def body(tc, ctrl, _batch_args):
            # Global tids are contiguous within one launch, so modulo the
            # launch width recovers the in-grid index (the repo idiom).
            tid = tc.tid % n_threads
            if tid >= len(requests):
                return
            req = requests[tid]
            chain = AgileLockChain(f"serve.b{batch.bid}.t{tid}")
            ok = yield from self._access(tc, ctrl, chain, req, scratch[tid])
            finish(req, ok)

        kernel = KernelSpec(
            name=f"serve_{self.system}_b{batch.bid}",
            body=body,
            registers_per_thread=SERVE_KERNEL_REGISTERS,
        )
        launch = self.host.launch_kernel(
            kernel, cfg, args=(None,), gpu_idx=worker_idx
        )
        yield launch.done


class AgileServeBackend(ServeBackend):
    """The AGILE host, on one GPU or ``num_gpus`` sharing the SSDs."""

    system = "agile"
    supports_writes = True

    def __init__(
        self,
        cfg: Optional[SystemConfig] = None,
        num_gpus: int = 1,
        telemetry: Optional[bool] = None,
    ):
        super().__init__(AgileHost(cfg, num_gpus=num_gpus, telemetry=telemetry))
        self.supports_cached = num_gpus == 1

    def _access(self, tc, ctrl, chain, req, dest):
        # Every op serves ``req.pages``, resolved once at arrival.
        op = req.cls.op
        ok = True
        try:
            if op == "modify":
                # Read-modify-write through the software cache: each page
                # becomes a MODIFIED line whose device program is deferred
                # to eviction write-back.
                for ssd, lba in req.pages:
                    yield from ctrl.write_page(tc, chain, ssd, lba, dest)
                return ok
            if op == "paged":
                # Cache-routed reads: hits ride the Share Table, misses
                # fault the page in and may evict a cold line — the
                # KV-cache paging residency model runs live here.
                for ssd, lba in req.pages:
                    line = yield from ctrl.read_page(tc, chain, ssd, lba)
                    ctrl.cache.unpin(line)
                return ok
            txns = []
            issue = ctrl.raw_write if op == "write" else ctrl.raw_read
            for ssd, lba in req.pages:
                txn = yield from issue(tc, chain, ssd, lba, dest)
                txns.append(txn)
            for txn in txns:
                completion = yield from txn.wait()
                if completion is None or not completion.ok:
                    ok = False
        except AgileIoError:
            ok = False
        return ok


class BamServeBackend(ServeBackend):
    """BaM host: synchronous cached reads, inline CQ polling."""

    system = "bam"

    def __init__(
        self,
        cfg: Optional[SystemConfig] = None,
        telemetry: Optional[bool] = None,
    ):
        super().__init__(BamHost(cfg, telemetry=telemetry))

    def _access(self, tc, ctrl, chain, req, dest):
        for ssd, lba in req.pages:
            line = yield from ctrl.read_page(tc, chain, ssd, lba)
            ctrl.cache.unpin(line)
        return True


class NaiveServeBackend(ServeBackend):
    """Figure 1 naive-async on the BaM machine: per-thread SQE-lock issue
    plus self-polling completion, one :class:`NaiveAsyncEngine` over every
    SSD."""

    system = "naive"

    def __init__(self, cfg: Optional[SystemConfig] = None):
        super().__init__(BamHost(cfg))
        host = self.host
        self.engine = NaiveAsyncEngine(
            host.sim, host.ssds, host.queue_pairs, debugger=host.debugger
        )
        # Total SQ slots per SSD bounds safe concurrent outstanding I/O.
        # Worst case every request in the batch targets the same SSD and
        # holds all its page slots at once; staying under the slot count
        # keeps the strawman live instead of deadlocking mid-sweep.
        slots_per_ssd = min(
            sum(qp.sq.depth for qp in qps) for qps in host.queue_pairs
        )
        self.max_batch = max(1, slots_per_ssd // 2)

    def _access(self, tc, _ctrl, chain, req, dest):
        engine = self.engine
        tokens = []
        try:
            for ssd, lba in req.pages:
                token = yield from engine.async_issue(
                    tc, chain, ssd, Opcode.READ, lba, dest
                )
                tokens.append(token)
            for ssd in sorted({t.ssd for t in tokens}):
                yield from engine.wait_all(
                    tc, chain, [t for t in tokens if t.ssd == ssd],
                    stall_after_ns=NAIVE_STALL_NS,
                )
            return all(
                t.completion is not None and t.completion.ok for t in tokens
            )
        except (DeadlockError, SimStallError):
            # The Figure 1 defect biting: this thread's completion was
            # consumed and dropped by a sibling's poll loop (or its next
            # issue closed a lock cycle).  A real deployment would reset
            # the queue pair; here the thread releases every slot and
            # lock it still holds so the rest of the system stays live,
            # and the request surfaces as ABORTED — the naive curve's
            # collapse under concurrency is exactly these events.
            for token in tokens:
                if token.completion is None:
                    token.qp.sq.release(token.slot)
            for lock in list(chain.held):
                lock.release(chain)
            return False
