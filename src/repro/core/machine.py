"""The simulated machine every host assembles, built once.

The paper compares AGILE and BaM on the *same* GPU, SSDs and queue
geometry, and its §5 multi-GPU extension "only requires some modifications
to the Host APIs".  :class:`Machine` is that common substrate: simulator,
metric registry, GPU(s), NVMe driver, SSD array, placement policy,
instrumentation probe, data staging and kernel launch.  A host subclass adds
only what its system runs on top (the per-GPU AGILE stack, or the BaM
controller), fills :attr:`Machine.ctrls` with one kernel-side controller
per GPU, and ends its constructor with :meth:`Machine._finish`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro import telemetry as telemetry_mod
from repro.config import ConfigError, SystemConfig
from repro.core.locks import LockDebugger
from repro.gpu.device import Gpu, KernelLaunch
from repro.gpu.kernel import KernelSpec, LaunchConfig
from repro.nvme.command import CQE_SIZE, SQE_SIZE
from repro.nvme.driver import NvmeDriver
from repro.nvme.queue import QueuePair
from repro.placement import PlacementPolicy, interleaved, placement_for_config
from repro.sim import probe as probe_mod
from repro.sim.engine import Simulator
from repro.telemetry.registry import MetricRegistry


class Machine:
    """GPU(s) + shared SSD array + placement, with nothing running on it."""

    #: SMs kept out of user kernels (AGILE dedicates one to its service).
    reserved_sms = 0
    #: One runtime stack per GPU (AGILE's ``GpuNode``); none on BaM.
    nodes: Sequence[Any] = ()

    def __init__(
        self,
        cfg: Optional[SystemConfig] = None,
        *,
        num_gpus: int = 1,
        debug_locks: bool = True,
        hbm_capacity: Optional[int] = None,
        watchdog_ns: float = 0.0,
    ):
        if num_gpus < 1:
            raise ValueError("need at least one GPU")
        self.cfg = cfg if cfg is not None else SystemConfig()
        # ``cfg.queue_pairs`` is the per-SSD *per-GPU* count (paper §5: each
        # GPU gets a disjoint queue-pair range of every shared SSD).
        for ssd in self.cfg.ssds:
            if num_gpus * self.cfg.queue_pairs > ssd.max_queue_pairs:
                raise ConfigError(
                    f"{ssd.name}: {num_gpus} GPUs x {self.cfg.queue_pairs} "
                    f"queue pairs exceed the device limit of "
                    f"{ssd.max_queue_pairs}"
                )
        if self.cfg.gpu.num_sms <= self.reserved_sms:
            raise ConfigError(
                f"gpu.num_sms={self.cfg.gpu.num_sms} leaves no SM for kernels "
                f"beside the {self.reserved_sms} this host reserves"
            )
        self.sim = sim = Simulator(watchdog_ns=watchdog_ns)
        self.trace = MetricRegistry()
        self.trace.set_clock(lambda: sim.now)
        capacity = hbm_capacity
        if capacity is None:
            # Cache, this GPU's SQ/CQ rings (each 4 KiB-aligned, one pair
            # per SSD and queue pair) and headroom for user buffers.
            ring = sum(
                -(-self.cfg.queue_depth * entry // 4096) * 4096
                for entry in (SQE_SIZE, CQE_SIZE)
            )
            capacity = (
                self.cfg.cache.capacity_bytes
                + len(self.cfg.ssds) * self.cfg.queue_pairs * ring
                + (64 << 20)
            )
        self.gpus = [
            Gpu(self.sim, self.cfg.gpu, hbm_capacity=capacity)
            for _ in range(num_gpus)
        ]
        self.gpu = self.gpus[0]
        self.debugger = LockDebugger(enabled=debug_locks)
        # -- addNvmeDev ---------------------------------------------------
        # The SSDs are shared; controller-side DMA timing is charged to the
        # first GPU's HBM port (with several GPUs traffic actually splits,
        # so this slightly over-serializes — a documented approximation).
        self.driver = NvmeDriver(self.sim, self.gpu.hbm)
        self.ssds = [
            self.driver.add_device(scfg, gpu_pipe=self.gpu.pcie_pipe)
            for scfg in self.cfg.ssds
        ]
        #: One placement policy for the whole array (logical LBA -> (ssd,
        #: device LBA)): the SSDs, and hence the logical address space, are
        #: shared, so every controller must resolve identically.  Built
        #: host-side with no simulated events and no live load/health feeds
        #: (the AGILE host wires its own; symmetric mapping keeps the
        #: systems' data layouts comparable).
        self.placement: PlacementPolicy = placement_for_config(self.cfg)
        #: One kernel-side controller per GPU (the first argument every
        #: kernel body receives); filled by the subclass.
        self.ctrls: list[Any] = []
        #: None until something listens (:meth:`instrument`), then its
        #: subscribers: the telemetry and analysis sessions.
        self.probe: Optional[probe_mod.Probe] = None
        self.telemetry: Optional[telemetry_mod.Telemetry] = None
        self.analysis: Optional[Any] = None

    def _create_queue_pairs(self, gpu_idx: int = 0) -> list[list[QueuePair]]:
        """``initNvme`` for one GPU: its disjoint queue-pair range on every
        SSD, ring memory pinned in *its own* HBM."""
        return [
            self.driver.create_io_queues(
                ssd,
                self.cfg.queue_pairs,
                self.cfg.queue_depth,
                qid_base=gpu_idx * self.cfg.queue_pairs,
                hbm=self.gpus[gpu_idx].hbm,
            )
            for ssd in self.ssds
        ]

    def _finish(self, telemetry: Optional[bool]) -> None:
        """Last constructor step, once the subclass has built its stack:
        build the subscribers armed by :func:`repro.sim.probe.listening`.
        ``telemetry=True`` forces a session on, ``False`` keeps a
        :func:`repro.telemetry.capture` block's off, ``None`` defers."""
        for role, build in probe_mod.armed():
            if role != "telemetry" or telemetry is not False:
                build(self)
        if telemetry and self.telemetry is None:
            telemetry_mod.Telemetry(self)
        self._register_collectors()

    def instrument(self) -> probe_mod.Probe:
        """The machine's probe, handed to every instrumented part of every
        host kind on first use (host side, no simulated time)."""
        if self.probe is None:
            probe = self.probe = probe_mod.Probe(self.sim)
            parts: list[Any] = [self.sim, self.debugger]
            for gpu in self.gpus:
                parts += (gpu, gpu.hbm)
            for ssd in self.ssds:
                parts += (ssd, ssd.link, ssd.flash.ftl)
                for qp in ssd.queue_pairs:
                    parts += (qp.sq, qp.cq, qp.sq.doorbell, qp.cq.doorbell)
            for node in self.nodes:
                parts += (node.issue, node.cache, node.service)
                if node.share_table is not None:
                    parts.append(node.share_table)
            for part in parts:
                part.probe = probe
        return self.probe

    def _register_collectors(self) -> None:
        """Pull collectors for accounting that already lives on model
        objects.  Always on: they run only at snapshot time, so they cost
        nothing during the simulation.  Each closes over the parts it
        reads, never the machine: the machine owns the registry, and a
        cycle through it would keep HBM and flash alive until a GC pass."""
        sim, driver = self.sim, self.driver
        self.trace.register_collector(
            "sim", lambda: {"now": sim.now, "event_count": sim.event_count}
        )
        self.trace.register_collector(
            "devices",
            lambda: {
                f"ssd{i}": st for i, st in enumerate(driver.device_stats())
            },
        )

    # -- data staging (host side, no simulated time) -------------------------

    def load_data(
        self, ssd_idx: int, start_lba: int, data: np.ndarray
    ) -> int:
        """Place a dataset on one SSD's flash; returns pages written."""
        return self._write_pages(data, lambda p: (ssd_idx, start_lba + p))

    def load_data_striped(self, start_lba: int, data: np.ndarray) -> int:
        """Stripe a dataset page-interleaved across all SSDs (the paper's
        multi-SSD layout: request i goes to SSD ``i mod n``).  Page ``p`` of
        the logical array lands at LBA ``start_lba + p // n`` of SSD
        ``p mod n``.  Returns the number of logical pages.

        Compatibility shim: the layout is fixed page-interleaved striping
        regardless of the configured policy, expressed through the shared
        :func:`~repro.placement.interleaved` policy (logical page ``p`` of
        the region is logical LBA ``start_lba * n + p``).
        """
        n = len(self.ssds)
        policy = interleaved(n)
        return self._write_pages(
            data, lambda p: policy.place(start_lba * n + p)
        )

    def load_logical(
        self,
        start_lba: int,
        data: np.ndarray,
        tenant: Optional[str] = None,
    ) -> int:
        """Place a dataset at a *logical* LBA range, routed through the
        machine's placement policy.  Returns pages written."""
        return self._write_pages(
            data, lambda p: self.placement.place(start_lba + p, tenant=tenant)
        )

    def read_logical(
        self,
        start_lba: int,
        nbytes: int,
        dtype: np.dtype | str = np.uint8,
        tenant: Optional[str] = None,
    ) -> np.ndarray:
        """Read a logically-addressed dataset back (verification helper,
        the placement-aware sibling of :meth:`read_flash`)."""
        return self._read_pages(
            nbytes,
            dtype,
            lambda p: self.placement.place(start_lba + p, tenant=tenant),
        )

    def resolve(
        self, lba: int, tenant: Optional[str] = None
    ) -> tuple[int, int]:
        """Placement resolution for one logical LBA."""
        return self.placement.place(lba, tenant=tenant)

    def read_flash(
        self,
        ssd_idx: int,
        start_lba: int,
        nbytes: int,
        dtype: np.dtype | str = np.uint8,
    ) -> np.ndarray:
        """Read a dataset back from flash (verification helper)."""
        return self._read_pages(
            nbytes, dtype, lambda p: (ssd_idx, start_lba + p)
        )

    def _write_pages(
        self, data: np.ndarray, place: Callable[[int], tuple[int, int]]
    ) -> int:
        """Write ``data`` page by page, page ``p`` to ``place(p)`` =
        ``(ssd, device LBA)``.  The FTL copies what it stores, so full
        pages go in as views; only a short last page is zero-padded."""
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        page = self.cfg.ssds[0].page_size
        n_pages = -(-raw.size // page)
        for p in range(n_pages):
            chunk = raw[p * page : (p + 1) * page]
            if chunk.size < page:
                chunk = np.concatenate(
                    (chunk, np.zeros(page - chunk.size, dtype=np.uint8))
                )
            ssd_idx, device_lba = place(p)
            self.ssds[ssd_idx].flash.write_page_data(device_lba, chunk)
        return n_pages

    def _read_pages(
        self,
        nbytes: int,
        dtype: np.dtype | str,
        place: Callable[[int], tuple[int, int]],
    ) -> np.ndarray:
        """Gather ``nbytes`` from the pages ``place(0), place(1), ...``."""
        page = self.cfg.ssds[0].page_size
        n_pages = -(-nbytes // page)
        out = np.empty(n_pages * page, dtype=np.uint8)
        for p in range(n_pages):
            ssd_idx, device_lba = place(p)
            out[p * page : (p + 1) * page] = self.ssds[
                ssd_idx
            ].flash.read_page_data(device_lba)
        return out[:nbytes].view(np.dtype(dtype))

    def preload_cache(self, ssd_idx: int, lbas: Sequence[int]) -> None:
        """Install pages into every GPU's software cache without NVMe
        traffic — the paper's Fig. 11 step-3 methodology (cache-API
        overhead isolation)."""
        flash = self.ssds[ssd_idx].flash
        for ctrl in self.ctrls:
            for lba in lbas:
                ctrl.cache.preload(ssd_idx, lba, flash.read_page_data(lba))

    def alloc_view(
        self, nbytes: int, label: str = "user", gpu_idx: int = 0
    ) -> np.ndarray:
        return self.gpus[gpu_idx].hbm.alloc(nbytes, label=label).view

    # -- lifecycle (nothing runs in the background on a bare machine) --------

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def drain(self) -> None:
        """Wait out asynchronous I/O still in flight — none here: without a
        service, threads retire their own commands before a kernel ends."""

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- kernel execution ----------------------------------------------------

    def launch_kernel(
        self,
        kernel: KernelSpec,
        launch_cfg: LaunchConfig,
        args: Sequence[Any] = (),
        gpu_idx: int = 0,
    ) -> KernelLaunch:
        """Launch on one GPU without blocking; the body receives that
        GPU's controller ahead of ``args``."""
        return self.gpus[gpu_idx].launch(
            kernel,
            launch_cfg,
            args=(self.ctrls[gpu_idx], *args),
            reserve_sms=self.reserved_sms,
        )

    def run_kernel(
        self,
        kernel: KernelSpec,
        launch_cfg: LaunchConfig,
        args: Sequence[Any] = (),
    ) -> float:
        """Launch ``kernel`` and run the simulation until it completes;
        returns the kernel duration in simulated ns."""
        launch = self.launch_kernel(kernel, launch_cfg, args)
        self._run_until_done([launch], f"{kernel.name}.host_wait")
        return launch.duration

    def _run_until_done(
        self, launches: Sequence[KernelLaunch], name: str
    ) -> None:
        def waiter():
            for launch in launches:
                yield launch.done

        proc = self.sim.spawn(waiter(), name=name)
        self.sim.run(until_procs=[proc])

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict[str, dict[str, float]]:
        return self.trace.counters_snapshot()
