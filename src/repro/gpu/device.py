"""The GPU device: SM array, HBM, PCIe pipe, and kernel dispatch.

Block dispatch follows hardware rules: a global pool of residency slots
(``blocks_per_sm`` per SM from the occupancy calculator); waiting blocks
enter FIFO and, when a slot frees, land on the SM with the fewest resident
blocks.  Threads of a block are spawned as individual simulation processes
grouped into :class:`~repro.gpu.warp.Warp` objects.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

from repro.config import GpuConfig
from repro.gpu.kernel import KernelSpec, LaunchConfig, occupancy
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.thread import ThreadContext
from repro.gpu.warp import Warp
from repro.mem.hbm import Hbm
from repro.sim.engine import Event, Process, Simulator
from repro.sim.resources import BandwidthPipe


class KernelLaunch:
    """Handle for one in-flight kernel grid."""

    def __init__(self, sim: Simulator, kernel: KernelSpec, cfg: LaunchConfig):
        self.sim = sim
        self.kernel = kernel
        self.launch_cfg = cfg
        self.start_time = sim.now
        self.end_time: Optional[float] = None
        self.done = Event(sim, name=f"launch.{kernel.name}.done")
        self.thread_procs: list[Process] = []
        #: Optional :class:`repro.sim.probe.Probe` (the kernel's span).
        self.probe = None

    @property
    def duration(self) -> float:
        if self.end_time is None:
            raise RuntimeError(f"kernel {self.kernel.name!r} still running")
        return self.end_time - self.start_time

    def _finish(self) -> None:
        self.end_time = self.sim.now
        if self.probe is not None:
            self.probe.emit(
                "gpu.kernel", name=self.kernel.name, t0=self.start_time,
                grid_dim=self.launch_cfg.grid_dim, block_dim=self.launch_cfg.block_dim,
            )
        self.done.trigger()  # no value: the launch as its own value is a cycle


class Gpu:
    """One GPU: SMs + HBM + its PCIe x16 link (shared by all SSD traffic)."""

    def __init__(self, sim: Simulator, cfg: GpuConfig, hbm_capacity: int = 1 << 28):
        self.sim = sim
        self.cfg = cfg
        self.hbm = Hbm(sim, cfg, capacity=hbm_capacity)
        self.sms = [
            StreamingMultiprocessor(sim, cfg, i) for i in range(cfg.num_sms)
        ]
        #: Data pipe of the GPU's own PCIe link; SSD DMA payloads cross it.
        self.pcie_pipe = BandwidthPipe(
            sim, cfg.pcie.bytes_per_ns, latency_ns=0.0, name="gpu.pcie"
        )
        self._next_tid = 0
        self._next_warp = 0
        #: Optional :class:`repro.sim.probe.Probe`, passed to launches, warps.
        self.probe = None

    # -- kernel dispatch ---------------------------------------------------------

    def launch(
        self,
        kernel: KernelSpec,
        cfg: LaunchConfig,
        args: Sequence[Any] = (),
        reserve_sms: int = 0,
    ) -> KernelLaunch:
        """Launch a grid; returns immediately with a handle whose ``done``
        event fires when every thread has finished.

        ``reserve_sms`` keeps the last N SMs out of this launch (used to
        model the dedicated SMs running the AGILE service kernel).
        """
        sms = self.sms[: len(self.sms) - reserve_sms] if reserve_sms else self.sms
        if not sms:
            raise ValueError("no SMs left for the kernel after reservation")
        occ = occupancy(self.cfg, kernel, cfg.block_dim)
        launch = KernelLaunch(self.sim, kernel, cfg)
        launch.probe = self.probe
        # Free residency slots; a freed one passes to the oldest waiter.
        slots = {"free": occ.blocks_per_sm * len(sms), "waiting": []}
        remaining = {"blocks": cfg.grid_dim}

        def block_runner(block_id: int) -> Generator[Any, Any, None]:
            if slots["free"] and not slots["waiting"]:
                slots["free"] -= 1
            else:
                slots["waiting"].append(Event(self.sim, name=f"{kernel.name}.slot"))
                yield slots["waiting"][-1]
            sm = min(sms, key=lambda s: (s.resident_blocks, s.index))
            sm.resident_blocks += 1
            sm.resident_warps += occ.warps_per_block
            try:
                yield from self._run_block(
                    launch, kernel, cfg, block_id, sm, args
                )
            finally:
                sm.resident_blocks -= 1
                sm.resident_warps -= occ.warps_per_block
                if slots["waiting"]:
                    slots["waiting"].pop(0).trigger()
                else:
                    slots["free"] += 1
                remaining["blocks"] -= 1
                if remaining["blocks"] == 0:
                    launch._finish()

        for block_id in range(cfg.grid_dim):
            self.sim.spawn(
                block_runner(block_id),
                name=f"{kernel.name}.b{block_id}",
            )
        return launch

    def _run_block(
        self,
        launch: KernelLaunch,
        kernel: KernelSpec,
        cfg: LaunchConfig,
        block_id: int,
        sm: StreamingMultiprocessor,
        args: Sequence[Any],
    ) -> Generator[Any, Any, None]:
        procs: list[Process] = []
        warp: Optional[Warp] = None
        contexts: list[ThreadContext] = []
        for local in range(cfg.block_dim):
            lane = local % self.cfg.warp_size
            if lane == 0:
                self._next_warp += 1
                warp = Warp(self.sim, self._next_warp)
                warp.probe = self.probe
            tid = self._next_tid
            self._next_tid += 1
            tc = ThreadContext(self, sm, warp, tid, block_id, lane)
            warp.register(tid)
            contexts.append(tc)
        for tc in contexts:
            proc = self.sim.spawn(
                self._thread_main(kernel, tc, args),
                name=f"{kernel.name}.b{block_id}.{tc.name}",
            )
            procs.append(proc)
            launch.thread_procs.append(proc)
        for proc in procs:
            if proc.alive:
                yield proc

    @staticmethod
    def _thread_main(
        kernel: KernelSpec, tc: ThreadContext, args: Sequence[Any]
    ) -> Generator[Any, Any, Any]:
        try:
            result = yield from kernel.body(tc, *args)
            return result
        finally:
            tc.warp.retire(tc.tid)

    # -- convenience ---------------------------------------------------------------

    def run_to_completion(
        self,
        kernel: KernelSpec,
        cfg: LaunchConfig,
        args: Sequence[Any] = (),
        reserve_sms: int = 0,
    ) -> float:
        """Launch and drive the simulator until the grid finishes; returns
        the kernel execution time in ns."""
        launch = self.launch(kernel, cfg, args, reserve_sms=reserve_sms)

        def waiter() -> Generator[Any, Any, None]:
            yield launch.done

        proc = self.sim.spawn(waiter(), name=f"{kernel.name}.waiter")
        self.sim.run(until_procs=[proc])
        return launch.duration
