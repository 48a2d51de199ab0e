"""Host-side orchestration — the paper's Listing 1 main() in library form.

Typical use (mirrors Listing 1 lines 22-47)::

    cfg = SystemConfig(...)                      # GPU + SSDs + queues
    host = AgileHost(cfg)                        # init NVMe + AGILE ctrl
    host.load_data(ssd_idx=0, start_lba=0, arr)  # place dataset on flash
    with host:                                   # startAgile ... stopAgile
        duration = host.run_kernel(kernel, LaunchConfig(grid, block), args)

Kernel bodies receive ``(tc, ctrl, *args)``; each thread builds its own
``AgileLockChain`` (Listing 1 line 6).

The machine itself is :class:`~repro.core.machine.Machine`; this module
adds the AGILE runtime on top of it: :class:`AgileMachine` builds one
:class:`GpuNode` stack per GPU and runs their services, and the single-GPU
:class:`AgileHost` adds the fault plan and the placement feeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Optional, Sequence

from repro.config import SystemConfig
from repro.core.buffers import AgileBuf
from repro.core.cache import DramTier, SoftwareCache
from repro.core.ctrl import AgileCtrl
from repro.core.issue import IssueEngine
from repro.core.machine import Machine
from repro.core.policies import CachePolicy, make_policy
from repro.core.recovery import RecoveryManager
from repro.core.service import AgileService
from repro.core.sharetable import SharePolicy, ShareTable
from repro.faults import FaultInjector
from repro.gpu.device import Gpu, KernelLaunch
from repro.gpu.kernel import KernelSpec, LaunchConfig
from repro.nvme.queue import QueuePair
from repro.placement import LoadAwarePlacement, Move
from repro.sim.rng import RngStreams


@dataclass
class GpuNode:
    """One GPU's complete AGILE stack."""

    index: int
    gpu: Gpu
    issue: IssueEngine
    cache: SoftwareCache
    service: AgileService
    ctrl: AgileCtrl
    recovery: Optional[RecoveryManager] = None
    share_table: Optional[ShareTable] = None


class AgileMachine(Machine):
    """A machine whose every GPU runs the (unchanged) AGILE stack, one SM
    of each reserved for the service kernel."""

    reserved_sms = 1
    #: One AGILE stack per GPU, in GPU order (set by the subclass).
    nodes: list[GpuNode]

    def _build_node(
        self,
        index: int,
        queue_pairs: list[list[QueuePair]],
        *,
        prefix: str = "",
        policy: Optional[CachePolicy] = None,
        share_policy: Optional[SharePolicy] = None,
        full: bool = True,
    ) -> GpuNode:
        """``initializeAgile`` for GPU ``index``: IssueEngine -> SoftwareCache
        -> ShareTable -> AgileService -> AgileCtrl over its queue pairs,
        stat groups named ``prefix + {io,cache,...}``.  ``full=False``
        leaves out the recovery daemon, DRAM tier and Share Table (their
        per-GPU forms are future work for the multi-GPU host)."""
        cfg = self.cfg
        gpu = self.gpus[index]

        def group(name: str):
            return self.trace.counter(prefix + name)

        issue = IssueEngine(
            self.sim,
            self.ssds,
            queue_pairs,
            cfg.api,
            debugger=self.debugger,
            stats=group("io"),
        )
        # Built only when configured, so fault-free runs keep the exact
        # pre-fault event stream (bit-identical golden traces).
        recovery = None
        if full and (cfg.faults.active or cfg.recovery.enabled):
            recovery = RecoveryManager(
                self.sim, issue, cfg.recovery, stats=group("recovery")
            )
        dram_tier = (
            DramTier(cfg.cache.dram_tier_lines)
            if full and cfg.cache.dram_tier_lines > 0
            else None
        )
        cache = SoftwareCache(
            self.sim,
            cfg.cache,
            gpu.hbm,
            policy if policy is not None else make_policy(cfg.cache.policy),
            issue,
            cfg.api,
            dram_tier=dram_tier,
            debugger=self.debugger,
            stats=group("cache"),
        )
        share_table = None
        if full and cfg.cache.share_table:
            share_table = ShareTable(
                self.sim,
                cache,
                cfg.api,
                policy=share_policy,
                stats=group("share"),
            )
        service = AgileService(
            self.sim, gpu, issue, cfg.service, stats=group("service")
        )
        ctrl = AgileCtrl(
            self.sim,
            cfg,
            cache,
            issue,
            share_table,
            stats=group("ctrl"),
            placement=self.placement,
        )
        self.ctrls.append(ctrl)
        return GpuNode(
            index, gpu, issue, cache, service, ctrl, recovery, share_table
        )

    # -- service lifecycle ----------------------------------------------------

    def start(self) -> None:
        """``host.startAgile()``."""
        for node in self.nodes:
            node.service.start()

    def stop(self) -> None:
        """``host.stopAgile()``."""
        for node in self.nodes:
            node.service.stop()

    def inflight(self) -> int:
        """NVMe commands outstanding across all GPUs."""
        return sum(node.issue.inflight() for node in self.nodes)

    def launch_kernel(
        self,
        kernel: KernelSpec,
        launch_cfg: LaunchConfig,
        args: Sequence[Any] = (),
        gpu_idx: int = 0,
    ) -> KernelLaunch:
        """Launch without blocking; the AGILE service SM stays reserved."""
        if not self.nodes[gpu_idx].service.running:
            raise RuntimeError(
                "start the AGILE service before launching kernels "
                f"(paper Listing 1 line 40); GPU {gpu_idx}: service not "
                "running"
            )
        return super().launch_kernel(kernel, launch_cfg, args, gpu_idx)

    def drain(self, poll_ns: float = 2_000.0) -> None:
        """Run the simulation until no NVMe commands are in flight (the
        service must be running).  Use after kernels that end with
        asynchronous work outstanding, e.g. a trailing prefetch epoch."""
        if self.inflight() == 0:
            return
        if not all(node.service.running for node in self.nodes):
            raise RuntimeError("cannot drain I/O with the service stopped")

        def waiter():
            while self.inflight() > 0:
                yield self.sim.timeout(poll_ns)

        proc = self.sim.spawn(waiter(), name="host.drain")
        self.sim.run(until_procs=[proc])


class AgileHost(AgileMachine):
    """Owns the simulated machine and the AGILE runtime on top of it."""

    def __init__(
        self,
        cfg: Optional[SystemConfig] = None,
        *,
        policy: Optional[CachePolicy] = None,
        share_policy: Optional[SharePolicy] = None,
        debug_locks: bool = True,
        hbm_capacity: Optional[int] = None,
        watchdog_ns: float = 0.0,
        telemetry: Optional[bool] = None,
    ):
        super().__init__(
            cfg,
            debug_locks=debug_locks,
            hbm_capacity=hbm_capacity,
            watchdog_ns=watchdog_ns,
        )
        self.rng = RngStreams(self.cfg.seed)
        self.queue_pairs = self._create_queue_pairs()  # initNvme
        # Built only when configured (see ``_build_node``'s recovery note).
        self.fault_injector: Optional[FaultInjector] = None
        if self.cfg.faults.active:
            self.fault_injector = FaultInjector(
                self.sim,
                self.cfg.faults,
                self.rng,
                stats=self.trace.counter("faults"),
            )
            for ssd in self.ssds:
                ssd.arm_faults(self.fault_injector)
        node = self._build_node(
            0, self.queue_pairs, policy=policy, share_policy=share_policy
        )
        self.nodes = [node]
        self.issue = node.issue
        self.recovery = node.recovery
        self.cache = node.cache
        self.share_table = node.share_table
        self.service = node.service
        self.ctrl = node.ctrl
        if isinstance(self.placement, LoadAwarePlacement):
            # Live feeds over the issue engine, never bound methods: the
            # host owns the policy, so a feed holding the host is a cycle.
            self.placement.load = partial(self._device_loads, self.issue)
            self.placement.healthy = partial(self._device_healthy, self.issue)
        self._finish(telemetry)

    def _register_collectors(self) -> None:
        super()._register_collectors()
        reg = self.trace
        gpu, ssds, issue, service = self.gpu, self.ssds, self.issue, self.service
        reg.register_collector(
            "flash_channel_busy_ns",
            lambda: {
                f"ssd{ssd.index}.ch{ci}": ch.busy_time
                for ssd in ssds
                for ci, ch in enumerate(ssd.flash._channels)
            },
        )
        reg.register_collector(
            "link_bytes",
            lambda: {
                **{
                    f"ssd{ssd.index}.pcie.{direction}": pipe.bytes_moved
                    for ssd in ssds
                    for direction, pipe in (
                        ("up", ssd.link.upstream),
                        ("down", ssd.link.downstream),
                    )
                },
                "gpu.pcie": gpu.pcie_pipe.bytes_moved,
            },
        )
        reg.register_collector(
            "hbm",
            lambda: {
                "loads": gpu.hbm.loads,
                "stores": gpu.hbm.stores,
                "atomics": gpu.hbm.atomics,
                "utilization": gpu.hbm.utilization(),
            },
        )
        reg.register_collector(
            "sm_thread_cycles",
            lambda: {
                f"sm{sm.index}": sm.issued_thread_cycles() for sm in gpu.sms
            }
            # The polling warps charge their reserved SM in closed form.
            | {f"sm{gpu.sms[-1].index}": service.thread_cycles()},
        )
        reg.register_collector("inflight", lambda: {"cids": issue.inflight()})

    # -- placement feeds (pull-based; no simulated time) ---------------------

    #: Write-pressure weights for the load-aware feed: a device whose GC
    #: is amplifying writes (WAF above 1) or running low on free blocks
    #: is about to get slower than its queue depth alone suggests, so new
    #: allocations should prefer its peers.  Scaled to matter against
    #: typical in-flight counts (tens of commands).
    WAF_LOAD_WEIGHT = 8.0
    SCARCITY_LOAD_WEIGHT = 16.0

    @staticmethod
    def _device_loads(issue: IssueEngine) -> list[float]:
        """Per-device load signal for the load-aware policy: in-flight
        commands plus FTL write pressure (WAF excess and free-block
        scarcity).  The pressure term is gated on the device having seen
        any program at all — untouched FTLs contribute exactly 0.0, so
        read-only runs score identically to the pre-FTL feed and stay
        bit-exact."""
        loads = [0.0] * len(issue.ssds)
        for ssd_idx, _qid, _cid in issue.pending:
            loads[ssd_idx] += 1.0
        for i, ssd in enumerate(issue.ssds):
            ftl = ssd.flash.ftl
            if not (ftl.host_programs or ftl.gc_programs):
                continue
            scarcity = 1.0 - ftl.free_blocks / ftl.cfg.physical_blocks
            loads[i] += (
                AgileHost.WAF_LOAD_WEIGHT * (ftl.waf - 1.0)
                + AgileHost.SCARCITY_LOAD_WEIGHT * scarcity
            )
        return loads

    @staticmethod
    def _device_healthy(issue: IssueEngine) -> list[bool]:
        """Circuit-breaker health per device (all-healthy without
        recovery)."""
        if issue.recovery is None:
            return [True] * len(issue.ssds)
        return [not br.open for br in issue.recovery.breakers]

    def rebalance_placement(
        self, device_loads: Optional[Sequence[float]] = None
    ) -> list[Move]:
        """Ask the placement policy to migrate mappings toward balance and
        copy the affected flash pages; returns the moves performed.
        Host-side (no simulated time) — the modelled cost is the policy's
        business to keep small via ``rebalance_max_moves``."""
        loads = (
            list(device_loads)
            if device_loads is not None
            else self._device_loads(self.issue)
        )
        moves = self.placement.rebalance(loads)
        for mv in moves:
            (src_ssd, src_lba), (dst_ssd, dst_lba) = mv.src, mv.dst
            self.ssds[dst_ssd].flash.write_page_data(
                dst_lba, self.ssds[src_ssd].flash.read_page_data(src_lba)
            )
        return moves

    def make_buffer(self, nbytes: Optional[int] = None, label: str = "") -> AgileBuf:
        """Allocate and register a user buffer (one cache line by default)."""
        size = nbytes if nbytes is not None else self.cfg.cache.line_size
        return self.ctrl.make_buffer(self.alloc_view(size), label=label)

    def device_health(self) -> list[dict[str, object]]:
        """Per-device counters plus circuit-breaker state (diagnostics for
        chaos runs and the bench trend report)."""
        report = self.driver.device_stats()
        for idx, entry in enumerate(report):
            if self.recovery is not None:
                br = self.recovery.breakers[idx]
                entry["breaker_open"] = br.open
                if br.open:
                    entry["breaker_reason"] = self.recovery.dead_reason(idx)
            else:
                entry["breaker_open"] = False
        return report
