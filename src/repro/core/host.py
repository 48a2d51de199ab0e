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
adds the AGILE runtime on top of it: one :class:`~repro.core.node.GpuNode`
stack per GPU, their services, the fault plan and the placement feeds.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional, Sequence

from repro.config import SystemConfig
from repro.core.buffers import AgileBuf
from repro.core.issue import IssueEngine
from repro.core.machine import Machine
from repro.core.node import GpuNode, build_node
from repro.core.policies import CachePolicy
from repro.core.sharetable import SharePolicy
from repro.faults import FaultInjector
from repro.gpu.device import KernelLaunch
from repro.gpu.kernel import KernelSpec, LaunchConfig
from repro.placement import LoadAwarePlacement, Move
from repro.sim.rng import RngStreams


class AgileHost(Machine):
    """Owns the simulated machine and the AGILE runtime on top of it: one
    GPU, or several sharing the SSDs through disjoint queue pairs (paper
    §5), each running the same stack (:func:`~repro.core.node.build_node`)
    with one SM reserved for its service.

    ``cfg.queue_pairs`` is the per-SSD *per-GPU* count, so an SSD serves
    ``num_gpus * cfg.queue_pairs`` queue pairs (bounded by its
    ``max_queue_pairs``).  With several GPUs the stat groups are prefixed
    ``gpuN.``, and the single-stack attributes (``issue``, ``cache``,
    ``ctrl``, ``recovery``, ...) name GPU 0's stack.
    """

    reserved_sms = 1
    #: One AGILE stack per GPU, in GPU order.
    nodes: list[GpuNode]

    def __init__(
        self,
        cfg: Optional[SystemConfig] = None,
        *,
        num_gpus: int = 1,
        policy: Optional[CachePolicy] = None,
        share_policy: Optional[SharePolicy] = None,
        watchdog_ns: float = 0.0,
        telemetry: Optional[bool] = None,
    ):
        if num_gpus > 1 and policy is not None:
            raise ValueError(
                "a CachePolicy instance attaches to one cache; with several "
                "GPUs name it in cfg.cache.policy instead"
            )
        super().__init__(cfg, num_gpus=num_gpus, watchdog_ns=watchdog_ns)
        self.rng = RngStreams(self.cfg.seed)
        # initNvme: each GPU's queue-pair range, rings in its own HBM.
        queue_pairs = [self._create_queue_pairs(g) for g in range(num_gpus)]
        self.queue_pairs = queue_pairs[0]
        # Built only when configured (see ``build_node``'s recovery note).
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
        self.nodes = [
            build_node(
                self,
                g,
                qps,
                prefix=f"gpu{g}." if num_gpus > 1 else "",
                policy=policy,
                share_policy=share_policy,
            )
            for g, qps in enumerate(queue_pairs)
        ]
        node = self.nodes[0]
        self.issue = node.issue
        self.recovery = node.recovery
        self.cache = node.cache
        self.share_table = node.share_table
        self.service = node.service
        self.ctrl = node.ctrl
        if isinstance(self.placement, LoadAwarePlacement):
            # Live feeds over the issue engines, never bound methods: the
            # host owns the policy, so a feed holding the host is a cycle.
            issues = [node.issue for node in self.nodes]
            self.placement.load = partial(self._device_loads, *issues)
            self.placement.healthy = partial(self._device_healthy, *issues)
        self._finish(telemetry)

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

    def run_kernels(
        self,
        kernel: KernelSpec,
        launch_cfg: LaunchConfig,
        per_gpu_args: Sequence[Sequence[Any]],
    ) -> float:
        """Launch the kernel on every GPU concurrently; returns the
        makespan (the GPUs share the SSDs, so they contend)."""
        if len(per_gpu_args) != len(self.nodes):
            raise ValueError("one argument tuple per GPU required")
        start = self.sim.now
        launches = [
            self.launch_kernel(kernel, launch_cfg, args, gpu_idx=g)
            for g, args in enumerate(per_gpu_args)
        ]
        self._run_until_done(launches, "multigpu.wait")
        return self.sim.now - start

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

    def _register_collectors(self) -> None:
        super()._register_collectors()
        reg = self.trace
        gpu, ssds, service = self.gpu, self.ssds, self.service
        issues = [node.issue for node in self.nodes]
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
        reg.register_collector(
            "inflight", lambda: {"cids": sum(i.inflight() for i in issues)}
        )

    # -- placement feeds (pull-based; no simulated time) ---------------------

    #: Write-pressure weights for the load-aware feed: a device whose GC
    #: is amplifying writes (WAF above 1) or running low on free blocks
    #: is about to get slower than its queue depth alone suggests, so new
    #: allocations should prefer its peers.  Scaled to matter against
    #: typical in-flight counts (tens of commands).
    WAF_LOAD_WEIGHT = 8.0
    SCARCITY_LOAD_WEIGHT = 16.0

    @staticmethod
    def _device_loads(*issues: IssueEngine) -> list[float]:
        """Per-device load signal for the load-aware policy: every GPU's
        in-flight commands plus FTL write pressure (WAF excess and
        free-block scarcity).  The pressure term is gated on the device having seen
        any program at all — untouched FTLs contribute exactly 0.0, so
        read-only runs score identically to the pre-FTL feed and stay
        bit-exact."""
        ssds = issues[0].ssds
        loads = [0.0] * len(ssds)
        for issue in issues:
            for ssd_idx, _qid, _cid in issue.pending:
                loads[ssd_idx] += 1.0
        for i, ssd in enumerate(ssds):
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
    def _device_healthy(*issues: IssueEngine) -> list[bool]:
        """Circuit-breaker health per device: healthy while no GPU's
        breaker for it is open (all-healthy without recovery)."""
        if issues[0].recovery is None:
            return [True] * len(issues[0].ssds)
        opens = [[br.open for br in i.recovery.breakers] for i in issues]
        return [not any(per_device) for per_device in zip(*opens)]

    def rebalance_placement(self) -> list[Move]:
        """Ask the placement policy to migrate mappings toward balance
        under the live device loads and copy the affected flash pages;
        returns the moves performed.  Host-side (no simulated time) — the
        modelled cost is the policy's business to keep small via
        ``rebalance_max_moves``."""
        loads = self._device_loads(*(node.issue for node in self.nodes))
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
