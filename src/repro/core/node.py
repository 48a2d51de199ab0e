"""One GPU's AGILE stack and its builder — ``initializeAgile`` for one GPU.

The paper's §5 shares SSDs among GPUs through disjoint queue pairs, and
"the AGILE service and interfaces on the CUDA kernel do not need any
change".  So every GPU of an :class:`~repro.core.host.AgileHost` gets the
same stack from :func:`build_node`, over its own queue-pair range and its
own HBM; only the stat-group prefix tells them apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.cache import DramTier, SoftwareCache
from repro.core.ctrl import AgileCtrl
from repro.core.issue import IssueEngine
from repro.core.machine import Machine
from repro.core.policies import CachePolicy, make_policy
from repro.core.recovery import RecoveryManager
from repro.core.service import AgileService
from repro.core.sharetable import SharePolicy, ShareTable
from repro.gpu.device import Gpu
from repro.nvme.queue import QueuePair


@dataclass
class GpuNode:
    """One GPU's complete AGILE stack."""

    gpu: Gpu
    issue: IssueEngine
    cache: SoftwareCache
    service: AgileService
    ctrl: AgileCtrl
    recovery: Optional[RecoveryManager] = None
    share_table: Optional[ShareTable] = None


def build_node(
    machine: Machine,
    index: int,
    queue_pairs: list[list[QueuePair]],
    *,
    prefix: str = "",
    policy: Optional[CachePolicy] = None,
    share_policy: Optional[SharePolicy] = None,
) -> GpuNode:
    """IssueEngine -> SoftwareCache -> ShareTable -> AgileService ->
    AgileCtrl for GPU ``index`` of ``machine`` over its queue pairs, stat
    groups named ``prefix + {io,cache,...}``; the controller joins
    ``machine.ctrls``."""
    cfg, sim = machine.cfg, machine.sim
    gpu = machine.gpus[index]

    def group(name: str):
        return machine.trace.counter(prefix + name)

    issue = IssueEngine(
        sim,
        machine.ssds,
        queue_pairs,
        cfg.api,
        debugger=machine.debugger,
        stats=group("io"),
    )
    # Built only when configured, so fault-free runs keep the exact
    # pre-fault event stream (bit-identical golden traces).
    recovery = None
    if cfg.faults.active or cfg.recovery.enabled:
        recovery = RecoveryManager(
            sim, issue, cfg.recovery, stats=group("recovery")
        )
    dram_tier = (
        DramTier(cfg.cache.dram_tier_lines)
        if cfg.cache.dram_tier_lines > 0
        else None
    )
    cache = SoftwareCache(
        sim,
        cfg.cache,
        gpu.hbm,
        policy if policy is not None else make_policy(cfg.cache.policy),
        issue,
        cfg.api,
        dram_tier=dram_tier,
        debugger=machine.debugger,
        stats=group("cache"),
    )
    share_table = None
    if cfg.cache.share_table:
        share_table = ShareTable(
            sim,
            cache,
            cfg.api,
            policy=share_policy,
            stats=group("share"),
        )
    service = AgileService(
        sim, gpu, issue, cfg.service, stats=group("service")
    )
    ctrl = AgileCtrl(
        sim,
        cfg,
        cache,
        issue,
        share_table,
        stats=group("ctrl"),
        placement=machine.placement,
    )
    machine.ctrls.append(ctrl)
    return GpuNode(
        gpu, issue, cache, service, ctrl, recovery, share_table
    )
