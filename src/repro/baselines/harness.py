"""Host-side assembly for BaM experiments: the same
:class:`~repro.core.machine.Machine` and :class:`~repro.core.node.GpuNode`
shape as :class:`~repro.core.host.AgileHost`, so drivers, probe and
telemetry treat the two systems alike."""

from __future__ import annotations

from typing import Optional

from repro.baselines.bam import BAM_API, BamCache, BamIoEngine
from repro.config import SystemConfig
from repro.core.ctrl import AgileCtrl
from repro.core.machine import Machine
from repro.core.node import GpuNode
from repro.core.policies import ClockPolicy


class BamHost(Machine):
    """Owns a simulated machine running BaM instead of AGILE.

    Its one node is BaM's engine and cache under AGILE's controller and no
    service (BaM threads poll inline), so kernels run on *all* SMs — BaM
    gets the hardware advantage its design implies, and still loses on
    overlap, as in the paper.  There are no live placement feeds either:
    BaM has no recovery daemon, and symmetric mapping keeps the two
    systems' data layouts comparable.
    """

    def __init__(
        self,
        cfg: Optional[SystemConfig] = None,
        *,
        telemetry: Optional[bool] = None,
    ):
        super().__init__(cfg)
        self.queue_pairs = self._create_queue_pairs()
        sim, group = self.sim, self.trace.counter
        issue = BamIoEngine(
            sim, self.ssds, self.queue_pairs, self.debugger, group("io")
        )
        cache = BamCache(
            sim, self.cfg.cache, self.gpu.hbm, ClockPolicy(), issue, BAM_API,
            debugger=self.debugger, stats=group("cache"),
        )
        ctrl = AgileCtrl(
            sim, self.cfg, cache, issue, None, self.placement,
            stats=group("ctrl"),
        )
        self.nodes = [GpuNode(self.gpu, issue, cache, None, ctrl)]
        self._finish(telemetry)
