"""Host-side assembly for BaM experiments: the same
:class:`~repro.core.machine.Machine` as :class:`~repro.core.host.AgileHost`
(same GPU, same SSDs, same queue geometry, same placement contract), so the
benchmark drivers can swap the two systems symmetrically."""

from __future__ import annotations

from typing import Optional

from repro.baselines.bam import BamCostConfig, BamCtrl
from repro.config import SystemConfig
from repro.core.machine import Machine


class BamHost(Machine):
    """Owns a simulated machine running BaM instead of AGILE.

    No background service exists (BaM threads poll inline), so kernels run
    on *all* SMs — BaM gets the hardware advantage its design implies, and
    still loses on overlap, as in the paper.  There are no live placement
    feeds either: BaM has no recovery daemon, and symmetric mapping keeps
    the two systems' data layouts comparable.
    """

    def __init__(
        self,
        cfg: Optional[SystemConfig] = None,
        *,
        costs: Optional[BamCostConfig] = None,
        debug_locks: bool = True,
        hbm_capacity: Optional[int] = None,
        telemetry: Optional[bool] = None,
    ):
        super().__init__(
            cfg, debug_locks=debug_locks, hbm_capacity=hbm_capacity
        )
        self.queue_pairs = self._create_queue_pairs()
        self.ctrl = BamCtrl(
            self.sim,
            self.cfg,
            self.gpu.hbm,
            self.ssds,
            self.queue_pairs,
            costs=costs,
            debugger=self.debugger,
            stats=self.trace.counter("bam"),
        )
        self.ctrls.append(self.ctrl)
        self._finish(telemetry)
