"""Multi-GPU support — the paper's §5 second extension.

    "To simply share one SSD among GPUs, different I/O queue pairs of the
    target SSD can work independently and be assigned to different GPUs.
    It only requires some modifications to the Host APIs, while the AGILE
    service and interfaces on the CUDA kernel do not need any change."

That is exactly what this module does: each GPU gets a disjoint range of
every SSD's queue pairs, with the ring memory pinned in *its own* HBM, and
its own unchanged AGILE stack (issue engine, software cache, service,
controller).  The SSDs are genuinely shared — commands from all GPUs
funnel into the same flash channels and contend for the same bandwidth.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.config import SystemConfig
from repro.core.host import AgileMachine
from repro.gpu.kernel import KernelSpec, LaunchConfig


class MultiGpuAgileHost(AgileMachine):
    """N GPUs sharing the same SSDs via partitioned queue pairs.

    ``cfg.queue_pairs`` is the per-SSD *per-GPU* count, so an SSD serves
    ``num_gpus * cfg.queue_pairs`` queue pairs in total (bounded by the
    device's ``max_queue_pairs``).
    """

    def __init__(
        self,
        cfg: Optional[SystemConfig] = None,
        num_gpus: int = 2,
        *,
        debug_locks: bool = True,
        hbm_capacity: Optional[int] = None,
    ):
        super().__init__(
            cfg,
            num_gpus=num_gpus,
            debug_locks=debug_locks,
            hbm_capacity=hbm_capacity,
        )
        self.nodes = [
            self._build_node(
                g, self._create_queue_pairs(g), prefix=f"gpu{g}.", full=False
            )
            for g in range(num_gpus)
        ]
        self._finish(None)

    @property
    def num_gpus(self) -> int:
        return len(self.nodes)

    def run_kernels(
        self,
        kernel: KernelSpec,
        launch_cfg: LaunchConfig,
        per_gpu_args: Sequence[Sequence[Any]],
    ) -> float:
        """Launch the kernel on every GPU concurrently; returns the
        makespan (all GPUs share the SSDs, so they genuinely contend)."""
        if len(per_gpu_args) != self.num_gpus:
            raise ValueError("one argument tuple per GPU required")
        start = self.sim.now
        launches = [
            self.launch_kernel(kernel, launch_cfg, args, gpu_idx=g)
            for g, args in enumerate(per_gpu_args)
        ]
        self._run_until_done(launches, "multigpu.wait")
        return self.sim.now - start
