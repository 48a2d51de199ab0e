"""GPU high-bandwidth memory model.

Timing: a fixed load-to-use latency plus a shared bandwidth pipe.  Data: a
flat NumPy byte array; :class:`HbmBuffer` objects are views into it, so the
NVMe queues, the software cache, and user buffers all physically share the
same simulated HBM, exactly as in the paper's system diagram (Fig. 2).
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.config import GpuConfig
from repro.mem.address import Allocation, BumpAllocator
from repro.sim.engine import At, Simulator
from repro.sim.resources import FifoServer


class HbmBuffer:
    """A contiguous region of simulated HBM.

    ``view`` is a NumPy ``uint8`` view of the backing store — mutating it is
    how simulated DMA engines and GPU threads move real bytes around.
    """

    __slots__ = ("hbm", "allocation", "view", "label")

    def __init__(self, hbm: "Hbm", allocation: Allocation, label: str = ""):
        self.hbm = hbm
        self.allocation = allocation
        self.view = hbm.backing[allocation.addr : allocation.end]
        self.label = label



class Hbm:
    """Device memory: allocator + timing model.

    Ordinary loads/stores pay ``hbm_latency_ns`` plus their share of the
    bandwidth pipe; atomics pay ``atomic_latency_ns`` and serialize on the
    same pipe (the timing-relevant property the AGILE lock fast paths care
    about).
    """

    def __init__(self, sim: Simulator, cfg: GpuConfig, capacity: int = 1 << 31):
        self.sim = sim
        self.cfg = cfg
        self.allocator = BumpAllocator(capacity)
        self.backing = np.zeros(capacity, dtype=np.uint8)
        self._port = FifoServer(sim, name="hbm.port")
        self.loads = 0
        self.stores = 0
        self.atomics = 0
        #: Optional :class:`repro.sim.probe.Probe` (traffic bytes).
        self.probe = None

    def alloc(self, size: int, align: int = 64, label: str = "") -> HbmBuffer:
        return HbmBuffer(self, self.allocator.alloc(size, align), label=label)

    # -- timing paths -------------------------------------------------------

    def _occupancy_ns(self, nbytes: int) -> float:
        return nbytes / self.cfg.hbm_bytes_per_ns

    def load(self, nbytes: int) -> Generator[Any, Any, None]:
        """A read of ``nbytes`` from HBM by a GPU thread or DMA engine."""
        self.loads += 1
        if self.probe is not None:
            self.probe.emit("hbm.traffic", direction="load_bytes", nbytes=nbytes)
        yield At(
            self._port.reserve(self._occupancy_ns(nbytes))
            + self.cfg.hbm_latency_ns
        )

    def store(self, nbytes: int) -> Generator[Any, Any, None]:
        """A write of ``nbytes`` to HBM.  Writes are posted: the writer only
        pays the bandwidth occupancy, not the full round-trip latency."""
        self.stores += 1
        if self.probe is not None:
            self.probe.emit("hbm.traffic", direction="store_bytes", nbytes=nbytes)
        yield from self._port.process(self._occupancy_ns(nbytes))

    def atomic(self) -> Generator[Any, Any, None]:
        """One global-memory atomic (CAS/exchange/add).

        Atomics serialize at the L2 atomic units: each occupies the port
        for ``atomic_service_ns`` (throughput bound) and then pays the
        round-trip latency.  Heavy atomic traffic — BaM's per-access
        bucket locking, for instance — therefore contends at scale.
        """
        self.atomics += 1
        yield At(
            self._port.reserve(self.cfg.atomic_service_ns)
            + self.cfg.atomic_latency_ns
        )

    def utilization(self) -> float:
        return self._port.utilization()
