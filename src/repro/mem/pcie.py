"""PCIe link and MMIO doorbell models.

A :class:`PcieLink` is a full-duplex pair of bandwidth pipes.  A
:class:`Doorbell` is a device register exposed through the SSD's PCIe BAR:
the GPU writes it with a posted MMIO store (cheap for the writer), and the
device observes the new value one link-latency later — matching how AGILE
registers doorbells into the GPU address space with
``cudaHostRegisterIoMemory`` (paper §3.1).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.config import PcieConfig
from repro.sim.engine import Simulator, Timeout
from repro.sim.resources import BandwidthPipe


class PcieLink:
    """Full-duplex PCIe link between two devices."""

    def __init__(self, sim: Simulator, cfg: PcieConfig, name: str = "pcie"):
        self.sim = sim
        self.cfg = cfg
        self.name = name
        self.downstream = BandwidthPipe(
            sim, cfg.bytes_per_ns, cfg.latency_ns, name=f"{name}.down"
        )
        self.upstream = BandwidthPipe(
            sim, cfg.bytes_per_ns, cfg.latency_ns, name=f"{name}.up"
        )
        #: Armed by the host when the fault plan is active
        #: (:class:`repro.faults.FaultInjector`); None costs nothing.
        self.injector = None
        #: Optional :class:`repro.sim.probe.Probe` (DMA payload bytes).
        self.probe = None

    def dma_read(self, nbytes: int) -> Generator[Any, Any, None]:
        """Device reads ``nbytes`` from the far side (request + data).

        Modelled as one request latency plus the data transfer back.
        """
        if self.injector is not None:
            stall = self.injector.pcie_stall_ns(self.name)
            if stall > 0.0:
                yield Timeout(stall)
        if self.probe is not None:
            self.probe.emit("pcie.dma", src=self, direction="read", nbytes=nbytes)
        yield Timeout(self.cfg.latency_ns)
        yield from self.upstream.transfer(nbytes)

    def dma_write(self, nbytes: int) -> Generator[Any, Any, None]:
        """Device writes ``nbytes`` to the far side (posted)."""
        if self.injector is not None:
            stall = self.injector.pcie_stall_ns(self.name)
            if stall > 0.0:
                yield Timeout(stall)
        if self.probe is not None:
            self.probe.emit("pcie.dma", src=self, direction="write", nbytes=nbytes)
        yield from self.downstream.transfer(nbytes)


class Doorbell:
    """A 32-bit device register written by the GPU over MMIO.

    ``ring`` charges the *writer* only the posted-store cost; the device-side
    observer callback fires after the link latency.  Writes are ordered (the
    serialization property §2.3.3 relies on is enforced by AGILE's software
    lock, not by this register).
    """

    def __init__(
        self,
        sim: Simulator,
        cfg: PcieConfig,
        name: str = "doorbell",
        observer: Optional[Callable[[int], None]] = None,
    ):
        self.sim = sim
        self.cfg = cfg
        self.name = name
        self.observer = observer
        #: Last value made visible to the device.
        self.device_value = 0
        #: Last value written by the GPU (in flight until visible).
        self.written_value = 0
        self.rings = 0
        #: Optional :class:`repro.sim.probe.Probe`.
        self.probe = None

    def ring(self, value: int) -> Generator[Any, Any, None]:
        """GPU-side posted MMIO write of ``value``."""
        self.rings += 1
        self.written_value = value
        if self.probe is not None:
            self.probe.emit("mmio.ring", src=self, name=self.name, value=value)
        yield Timeout(self.cfg.mmio_write_ns)
        arrival = self.sim.now + self.cfg.latency_ns
        # Narrow scheduler API: the in-flight value rides in the dispatch
        # record's payload, so no closure is allocated per ring.
        self.sim.schedule_at(arrival, self._deliver, value)

    def _deliver(self, value: int) -> None:
        self.device_value = value
        if self.probe is not None:
            self.probe.emit("mmio.deliver", src=self, name=self.name, value=value)
        if self.observer is not None:
            self.observer(value)
