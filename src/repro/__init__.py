"""AGILE reproduction: asynchronous GPU-SSD integration on a discrete-event simulator.

This package reproduces the full system described in *AGILE: Lightweight and
Efficient Asynchronous GPU-SSD Integration* (SC '25).  Because GPU-initiated
NVMe I/O cannot run natively in Python, every hardware component the paper
relies on (GPU SMs and warps, NVMe SSDs with real submission/completion
rings, PCIe links, HBM) is modelled by a deterministic discrete-event
simulator, and the AGILE algorithms run unchanged on top of it.

Public entry points:

- :class:`repro.core.host.AgileHost` — host-side orchestration (mirrors the
  paper's Listing 1 host code).
- :class:`repro.core.ctrl.AgileCtrl` — the device-side controller exposing
  ``prefetch`` / ``async_read`` / ``async_write`` / array-like APIs.
- :mod:`repro.baselines.bam` — a faithful reimplementation of the BaM
  synchronous baseline the paper compares against.
- :mod:`repro.bench.figures` — one experiment per paper figure (Fig. 4-12);
  ``python -m repro.bench list|run`` fronts every experiment in the repo.
"""

from repro.version import __version__
from repro.config import (
    GpuConfig,
    SsdConfig,
    PcieConfig,
    CacheConfig,
    SystemConfig,
)

__all__ = [
    "__version__",
    "GpuConfig",
    "SsdConfig",
    "PcieConfig",
    "CacheConfig",
    "SystemConfig",
]
