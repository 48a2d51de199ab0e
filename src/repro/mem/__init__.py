"""Memory substrate: HBM, PCIe links, MMIO doorbell registers.

Simulated memories are backed by real NumPy byte arrays so that every data
movement in the system (SSD DMA, cache fill, user-buffer copy) transports
actual bytes — end-to-end tests verify value correctness, not just timing.
"""

from repro.mem.address import AddressSpaceError, Allocation, BumpAllocator
from repro.mem.hbm import Hbm, HbmBuffer
from repro.mem.pcie import Doorbell, PcieLink

__all__ = [
    "BumpAllocator",
    "Allocation",
    "AddressSpaceError",
    "Hbm",
    "HbmBuffer",
    "PcieLink",
    "Doorbell",
]
