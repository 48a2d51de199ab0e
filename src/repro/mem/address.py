"""Physical-address bookkeeping for simulated device memories.

AGILE's initialization pins physically contiguous GPU memory for the NVMe
queues and the software cache and hands physical addresses to the SSDs
(paper §3.1, the GDRCopy-based setup).  The simulator mirrors that with a
simple bump allocator over a flat physical address space.
"""

from __future__ import annotations

from dataclasses import dataclass


class AddressSpaceError(RuntimeError):
    """Raised when an allocation cannot be satisfied."""


@dataclass(frozen=True)
class Allocation:
    """A contiguous physical range ``[addr, addr + size)``."""

    addr: int
    size: int

    @property
    def end(self) -> int:
        return self.addr + self.size


class BumpAllocator:
    """Contiguous bump allocator with alignment; no free (device lifetime).

    Pinned device allocations in the real system live for the duration of
    the program (they are registered with the SSDs), so a non-freeing
    allocator is the honest model.
    """

    def __init__(self, capacity: int, base: int = 0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.base = base
        self.capacity = capacity
        self._next = base

    def alloc(self, size: int, align: int = 64) -> Allocation:
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if align <= 0 or (align & (align - 1)) != 0:
            raise ValueError("alignment must be a positive power of two")
        addr = (self._next + align - 1) & ~(align - 1)
        if addr + size > self.base + self.capacity:
            raise AddressSpaceError(
                f"out of device memory: need {size} B at {addr:#x}, "
                f"capacity ends at {self.base + self.capacity:#x}"
            )
        self._next = addr + size
        return Allocation(addr=addr, size=size)
