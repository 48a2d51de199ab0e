"""Kernel descriptors, launch configurations, and the occupancy calculator.

Occupancy follows the CUDA static-allocation rules the paper describes in
§2.2: a block becomes resident on an SM only if the SM has enough free
register file, warp slots, block slots, and shared memory; resident blocks
hold their resources until they finish.  Register pressure therefore
directly limits parallelism, which is why the paper's Figure 12 (per-thread
register usage) matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.config import GpuConfig

KernelBody = Callable[..., Generator[Any, Any, Any]]


@dataclass(frozen=True)
class KernelSpec:
    """A device kernel: a generator function plus its resource footprint."""

    name: str
    body: KernelBody
    #: Per-thread register count (from the KIR estimator or nvcc-style
    #: declaration); limits occupancy.
    registers_per_thread: int = 32
    shared_mem_per_block: int = 0

    def __post_init__(self) -> None:
        if self.registers_per_thread < 1:
            raise ValueError("kernels use at least one register")


@dataclass(frozen=True)
class LaunchConfig:
    """CUDA-style ``<<<grid_dim, block_dim>>>``."""

    grid_dim: int
    block_dim: int

    def __post_init__(self) -> None:
        if self.grid_dim < 1 or self.block_dim < 1:
            raise ValueError("grid and block dimensions must be positive")

    @classmethod
    def for_threads(cls, n_threads: int, max_block: int) -> "LaunchConfig":
        """The smallest grid of ``min(n_threads, max_block)``-wide blocks
        covering ``n_threads`` (surplus threads in the last block idle)."""
        block = min(n_threads, max_block)
        return cls((n_threads + block - 1) // block, block)

    @property
    def total_threads(self) -> int:
        return self.grid_dim * self.block_dim


@dataclass(frozen=True)
class Occupancy:
    """Resolved residency limits for one kernel/launch pair."""

    blocks_per_sm: int
    warps_per_block: int
    limiting_factor: str


def occupancy(cfg: GpuConfig, kernel: KernelSpec, block_dim: int) -> Occupancy:
    """Maximum resident blocks per SM (``host.queryOccupancy`` equivalent)."""
    if kernel.registers_per_thread > cfg.max_registers_per_thread:
        raise ValueError(
            f"kernel {kernel.name!r} needs {kernel.registers_per_thread} "
            f"registers/thread, over the {cfg.max_registers_per_thread} limit"
        )
    warps_per_block = (block_dim + cfg.warp_size - 1) // cfg.warp_size
    limits = {
        "blocks": cfg.max_blocks_per_sm,
        "warps": cfg.max_warps_per_sm // warps_per_block,
        "registers": cfg.registers_per_sm
        // (kernel.registers_per_thread * warps_per_block * cfg.warp_size),
    }
    if kernel.shared_mem_per_block > 0:
        limits["shared_mem"] = cfg.shared_mem_per_sm // kernel.shared_mem_per_block
    factor, blocks = min(limits.items(), key=lambda kv: kv[1])
    if blocks < 1:
        raise ValueError(
            f"kernel {kernel.name!r} with block_dim={block_dim} cannot become "
            f"resident on any SM (limited by {factor})"
        )
    return Occupancy(
        blocks_per_sm=blocks,
        warps_per_block=warps_per_block,
        limiting_factor=factor,
    )
