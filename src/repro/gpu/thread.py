"""Per-thread execution context handed to kernel bodies.

A kernel body is a generator function ``body(tc, *args)`` that drives
simulated time through its :class:`ThreadContext`:

- ``yield from tc.compute(cycles)`` — arithmetic on the SM,
- ``yield from tc.hbm_load(nbytes)`` / ``tc.hbm_store`` — global memory,
- ``yield from tc.atomic()`` — one global atomic,
- ``yield from tc.coalesce(key)`` — warp-level request coalescing.

The context also carries the CUDA-style identifiers (block, lane, global
thread id) that AGILE's queue-selection hashing uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Hashable, Optional

from repro.gpu.warp import NOT_PARTICIPATING, CoalesceSlot, Warp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.device import Gpu
    from repro.gpu.sm import StreamingMultiprocessor


class ThreadContext:
    """One simulated GPU thread."""

    __slots__ = ("gpu", "sm", "warp", "tid", "block_id", "lane", "name")

    def __init__(
        self,
        gpu: "Gpu",
        sm: "StreamingMultiprocessor",
        warp: Warp,
        tid: int,
        block_id: int,
        lane: int,
    ):
        self.gpu = gpu
        self.sm = sm
        self.warp = warp
        self.tid = tid
        self.block_id = block_id
        self.lane = lane
        self.name = f"t{tid}"

    @property
    def sim(self):
        return self.gpu.sim

    # -- compute and memory ---------------------------------------------------
    #
    # These return the underlying model's generator directly instead of
    # delegating through a ``yield from`` frame of their own: kernel bodies
    # call them millions of times per run, and the extra frame per call is
    # pure dispatch overhead.  ``yield from tc.compute(...)`` is unchanged
    # for callers.

    def compute(self, cycles: float) -> Generator[Any, Any, None]:
        """Execute ``cycles`` of arithmetic (fair-shared on this SM)."""
        return self.sm.compute(cycles)

    def hbm_load(self, nbytes: int) -> Generator[Any, Any, None]:
        return self.gpu.hbm.load(nbytes)

    def hbm_store(self, nbytes: int) -> Generator[Any, Any, None]:
        return self.gpu.hbm.store(nbytes)

    def atomic(self) -> Generator[Any, Any, None]:
        """One global-memory atomic operation."""
        return self.gpu.hbm.atomic()

    # -- warp primitives ----------------------------------------------------------

    def coalesce(
        self, key: Hashable
    ) -> Generator[Any, Any, Optional[CoalesceSlot]]:
        """Warp-level request coalescing round (see :class:`Warp`)."""
        return self.warp.coalesce(self.tid, key)

    def syncwarp(self) -> Generator[Any, Any, None]:
        """``__syncwarp()``: converge the warp without requesting anything.

        Loops whose bodies contain memory accesses are warp-synchronous on
        real SIMT hardware whether or not the code coalesces — kernels that
        model lockstep execution call this once per iteration."""
        return self.warp.coalesce(self.tid, NOT_PARTICIPATING)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ThreadContext(tid={self.tid}, block={self.block_id}, "
            f"lane={self.lane}, sm={self.sm.index})"
        )
