"""Streaming multiprocessor: a capped fair-share instruction-issue server.

Work is measured in *thread-cycles*.  The SM issues
``issue_width * warp_size`` thread-cycles per cycle in aggregate, and no
single thread progresses faster than one cycle per cycle.  With few resident
threads everyone runs at full speed; oversubscribed, throughput is shared —
the standard throughput model for SIMT cores and sufficient to reproduce
warp-scheduling effects at the fidelity the paper's experiments need.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.config import GpuConfig
from repro.sim.engine import Simulator
from repro.sim.resources import FairShareServer


class StreamingMultiprocessor:
    """One SM: issue bandwidth plus residency bookkeeping."""

    def __init__(self, sim: Simulator, cfg: GpuConfig, index: int):
        self.sim = sim
        self.cfg = cfg
        self.index = index
        rate = cfg.issue_width * cfg.warp_size / cfg.cycle_ns
        self._issue = FairShareServer(
            sim,
            total_rate=rate,
            per_job_cap=1.0 / cfg.cycle_ns,
            name=f"sm{index}.issue",
        )
        #: Thread blocks currently resident.
        self.resident_blocks = 0
        #: Warps currently resident (for occupancy statistics).
        self.resident_warps = 0

    def compute(self, cycles: float) -> Generator[Any, Any, None]:
        """One thread executing ``cycles`` of arithmetic on this SM.

        Returns the fair-share server's generator directly (no delegating
        frame): SM compute is the single hottest ``yield from`` in the
        simulator, and one generator per call is one too many.
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        return self._issue.process(cycles)

    def issued_thread_cycles(self) -> float:
        return self._issue.work_done
