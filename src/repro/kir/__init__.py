"""KIR — a miniature kernel IR for register-pressure analysis.

Stands in for nvcc's register allocator in the paper's Figure 12
experiment: each AGILE/BaM API is lowered to a representative straight-line
instruction trace (``repro.kir.builder``); live intervals are computed over
the trace (``repro.kir.liveness``); and per-thread register usage is the
maximum live width plus a fixed ABI overhead (``repro.kir.regalloc``).

The key structural fact the analysis captures: BaM inlines the CQ-polling
state machine into the application kernel, so its queue-tracking values
(CQ base, head, phase, mask, CID, doorbell shadow) are live *at the same
program points* as the application's accumulators; AGILE offloads polling
to the service kernel, so the application's peak pressure only includes
the lean issue/barrier state (paper §4.6).
"""

from repro.kir.ops import Instr, Trace, VReg
from repro.kir.builder import TraceBuilder
from repro.kir.liveness import live_intervals, pressure_profile
from repro.kir.regalloc import estimate_registers, max_pressure

__all__ = [
    "VReg",
    "Instr",
    "Trace",
    "TraceBuilder",
    "live_intervals",
    "pressure_profile",
    "max_pressure",
    "estimate_registers",
]
