"""Deterministic discrete-event simulation kernel.

A minimal, dependency-free DES engine in the style of SimPy, built from
scratch for this reproduction (see DESIGN.md inventory item 1).  Processes
are Python generators that ``yield`` awaitables:

- :class:`Timeout` — resume after a simulated delay,
- :class:`At` — resume at an absolute simulated time,
- :class:`Event` — resume when another process triggers it,
- :class:`Process` — join another process.

The engine trampolines every resumption through a binary heap keyed by
``(time, sequence)``, so execution is fully deterministic for a fixed
program and seed.
"""

from repro.sim.engine import (
    At,
    Event,
    Process,
    SimDeadlockError,
    SimStallError,
    SimError,
    Simulator,
    Timeout,
)
from repro.sim.resources import (
    BandwidthPipe,
    FairShareServer,
    FifoServer,
)
from repro.sim.sync import Signal, SimLock
from repro.sim.rng import RngStreams

__all__ = [
    "Simulator",
    "Process",
    "Event",
    "Timeout",
    "At",
    "SimError",
    "SimDeadlockError",
    "SimStallError",
    "FifoServer",
    "BandwidthPipe",
    "FairShareServer",
    "SimLock",
    "Signal",
    "RngStreams",
]
