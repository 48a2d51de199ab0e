"""``repro.analysis`` — protocol invariant checkers, sim-time race and
lock-order analysis, and the simulation-safety lint.

Three layers (see DESIGN.md "Invariants & analysis"):

1. *Runtime invariant checkers* (:mod:`repro.analysis.invariants`)
   subscribe to a live machine's probe and fail the simulation loudly the
   instant a protocol rule from the paper is broken.
2. *Offline analyzers* (:mod:`repro.analysis.races`) replay the retained
   protocol records after a run and report latent lock-order inversions and
   unsynchronized cache-line accesses even when this seed got lucky.
3. *Static lint* (:mod:`repro.analysis.lint`) enforces syntactic
   simulation-safety rules (AGL001-AGL015) on the source tree without
   running anything.

Typical use::

    from repro.analysis import attach

    host = AgileHost(cfg)           # or BamHost, AgileHost(cfg, num_gpus=2)
    session = attach(host)
    ... run kernels ...
    report = session.report()       # offline race/lock-order findings
    assert report.clean, report.summary()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.analysis.invariants import (
    CacheStateChecker,
    CqPhaseChecker,
    InvariantChecker,
    InvariantViolation,
    ShareTableChecker,
    SqConformanceChecker,
)
from repro.analysis.races import (
    AnalysisReport,
    DataRaceAnalyzer,
    LockOrderAnalyzer,
    LockOrderInversion,
    RaceReport,
    analyze,
)
from repro.sim.trace import EventLog

__all__ = [
    "AnalysisReport",
    "AnalysisSession",
    "CacheStateChecker",
    "CqPhaseChecker",
    "DataRaceAnalyzer",
    "EventLog",
    "InvariantChecker",
    "InvariantViolation",
    "LockOrderAnalyzer",
    "LockOrderInversion",
    "RaceReport",
    "ShareTableChecker",
    "SqConformanceChecker",
    "analyze",
    "attach",
]


@dataclass
class AnalysisSession:
    """A machine's retained protocol log plus its live checkers."""

    log: EventLog
    checkers: List[InvariantChecker] = field(default_factory=list)

    def report(self) -> AnalysisReport:
        """Run the offline analyzers over everything recorded so far."""
        return analyze(self.log)

    def events_checked(self) -> int:
        return sum(c.events_checked for c in self.checkers)


def attach(host: Any, maxlen: Optional[int] = 1_000_000) -> AnalysisSession:
    """Subscribe an :class:`EventLog` and one of each runtime invariant
    checker to the probe of any :class:`~repro.core.machine.Machine`.  A
    machine has one session: attaching again returns it."""
    if host.analysis is not None:
        return host.analysis
    probe = host.instrument()
    checkers = [
        SqConformanceChecker(), CqPhaseChecker(), CacheStateChecker(),
        ShareTableChecker(),
    ]
    session = AnalysisSession(EventLog(maxlen).attach(probe), checkers)
    for checker in checkers:
        checker.attach(probe)
    host.analysis = session
    return session
