"""``repro.analysis`` — protocol invariant checkers, sim-time race and
lock-order analysis, and the simulation-safety lint.

Three layers (see DESIGN.md "Invariants & analysis"):

1. *Runtime invariant checkers* (:mod:`repro.analysis.invariants`) attach
   to a live :class:`~repro.core.host.AgileHost` and fail the simulation
   loudly the instant a protocol rule from the paper is broken.
2. *Offline analyzers* (:mod:`repro.analysis.races`) replay the recorded
   event stream after a run and report latent lock-order inversions and
   unsynchronized cache-line accesses even when this seed got lucky.
3. *Static lint* (:mod:`repro.analysis.lint`) enforces syntactic
   simulation-safety rules (AGL001-AGL015) on the source tree without
   running anything.

Typical use::

    from repro.analysis import attach

    host = AgileHost(cfg)
    session = attach(host)          # or run pytest --agile-checks
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
    standard_checkers,
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
    "standard_checkers",
]


@dataclass
class AnalysisSession:
    """A host's attached event log plus its live checkers."""

    log: EventLog
    checkers: List[InvariantChecker] = field(default_factory=list)

    def report(self) -> AnalysisReport:
        """Run the offline analyzers over everything recorded so far."""
        return analyze(self.log)

    def events_checked(self) -> int:
        return sum(c.events_checked for c in self.checkers)


def attach(host: Any, maxlen: Optional[int] = 1_000_000) -> AnalysisSession:
    """Wire an :class:`EventLog` into every instrumented component of an
    :class:`~repro.core.host.AgileHost` and subscribe one of each runtime
    invariant checker.  Idempotent per host (re-attaching replaces the
    previous session's log)."""
    log = EventLog(host.sim, maxlen=maxlen)
    for qps in host.queue_pairs:
        for qp in qps:
            qp.sq.log = log
            qp.cq.log = log
            qp.sq.doorbell.log = log
            qp.cq.doorbell.log = log
    host.debugger.log = log
    host.cache.log = log
    if host.share_table is not None:
        host.share_table.log = log
    checkers = standard_checkers(host.queue_pairs)
    for checker in checkers:
        checker.attach(log)
    session = AnalysisSession(log=log, checkers=checkers)
    host.analysis = session
    return session
