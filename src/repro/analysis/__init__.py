"""``repro.analysis`` — protocol invariant checkers, sim-time race and
lock-order analysis, and the simulation-safety lint.

Three layers (see DESIGN.md "Invariants & analysis"):

1. *Runtime invariant checkers* (:mod:`repro.analysis.invariants`)
   subscribe to a live machine's probe and fail the simulation loudly the
   instant a protocol rule from the paper is broken.
2. *Analyzers* (:mod:`repro.analysis.races`) fold the same records into a
   lock-order graph and per-line access sets as they arrive, and report
   latent lock-order inversions and unsynchronized cache-line accesses even
   when this seed got lucky.
3. *Static lint* (:mod:`repro.analysis.lint`) enforces syntactic
   simulation-safety rules (AGL001-AGL015) on the source tree without
   running anything.

Typical use::

    from repro.analysis import attach

    host = AgileHost(cfg)           # or BamHost, AgileHost(cfg, num_gpus=2)
    session = attach(host)
    ... run kernels ...
    report = session.report()       # race/lock-order findings so far
    assert report.clean, report.summary()
"""

from __future__ import annotations

from typing import Any

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
)
from repro.sim.probe import PROTOCOL, Probe, Record

__all__ = [
    "AnalysisReport",
    "AnalysisSession",
    "CacheStateChecker",
    "CqPhaseChecker",
    "DataRaceAnalyzer",
    "InvariantChecker",
    "InvariantViolation",
    "LockOrderAnalyzer",
    "LockOrderInversion",
    "RaceReport",
    "ShareTableChecker",
    "SqConformanceChecker",
    "attach",
]


class AnalysisSession:
    """One probe's live checkers and analyzers; it keeps no records."""

    def __init__(self) -> None:
        self.checkers = [
            SqConformanceChecker(), CqPhaseChecker(), CacheStateChecker(),
            ShareTableChecker(),
        ]
        self.lock_order = LockOrderAnalyzer()
        self.data_race = DataRaceAnalyzer()
        #: Every protocol record delivered.
        self.events_seen = 0

    def attach(self, probe: Probe) -> "AnalysisSession":
        for kind in PROTOCOL:
            probe.subscribe(kind, self._count)
        self.lock_order.attach(probe)
        self.data_race.attach(probe)
        for checker in self.checkers:
            checker.attach(probe)
        return self

    def _count(self, record: Record) -> None:
        self.events_seen += 1

    def report(self) -> AnalysisReport:
        """The analyzers' findings over every record delivered so far."""
        return AnalysisReport(
            inversions=self.lock_order.inversions(),
            cycles=self.lock_order.cycles(),
            races=self.data_race.races(),
            leaks=self.lock_order.leaks(),
            events_seen=self.events_seen,
        )

    def events_checked(self) -> int:
        return sum(c.events_checked for c in self.checkers)


def attach(host: Any) -> AnalysisSession:
    """Subscribe an :class:`AnalysisSession` to the probe of any
    :class:`~repro.core.machine.Machine`.  A machine has one session:
    attaching again returns it."""
    if host.analysis is None:
        host.analysis = AnalysisSession().attach(host.instrument())
    return host.analysis
