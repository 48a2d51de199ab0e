"""``repro.analysis`` — protocol invariant checkers, the held-lock map,
and the simulation-safety lint.

Three parts (see DESIGN.md "Invariants & analysis"):

1. *Runtime invariant checkers* (:mod:`repro.analysis.invariants`)
   subscribe to a live machine's probe and fail the simulation loudly the
   instant a protocol rule from the paper is broken — queue conformance,
   the cache-line FSM and pin discipline, Share Table coherence.
2. *Held locks* (:mod:`repro.analysis.leaks`): the locks acquired and not
   released, which the report names as leaks.
3. *Static lint* (:mod:`repro.analysis.lint`) enforces syntactic
   simulation-safety rules on the source tree without running anything.

Typical use::

    from repro.analysis import attach

    host = AgileHost(cfg)           # or BamHost, AgileHost(cfg, num_gpus=2)
    session = attach(host)
    ... run kernels ...
    report = session.report()       # locks still held so far
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
from repro.analysis.leaks import AnalysisReport, HeldLocks
from repro.sim.probe import PROTOCOL, Probe, Record

__all__ = [
    "AnalysisReport",
    "AnalysisSession",
    "CacheStateChecker",
    "CqPhaseChecker",
    "HeldLocks",
    "InvariantChecker",
    "InvariantViolation",
    "ShareTableChecker",
    "SqConformanceChecker",
    "attach",
]


class AnalysisSession:
    """One probe's live checkers and held-lock map; it keeps no records."""

    def __init__(self) -> None:
        self.checkers = [
            SqConformanceChecker(), CqPhaseChecker(), CacheStateChecker(),
            ShareTableChecker(),
        ]
        self.held = HeldLocks()
        #: Every protocol record delivered.
        self.events_seen = 0

    def attach(self, probe: Probe) -> "AnalysisSession":
        for kind in PROTOCOL:
            probe.subscribe(kind, self._count)
        self.held.attach(probe)
        for checker in self.checkers:
            checker.attach(probe)
        return self

    def _count(self, record: Record) -> None:
        self.events_seen += 1

    def report(self) -> AnalysisReport:
        """The findings over every record delivered so far."""
        return AnalysisReport(
            leaks=self.held.leaks(), events_seen=self.events_seen
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
