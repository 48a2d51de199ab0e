"""Locks still held when a run is judged (paper §3.5).

The runtime :class:`~repro.core.locks.LockDebugger` fires when lock
chains block on each other.  A lock nobody else wants blocks no one, so a
kernel that returns with it held is invisible there.  :class:`HeldLocks`
folds each ``lock.acquire``/``lock.release`` record into the map of locks
held now, keeping no records, and the report names every one still held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.sim.probe import Probe, Record


class HeldLocks:
    """Every lock acquired and not yet released."""

    def __init__(self) -> None:
        #: lock -> (chain, t) of its acquire, until a release answers it.
        self._held: Dict[str, Tuple[str, float]] = {}

    def attach(self, probe: Probe) -> "HeldLocks":
        probe.subscribe("lock.acquire", self.acquire)
        probe.subscribe("lock.release", self.release)
        return self

    def acquire(self, record: Record) -> None:
        self._held[record["lock"]] = (record["chain"], record.t)

    def release(self, record: Record) -> None:
        # A release with no acquire on record (the lock was taken before
        # the session attached) is ignored.
        self._held.pop(record["lock"], None)

    def leaks(self) -> List[str]:
        """Locks still held now."""
        return [
            f"lock {lock!r} acquired by {chain} at t={t:.0f} was never released"
            for lock, (chain, t) in sorted(self._held.items())
        ]


@dataclass
class AnalysisReport:
    """The session's findings for one run."""

    leaks: List[str] = field(default_factory=list)
    events_seen: int = 0

    @property
    def clean(self) -> bool:
        return not self.leaks

    def summary(self) -> str:
        lines = [
            f"analyzed {self.events_seen} events: "
            f"{len(self.leaks)} lock(s) held at the end"
        ]
        lines.extend(f"  - {leak}" for leak in self.leaks)
        return "\n".join(lines)
