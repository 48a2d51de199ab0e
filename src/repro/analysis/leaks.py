"""Locks still held and Share Table entries still live when a run is judged.

The runtime :class:`~repro.core.locks.LockDebugger` fires when lock
chains block on each other.  A lock nobody else wants blocks no one, so a
kernel that returns with it held is invisible there.  :class:`HeldLocks`
folds each ``lock.acquire``/``lock.release`` record into the map of locks
held now, keeping no records, and the report names every one still held;
:class:`LiveEntries` does the same for Share Table entries (§3.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.sharetable import BufState
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


class LiveEntries:
    """Every Share Table entry registered and not yet retired."""

    def __init__(self) -> None:
        #: (table, tag) -> (owner thread, t) of its registration.
        self._live: Dict[Tuple[int, Tuple[int, int]], Tuple[int, float]] = {}

    def attach(self, probe: Probe) -> "LiveEntries":
        probe.subscribe("share.register", self.register)
        probe.subscribe("share.state", self.state)
        return self

    def register(self, record: Record) -> None:
        self._live[id(record["src"]), record["tag"]] = (record["owner_tid"], record.t)

    def state(self, record: Record) -> None:
        if record["new"] is BufState.INVALID:
            self._live.pop((id(record["src"]), record["tag"]), None)

    def leaks(self) -> List[str]:
        """Entries still live now."""
        live = sorted((tag, *held) for (_, tag), held in self._live.items())
        return [
            f"share entry {tag} registered by thread {tid} at t={t:.0f} "
            "was never retired"
            for tag, tid, t in live
        ]


@dataclass
class AnalysisReport:
    """The session's findings for one run."""

    leaks: List[str] = field(default_factory=list)
    events_seen: int = 0
    live_entries: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.leaks and not self.live_entries

    def summary(self) -> str:
        lines = [
            f"analyzed {self.events_seen} events: "
            f"{len(self.leaks)} lock(s) held at the end"
        ]
        if self.live_entries:
            lines[0] += f", {len(self.live_entries)} Share Table entry(ies) live"
        lines.extend(f"  - {leak}" for leak in self.leaks + self.live_entries)
        return "\n".join(lines)
