"""The retained protocol log.

:class:`EventLog` is the :mod:`repro.sim.probe` subscriber that keeps a
machine's protocol records (queue slot transitions, doorbell rings, lock
operations, cache-line and Share Table state changes) so the offline
analyzers (:mod:`repro.analysis.races`) can replay them after the run.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from repro.sim.probe import PROTOCOL, Probe, Record

__all__ = ["EventLog"]


class EventLog:
    """The newest ``maxlen`` protocol records of one probe, in order."""

    def __init__(self, maxlen: Optional[int] = 1_000_000):
        self._records: deque[Record] = deque(maxlen=maxlen)
        #: Every protocol record seen, retained or not.
        self.emitted = 0

    def attach(self, probe: Probe) -> "EventLog":
        for kind in PROTOCOL:
            probe.subscribe(kind, self.keep)
        return self

    def keep(self, record: Record) -> None:
        self._records.append(record)
        self.emitted += 1

    @property
    def dropped(self) -> int:
        """Records that fell off the front of the bounded log."""
        return self.emitted - len(self._records)

    def events(self) -> Iterator[Record]:
        """The retained records, oldest first."""
        return iter(self._records)
