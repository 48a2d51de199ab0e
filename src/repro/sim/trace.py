"""A recorded protocol stream.

:class:`EventLog` is the :mod:`repro.sim.probe` subscriber that keeps every
protocol record (queue slot transitions, doorbell rings, lock operations,
cache-line and Share Table state changes) it is given, in order, for a
caller that compares or inspects whole streams after a run.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.sim.probe import PROTOCOL, Probe, Record

__all__ = ["EventLog"]


class EventLog:
    """Every protocol record of one probe, in order."""

    def __init__(self) -> None:
        self._records: List[Record] = []

    def attach(self, probe: Probe) -> "EventLog":
        for kind in PROTOCOL:
            probe.subscribe(kind, self._records.append)
        return self

    def events(self) -> Iterator[Record]:
        """The records, oldest first."""
        return iter(self._records)
