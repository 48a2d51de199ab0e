"""Span and timeline recording keyed to simulated nanoseconds.

The recorder is purely passive: instrumentation sites append records with
timestamps read from the supplied clock, and nothing here ever schedules a
simulation event — which is what keeps telemetry-enabled runs dispatching
the exact same event stream as disabled ones.

Records map 1:1 onto Chrome Trace Event Format phases (exported by
:mod:`repro.telemetry.export`):

- ``complete``  -> ``ph: "X"`` duration spans (kernel launches, NVMe
  command execution, cache fills, sim.run windows);
- ``instant``   -> ``ph: "i"`` point markers (doorbell deliveries);
- ``counter``   -> ``ph: "C"`` stacked counter series (queue occupancy,
  link bytes, HBM traffic).

Every record carries a ``(layer, track)`` pair; the exporter maps layers
to Chrome "processes" (gpu / nvme / mem / core / sim) and tracks to named
threads, so Perfetto renders one swim lane per modelled component.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.telemetry.metrics import Clock

#: record = (phase, t0, t1, name, layer, track, args)
SpanRecord = Tuple[str, float, Optional[float], str, str, str, Optional[dict]]


class SpanRecorder:
    """Bounded in-memory timeline of span/instant/counter records."""

    def __init__(self, clock: Clock, limit: int = 1_000_000) -> None:
        self._clock = clock
        self.limit = limit
        self._records: List[SpanRecord] = []
        #: Records discarded after the cap was hit — surfaced by the
        #: exporter so a truncated trace never masquerades as complete.
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[SpanRecord]:
        return self._records

    def _append(self, record: SpanRecord) -> None:
        if len(self._records) >= self.limit:
            self.dropped += 1
            return
        self._records.append(record)

    # -- recording API ---------------------------------------------------------

    def complete(
        self, name: str, layer: str, track: str, t0: float, **args: object
    ) -> None:
        """A duration span from ``t0`` to now."""
        self._append(("X", t0, self._clock(), name, layer, track, args or None))

    def instant(self, name: str, layer: str, track: str, **args: object) -> None:
        self._append(("i", self._clock(), None, name, layer, track, args or None))

    def counter(
        self, name: str, layer: str, track: str, **series: float
    ) -> None:
        """One sample of a (possibly multi-series) counter timeline."""
        self._append(("C", self._clock(), None, name, layer, track, dict(series)))

    # -- introspection ---------------------------------------------------------

    def layers(self) -> Dict[str, int]:
        """Record count per layer (acceptance checks / tests)."""
        seen: Dict[str, int] = {}
        for rec in self._records:
            seen[rec[4]] = seen.get(rec[4], 0) + 1
        return seen
