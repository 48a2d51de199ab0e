"""The structured protocol event log.

The :class:`EventLog` is the substrate of the :mod:`repro.analysis`
layer: models emit protocol-level events (queue slot transitions, doorbell
rings, lock operations, cache-line state changes) into an attached log,
where runtime invariant checkers subscribe and offline analyzers replay
the recorded stream after the run.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Iterator, Optional

from repro.sim.engine import Simulator

__all__ = ["EventLog", "TraceEvent"]


class TraceEvent:
    """One structured protocol event: simulated time, kind, payload."""

    __slots__ = ("t", "kind", "data")

    def __init__(self, t: float, kind: str, data: Dict[str, Any]):
        self.t = t
        self.kind = kind
        self.data = data

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        fields = ", ".join(
            f"{k}={v!r}" for k, v in self.data.items() if k != "src"
        )
        return f"TraceEvent(t={self.t:.0f}, {self.kind}, {fields})"


class EventLog:
    """Ordered stream of :class:`TraceEvent` with synchronous subscribers.

    Models hold an optional ``log`` attribute (``None`` by default, so the
    emit sites cost one attribute check when analysis is off).  Subscribers
    run inline at emit time: an invariant checker that raises makes the
    violating model call fail loudly at the exact simulated instant of the
    violation.  The retained deque feeds the offline analyzers
    (:mod:`repro.analysis.races`).
    """

    def __init__(self, sim: Simulator, maxlen: Optional[int] = 1_000_000):
        self.sim = sim
        self._records: deque[TraceEvent] = deque(maxlen=maxlen)
        self._subscribers: list[Callable[[TraceEvent], None]] = []
        self.emitted = 0

    def subscribe(self, fn: Callable[[TraceEvent], None]) -> None:
        self._subscribers.append(fn)

    def emit(self, kind: str, **data: Any) -> None:
        event = TraceEvent(self.sim.now, kind, data)
        self._records.append(event)
        self.emitted += 1
        for fn in self._subscribers:
            fn(event)

    def events(self, kind: Optional[str] = None) -> Iterator[TraceEvent]:
        """Iterate retained events, optionally filtered by kind prefix."""
        for event in self._records:
            if kind is None or event.kind.startswith(kind):
                yield event
