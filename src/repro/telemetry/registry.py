"""The metrics registry: one namespace for every stat in a simulated host.

Three kinds of sources feed it:

- **push counters** — model code calls ``registry.counter(group).add(key)``
  (the hosts' ``stats=trace.counter(...)`` plumbing);
- **typed instruments** — gauges and histograms created by name, updated
  inline at instrumentation sites;
- **pull collectors** — zero-overhead accounting that already lives on
  model objects (``FlashArray`` channel busy time, ``Hbm`` load/store
  totals, per-SM issued cycles) is registered as a callable and read only
  at snapshot time, so hot paths keep their plain attribute increments.

``counters_snapshot()`` preserves the pre-refactor ``stats()`` shape
(``{group: {key: value}}``); ``snapshot()`` is the superset the bench
trend artifact embeds.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.telemetry.metrics import Clock, Counter, Gauge, Histogram


class MetricRegistry:
    """Central, typed registry of counters, gauges, histograms, collectors."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock: Clock = clock if clock is not None else (lambda: 0.0)
        self._counter_families: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: List[Tuple[str, Callable[[], Mapping[str, float]]]] = []

    def set_clock(self, clock: Clock) -> None:
        """Late-bind the clock (hosts build the registry before the sim)."""
        self._clock = clock

    # -- instrument factories (get-or-create, name-collision checked) --------

    def counter(
        self,
        name: str,
        description: str = "",
        labels: Iterable[str] = (),
    ) -> Counter:
        family = self._counter_families.get(name)
        if family is None:
            family = Counter(name=name, description=description, labels=labels)
            self._counter_families[name] = family
        return family

    def gauge(
        self, name: str, description: str = "", initial: float = 0.0
    ) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = Gauge(
                clock=self._clock, name=name, description=description,
                initial=initial,
            )
            self._gauges[name] = gauge
        return gauge

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Iterable[float] = (),
    ) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram(name=name, description=description, buckets=buckets)
            self._histograms[name] = hist
        return hist

    def register_collector(
        self, name: str, fn: Callable[[], Mapping[str, float]]
    ) -> None:
        """Register a pull source; ``fn`` runs only at snapshot time."""
        self._collectors.append((name, fn))

    # -- snapshots ------------------------------------------------------------

    def counters_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Push-counter groups only — the historical ``stats()`` shape."""
        return {
            name: family.snapshot()
            for name, family in self._counter_families.items()
        }

    def collect(self) -> Dict[str, Dict[str, float]]:
        """Evaluate every registered collector."""
        return {name: dict(fn()) for name, fn in self._collectors}

    def snapshot(self) -> Dict[str, object]:
        """Everything: counters, gauges, histograms, collected pull stats."""
        return {
            "counters": self.counters_snapshot(),
            "gauges": {n: g.snapshot() for n, g in self._gauges.items()},
            "histograms": {
                n: h.snapshot() for n, h in self._histograms.items()
            },
            "collected": self.collect(),
        }
