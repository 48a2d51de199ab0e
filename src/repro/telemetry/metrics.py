"""Typed metric primitives: counters, time-weighted gauges, histograms.

Every metric is clock-agnostic: a :class:`Gauge` integrates over whatever
monotonic clock callable it is given (the simulator's ``sim.now`` in
practice), so the package never imports the engine and stays a leaf
dependency that every layer — ``sim``, ``nvme``, ``mem``, ``gpu``,
``core``, ``bench`` — can use without cycles.

Updates never touch the event loop: metrics are passive Python state, so
instrumented runs dispatch the exact same simulated event stream as
uninstrumented ones (the bit-identity contract the golden-trace tests
enforce).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

Clock = Callable[[], float]


class Counter:
    """A named family of monotonically increasing counters.

    Keys act as label values.  Passing ``labels`` fixes the legal set up
    front (typed declaration: a typo'd label raises instead of silently
    creating a new series); an empty ``labels`` leaves the family open,
    which the hosts' stat groups rely on for dynamic keys like
    ``opcode_read``.
    """

    __slots__ = ("name", "description", "_allowed", "_values")

    def __init__(
        self,
        name: str = "",
        description: str = "",
        labels: Iterable[str] = (),
    ) -> None:
        self.name = name
        self.description = description
        allowed = frozenset(labels)
        self._allowed: Optional[frozenset] = allowed or None
        self._values: Dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        if self._allowed is not None and name not in self._allowed:
            raise KeyError(
                f"counter {self.name!r} has a fixed label set; "
                f"{name!r} is not in {sorted(self._allowed)}"
            )
        self._values[name] += amount

    def get(self, name: str, default: float = 0.0) -> float:
        return self._values.get(name, default)

    def snapshot(self) -> Dict[str, float]:
        return dict(self._values)

    def __getitem__(self, name: str) -> float:
        return self.get(name)


class Gauge:
    """A piecewise-constant value integrated over a supplied clock.

    ``mean()`` is the time-average (queue occupancy, cache residency);
    the snapshot's ``max`` the high-water mark.  An optional ``sampler`` callback
    fires on every :meth:`set` as ``sampler(value=value)`` — telemetry uses
    it to emit Chrome-trace counter series without the gauge knowing about
    export formats.
    """

    __slots__ = (
        "name", "description", "_clock", "_value", "_last_t", "_area",
        "_max", "sampler",
    )

    def __init__(
        self,
        clock: Clock,
        name: str = "",
        description: str = "",
        initial: float = 0.0,
    ) -> None:
        self.name = name
        self.description = description
        self._clock = clock
        self._value = initial
        self._last_t = self._clock()
        self._area = 0.0
        self._max = initial
        self.sampler: Optional[Callable[..., None]] = None

    def set(self, value: float) -> None:
        now = self._clock()
        self._area += self._value * (now - self._last_t)
        self._last_t = now
        self._value = value
        if value > self._max:
            self._max = value
        if self.sampler is not None:
            self.sampler(value=value)

    def mean(self) -> float:
        now = self._clock()
        total = self._area + self._value * (now - self._last_t)
        if now <= 0:
            return self._value
        return total / now

    def snapshot(self) -> Dict[str, float]:
        return {"value": self._value, "mean": self.mean(), "max": self._max}


class Histogram:
    """Fixed-bucket distribution (doorbell batch sizes, span durations).

    ``bounds`` are inclusive upper edges; one overflow bucket catches the
    rest.  Tracks count/sum/min/max so means survive even with coarse
    buckets.

    Every observed value is also retained exactly, so :meth:`quantile` and
    :meth:`quantiles` answer percentile queries without bucket
    interpolation error — the serving layer's SLO reports need the true
    p99, not an upper-bound estimate.  The stored values sort lazily
    (amortised: a sort only happens on query, over the unsorted suffix).
    """

    __slots__ = ("name", "description", "bounds", "_counts", "count",
                 "total", "_min", "_max", "_values", "_sorted_len")

    def __init__(
        self,
        name: str = "",
        description: str = "",
        buckets: Iterable[float] = (),
    ) -> None:
        self.name = name
        self.description = description
        self.bounds = tuple(sorted(buckets))
        self._counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._values: List[float] = []
        self._sorted_len = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        self._values.append(value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self._counts[i] += 1
                return
        self._counts[-1] += 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _ensure_sorted(self) -> None:
        if self._sorted_len != len(self._values):
            self._values.sort()
            self._sorted_len = len(self._values)

    def quantile(self, q: float) -> float:
        """Exact nearest-rank quantile over every observed value.

        ``q`` is a fraction in [0, 1]; an empty histogram reports 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile fraction out of range: {q}")
        if not self._values:
            return 0.0
        self._ensure_sorted()
        rank = math.ceil(q * len(self._values))
        return self._values[max(rank, 1) - 1]

    def quantiles(self) -> Dict[str, float]:
        """The standard SLO trio: exact p50 / p95 / p99."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def snapshot(self) -> Dict[str, object]:
        buckets = {f"le_{b:g}": n for b, n in zip(self.bounds, self._counts)}
        buckets["le_inf"] = self._counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self._min if self._min is not None else 0.0,
            "max": self._max if self._max is not None else 0.0,
            "buckets": buckets,
            "quantiles": self.quantiles(),
        }
