"""The unified telemetry spine.

One :class:`MetricRegistry` per simulated host owns every counter, gauge,
histogram, and pull collector (``host.trace`` is this registry).  A :class:`Telemetry` session
adds the *timeline* layer — span/instant/counter recording keyed to
simulated nanoseconds — plus the Chrome-trace and snapshot exporters.

Gating discipline (mirrors the fault injector's ``injector is None``
contract): telemetry is **off by default**.  Models hold a ``tel``-style
attribute that is ``None`` unless a session is wired in, every
instrumentation site is guarded by one attribute check, and recording is
purely passive (no simulation events are ever scheduled), so a
telemetry-enabled run dispatches the *bit-identical* event stream of a
disabled run — golden traces, ``sim.now`` and ``event_count`` included.

Enable per host::

    host = AgileHost(cfg, telemetry=True)
    ... run ...
    telemetry.export.write_chrome_trace("out.json", host.telemetry.chrome_trace())

or globally for code that builds hosts internally (the bench CLI's
``--trace`` flag)::

    with telemetry.capture() as cap:
        run_bandwidth_sweep("read", 1, 1024)
    cap.write_chrome_trace("out.json")
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.telemetry import export as _export
from repro.telemetry.metrics import Counter, Gauge, Histogram
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.spans import SpanRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "SpanRecorder",
    "Telemetry",
    "TelemetryCapture",
    "capture",
    "enabled",
    "maybe_create",
]


class Telemetry:
    """One host's telemetry session: registry + span timeline + exporters."""

    def __init__(self, sim, registry: Optional[MetricRegistry] = None):
        self.sim = sim
        clock = lambda: sim.now  # noqa: E731 - tiny bound clock
        self.registry = registry if registry is not None else MetricRegistry()
        self.registry.set_clock(clock)
        self.spans = SpanRecorder(clock)
        #: Stall-reason breakdown in simulated ns (labels fixed up front —
        #: the typed-declaration path).
        self.stall_ns = self.registry.counter(
            "gpu.stall_ns",
            description="simulated ns GPU threads spent stalled, by reason",
            labels=(
                "sq_full", "doorbell", "fill_wait", "victim_wait",
                "warp_converge",
            ),
        )

    # -- instrument helpers ----------------------------------------------------

    def sampled_gauge(
        self, name: str, layer: str, track: str, description: str = ""
    ) -> Gauge:
        """A registry gauge that also emits a Chrome counter series on
        every update."""
        gauge = self.registry.gauge(name, description=description)
        spans = self.spans
        short = name.rsplit(".", 1)[-1]

        def sampler(t: float, value: float) -> None:
            spans.counter_at(t, short, layer, track, value)

        gauge.sampler = sampler
        return gauge

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Flat JSON document: the registry's full typed snapshot plus the
        span-recorder totals."""
        return {
            "metrics": self.registry.snapshot(),
            "spans": {"recorded": len(self.spans), "dropped": self.spans.dropped},
        }

    def chrome_trace(self) -> dict:
        return _export.chrome_trace([("", self.spans)])


# -- global capture switch (mirrors repro.analysis.hooks) ----------------------

_capture_active = False
_captured: List[Telemetry] = []


def enabled() -> bool:
    return _capture_active


def maybe_create(sim, registry: Optional[MetricRegistry] = None) -> Optional[Telemetry]:
    """Build a session iff a global capture is active (called by host
    constructors; one ``if`` when telemetry is off)."""
    if not _capture_active:
        return None
    tel = Telemetry(sim, registry=registry)
    _captured.append(tel)
    return tel


class TelemetryCapture:
    """Handle returned by :func:`capture`: collects every session created
    while active and merges their timelines into one trace file."""

    def __init__(self) -> None:
        self.sessions: List[Telemetry] = []

    @property
    def last(self) -> Optional[Telemetry]:
        return self.sessions[-1] if self.sessions else None

    def chrome_trace(self) -> dict:
        if len(self.sessions) == 1:
            return self.sessions[0].chrome_trace()
        recorders = [
            (f"run{i}.", tel.spans) for i, tel in enumerate(self.sessions)
        ]
        return _export.chrome_trace(
            recorders, metadata={"runs": len(self.sessions)}
        )

    def write_chrome_trace(self, path: str) -> None:
        _export.write_chrome_trace(path, self.chrome_trace())


@contextmanager
def capture() -> Iterator[TelemetryCapture]:
    """Enable telemetry for every host built inside the ``with`` block."""
    global _capture_active
    handle = TelemetryCapture()
    prev_active, prev_list = _capture_active, list(_captured)
    _capture_active = True
    _captured.clear()
    try:
        yield handle
    finally:
        handle.sessions = list(_captured)
        _captured.clear()
        _captured.extend(prev_list)
        _capture_active = prev_active
