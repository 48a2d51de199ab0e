"""The unified telemetry spine.

One :class:`MetricRegistry` per simulated host owns every counter, gauge,
histogram, and pull collector (``host.trace`` is this registry).  A :class:`Telemetry` session
is the :mod:`repro.sim.probe` subscriber that adds the *timeline* layer —
span/instant/counter recording keyed to simulated nanoseconds — plus the
Chrome-trace and snapshot exporters.

Telemetry is **off by default**: a session turns the machine's probe
records into spans, gauges, counters and histograms, and recording is
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
from functools import partial
from typing import Any, Iterator, List

from repro.sim import probe as probe_mod
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
]


#: Span records: kind -> (name, layer, track).  Name and track are
#: ``str.format`` templates over the record's payload; a span runs from the
#: record's ``t0`` to its time, and every payload field neither template
#: names becomes a span argument, in declaration order.
SPANS = {
    "sim.run": ("sim.run", "sim", "scheduler"),
    "gpu.kernel": ("kernel.{name}", "gpu", "kernels"),
    "nvme.exec": ("exec.{op}", "nvme", "{src.cfg.name}[{src.index}].exec"),
    "ftl.gc": ("gc.run", "nvme", "{src.cfg.name}.gc"),
    "cache.fill": ("fill", "core", "cache"),
    "cache.dram_fill": ("fill.dram_tier", "core", "cache"),
    "io.done": ("io.{op}", "core", "{label}"),
    "serve.batch": ("serve.batch{bid}", "serve", "worker{worker}"),
}


class Telemetry:
    """One machine's session: the probe subscriber that books the
    machine's records into its registry and a span timeline, plus the
    exporters.  Built host side, in no simulated time."""

    def __init__(self, machine: Any):
        sim = machine.sim
        self.registry = reg = machine.trace  # its clock reads sim.now
        self.spans = spans = SpanRecorder(lambda: sim.now)
        probe = machine.instrument()
        stall_ns = reg.counter(
            "gpu.stall_ns",
            description="simulated ns GPU threads spent stalled, by reason",
            labels=("sq_full", "doorbell", "fill_wait", "victim_wait", "warp_converge"),
        )
        probe.subscribe("gpu.stall", lambda r: stall_ns.add(r["reason"], r["ns"]))
        # Instruments are keyed by their source's id(): a key holding the
        # part would close a cycle (part -> probe -> route -> part).
        occupancy = {}
        for si, ssd in enumerate(machine.ssds):
            for qp in ssd.queue_pairs:
                for ring, queue, description in (
                    ("sq", qp.sq, "outstanding SQEs"),
                    ("cq", qp.cq, "posted, unconsumed CQEs"),
                ):
                    track = f"s{si}.{ring}{qp.qid}"
                    gauge = reg.gauge(
                        f"nvme.{track}.occupancy", description=description
                    )
                    gauge.sampler = partial(spans.counter, "occupancy", "nvme", track)
                    occupancy[id(queue)] = gauge
        for kind in ("sq.reserve", "sq.release", "cq.post", "cq.consume"):
            probe.subscribe(
                kind, lambda r: occupancy[id(r["src"])].set(r["occupancy"])
            )
        probe.subscribe("mmio.ring", lambda r: spans.instant(
            "ring", "mem", r["name"], value=r["value"]
        ))
        probe.subscribe("gauge", lambda r: spans.counter(
            r["name"], r["layer"], r["track"], value=r["value"]
        ))
        for kind, spec in SPANS.items():
            probe.subscribe(kind, self._span(kind, *spec))
        traffic = reg.counter(
            "mem.hbm.traffic",
            description="HBM bytes moved by direction",
            labels=("load_bytes", "store_bytes"),
        )
        fetch_batch, dma_bytes = {}, {}
        for ssd in machine.ssds:
            fetch_batch[id(ssd)] = reg.histogram(
                f"nvme.ssd{ssd.index}.fetch_batch",
                description="SQEs fetched per doorbell-triggered DMA burst",
                buckets=(1, 2, 4, 8, 16),
            )
            dma_bytes[id(ssd.link)] = reg.counter(
                f"mem.ssd{ssd.index}.pcie.dma_bytes",
                description="SSD-link DMA payload bytes by direction",
                labels=("read", "write"),
            )
        probe.subscribe("hbm.traffic", lambda r: traffic.add(
            r["direction"], r["nbytes"]
        ))
        probe.subscribe("pcie.dma", lambda r: dma_bytes[id(r["src"])].add(
            r["direction"], r["nbytes"]
        ))
        probe.subscribe("nvme.fetch", lambda r: fetch_batch[id(r["src"])].observe(
            r["batch"]
        ))
        machine.telemetry = self

    def _span(self, kind: str, name: str, layer: str, track: str):
        complete = self.spans.complete
        args = [
            field for field in probe_mod.TIMELINE[kind].split()
            if field != "t0" and "{" + field not in name + track
        ]

        def book(r) -> None:
            complete(
                name.format_map(r.data), layer, track.format_map(r.data),
                r["t0"], **{arg: r[arg] for arg in args},
            )

        return book

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


class TelemetryCapture:
    """Handle returned by :func:`capture`: collects every session created
    while active and merges their timelines into one trace file."""

    def __init__(self) -> None:
        self.sessions: List[Telemetry] = []

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
    handle = TelemetryCapture()

    def build(machine: Any) -> None:
        handle.sessions.append(Telemetry(machine))

    with probe_mod.listening("telemetry", build):
        yield handle
