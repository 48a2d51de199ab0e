"""Telemetry must be a pure observer: enabling it cannot perturb the
simulation, and the public stats surfaces must report identical numbers
whether or not a telemetry session is attached.

These tests run the same seeded mixed workload twice — once with
``telemetry=None`` (disabled, the default) and once with ``telemetry=True``
— and require the *entire* protocol event stream to match bit-for-bit,
mirroring the golden-trace determinism contract for fault-free runs.
"""

from __future__ import annotations

from repro.config import CacheConfig, SsdConfig, SystemConfig
from repro.core import AgileHost, AgileLockChain
from repro.gpu import KernelSpec, LaunchConfig
from repro.sim.rng import RngStreams
from repro.sim.trace import EventLog


def _trace_signature(log):
    return [
        (ev.t, ev.kind, sorted(
            (k, str(v)) for k, v in ev.data.items() if k != "src"
        ))
        for ev in log.events()
    ]


def _run(telemetry: bool, seed: int = 11):
    cfg = SystemConfig(
        cache=CacheConfig(num_lines=16, ways=4),
        ssds=(SsdConfig(name="ssd0", capacity_bytes=1 << 24),),
        queue_pairs=2,
        queue_depth=8,
        seed=seed,
    )
    host = AgileHost(cfg, telemetry=True if telemetry else None)
    log = EventLog().attach(host.instrument())
    rng = RngStreams(seed).stream("flash")
    page = host.cfg.ssds[0].page_size
    for lba in range(32):
        host.ssds[0].flash.write_page_data(
            lba, rng.integers(0, 256, size=page).astype("uint8")
        )

    def body(tc, ctrl, out_sink):
        chain = AgileLockChain(f"par.t{tc.tid}")
        for i in range(3):
            lba = (tc.tid * 7 + i * 3) % 32
            line = yield from ctrl.read_page(tc, chain, 0, lba)
            out_sink.append((tc.tid, i, int(line.buffer[0])))
            ctrl.cache.unpin(line)
            yield from tc.compute(25.0)

    sink = []
    kernel = KernelSpec(name="par", body=body, registers_per_thread=32)
    with host:
        host.run_kernel(kernel, LaunchConfig(1, 32), (sink,))
        host.drain()
    return {
        "host": host,
        "trace": _trace_signature(log),
        "sink": sink,
        "now": host.sim.now,
        "events": host.sim.event_count,
        "stats": host.stats(),
        "device_stats": host.driver.device_stats(),
    }


def test_telemetry_on_is_bit_identical_to_off():
    off = _run(telemetry=False)
    on = _run(telemetry=True)
    assert off["host"].telemetry is None
    assert on["host"].telemetry is not None
    # Endpoint state and the full protocol event stream must match: all
    # recording is passive (list appends + clock reads), so the scheduler
    # dispatches the exact same events in the exact same order.
    assert off["now"] == on["now"]
    assert off["events"] == on["events"]
    assert off["sink"] == on["sink"]
    assert len(off["trace"]) > 100
    assert off["trace"] == on["trace"]


def test_public_stats_surfaces_report_identical_numbers():
    off = _run(telemetry=False)
    on = _run(telemetry=True)
    # Telemetry may *add* typed instrument groups to the shared registry
    # (gpu.stall_ns, mem.hbm.traffic, ...), but every group that exists
    # without it must report the exact same numbers with it.
    assert set(off["stats"]) <= set(on["stats"])
    for group, values in off["stats"].items():
        assert on["stats"][group] == values, f"stats[{group!r}] diverged"
    assert off["device_stats"] == on["device_stats"]


def test_enabled_session_covers_the_modelled_layers():
    on = _run(telemetry=True)
    tel = on["host"].telemetry
    layers = {rec[4] for rec in tel.spans.records}
    # Acceptance floor: spans/counters from at least four layers.
    assert {"gpu", "nvme", "mem", "core"} <= layers
    # The probe-fed instruments actually saw traffic.
    snap = tel.snapshot()
    metrics = snap["metrics"]
    assert metrics["histograms"]["nvme.ssd0.fetch_batch"]["count"] > 0
    assert metrics["counters"]["mem.ssd0.pcie.dma_bytes"]["read"] > 0
    assert metrics["gauges"]["nvme.s0.sq0.occupancy"]["max"] > 0
    assert snap["spans"]["recorded"] == len(tel.spans)
    assert snap["spans"]["dropped"] == 0
    assert "metrics" in snap
