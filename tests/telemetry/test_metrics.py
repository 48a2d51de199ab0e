"""Unit tests for the typed metric primitives and the registry."""

from __future__ import annotations

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    SpanRecorder,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class TestCounter:
    def test_open_label_set_accepts_dynamic_keys(self):
        c = Counter("io")
        c.add("opcode_read")
        c.add("opcode_read", 2)
        c.add("anything_goes")
        assert c["opcode_read"] == 3
        assert c.get("anything_goes") == 1
        assert c.get("missing") == 0.0
        assert c.snapshot() == {"opcode_read": 3, "anything_goes": 1}

    def test_fixed_label_set_rejects_typos(self):
        c = Counter("gpu.stall_ns", labels=("sq_full", "doorbell"))
        c.add("sq_full", 40.0)
        with pytest.raises(KeyError):
            c.add("sq_ful")  # typo'd label must raise, not create a series


class TestGauge:
    def test_time_weighted_mean_and_max(self):
        clock = FakeClock()
        g = Gauge(clock=clock)
        clock.t = 10.0
        g.set(4.0)  # value was 0 for [0, 10)
        clock.t = 30.0
        g.set(1.0)  # value was 4 for [10, 30)
        clock.t = 40.0
        # area = 0*10 + 4*20 + 1*10 = 90 over 40 ns
        assert g.mean() == pytest.approx(90.0 / 40.0)
        assert g.snapshot() == {"value": 1.0, "mean": g.mean(), "max": 4.0}

    def test_sampler_hook_fires_on_every_set(self):
        clock = FakeClock()
        g = Gauge(clock=clock)
        seen = []
        g.sampler = lambda value: seen.append((clock(), value))
        clock.t = 5.0
        g.set(2.0)
        g.set(3.0)
        assert seen == [(5.0, 2.0), (5.0, 3.0)]


class TestHistogram:
    def test_buckets_and_summary(self):
        h = Histogram("batch", buckets=(1, 4, 16))
        for v in (1, 3, 5, 16, 40):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == 65
        assert snap["min"] == 1 and snap["max"] == 40
        assert snap["buckets"] == {"le_1": 1, "le_4": 1, "le_16": 2,
                                   "le_inf": 1}
        assert h.mean() == pytest.approx(13.0)

    def test_exact_quantiles_nearest_rank(self):
        h = Histogram("lat", buckets=(50,))
        for v in range(1, 101):  # 1..100
            h.observe(v)
        # Nearest-rank on n=100: p50 -> rank 50, p95 -> 95, p99 -> 99.
        assert h.quantile(0.50) == 50
        assert h.quantile(0.95) == 95
        assert h.quantile(0.99) == 99
        assert h.quantile(0.0) == 1   # clamps to the smallest observation
        assert h.quantile(1.0) == 100
        assert h.quantiles() == {"p50": 50, "p95": 95, "p99": 99}

    def test_quantiles_unaffected_by_observation_order(self):
        a, b = Histogram(), Histogram()
        values = [9.0, 1.0, 5.0, 3.0, 7.0]
        for v in values:
            a.observe(v)
        for v in sorted(values):
            b.observe(v)
        assert a.quantiles() == b.quantiles()
        assert a.quantile(0.5) == 5.0

    def test_quantiles_interleave_with_observes(self):
        # The lazy sort must re-sort after new observations arrive.
        h = Histogram()
        h.observe(10.0)
        assert h.quantile(0.99) == 10.0
        h.observe(20.0)
        assert h.quantile(0.99) == 20.0

    def test_empty_histogram_quantiles_are_zero(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0
        assert h.quantiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_quantile_rejects_out_of_range(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_snapshot_carries_quantiles(self):
        h = Histogram(buckets=(4,))
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.snapshot()["quantiles"] == {"p50": 2.0, "p95": 3.0,
                                             "p99": 3.0}


class TestRegistry:
    def test_instruments_are_get_or_create(self):
        reg = MetricRegistry()
        assert reg.counter("io") is reg.counter("io")
        assert reg.gauge("occ") is reg.gauge("occ")
        assert reg.histogram("h") is reg.histogram("h")

    def test_counters_snapshot_keeps_stats_shape(self):
        reg = MetricRegistry()
        reg.counter("io").add("commands_submitted", 3)
        reg.counter("cache").add("hits")
        assert reg.counters_snapshot() == {
            "io": {"commands_submitted": 3},
            "cache": {"hits": 1},
        }

    def test_collectors_run_only_at_snapshot_time(self):
        reg = MetricRegistry()
        calls = []

        def pull():
            calls.append(1)
            return {"busy": 7.0}

        reg.register_collector("flash", pull)
        assert calls == []
        assert reg.collect() == {"flash": {"busy": 7.0}}
        snap = reg.snapshot()
        assert snap["collected"]["flash"] == {"busy": 7.0}
        assert set(snap) == {"counters", "gauges", "histograms", "collected"}

    def test_late_bound_clock_drives_gauges(self):
        clock = FakeClock()
        reg = MetricRegistry()
        reg.set_clock(clock)
        g = reg.gauge("occ")
        clock.t = 10.0
        g.set(2.0)
        clock.t = 20.0
        assert g.mean() == pytest.approx(1.0)  # 2.0 over half the window


class TestSpanRecorder:
    def test_records_and_layer_counts(self):
        clock = FakeClock()
        rec = SpanRecorder(clock)
        clock.t = 100.0
        rec.complete("io.read", "core", "io", 40.0, cid=3)
        rec.instant("ring", "mem", "db")
        rec.counter("occupancy", "nvme", "sq0", value=5)
        assert len(rec) == 3
        assert [r[4] for r in rec.records] == ["core", "mem", "nvme"]
        phase, t0, t1, name, layer, track, args = rec.records[0]
        assert (phase, t0, t1, name) == ("X", 40.0, 100.0, "io.read")
        assert args == {"cid": 3}

    def test_limit_counts_drops_instead_of_growing(self):
        rec = SpanRecorder(FakeClock(), limit=2)
        for i in range(5):
            rec.instant(f"e{i}", "sim", "t")
        assert len(rec) == 2
        assert rec.dropped == 3
