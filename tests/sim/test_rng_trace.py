"""Tests for deterministic RNG streams and instrumentation."""

from __future__ import annotations

import pytest

from repro.sim import RngStreams, Simulator, Timeout
from repro.telemetry import Counter, Gauge


class TestRngStreams:
    def test_same_name_same_stream_object(self):
        streams = RngStreams(7)
        assert streams.stream("flash") is streams.stream("flash")

    def test_reproducible_across_instances(self):
        a = RngStreams(7).stream("flash").random(5)
        b = RngStreams(7).stream("flash").random(5)
        assert (a == b).all()

    def test_streams_independent_of_creation_order(self):
        s1 = RngStreams(7)
        first = s1.stream("a").random(3)
        s2 = RngStreams(7)
        s2.stream("b")  # interleave a different stream first
        second = s2.stream("a").random(3)
        assert (first == second).all()

    def test_different_names_differ(self):
        streams = RngStreams(7)
        assert not (
            streams.stream("a").random(8) == streams.stream("b").random(8)
        ).all()


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("hits")
        c.add("hits", 2)
        assert c["hits"] == 3
        assert c["misses"] == 0.0

    def test_snapshot_is_copy(self):
        c = Counter()
        c.add("x")
        snap = c.snapshot()
        c.add("x")
        assert snap["x"] == 1
        assert c["x"] == 2


class TestTimeWeightedStat:
    def test_mean_integrates_over_time(self):
        sim = Simulator()
        stat = Gauge(clock=lambda: sim.now, initial=0.0)

        def proc():
            yield Timeout(10)
            stat.set(4.0)
            yield Timeout(10)
            stat.set(0.0)
            yield Timeout(20)

        sim.spawn(proc())
        sim.run()
        # 0 for 10 ns, 4 for 10 ns, 0 for 20 ns -> mean = 40/40 = 1.0
        assert stat.mean() == pytest.approx(1.0)
        assert stat.snapshot()["max"] == 4.0

    def test_mean_at_time_zero(self):
        sim = Simulator()
        stat = Gauge(clock=lambda: sim.now, initial=7.0)
        assert stat.mean() == 7.0
