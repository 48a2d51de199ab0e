"""The load-aware placement feed: in-flight commands plus FTL write
pressure, with the pressure term gated so read-only runs are unchanged."""

from __future__ import annotations

import pytest

from tests.helpers import make_host


def test_untouched_ftls_contribute_exactly_zero():
    # The bit-exactness contract: before any program, the feed is the
    # pure in-flight count (all zeros at rest) — no float residue from
    # the pressure term.
    host = make_host()
    assert host._device_loads(host.issue) == [0.0] * len(host.ssds)


def test_write_pressure_raises_the_score():
    host = make_host()
    ftl = host.ssds[0].flash.ftl
    # A device whose GC has amplified writes and eaten into the free
    # pool scores as more loaded than its idle twin.
    ftl.host_programs = 100
    ftl.gc_programs = 50  # waf = 1.5
    ftl.free_blocks = ftl.cfg.physical_blocks // 2
    loads = host._device_loads(host.issue)
    assert loads[0] == pytest.approx(
        host.WAF_LOAD_WEIGHT * 0.5 + host.SCARCITY_LOAD_WEIGHT * 0.5
    )


def test_waf_one_and_full_pool_add_nothing():
    # A device that has written but never amplified and never consumed a
    # block beyond what it freed scores exactly its in-flight count.
    host = make_host()
    ftl = host.ssds[0].flash.ftl
    ftl.host_programs = 10  # waf == 1.0, free pool untouched
    assert host._device_loads(host.issue)[0] == 0.0


def test_feed_reaches_the_load_aware_policy():
    from repro.config import PlacementConfig, SsdConfig

    host = make_host(
        ssds=(
            SsdConfig(name="ssd0", capacity_bytes=1 << 26, channels=8),
            SsdConfig(name="ssd1", capacity_bytes=1 << 26, channels=8),
        ),
        placement=PlacementConfig(policy="load_aware", shard_span=1024),
    )
    # Pressure ssd0: fresh allocations should prefer ssd1.
    ftl = host.ssds[0].flash.ftl
    ftl.host_programs = 100
    ftl.gc_programs = 200
    ftl.free_blocks = 0
    ssd, _lba = host.placement.place(0, tenant=None)
    assert ssd == 1
