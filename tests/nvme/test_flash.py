"""Tests for the flash array: channel mapping, throughput ceiling, sparse
page storage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SsdConfig
from repro.nvme.flash import FlashArray
from repro.sim import Simulator


@pytest.fixture
def flash(sim):
    return FlashArray(sim, SsdConfig(channels=4, read_latency_ns=1000,
                                     write_latency_ns=2000))


class TestDataPlane:
    def test_sparse_default_zero(self, flash):
        assert flash.read_page_data(123).sum() == 0
        assert flash.populated_pages() == 0

    def test_write_then_read(self, flash):
        page = np.arange(4096, dtype=np.uint8)
        flash.write_page_data(5, page)
        assert np.array_equal(flash.read_page_data(5), page)
        assert flash.populated_pages() == 1

    def test_writes_are_copies(self, flash):
        page = np.ones(4096, dtype=np.uint8)
        flash.write_page_data(0, page)
        page[:] = 9
        assert flash.read_page_data(0)[0] == 1

    def test_page_in_range(self, flash):
        assert flash.page_in_range(0)
        assert not flash.page_in_range(flash.cfg.num_pages)
        assert not flash.page_in_range(-1)


class TestTimingPlane:
    def test_same_channel_serializes(self, flash):
        sim = flash.sim
        done = []

        def job(lba):
            yield from flash.read_service(lba)
            done.append((lba, sim.now))

        # LBAs 0 and 4 map to channel 0 (4 channels).
        sim.spawn(job(0))
        sim.spawn(job(4))
        sim.run()
        assert [t for _, t in done] == [1000, 2000]

    def test_different_channels_parallel(self, flash):
        sim = flash.sim
        done = []

        def job(lba):
            yield from flash.read_service(lba)
            done.append(sim.now)

        for lba in range(4):
            sim.spawn(job(lba))
        sim.run()
        assert done == [1000] * 4

    def test_write_slower_than_read(self, flash):
        sim = flash.sim

        def job():
            yield from flash.program_service(0)

        sim.spawn(job())
        sim.run()
        assert sim.now == 2000

    def test_aggregate_throughput_bounded_by_channels(self):
        """N pages across C channels take ceil(N/C) service slots."""
        sim = Simulator()
        flash = FlashArray(sim, SsdConfig(channels=4, read_latency_ns=1000))
        done = []

        def job(lba):
            yield from flash.read_service(lba)
            done.append(sim.now)

        for lba in range(10):
            sim.spawn(job(lba))
        sim.run()
        assert max(done) == 3000  # ceil(10/4) = 3 waves
        assert flash.reads == 10

    def test_channel_utilization(self, flash):
        sim = flash.sim

        def job():
            yield from flash.read_service(0)
            yield sim.timeout(1000)

        sim.spawn(job())
        sim.run()
        # One of four channels busy half the time -> 1/8 average.
        assert flash.channel_utilization() == pytest.approx(0.125)
