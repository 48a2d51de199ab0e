"""Tests for the HBM model: data views, timing, utilization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.mem import Hbm
from repro.sim import Simulator


@pytest.fixture
def hbm(sim):
    return Hbm(sim, GpuConfig(), capacity=1 << 20)


def test_buffers_are_views_of_shared_backing(sim, hbm):
    a = hbm.alloc(128, label="a")
    b = hbm.alloc(128, label="b")
    a.view[:] = 7
    assert hbm.backing[a.allocation.addr : a.allocation.end].sum() == 7 * 128
    assert b.view.sum() == 0  # disjoint


def test_typed_array_view_roundtrip(sim, hbm):
    buf = hbm.alloc(64)
    buf.view.view(np.float32)[:] = np.arange(16, dtype=np.float32)
    again = hbm.backing[buf.allocation.addr : buf.allocation.end]
    assert np.array_equal(again.view(np.float32), np.arange(16, dtype=np.float32))


def test_write_read_bytes(sim, hbm):
    buf = hbm.alloc(32)
    buf.view[4:7] = [1, 2, 3]
    out = hbm.backing[buf.allocation.addr + 4 : buf.allocation.addr + 7]
    assert list(out) == [1, 2, 3]


def test_load_latency_and_bandwidth(sim):
    cfg = GpuConfig(hbm_latency_ns=100.0, hbm_bandwidth_gbps=1.0)  # 1 B/ns
    hbm = Hbm(sim, cfg, capacity=1024)
    done = []

    def proc():
        yield from hbm.load(500)
        done.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert done == [pytest.approx(600.0)]  # 500 ns wire + 100 ns latency
    assert hbm.loads == 1


def test_store_is_posted(sim):
    cfg = GpuConfig(hbm_latency_ns=100.0, hbm_bandwidth_gbps=1.0)
    hbm = Hbm(sim, cfg, capacity=1024)
    done = []

    def proc():
        yield from hbm.store(500)
        done.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert done == [pytest.approx(500.0)]  # no load-to-use latency on stores
    assert hbm.stores == 1


def test_atomic_counts_and_costs(sim):
    cfg = GpuConfig(atomic_latency_ns=120.0)
    hbm = Hbm(sim, cfg, capacity=1024)

    def proc():
        yield from hbm.atomic()

    sim.spawn(proc())
    sim.run()
    assert hbm.atomics == 1
    assert sim.now >= 120.0
