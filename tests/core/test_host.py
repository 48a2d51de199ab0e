"""Tests for AgileHost orchestration and BamHost symmetry (what differs
per host; the shared ``Machine`` surface is in test_machine_contract.py)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import BamHost
from repro.config import CacheConfig, SsdConfig, SystemConfig
from repro.core import AgileHost, AgileLockChain, ClockPolicy
from repro.gpu import KernelSpec, LaunchConfig

from tests.helpers import make_host, run_kernel, small_config


class TestConstruction:
    def test_validates_config(self):
        with pytest.raises(ValueError):  # the config refuses itself
            AgileHost(SystemConfig(queue_pairs=500))  # over the device limit

    def test_queue_geometry_matches_config(self):
        host = make_host(queue_pairs=3, queue_depth=32)
        assert len(host.queue_pairs[0]) == 3
        assert all(qp.sq.depth == 32 for qp in host.queue_pairs[0])

    def test_custom_policy_injected(self):
        class Marker(ClockPolicy):
            pass

        policy = Marker()
        host = AgileHost(small_config(), policy=policy)
        assert host.cache.policy is policy

    def test_share_table_toggle(self):
        on = make_host()
        off = make_host(cache=CacheConfig(num_lines=64, ways=8,
                                          share_table=False))
        assert on.share_table is not None
        assert off.share_table is None

    def test_multiple_ssds(self):
        host = AgileHost(small_config().with_ssds(3))
        assert len(host.ssds) == 3
        assert len(host.queue_pairs) == 3


class TestDataStaging:
    def test_striped_layout_across_ssds(self):
        host = AgileHost(small_config().with_ssds(2))
        data = np.arange(4096 * 4 // 4, dtype=np.int32)  # 4 pages
        pages = host.load_logical(0, data)
        assert pages == 4
        # Page p lives on SSD p%2 at LBA p//2.
        for p in range(4):
            stored = host.ssds[p % 2].flash.read_page_data(p // 2)
            expected = data[p * 1024 : (p + 1) * 1024]
            assert np.array_equal(stored.view(np.int32), expected)

    def test_make_buffer_default_line_size(self):
        host = make_host()
        buf = host.make_buffer()
        assert buf.size == host.cfg.cache.line_size


class TestLifecycle:
    def test_context_manager_starts_and_stops(self):
        host = make_host()
        with host:
            assert host.service.running
        assert not host.service.running

    def test_drain_without_traffic_is_noop(self):
        host = make_host()
        host.drain()  # nothing in flight, service not needed

    def test_drain_requires_service_when_inflight(self):
        host = make_host()
        dest = host.alloc_view(4096)

        def body(tc, ctrl):
            chain = AgileLockChain(f"t{tc.tid}")
            yield from ctrl.raw_read(tc, chain, 0, 0, dest)

        with host:
            host.run_kernel(
                KernelSpec(name="k", body=body), LaunchConfig(1, 1)
            )
            host.drain()
        assert host.issue.inflight() == 0

    def test_stats_snapshot_shape(self):
        host = make_host()
        snap = host.stats()
        assert set(snap) >= {"io", "cache", "service", "ctrl"}


class TestBamHostSymmetry:
    def test_kernel_runs_without_service(self):
        host = BamHost(small_config())
        seen = []

        def body(tc, ctrl, out):
            chain = AgileLockChain(f"t{tc.tid}")
            line = yield from ctrl.read_page(tc, chain, 0, 1)
            out.append(int(line.buffer[0]))
            ctrl.cache.unpin(line)

        host.run_kernel(
            KernelSpec(name="b", body=body), LaunchConfig(1, 4), (seen,)
        )
        assert len(seen) == 4

    def test_bam_uses_all_sms(self):
        """BaM has no service kernel, so nothing is reserved."""
        host = BamHost(small_config())
        used = set()

        def body(tc, ctrl, out):
            out.add(tc.sm.index)
            return
            yield  # pragma: no cover

        host.run_kernel(
            KernelSpec(name="s", body=body),
            LaunchConfig(host.cfg.gpu.num_sms * 2, 32),
            (used,),
        )
        assert len(used) == host.cfg.gpu.num_sms
