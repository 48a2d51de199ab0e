"""Tests for the AGILE software cache: the four §3.4 cases, pins, eviction,
write-back, second-level coalescing, the DRAM tier, and preloading."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CacheConfig, SsdConfig, SystemConfig
from repro.core import AgileHost, AgileLockChain, LineState
from repro.sim import SimError

from tests.helpers import make_host, run_kernel, small_config


def _page(value: int) -> np.ndarray:
    return np.full(4096, value % 251, dtype=np.uint8)


class TestBasicPaths:
    def test_miss_then_hit(self):
        host = make_host()
        host.ssds[0].flash.write_page_data(3, _page(7))
        log = []

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            line = yield from ctrl.read_page(tc, chain, 0, 3)
            log.append(("first", line.buffer[0], ctrl.cache.stats["misses"]))
            ctrl.cache.unpin(line)
            line = yield from ctrl.read_page(tc, chain, 0, 3)
            log.append(("second", line.buffer[0], ctrl.cache.stats["hits"]))
            ctrl.cache.unpin(line)

        run_kernel(host, body, block=1)
        assert log[0][1] == 7 and log[1][1] == 7
        assert host.cache.stats["misses"] == 1
        assert host.cache.stats["hits"] == 1

    def test_busy_hit_coalesces_concurrent_misses(self):
        """Case (c): N threads missing the same page produce one NVMe read."""
        host = make_host()
        host.ssds[0].flash.write_page_data(0, _page(9))

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            line = yield from ctrl.cache.acquire(tc, chain, 0, 0)
            assert line.buffer[0] == 9
            ctrl.cache.unpin(line)

        run_kernel(host, body, block=32)
        assert host.trace.counter("io")["opcode_read"] == 1
        assert host.cache.stats["misses"] == 1

    def test_prefetch_does_not_block(self):
        host = make_host()

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            before = tc.sim.now
            yield from ctrl.prefetch(tc, chain, 0, 5)
            issue_time = tc.sim.now - before
            # Prefetch returns long before the ~50 us flash latency.
            assert issue_time < host.cfg.ssds[0].read_latency_ns

        run_kernel(host, body, block=1)
        line = host.cache.lookup(0, 5)
        assert line is not None and line.state is LineState.READY

    def test_for_write_marks_modified(self):
        host = make_host()

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            line = yield from ctrl.cache.acquire(
                tc, chain, 0, 2, for_write=True
            )
            yield from ctrl.cache.write_line(tc, line, _page(42))
            ctrl.cache.unpin(line)

        run_kernel(host, body, block=1)
        line = host.cache.lookup(0, 2)
        assert line.state is LineState.MODIFIED
        assert line.buffer[0] == 42


class TestEviction:
    def _thrash_host(self):
        # 8 lines / 2 ways -> easy to evict.
        return make_host(cache=CacheConfig(num_lines=8, ways=2))

    def test_clean_eviction_resets_line(self):
        host = self._thrash_host()
        for lba in range(32):
            host.ssds[0].flash.write_page_data(lba, _page(lba))

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            for lba in range(32):
                line = yield from ctrl.read_page(tc, chain, 0, lba)
                assert line.buffer[0] == lba % 251
                ctrl.cache.unpin(line)

        run_kernel(host, body, block=1)
        assert host.cache.stats["evictions"] >= 24
        assert host.cache.stats["writebacks"] == 0

    def test_modified_eviction_writes_back_to_flash(self):
        host = self._thrash_host()

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            arr = ctrl.get_array_wrap(np.int64)
            # Dirty pages 0..7, then sweep 8..39 to force their eviction.
            for lba in range(8):
                yield from arr.set(tc, chain, 0, lba * 512, 1000 + lba)
            for lba in range(8, 40):
                line = yield from ctrl.read_page(tc, chain, 0, lba)
                ctrl.cache.unpin(line)

        run_kernel(host, body, block=1)
        assert host.cache.stats["writebacks"] >= 1
        assert host.trace.counter("io")["opcode_write"] >= 1
        # At least one dirtied page must have reached flash.
        landed = [
            int(host.read_flash(0, lba, 8, np.int64)[0]) == 1000 + lba
            for lba in range(8)
        ]
        assert any(landed)

    def test_pinned_lines_never_evicted(self):
        host = make_host(cache=CacheConfig(num_lines=4, ways=4))
        failures = []

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            held = []
            for lba in range(3):
                line = yield from ctrl.read_page(tc, chain, 0, lba)
                held.append(line)
            # Only one way left; this read must evict nothing pinned.
            line4 = yield from ctrl.read_page(tc, chain, 0, 99)
            for line in held:
                if line.tag not in {(0, lba) for lba in range(3)}:
                    failures.append(line.tag)
                ctrl.cache.unpin(line)
            ctrl.cache.unpin(line4)

        run_kernel(host, body, block=1)
        assert not failures

    def test_victim_stall_recovers(self):
        """All ways pinned -> victim stall -> progress after unpin."""
        host = make_host(cache=CacheConfig(num_lines=2, ways=2))
        order = []

        def pinner(tc, ctrl):
            chain = AgileLockChain(f"p{tc.tid}")
            lines = []
            for lba in range(2):
                line = yield from ctrl.read_page(tc, chain, 0, lba)
                lines.append(line)
            order.append(("pinned", tc.sim.now))
            yield from tc.compute(500_000)  # hold pins ~333 us
            for line in lines:
                ctrl.cache.unpin(line)
            order.append(("released", tc.sim.now))
            line = None

        def reader(tc, ctrl):
            chain = AgileLockChain(f"r{tc.tid}")
            yield tc.sim.timeout(200_000)  # let the pinner grab both lines
            line = yield from ctrl.read_page(tc, chain, 0, 7)
            order.append(("got", tc.sim.now))
            ctrl.cache.unpin(line)

        def body(tc, ctrl):
            if tc.tid % 2 == 0:
                yield from pinner(tc, ctrl)
            else:
                yield from reader(tc, ctrl)

        run_kernel(host, body, block=2)
        got = dict((k, t) for k, t in order)
        assert got["got"] >= got["released"]
        assert host.cache.stats["victim_stalls"] > 0


class TestDramTier:
    def test_reload_served_from_dram(self):
        host = make_host(
            cache=CacheConfig(num_lines=4, ways=4, dram_tier_lines=64)
        )
        host.ssds[0].flash.write_page_data(1, _page(11))

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            for lba in [1, 10, 11, 12, 13, 1]:  # 1 evicted, then re-read
                line = yield from ctrl.read_page(tc, chain, 0, lba)
                ctrl.cache.unpin(line)

        run_kernel(host, body, block=1)
        assert host.cache.dram_tier.hits == 1
        assert host.cache.stats["dram_tier_hits"] == 1
        # The re-read produced no second flash access for LBA 1.
        assert host.trace.counter("io")["opcode_read"] == 5

    def test_dram_tier_capacity_bounded(self):
        from repro.core.cache import DramTier

        tier = DramTier(capacity_lines=2)
        for i in range(5):
            tier.put((0, i), _page(i))
        # Only the two most recent puts survive.
        assert [tier.get((0, i)) is not None for i in range(5)] == [
            False, False, False, True, True,
        ]


class TestPreloadAndHelpers:
    def test_preload_hits_without_io(self):
        host = make_host()
        host.ssds[0].flash.write_page_data(4, _page(44))
        host.preload_cache(0, [4])

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            line = yield from ctrl.read_page(tc, chain, 0, 4)
            assert line.buffer[0] == 44
            ctrl.cache.unpin(line)

        run_kernel(host, body, block=1)
        assert host.trace.counter("io").get("opcode_read", 0) == 0
        assert host.cache.stats["hits"] == 1

    def test_preload_overflow_raises(self):
        host = make_host(cache=CacheConfig(num_lines=2, ways=2))
        num_sets = host.cache.num_sets
        same_set = [i * num_sets for i in range(3)]
        with pytest.raises(SimError, match="preload"):
            host.preload_cache(0, same_set)

    def test_unpin_below_zero_raises(self):
        host = make_host()
        line = host.cache.lines[0]
        with pytest.raises(SimError):
            host.cache.unpin(line)
