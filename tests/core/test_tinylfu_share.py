"""Tests for the TinyLFU-style policy and customizable share policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CacheConfig, SsdConfig, SystemConfig
from repro.core import AgileHost, AgileLockChain, TinyLfuPolicy, make_policy
from repro.core.sharetable import SharePolicy
from repro.gpu import KernelSpec, LaunchConfig

from tests.helpers import make_host, run_kernel, small_config


class TestTinyLfu:
    def _attached(self, num_sets=1, ways=4):
        p = TinyLfuPolicy()
        p.attach(num_sets, ways)
        return p

    def test_least_frequent_evicted(self):
        p = self._attached()
        for w in range(4):
            p.on_fill(0, w)
        for _ in range(5):
            p.on_hit(0, 0)
        for _ in range(3):
            p.on_hit(0, 1)
        p.on_hit(0, 2)
        assert p.select_victim(0, [0, 1, 2, 3]) == 3

    def test_tie_broken_by_recency(self):
        p = self._attached()
        p.on_fill(0, 0)
        p.on_fill(0, 1)  # same frequency, filled later
        assert p.select_victim(0, [0, 1]) == 0

    def test_fill_resets_inherited_popularity(self):
        p = self._attached()
        p.on_fill(0, 0)
        for _ in range(10):
            p.on_hit(0, 0)
        p.on_fill(0, 0)  # way re-used by a new page
        p.on_fill(0, 1)
        p.on_hit(0, 1)
        assert p.select_victim(0, [0, 1]) == 0

    def test_aging_halves_counters(self):
        p = self._attached()
        p.on_fill(0, 0)
        for _ in range(TinyLfuPolicy.AGE_PERIOD):
            p.on_hit(0, 0)
        assert p._freq[0, 0] <= TinyLfuPolicy.AGE_PERIOD // 2 + 1

    def test_factory_knows_tinylfu(self):
        assert isinstance(make_policy("tinylfu"), TinyLfuPolicy)

    def test_protects_hot_set_against_scans(self):
        """TinyLFU's signature property: a one-shot scan cannot evict the
        frequently re-used head (where CLOCK/LRU thrash)."""
        host_lfu = make_host(cache=CacheConfig(num_lines=16, ways=8,
                                               policy="tinylfu"))
        host_lru = make_host(cache=CacheConfig(num_lines=16, ways=8,
                                               policy="lru"))
        hot = list(range(8))
        scan = list(range(100, 180))
        trace = []
        for _ in range(4):
            trace += hot * 3 + scan

        def body(tc, ctrl):
            chain = AgileLockChain("t")
            for lba in trace:
                line = yield from ctrl.read_page(tc, chain, 0, lba)
                ctrl.cache.unpin(line)

        run_kernel(host_lfu, body, block=1)
        run_kernel(host_lru, body, block=1)
        hit = lambda h: h.cache.stats["hits"] / (
            h.cache.stats["hits"] + h.cache.stats["misses"]
        )
        assert hit(host_lfu) >= hit(host_lru)


class TestSharePolicyCustomization:
    def test_declining_policy_blocks_sharing(self):
        class NeverShare(SharePolicy):
            def should_share(self, entry, requester_tid):
                return False

        host = AgileHost(small_config(), share_policy=NeverShare())
        bufs = [host.make_buffer() for _ in range(4)]
        ids = {}

        def body(tc, ctrl, bufs, ids):
            chain = AgileLockChain(f"t{tc.tid}")
            # Stagger arrivals inside the ~55 us flash window so later
            # threads look up while the first registration is still live.
            yield tc.sim.timeout(tc.tid * 10_000)
            got = yield from ctrl.async_read(tc, chain, 0, 4, bufs[tc.tid])
            yield from got.wait()
            ids[tc.tid] = id(got)
            yield from ctrl.release_buffer(tc, chain, got)

        run_kernel(host, body, block=4, args=(bufs, ids))
        share = host.trace.counter("share")
        assert share.get("share_hits", 0) == 0
        assert share["share_declined"] >= 1
