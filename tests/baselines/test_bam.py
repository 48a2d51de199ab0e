"""Tests for the BaM baseline: correctness of the synchronous path, inline
polling behaviour, heavier API costs relative to AGILE."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import BAM_API, BamHost
from repro.config import ApiCostConfig, CacheConfig
from repro.core import AgileLockChain
from repro.gpu import KernelSpec, LaunchConfig
from repro.workloads.access import read_element, region

from tests.helpers import make_host, run_kernel, small_config


def make_bam_host(**overrides):
    return BamHost(small_config(**overrides))


def run_bam(host, body, *, grid=1, block=32, args=(), registers=60):
    kernel = KernelSpec(
        name="bamkernel", body=body, registers_per_thread=registers
    )
    return host.run_kernel(kernel, LaunchConfig(grid, block), args)


class TestBamCorrectness:
    def test_sync_read_returns_data(self):
        host = make_bam_host()
        host.ssds[0].flash.write_page_data(3, np.full(4096, 8, np.uint8))
        got = {}

        def body(tc, ctrl, got):
            chain = AgileLockChain(f"b{tc.tid}")
            line = yield from ctrl.read_page(tc, chain, 0, 3)
            got["v"] = int(line.buffer[0])
            ctrl.cache.unpin(line)

        run_bam(host, body, block=1, args=(got,))
        assert got["v"] == 8
        assert host.trace.counter("bam")["commands_submitted"] == 1

    def test_element_reads_match_data(self):
        host = make_bam_host()
        data = np.arange(8192, dtype=np.float32)
        host.load_data(0, 0, data)
        reg = region(host.placement, 0, np.float32)
        out = {}

        def body(tc, ctrl, out):
            chain = AgileLockChain(f"b{tc.tid}")
            v = yield from read_element(ctrl, tc, chain, reg, tc.tid * 17)
            out[tc.tid] = float(v)

        run_bam(host, body, block=64, args=(out,))
        assert out == {t: float(t * 17) for t in range(64)}

    def test_concurrent_same_page_misses_coalesce_in_cache(self):
        """BaM has no warp coalescing, but the cache's BUSY state still
        deduplicates concurrent identical misses."""
        host = make_bam_host()

        def body(tc, ctrl):
            chain = AgileLockChain(f"b{tc.tid}")
            line = yield from ctrl.read_page(tc, chain, 0, 5)
            ctrl.cache.unpin(line)

        run_bam(host, body, block=32)
        assert host.trace.counter("bam")["commands_submitted"] == 1
        assert host.trace.counter("bam")["busy_hits"] == 31

    def test_cache_hit_avoids_io(self):
        host = make_bam_host()
        host.ssds[0].flash.write_page_data(2, np.full(4096, 4, np.uint8))
        host.preload_cache(0, [2])

        def body(tc, ctrl):
            chain = AgileLockChain(f"b{tc.tid}")
            line = yield from ctrl.read_page(tc, chain, 0, 2)
            assert line.buffer[0] == 4
            ctrl.cache.unpin(line)

        run_bam(host, body, block=4)
        assert host.trace.counter("bam").get("commands_submitted", 0) == 0
        assert host.trace.counter("bam")["hits"] == 4

    def test_eviction_writeback_persists(self):
        host = BamHost(small_config(cache=CacheConfig(num_lines=4, ways=2)))

        def body(tc, ctrl):
            chain = AgileLockChain(f"b{tc.tid}")
            # Dirty page 0, then sweep to evict it.
            line = yield from ctrl.read_page(tc, chain, 0, 0)
            yield from ctrl.cache.write_line(tc, line, np.array([99], np.uint8))
            ctrl.cache.unpin(line)
            for lba in range(4, 20, 4):  # same set sweep
                line = yield from ctrl.read_page(tc, chain, 0, lba)
                ctrl.cache.unpin(line)

        run_bam(host, body, block=1)
        assert host.trace.counter("bam")["writebacks"] == 1
        assert host.ssds[0].flash.read_page_data(0)[0] == 99


class TestBamTiming:
    def test_bam_read_is_synchronous(self):
        """A single BaM read blocks the thread for at least the full flash
        round trip — nothing overlaps."""
        host = make_bam_host()
        times = {}

        def body(tc, ctrl, times):
            chain = AgileLockChain(f"b{tc.tid}")
            t0 = tc.sim.now
            line = yield from ctrl.read_page(tc, chain, 0, 1)
            times["latency"] = tc.sim.now - t0
            ctrl.cache.unpin(line)

        run_bam(host, body, block=1, args=(times,))
        assert times["latency"] >= host.cfg.ssds[0].read_latency_ns

    def test_polling_burns_thread_cycles(self):
        host = make_bam_host()

        def body(tc, ctrl):
            chain = AgileLockChain(f"b{tc.tid}")
            line = yield from ctrl.read_page(tc, chain, 0, 1)
            ctrl.cache.unpin(line)

        run_bam(host, body, block=1)
        assert host.trace.counter("bam")["poll_iterations"] > 0
        assert host.trace.counter("bam")["cqes_drained"] == 1

    def test_bam_cache_api_costs_exceed_agile(self):
        """Preloaded-cache access (no I/O at all): BaM's heavier critical
        sections make the same kernel slower than AGILE's — the Fig. 11
        cache-API overhead gap in miniature."""
        reads_per_thread = 16

        def agile_body(tc, ctrl):
            chain = AgileLockChain(f"a{tc.tid}")
            for i in range(reads_per_thread):
                line = yield from ctrl.read_page(tc, chain, 0, i % 8)
                yield from tc.hbm_load(8)
                ctrl.cache.unpin(line)

        def bam_body(tc, ctrl):
            chain = AgileLockChain(f"b{tc.tid}")
            for i in range(reads_per_thread):
                line = yield from ctrl.read_page(tc, chain, 0, i % 8)
                yield from tc.hbm_load(8)
                ctrl.cache.unpin(line)

        agile_host = make_host()
        agile_host.preload_cache(0, range(8))
        t_agile = run_kernel(agile_host, agile_body, block=128)

        bam_host = make_bam_host()
        bam_host.preload_cache(0, range(8))
        t_bam = run_bam(bam_host, bam_body, block=128)
        assert t_bam > t_agile


class TestBamCostConfig:
    def test_defaults_heavier_than_agile(self):
        agile = ApiCostConfig()
        assert BAM_API.cache_lookup_cycles > agile.cache_lookup_cycles
        assert BAM_API.cache_insert_cycles > agile.cache_insert_cycles
        assert BAM_API.issue_setup_cycles > agile.issue_setup_cycles
