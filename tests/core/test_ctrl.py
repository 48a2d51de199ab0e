"""Tests for the AgileCtrl user API: prefetch, async_read/async_write,
the array-like API, Share Table coherency, and coalescing behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CacheConfig
from repro.core import AgileLockChain, BufState, LineState
from repro.sim import SimError

from tests.helpers import make_host, run_kernel


class TestPrefetch:
    def test_prefetch_then_read_hits(self):
        host = make_host()
        host.ssds[0].flash.write_page_data(2, np.full(4096, 3, np.uint8))

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            yield from ctrl.prefetch(tc, chain, 0, 2)
            yield from tc.compute(100_000)  # overlap window
            line = yield from ctrl.read_page(tc, chain, 0, 2)
            assert line.buffer[0] == 3
            ctrl.cache.unpin(line)

        run_kernel(host, body, block=1)
        assert host.cache.stats["hits"] == 1
        assert host.trace.counter("io")["opcode_read"] == 1

    def test_warp_duplicate_prefetches_coalesce(self):
        host = make_host()

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            yield from ctrl.prefetch(tc, chain, 0, 7)  # same page, all lanes

        run_kernel(host, body, block=32)
        ctrl_stats = host.trace.counter("ctrl")
        assert ctrl_stats["prefetch_calls"] == 32
        assert ctrl_stats["prefetch_issued"] == 1
        assert ctrl_stats["prefetch_coalesced"] == 31
        assert host.trace.counter("io")["opcode_read"] == 1

    def test_distinct_pages_not_coalesced(self):
        host = make_host()

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            yield from ctrl.prefetch(tc, chain, 0, tc.lane)

        run_kernel(host, body, block=8)
        assert host.trace.counter("io")["opcode_read"] == 8


class TestArrayApi:
    def test_values_roundtrip(self):
        host = make_host()
        data = np.arange(4096, dtype=np.float64)
        host.load_data(0, 0, data)
        out = {}

        def body(tc, ctrl, out):
            chain = AgileLockChain(f"c{tc.tid}")
            arr = ctrl.get_array_wrap(np.float64)
            v = yield from arr.get(tc, chain, 0, tc.tid * 31)
            out[tc.tid] = float(v)

        run_kernel(host, body, block=64, args=(out,))
        assert out == {t: float(t * 31) for t in range(64)}

    def test_get_many_spans_pages(self):
        host = make_host()
        data = np.arange(3000, dtype=np.int32)
        host.load_data(0, 0, data)
        got = {}

        def body(tc, ctrl, got):
            chain = AgileLockChain(f"c{tc.tid}")
            arr = ctrl.get_array_wrap(np.int32)
            got["v"] = yield from arr.get_many(tc, chain, 0, 1000, 200)

        run_kernel(host, body, block=1, args=(got,))
        assert np.array_equal(got["v"], np.arange(1000, 1200, dtype=np.int32))

    def test_set_then_get(self):
        host = make_host()

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            arr = ctrl.get_array_wrap(np.int64)
            yield from arr.set(tc, chain, 0, 5, 12345)
            v = yield from arr.get(tc, chain, 0, 5)
            assert v == 12345

        run_kernel(host, body, block=1)
        line = host.cache.lookup(0, 0)
        assert line.state is LineState.MODIFIED

    def test_base_lba_offsets_pages(self):
        host = make_host()
        host.load_data(0, 10, np.full(1024, 77, dtype=np.int32))
        got = {}

        def body(tc, ctrl, got):
            chain = AgileLockChain(f"c{tc.tid}")
            arr = ctrl.get_array_wrap(np.int32, base_lba=10)
            got["v"] = int((yield from arr.get(tc, chain, 0, 0)))

        run_kernel(host, body, block=1, args=(got,))
        assert got["v"] == 77

    def test_misaligned_dtype_rejected(self):
        host = make_host()
        with pytest.raises(ValueError, match="pack evenly"):
            host.ctrl.get_array_wrap(np.dtype([("a", np.uint8, 3)]))

    def test_warp_same_page_single_io(self):
        host = make_host()
        host.load_data(0, 0, np.arange(1024, dtype=np.int32))
        out = {}

        def body(tc, ctrl, out):
            chain = AgileLockChain(f"c{tc.tid}")
            arr = ctrl.get_array_wrap(np.int32)
            out[tc.tid] = int((yield from arr.get(tc, chain, 0, tc.lane)))

        run_kernel(host, body, block=32, args=(out,))
        assert host.trace.counter("io")["opcode_read"] == 1
        assert out == {t: t for t in range(32)}


class TestAsyncBuffers:
    def test_async_read_into_buffer(self):
        host = make_host()
        host.ssds[0].flash.write_page_data(3, np.full(4096, 9, np.uint8))
        buf = host.make_buffer()

        def body(tc, ctrl, buf):
            chain = AgileLockChain(f"c{tc.tid}")
            got = yield from ctrl.async_read(tc, chain, 0, 3, buf)
            yield from got.wait()
            assert got.view[0] == 9
            yield from ctrl.release_buffer(tc, chain, got)

        run_kernel(host, body, block=1, args=(buf,))
        assert host.share_table is not None and len(host.share_table) == 0

    def test_share_table_returns_existing_buffer(self):
        host = make_host()
        buffers = [host.make_buffer() for _ in range(8)]
        results = {}

        def body(tc, ctrl, buffers, results):
            chain = AgileLockChain(f"c{tc.tid}")
            got = yield from ctrl.async_read(tc, chain, 0, 4, buffers[tc.tid])
            yield from got.wait()
            results[tc.tid] = id(got)
            yield from ctrl.release_buffer(tc, chain, got)

        run_kernel(host, body, block=8, args=(buffers, results))
        # All threads ended up sharing one physical buffer; depending on
        # interleaving they join via a lookup hit or by losing the
        # registration race — both are sharing.
        assert len(set(results.values())) == 1
        share = host.trace.counter("share")
        assert share["share_hits"] + share["share_races"] == 7
        assert host.trace.counter("io")["opcode_read"] == 1

    def test_async_read_cache_hit_copies_without_io(self):
        host = make_host()
        host.ssds[0].flash.write_page_data(6, np.full(4096, 66, np.uint8))
        host.preload_cache(0, [6])
        buf = host.make_buffer()

        def body(tc, ctrl, buf):
            chain = AgileLockChain(f"c{tc.tid}")
            got = yield from ctrl.async_read(tc, chain, 0, 6, buf)
            yield from got.wait()
            assert got.view[0] == 66
            yield from ctrl.release_buffer(tc, chain, got)

        run_kernel(host, body, block=1, args=(buf,))
        assert host.trace.counter("io").get("opcode_read", 0) == 0
        assert host.trace.counter("ctrl")["async_read_cache_hits"] == 1

    def test_async_write_through(self):
        host = make_host()
        host.ssds[0].flash.write_page_data(8, np.zeros(4096, np.uint8))
        host.preload_cache(0, [8])
        buf = host.make_buffer()
        buf.view[:] = 200

        def body(tc, ctrl, buf):
            chain = AgileLockChain(f"c{tc.tid}")
            txn = yield from ctrl.async_write(tc, chain, 0, 8, buf)
            # Buffer is reusable immediately; the write lands asynchronously.
            buf.view[:] = 1  # must NOT corrupt the in-flight write
            yield from txn.wait()

        run_kernel(host, body, block=1, args=(buf,))
        assert host.ssds[0].flash.read_page_data(8)[0] == 200
        line = host.cache.lookup(0, 8)
        assert line.buffer[0] == 200
        assert line.state is LineState.READY

    def test_modified_shared_buffer_propagates_to_cache(self):
        host = make_host()
        host.ssds[0].flash.write_page_data(5, np.zeros(4096, np.uint8))
        host.preload_cache(0, [5])
        buf = host.make_buffer()

        def body(tc, ctrl, buf):
            chain = AgileLockChain(f"c{tc.tid}")
            got = yield from ctrl.async_read(tc, chain, 0, 5, buf)
            yield from got.wait()
            got.view[0] = 123
            ctrl.share_table.mark_modified(tc, (0, 5))
            yield from ctrl.release_buffer(tc, chain, got)

        run_kernel(host, body, block=1, args=(buf,))
        line = host.cache.lookup(0, 5)
        assert line.buffer[0] == 123
        assert line.state is LineState.MODIFIED
        assert host.trace.counter("share")["share_propagated"] == 1

    def test_share_state_transitions(self):
        host = make_host()
        states = []

        def body(tc, ctrl, bufs):
            chain = AgileLockChain(f"c{tc.tid}")
            got = yield from ctrl.async_read(tc, chain, 0, 2, bufs[tc.tid])
            yield from got.wait()
            entry = ctrl.share_table.entry((0, 2))
            states.append(entry.state)
            yield from ctrl.release_buffer(tc, chain, got)

        bufs = [host.make_buffer() for _ in range(2)]
        run_kernel(host, body, block=2, args=(bufs,))
        assert BufState.SHARED in states

    def test_share_table_disabled(self):
        host = make_host(cache=CacheConfig(num_lines=64, ways=8,
                                           share_table=False))
        assert host.share_table is None
        bufs = [host.make_buffer() for _ in range(4)]
        ids = {}

        def body(tc, ctrl, bufs, ids):
            chain = AgileLockChain(f"c{tc.tid}")
            got = yield from ctrl.async_read(tc, chain, 0, 4, bufs[tc.tid])
            yield from got.wait()
            ids[tc.tid] = id(got)
            yield from ctrl.release_buffer(tc, chain, got)

        run_kernel(host, body, block=4, args=(bufs, ids))
        # Without the table every thread kept its own buffer...
        assert len(set(ids.values())) == 4
        # ... and duplicates were only filtered by the cache (first fill
        # makes the line; the rest should hit it) or issued separately.
        assert host.trace.counter("ctrl")["async_reads"] == 4


class TestShareTableErrors:
    def test_release_unregistered_raises(self):
        host = make_host()

        def body(tc, ctrl):
            with pytest.raises(SimError, match="unregistered"):
                yield from ctrl.share_table.release(tc, (0, 99))

        run_kernel(host, body, block=1)

    def test_mark_modified_unregistered_raises(self):
        host = make_host()

        def body(tc, ctrl):
            if False:
                yield
            with pytest.raises(SimError, match="unregistered"):
                ctrl.share_table.mark_modified(tc, (0, 99))

        run_kernel(host, body, block=1)
