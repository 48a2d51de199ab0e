"""Edge-case tests for the AgileCtrl API surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AgileLockChain
from repro.core.ctrl import SharedPin
from repro.sim import SimError

from tests.helpers import make_host, run_kernel


class TestCoalescedReadEdges:
    def test_finish_called_too_often_raises(self):
        host = make_host()

        def body(tc, ctrl):
            chain = AgileLockChain(f"t{tc.tid}")
            shared = yield from ctrl.read_page_coalesced(tc, chain, 0, 1)
            ctrl.finish_coalesced_read(tc, shared)
            with pytest.raises(SimError, match="too many times"):
                ctrl.finish_coalesced_read(tc, shared)

        run_kernel(host, body, block=1)

    def test_group_pin_released_by_last_member(self):
        host = make_host()

        def body(tc, ctrl):
            chain = AgileLockChain(f"t{tc.tid}")
            shared = yield from ctrl.read_page_coalesced(tc, chain, 0, 2)
            if tc.lane == 0:
                assert shared.line.pins == 1  # one pin for the whole group
            yield from tc.compute(10)
            ctrl.finish_coalesced_read(tc, shared)

        run_kernel(host, body, block=16)
        line = host.cache.lookup(0, 2)
        assert line.pins == 0

    def test_shared_pin_dataclass(self):
        host = make_host()
        line = host.cache.lines[0]
        pin = SharedPin(line=line, remaining=2)
        assert pin.line is line and pin.remaining == 2


class TestBufferEdges:
    def test_release_unregistered_buffer_is_noop(self):
        host = make_host()
        buf = host.make_buffer()

        def body(tc, ctrl):
            chain = AgileLockChain("t")
            # Never registered: releasing must not raise.
            yield from ctrl.release_buffer(tc, chain, buf)

        run_kernel(host, body, block=1)

    def test_async_write_to_uncached_page(self):
        host = make_host()
        buf = host.make_buffer()
        buf.view[:] = 77

        def body(tc, ctrl, buf):
            chain = AgileLockChain("t")
            txn = yield from ctrl.async_write(tc, chain, 0, 12, buf)
            yield from txn.wait()

        run_kernel(host, body, block=1, args=(buf,))
        assert host.ssds[0].flash.read_page_data(12)[0] == 77
        assert host.trace.counter("ctrl").get("async_write_cache_updates", 0) == 0

    def test_transaction_latency_requires_completion(self):
        host = make_host()
        from repro.core.buffers import Transaction
        from repro.nvme.command import NvmeCompletion

        txn = Transaction(host.sim)
        assert txn.completed_at is None
        assert next(txn.wait()) is txn.gate  # in flight: the wait blocks
        done = NvmeCompletion(cid=0, sq_id=1, sq_head=0)
        txn.finish(done)
        # Finished: the wait passes without yielding, so it costs no event.
        with pytest.raises(StopIteration) as stop:
            next(txn.wait())
        assert stop.value.value is done
        assert txn.completed_at - txn.issued_at == 0.0


class TestArrayEdges:
    def test_uncoalesced_get_matches_coalesced(self):
        host = make_host()
        host.load_data(0, 0, np.arange(2048, dtype=np.int64))
        got = {}

        def body(tc, ctrl, got):
            chain = AgileLockChain(f"t{tc.tid}")
            arr = ctrl.get_array_wrap(np.int64)
            a = yield from arr.get(tc, chain, 0, 100 + tc.lane, coalesce=True)
            b = yield from arr.get(tc, chain, 0, 100 + tc.lane, coalesce=False)
            got[tc.tid] = (int(a), int(b))

        run_kernel(host, body, block=8, args=(got,))
        for tid, (a, b) in got.items():
            assert a == b == 100 + tid % 32
