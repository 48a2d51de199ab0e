"""Tests for the issue engine (Algorithm 2) and the AGILE service
(Algorithm 1): CID mapping, out-of-order completion, full-queue behaviour,
doorbell batching, CQ doorbell hygiene."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CacheConfig, SsdConfig
from repro.core import AgileLockChain
from repro.nvme.command import Opcode
from repro.nvme.queue import SlotState
from repro.sim import SimError

from tests.helpers import make_host, run_kernel


def _views(host, n):
    return [host.alloc_view(4096) for _ in range(n)]


class TestSubmit:
    def test_transaction_completes_and_slot_recycles(self):
        host = make_host()
        host.ssds[0].flash.write_page_data(1, np.full(4096, 5, np.uint8))
        dest = host.alloc_view(4096)
        latencies = []

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            txn = yield from ctrl.raw_read(tc, chain, 0, 1, dest)
            yield from txn.wait()
            latencies.append(txn.completed_at - txn.issued_at)

        run_kernel(host, body, block=1)
        assert dest[0] == 5
        assert latencies[0] >= host.cfg.ssds[0].read_latency_ns
        assert host.issue.inflight() == 0
        # Every SQE went back to EMPTY.
        for qps in host.queue_pairs:
            for qp in qps:
                assert set(qp.sq.state) == {SlotState.EMPTY}

    def test_unknown_ssd_rejected(self):
        host = make_host()

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            with pytest.raises(SimError, match="no SSD"):
                yield from ctrl.raw_read(tc, chain, 7, 0, None)

        run_kernel(host, body, block=1)

    def test_many_async_commands_from_one_thread(self):
        """The scenario that deadlocks the naive design (Fig. 1) is safe in
        AGILE: one thread issues 4x the SQ capacity without waiting."""
        host = make_host(queue_pairs=1, queue_depth=4)
        dests = _views(host, 16)

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            txns = []
            for i in range(16):
                txn = yield from ctrl.raw_read(tc, chain, 0, i, dests[i])
                txns.append(txn)
            for txn in txns:
                yield from txn.wait()

        run_kernel(host, body, block=1)
        assert host.trace.counter("io")["commands_submitted"] == 16
        assert host.trace.counter("io")["sq_full_backoffs"] > 0

    def test_doorbell_batching(self):
        """Concurrent submitters produce fewer doorbell rings than commands
        (one lock holder publishes the whole UPDATED batch)."""
        host = make_host(queue_pairs=1, queue_depth=64)
        dests = _views(host, 32)

        def body(tc, ctrl, bufs):
            chain = AgileLockChain(f"c{tc.tid}")
            txn = yield from ctrl.raw_read(tc, chain, 0, tc.tid, bufs[tc.tid])
            yield from txn.wait()

        run_kernel(host, body, block=32, args=(dests,))
        io = host.trace.counter("io")
        assert io["commands_submitted"] == 32
        assert io["doorbell_rings"] < 32

    def test_spillover_to_next_queue_when_full(self):
        host = make_host(queue_pairs=2, queue_depth=4)
        dests = _views(host, 12)

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            txns = []
            for i in range(12):
                txn = yield from ctrl.raw_read(tc, chain, 0, i, dests[i])
                txns.append(txn)
            for txn in txns:
                yield from txn.wait()

        run_kernel(host, body, block=1)
        used_queues = {
            qp.qid for qp in host.queue_pairs[0] if qp.sq.submitted > 0
        }
        assert used_queues == {0, 1}


class TestService:
    def test_out_of_order_completions_release_correct_slots(self):
        """Reads from pages on the same flash channel complete in order,
        but different channels finish out of submission order; CID mapping
        must still pair each completion with its own transaction."""
        host = make_host()
        values = {}
        # Page i holds value i.
        for i in range(8):
            host.ssds[0].flash.write_page_data(i, np.full(4096, i + 1, np.uint8))
        dests = _views(host, 8)

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            txns = []
            # Submit in an order that interleaves channels.
            order = [0, 4, 1, 5, 2, 6, 3, 7]
            for i in order:
                txn = yield from ctrl.raw_read(tc, chain, 0, i, dests[i])
                txns.append((i, txn))
            for i, txn in txns:
                yield from txn.wait()
                values[i] = int(dests[i][0])

        run_kernel(host, body, block=1)
        assert values == {i: i + 1 for i in range(8)}

    def test_service_keeps_cq_doorbell_fresh(self):
        """Long runs must ring the CQ head doorbell, or the SSD stalls."""
        host = make_host(queue_pairs=1, queue_depth=16)
        n = 200
        dest = host.alloc_view(4096)

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            for i in range(n):
                txn = yield from ctrl.raw_read(tc, chain, 0, i % 64, dest)
                yield from txn.wait()

        run_kernel(host, body, block=1)
        assert host.trace.counter("service")["completions_processed"] == n
        assert host.trace.counter("service")["cq_doorbell_rings"] >= n // 16 - 1

    def test_service_start_stop_idempotent(self):
        host = make_host()
        host.start()
        host.start()
        assert host.service.running
        host.stop()
        host.stop()
        assert not host.service.running

    def test_kernel_without_service_rejected(self):
        host = make_host()
        from repro.gpu import KernelSpec, LaunchConfig

        with pytest.raises(RuntimeError, match="start the AGILE service"):
            host.launch_kernel(
                KernelSpec(name="k", body=lambda tc, ctrl: iter(())),
                LaunchConfig(1, 32),
            )

    def test_unknown_completion_is_error(self):
        host = make_host()
        with pytest.raises(SimError, match="unknown command"):
            host.issue.complete(0, 0, 99)

    def test_polling_warps_partition_all_cqs(self):
        host = make_host(queue_pairs=4)
        parts = [
            host.service._partition(w)
            for w in range(host.cfg.service.polling_warps)
        ]
        seen = [cq for part in parts for (_, cq) in part]
        assert len(seen) == len(host.service.cqs)
        assert len(set(map(id, seen))) == len(seen)


class TestWritePath:
    def test_raw_write_lands_on_flash(self):
        host = make_host()
        payload = np.arange(4096, dtype=np.uint8)
        src = host.alloc_view(4096)
        src[:] = payload

        def body(tc, ctrl):
            chain = AgileLockChain(f"c{tc.tid}")
            txn = yield from ctrl.raw_write(tc, chain, 0, 9, src)
            yield from txn.wait()

        run_kernel(host, body, block=1)
        assert np.array_equal(host.ssds[0].flash.read_page_data(9), payload)

    def test_mixed_read_write_traffic(self):
        host = make_host()
        n = 16
        srcs = _views(host, n)
        dests = _views(host, n)
        for i, s in enumerate(srcs):
            s[:] = (i * 3) % 251

        def body(tc, ctrl, srcs, dests):
            chain = AgileLockChain(f"c{tc.tid}")
            i = tc.tid
            wtxn = yield from ctrl.raw_write(tc, chain, 0, 100 + i, srcs[i])
            yield from wtxn.wait()
            rtxn = yield from ctrl.raw_read(tc, chain, 0, 100 + i, dests[i])
            yield from rtxn.wait()

        run_kernel(host, body, block=n, args=(srcs, dests))
        for i in range(n):
            assert dests[i][0] == (i * 3) % 251
