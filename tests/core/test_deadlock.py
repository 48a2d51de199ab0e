"""Reproduction of the paper's Figure 1: naive asynchronous issuing with
thread-held SQE locks deadlocks when outstanding commands exceed SQ
capacity; AGILE's service-based design completes the identical workload.

This is the motivating correctness experiment of the paper (§2.3.1) and
exercises the lock-chain debugger end to end (§3.5).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import NaiveAsyncEngine
from repro.core import AgileLockChain, DeadlockError
from repro.gpu import KernelSpec, LaunchConfig
from repro.nvme.command import Opcode
from repro.sim import SimError

from tests.helpers import make_host, run_kernel


def _naive_kernel(engine, requests_per_thread):
    def body(tc, ctrl):
        chain = AgileLockChain(f"naive.t{tc.tid}")
        tokens = []
        for i in range(requests_per_thread):
            token = yield from engine.async_issue(
                tc, chain, 0, Opcode.READ,
                tc.tid * requests_per_thread + i, None,
            )
            tokens.append(token)
        yield from engine.wait_all(tc, chain, tokens)

    return body


class TestFigure1Deadlock:
    def test_naive_async_deadlocks_and_is_detected(self):
        """2 threads x 3 outstanding requests on a 4-entry SQ: the queue
        fills before anyone reaches the completion phase (Figure 1 step 1-2)
        and the lock-chain debugger reports the circular dependency."""
        host = make_host(queue_pairs=1, queue_depth=4)
        engine = NaiveAsyncEngine(host)
        kernel = KernelSpec(
            name="naive", body=_naive_kernel(engine, requests_per_thread=3)
        )
        # The AGILE service must stay off: the naive design handles its own
        # completions (that is its defining mistake).
        launch = host.gpu.launch(kernel, LaunchConfig(1, 2), args=(None,))

        def waiter():
            yield launch.done

        proc = host.sim.spawn(waiter(), name="w")
        with pytest.raises(SimError) as excinfo:
            host.sim.run(until_procs=[proc])
        assert isinstance(excinfo.value.__cause__, DeadlockError)
        assert "circular" in str(excinfo.value.__cause__)
        assert host.debugger.deadlocks_found >= 1

    def test_naive_async_succeeds_when_queue_is_large_enough(self):
        """The naive engine is functional when outstanding <= SQ entries —
        the bug is specifically queue exhaustion, not the engine itself."""
        host = make_host(queue_pairs=1, queue_depth=16)
        host.ssds[0].flash.write_page_data(0, np.full(4096, 1, np.uint8))
        engine = NaiveAsyncEngine(host)
        kernel = KernelSpec(
            name="naive_ok", body=_naive_kernel(engine, requests_per_thread=3)
        )
        duration = host.gpu.run_to_completion(
            kernel, LaunchConfig(1, 1), args=(None,)
        )
        assert duration > 0
        assert host.debugger.deadlocks_found == 0

    def test_agile_completes_the_same_workload(self):
        """AGILE: same thread count, same requests, same 4-entry SQ — no
        deadlock, because threads hand SQEs to the service instead of
        holding them (Fig. 3)."""
        host = make_host(queue_pairs=1, queue_depth=4)
        dests = [host.alloc_view(4096) for _ in range(6)]

        def body(tc, ctrl, dests):
            chain = AgileLockChain(f"agile.t{tc.tid}")
            txns = []
            for i in range(3):
                idx = tc.tid * 3 + i
                txn = yield from ctrl.raw_read(tc, chain, 0, idx, dests[idx])
                txns.append(txn)
            for txn in txns:
                yield from txn.wait()

        duration = run_kernel(host, body, block=2, args=(dests,))
        assert duration > 0
        assert host.debugger.deadlocks_found == 0
        assert host.trace.counter("io")["commands_submitted"] == 6

    def test_agile_extreme_oversubscription(self):
        """32 threads x 8 requests on one 4-entry SQ — 64x oversubscribed —
        still completes."""
        host = make_host(queue_pairs=1, queue_depth=4)
        dest = host.alloc_view(4096)

        def body(tc, ctrl):
            chain = AgileLockChain(f"t{tc.tid}")
            txns = []
            for i in range(8):
                txn = yield from ctrl.raw_read(
                    tc, chain, 0, (tc.tid * 8 + i) % 64, dest
                )
                txns.append(txn)
            for txn in txns:
                yield from txn.wait()

        run_kernel(host, body, block=32)
        assert host.trace.counter("io")["commands_submitted"] == 256
        assert host.debugger.deadlocks_found == 0
