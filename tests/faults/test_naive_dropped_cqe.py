"""Deadlock-regression satellite: the Figure 1 naive-async design has no
recovery path, so a dropped CQE stalls it forever — its busy-poll loop even
defeats scheduler-level watchdogs.  The §3.5 lock-chain diagnosis must turn
that hang into a SimStallError naming the stalled CID and the SQE lock the
thread still holds, while AGILE's recovery completes the identical
workload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import NaiveAsyncEngine
from repro.config import FaultConfig, RecoveryConfig
from repro.core import AgileLockChain
from repro.gpu import KernelSpec, LaunchConfig
from repro.nvme.command import Opcode
from repro.sim import SimError
from repro.sim.engine import SimStallError

from tests.helpers import make_host, run_kernel

DROP_FIRST = FaultConfig(cqe_drop_first=1)


def _naive_kernel(engine, stall_after_ns):
    def body(tc, ctrl):
        chain = AgileLockChain(f"naive.t{tc.tid}")
        tokens = []
        for i in range(2):
            token = yield from engine.async_issue(
                tc, chain, 0, Opcode.READ, tc.tid * 2 + i, None
            )
            tokens.append(token)
        yield from engine.wait_all(
            tc, chain, tokens, stall_after_ns=stall_after_ns
        )

    return body


def test_naive_async_stalls_on_dropped_cqe_and_names_the_cid():
    # Queue depth 16 >> 2 outstanding: this is NOT the Fig. 1 queue
    # exhaustion deadlock — the hang comes purely from the lost completion.
    host = make_host(queue_pairs=1, queue_depth=16, faults=DROP_FIRST)
    engine = NaiveAsyncEngine(host)
    kernel = KernelSpec(
        name="naive_drop", body=_naive_kernel(engine, stall_after_ns=1e6)
    )
    # The AGILE service stays off: the naive design polls its own CQ.
    launch = host.gpu.launch(kernel, LaunchConfig(1, 1), args=(None,))

    def waiter():
        yield launch.done

    proc = host.sim.spawn(waiter(), name="w")
    with pytest.raises(SimError) as excinfo:
        host.sim.run(until_procs=[proc])
    cause = excinfo.value.__cause__
    assert isinstance(cause, SimStallError)
    report = str(cause)
    assert "stalled CID" in report
    assert "completion never arrived" in report
    assert "naive.sqe.s0.q0" in report  # the still-held SQE lock is named
    assert host.ssds[0].dropped_cqes == 1


def test_agile_recovery_completes_the_same_workload():
    host = make_host(
        queue_pairs=1,
        queue_depth=16,
        faults=DROP_FIRST,
        recovery=RecoveryConfig(
            enabled=True,
            command_timeout_ns=150_000.0,
            scan_interval_ns=50_000.0,
            retry_backoff_ns=10_000.0,
        ),
    )
    host.ssds[0].flash.write_page_data(0, np.full(4096, 9, np.uint8))
    dests = [host.alloc_view(4096) for _ in range(2)]
    outcomes = []

    def body(tc, ctrl, dests):
        chain = AgileLockChain(f"agile.t{tc.tid}")
        txns = []
        for i in range(2):
            txn = yield from ctrl.raw_read(tc, chain, 0, i, dests[i])
            txns.append(txn)
        for txn in txns:
            completion = yield from txn.wait()
            outcomes.append(completion.ok)

    run_kernel(host, body, block=1, args=(dests,))
    assert outcomes == [True, True]
    assert host.ssds[0].dropped_cqes == 1
    assert host.trace.counter("recovery")["resubmissions"] >= 1
    assert host.issue.inflight() == 0
