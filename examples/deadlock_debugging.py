#!/usr/bin/env python3
"""Reproducing the paper's Figure 1 deadlock — and AGILE's fix.

A naive asynchronous design lets each GPU thread hold its submission-queue
entries while issuing more requests.  When outstanding commands exceed SQ
capacity, every thread blocks on entries whose release depends on blocked
threads: a circular wait.  AGILE's lock-chain debugger (paper §3.5) detects
the cycle and reports it instead of hanging; AGILE's service-based design
then completes the identical workload on the same 4-entry queue.

Run:  python examples/deadlock_debugging.py
"""

from repro.baselines import NaiveAsyncEngine
from repro.config import CacheConfig, SsdConfig, SystemConfig
from repro.core import AgileHost, AgileLockChain, DeadlockError
from repro.gpu import KernelSpec, LaunchConfig
from repro.nvme.command import Opcode
from repro.sim import SimError


def make_host():
    return AgileHost(SystemConfig(
        cache=CacheConfig(num_lines=64, ways=8),
        ssds=(SsdConfig(name="ssd0", capacity_bytes=1 << 26),),
        queue_pairs=1,
        queue_depth=4,  # tiny SQ: 2 threads x 3 requests overflows it
    ))


# -- the naive design (Figure 1) ----------------------------------------------
host = make_host()
engine = NaiveAsyncEngine(host)


def naive_kernel(tc, _ctrl):
    chain = AgileLockChain(f"naive.t{tc.tid}")
    tokens = []
    for i in range(3):  # 2 threads x 3 > 4 SQ entries
        token = yield from engine.async_issue(tc, chain, 0, Opcode.READ,
                                              tc.tid * 3 + i, None)
        tokens.append(token)
    yield from engine.wait_all(tc, chain, tokens)


launch = host.gpu.launch(
    KernelSpec(name="naive", body=naive_kernel), LaunchConfig(1, 2),
    args=(None,),
)


def _wait():
    yield launch.done


proc = host.sim.spawn(_wait(), name="wait")
try:
    host.sim.run(until_procs=[proc])
    raise AssertionError("the naive design should have deadlocked")
except SimError as exc:
    cause = exc.__cause__
    assert isinstance(cause, DeadlockError)
    print("naive async design: DEADLOCK detected by the lock-chain debugger")
    print(f"  {cause}\n")

# -- AGILE on the identical workload -------------------------------------------
host = make_host()
buffers = [host.alloc_view(4096) for _ in range(6)]


def agile_kernel(tc, ctrl, bufs):
    chain = AgileLockChain(f"agile.t{tc.tid}")
    txns = []
    for i in range(3):
        idx = tc.tid * 3 + i
        txn = yield from ctrl.raw_read(tc, chain, 0, idx, bufs[idx])
        txns.append(txn)
    for txn in txns:
        yield from txn.wait()


with host:
    duration = host.run_kernel(
        KernelSpec(name="agile", body=agile_kernel), LaunchConfig(1, 2),
        (buffers,),
    )

print(f"AGILE on the same 4-entry SQ: completed in {duration / 1e3:.1f} us")
print("  (the service releases SQ entries on completion, so threads never")
print("   hold locks while blocked — the Fig. 3 hand-off)")
