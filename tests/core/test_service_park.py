"""The polling warps park on an empty partition and rejoin the poll grid in
phase (``AgileService._park``): the rejoin arithmetic against a visit-by-
visit reference, and what parking buys — idle time costs no events, and a
kernel stuck on a lost completion ends in a named deadlock."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    FaultConfig,
    GpuConfig,
    PcieConfig,
    RecoveryConfig,
    ServiceConfig,
)
from repro.core import AgileLockChain
from repro.core.service import AgileService
from repro.gpu import KernelSpec, LaunchConfig
from repro.mem.pcie import Doorbell
from repro.nvme.command import NvmeCompletion
from repro.nvme.queue import CompletionQueue
from repro.sim import SimDeadlockError, Simulator

from tests.helpers import make_host, run_kernel

# A 1.7 GHz clock and a 130.1 ns back-off: neither the 16.47.. ns visit nor
# the sweep period is a dyadic rational, so every grid time is rounded.
GPU = GpuConfig(clock_ghz=1.7)
SERVICE = ServiceConfig(polling_warps=1, poll_iteration_cycles=28.0,
                        idle_poll_ns=130.1)
#: Deep enough that no test fills half a queue: ``_poll_cq`` never rings
#: the head doorbell, so a pickup costs exactly its 2 cycles per CQE.
DEPTH = 256


class _Rig:
    """One polling warp over ``n`` bare completion queues.  Completions
    are handed to a stub issue engine that logs ``(time, qid)``."""

    def __init__(self, n: int, start: float):
        self.sim = sim = Simulator()
        self.cqs = [
            CompletionQueue(sim, qid, DEPTH, None, Doorbell(sim, PcieConfig()))
            for qid in range(n)
        ]
        self.pickups: list[tuple[float, int]] = []
        issue = SimpleNamespace(
            queue_pairs=[[SimpleNamespace(cq=cq) for cq in self.cqs]],
            recovery=None,
            complete=self._complete,
        )
        gpu = SimpleNamespace(cfg=GPU)
        self.service = AgileService(sim, gpu, issue, SERVICE)
        sim.schedule_at(start, self.service.start)

    def _complete(self, ssd_idx, sq_id, cid, token=None):
        self.pickups.append((self.sim.now, sq_id))
        return None  # "stale": consumed and counted, nothing to finish

    def post(self, when: float, qid: int) -> None:
        self.sim.schedule_at(
            when, self.cqs[qid].device_post, NvmeCompletion(0, qid, 0)
        )

    def run(self, posts) -> None:
        for when, qid in posts:
            self.post(when, qid)
        sim = self.sim

        def sentinel():  # daemons alone do not keep run() going
            yield sim.timeout(max(t for t, _ in posts) - sim.now + 1e5)

        sim.spawn(sentinel())
        sim.run()


def reference(service: AgileService, n: int, start: float, posts):
    """The naive spin, one visit at a time: what ``_park`` must equal.

    Returns the pickups ``(time, qid)`` per CQE, and the anchor, round-robin
    index and visit count at the all-empty sweep that follows the last one.
    """
    poll_ns, cycle_ns = service._poll_ns, GPU.cycle_ns
    todo = sorted(posts)
    pickups = []
    t, idx, pos, visits = start, 0, 0, 0
    while True:
        if pos < n:
            t = t + poll_ns
        else:
            if not todo:
                return pickups, t, idx, visits
            anchor, k = t, 0
            while True:  # every idle visit of the grid, in order
                t = service.visit_end(anchor, k, n)
                if todo[0][0] <= t:
                    break
                k += 1
            visits, idx, pos = visits + k, (idx + k) % n, k % n
        qid, idx, pos, visits = idx, (idx + 1) % n, pos + 1, visits + 1
        found = [p for p in todo if p[1] == qid and p[0] <= t]
        if found:
            todo = [p for p in todo if p not in found]
            pickups += [(t, qid)] * len(found)
            t = t + 2.0 * len(found) * cycle_ns
            pos = 0


# One step of a post schedule, placed relative to the anchor the reference
# reaches once every earlier post is picked up.
_STEP = st.one_of(
    # exactly as idle visit k ends
    st.tuples(st.just("boundary"), st.integers(0, 40), st.integers(0, 7)),
    # after a silence of 1..2000 sweeps, anywhere inside the next one
    st.tuples(st.just("silence"), st.integers(1, 2000),
              st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 7)),
    # two queues of the partition posted within one sweep
    st.tuples(st.just("pair"), st.integers(0, 50),
              st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.integers(0, 7)),
    # already there when the warp parks: posted during the empty sweep,
    # behind the warp's back
    st.tuples(st.just("present"), st.floats(0.0, 1.0)),
    # during the sweep that follows a pickup, which the warp sits out too:
    # ahead of the cursor it is picked up in that sweep, behind it later
    st.tuples(st.just("sweep"), st.floats(0.0, 1.0), st.integers(0, 7)),
)


def _place(service, n, anchor, idx, step):
    period = SERVICE.idle_poll_ns + n * service._poll_ns
    kind = step[0]
    if kind == "boundary":
        return [(service.visit_end(anchor, step[1], n), (idx + step[2]) % n)]
    if kind == "silence":
        return [(anchor + (step[1] + step[2]) * period, step[3] % n)]
    if kind == "pair":
        base = anchor + step[1] * period
        first = step[4] % n
        return [(base + step[2] * period, first),
                (base + (step[2] + step[3]) * period, (first + 1) % n)]
    if kind == "sweep":
        # At start 0 a whole sweep back can round to just below time 0.
        back = max(0.0, anchor - step[1] * n * service._poll_ns)
        return [(back, (idx + step[2]) % n)]
    # "present": the queue the sweep visited first, any time after that
    # visit (for n == 1 that is the anchor itself, a tie the post wins).
    return [(anchor - step[1] * (n - 1) * service._poll_ns, idx)]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    start=st.floats(0.0, 1e7),
    steps=st.lists(_STEP, min_size=1, max_size=3),
)
def test_rejoin_equals_the_visit_by_visit_reference(n, start, steps):
    rig = _Rig(n, start)
    service = rig.service
    # The last post lands exactly as an idle visit ends, two queues on from
    # the cursor: which visit picks it up shows the round-robin index the
    # earlier rejoins left behind.
    steps = steps + [("boundary", n + 2, 2)]
    posts = []
    for step in steps:
        _, anchor, idx, _ = reference(service, n, start, posts)
        posts += _place(service, n, anchor, idx, step)
    rig.run(posts)
    pickups, _, _, visits = reference(service, n, start, posts)
    # Pickup queue and time, CQE by CQE: exact float equality.
    assert rig.pickups == pickups
    # The visit count, skipped visits included, and the cycles charged: the
    # warp parked after the last pickup, so the empty sweep that follows it
    # (n visits in the reference) is skipped but not yet booked.
    assert service.visits == visits - n
    assert service.thread_cycles() == 28.0 * (visits - n) + 2.0 * len(posts)


@pytest.mark.parametrize("n, sweeps", [(1, 10**6), (2, 10**6), (5, 10**4)])
def test_rejoin_after_a_long_silence(n, sweeps):
    start = 1234.5
    rig = _Rig(n, start)
    service = rig.service
    _, anchor, _, _ = reference(service, n, start, [])
    period = SERVICE.idle_poll_ns + n * service._poll_ns
    posts = [(anchor + (sweeps + 0.37) * period, n - 1)]
    events = rig.sim.event_count
    rig.run(posts)
    pickups, _, _, visits = reference(service, n, start, posts)
    assert rig.pickups == pickups
    assert service.visits == visits - n > sweeps * n
    # Two events per park, however long the silence (plus the n first
    # visits, the post, the pickup's charge and the sentinel).
    assert rig.sim.event_count - events < 2 * n + 16


def test_visit_end_is_the_grid():
    service = _Rig(3, 0.0).service
    poll, idle = service._poll_ns, SERVICE.idle_poll_ns
    assert service.visit_end(50.0, 0, 3) == 50.0 + idle + poll
    assert service.visit_end(50.0, 2, 3) == 50.0 + idle + 3 * poll
    assert service.visit_end(50.0, 3, 3) == 50.0 + 2 * idle + 4 * poll


# -- what parking buys, on a whole machine ------------------------------------


def _read(host, lba: int, dest) -> None:
    def body(tc, ctrl):
        chain = AgileLockChain(f"t{tc.tid}")
        txn = yield from ctrl.raw_read(tc, chain, 0, lba, dest)
        yield from txn.wait()

    kernel = KernelSpec(name="read", body=body, registers_per_thread=48)
    host.run_kernel(kernel, LaunchConfig(1, 1))


def _idle(host, ns: float) -> int:
    """Let ``ns`` of simulated time pass with nothing to do; returns the
    events that took beyond the sleeper's own two (first step, wake-up)."""
    sim = host.sim

    def sleeper():
        yield sim.timeout(ns)

    events, until = sim.event_count, sim.now + ns
    sim.run(until_procs=[sim.spawn(sleeper(), name="sleeper")])
    assert sim.now == until
    return sim.event_count - events - 2


def test_idle_time_dispatches_no_events_and_later_reads_complete():
    host = make_host()
    host.ssds[0].flash.write_page_data(7, np.full(4096, 9, np.uint8))
    dest = host.alloc_view(4096)
    host.start()
    _read(host, 7, dest)
    host.drain()
    _idle(host, 1e4)  # the warps finish their last empty sweep and park
    assert _idle(host, 1e6) == 0  # spinning: ~9,000 visits by two warps
    dest[:] = 0
    _read(host, 7, dest)
    assert dest[0] == 9
    host.stop()


def test_a_trickle_of_reads_costs_events_per_read_not_per_idle_ns():
    host = make_host()
    dest = host.alloc_view(4096)
    host.start()
    for lba in range(3):
        _read(host, lba, dest)
        _idle(host, 5e6)
    host.stop()
    # Spun, 15 ms of silence is ~140k visits by two warps.
    assert host.sim.now > 15e6
    assert host.sim.event_count < 3 * 150


def test_a_lost_completion_is_a_named_deadlock_not_a_hang():
    host = make_host()  # no fault plan, so no recovery daemon
    for qp in host.queue_pairs[0]:
        qp.cq.device_post = lambda completion: None  # the CQE never lands
    dest = host.alloc_view(4096)
    host.start()
    with pytest.raises(SimDeadlockError, match=r"read\.b0\.\S+: waiting on"):
        _read(host, 0, dest)


def test_stop_while_parked_disarms_every_hook_and_start_serves_again():
    host = make_host(queue_pairs=4)
    host.ssds[0].flash.write_page_data(2, np.full(4096, 4, np.uint8))
    dest = host.alloc_view(4096)
    host.start()
    _idle(host, 1e4)
    cqs = [cq for _, cq in host.service.cqs]
    assert all(cq.on_post._waiters for cq in cqs)  # every warp parked
    host.stop()
    assert not any(cq.on_post._waiters for cq in cqs)
    host.start()
    _read(host, 2, dest)
    assert dest[0] == 4
    host.stop()


def test_dropped_cqes_with_recovery_still_reach_exactly_one_terminal():
    """The recovery daemon, not a spinning warp, keeps time moving while
    every polling warp is parked on a completion that will never come."""
    host = make_host(
        faults=FaultConfig(cqe_drop_first=3),
        recovery=RecoveryConfig(
            enabled=True, command_timeout_ns=150_000.0,
            scan_interval_ns=50_000.0, retry_backoff_ns=10_000.0,
        ),
    )
    dests = [host.alloc_view(4096) for _ in range(8)]
    terminal = []

    def body(tc, ctrl):
        chain = AgileLockChain(f"t{tc.tid}")
        txn = yield from ctrl.raw_read(tc, chain, 0, tc.tid, dests[tc.tid])
        terminal.append((tc.tid, (yield from txn.wait()).ok))

    run_kernel(host, body, block=8)
    assert sorted(terminal) == [(tid, True) for tid in range(8)]
    assert host.ssds[0].dropped_cqes == 3
    assert host.issue.inflight() == 0


def test_an_early_wake_costs_two_events():
    """Woken at t = 27 for a visit that ends at t = 173, more than twice as
    far away: the warp sleeps once (``At``), it does not close in by
    halves to make ``now + delay`` land on the grid."""
    rig = _Rig(1, 10.0)
    _, anchor, _, _ = reference(rig.service, 1, 10.0, [])
    rig.run([(anchor + 0.5, 0)])
    assert rig.pickups == [(rig.service.visit_end(anchor, 0, 1), 0)]
    assert rig.pickups[0][0] > 2.0 * (anchor + 0.5)
    # start, first step (parks: nothing to visit for) | post, wake, rejoin
    # | the pickup's charge (parks again) | the sentinel's two.
    assert rig.sim.event_count == 8
