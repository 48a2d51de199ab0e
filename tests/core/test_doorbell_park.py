"""The SQ-doorbell back-off parks on the lock's release and rejoins its
60 ns grid in phase (``ring_until_issued``): return times and bookings
against the visit-by-visit spin it replaced, and what parking must keep —
a named deadlock, a clean kill, the lock debugger's cycle report."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PcieConfig
from repro.core import AgileLock, AgileLockChain, DeadlockError, LockDebugger
from repro.core.issue import DOORBELL_BACKOFF_NS, ring_until_issued
from repro.mem.pcie import Doorbell
from repro.nvme.command import NvmeCommand, Opcode
from repro.nvme.queue import SlotState, SubmissionQueue
from repro.sim import SimDeadlockError, SimError, Simulator, Timeout
from repro.telemetry import Counter

from tests.helpers import record


def spin_until_issued(sq, slot, db_lock, chain, stats=None):
    """Reference: ``attempt_SQDB`` as the four call sites spelled it before
    they shared ``ring_until_issued`` — one visit every 60 ns, held lock or
    not.  Returns the ns spent backing off."""
    waited = 0.0
    while True:
        if db_lock.try_acquire(chain):
            try:
                tail = sq.advance_tail()
                if tail is not None:
                    yield from sq.doorbell.ring(tail)
                    if stats is not None:
                        stats.add("doorbell_rings")
            finally:
                db_lock.release(chain)
        elif stats is not None:
            stats.add("doorbell_contended")
        if sq.state[slot] is SlotState.ISSUED:
            return waited
        waited += DOORBELL_BACKOFF_NS
        yield Timeout(DOORBELL_BACKOFF_NS)


class Rig:
    """One SQ, its doorbell lock, and scripted parties around them."""

    def __init__(self, debugger=None, depth=64):
        self.sim = sim = Simulator()
        self.sq = SubmissionQueue(
            sim, 0, depth, None, Doorbell(sim, PcieConfig())
        )
        self.lock = AgileLock(sim, "sqdb.s0.q0", debugger)
        self.done = {}

    def submitter(self, algo, tid, start, store_ns, held=()):
        """Reserve at ``start``, publish ``store_ns`` later, ring.  Books
        ``(return time, counters, stall ns)`` under ``tid``."""
        stats = Counter()
        chain = AgileLockChain(f"t{tid}")

        def body():
            yield Timeout(start)
            slot, cid = self.sq.try_reserve()
            for lock in held:
                assert lock.try_acquire(chain)
            yield Timeout(store_ns)
            self.sq.publish(slot, NvmeCommand(Opcode.READ, cid, lba=tid))
            waited = yield from algo(self.sq, slot, self.lock, chain, stats)
            self.done[tid] = (self.sim.now, stats.snapshot(), waited)

        return self.sim.spawn(body(), name=f"t{tid}")

    def holder(self, tid, start, hold_ns, advance):
        """A third party that takes the lock (if free) for ``hold_ns``,
        with or without moving the tail first."""
        chain = AgileLockChain(f"h{tid}")

        def body():
            yield Timeout(start)
            if self.lock.try_acquire(chain):
                if advance:
                    self.sq.advance_tail()
                yield Timeout(hold_ns)
                self.lock.release(chain)

        return self.sim.spawn(body(), name=f"h{tid}")


def run_schedule(algo, submitters, holders):
    rig = Rig()
    for tid, (start, store_ns) in enumerate(submitters):
        rig.submitter(algo, tid, *_off(tid, start, store_ns))
    for hid, (start, hold_ns, advance) in enumerate(holders):
        tid = len(submitters) + hid
        rig.holder(tid, *_off(tid, start, hold_ns), advance)
    rig.sim.run()
    return rig


def _off(tid, start, span):
    """Every party lives on its own lattice (a distinct fraction of a ns),
    so no visit of one ties with a release or publish of another: what is
    compared is the rejoin arithmetic, not a same-instant dispatch order."""
    return start * 7.0 + tid * 0.137, span * 13.0 + 0.5


#: Bursts of submitters on one SQ.  A long store by an early reserver keeps
#: the tail from passing later slots; holders come and go between visits
#: (short holds), sit on the lock for hundreds of periods (long holds), and
#: cover other parties' slots when they advance.
SCHEDULE = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 120)),
        min_size=1, max_size=7,
    ),
    st.lists(
        st.tuples(
            st.integers(0, 400),
            st.one_of(st.integers(0, 12), st.integers(500, 4000)),
            st.booleans(),
        ),
        max_size=6,
    ),
)


class TestAgainstTheSpin:
    @settings(max_examples=300, deadline=None)
    @given(SCHEDULE)
    def test_bit_equal_returns_and_bookings(self, schedule):
        want = run_schedule(spin_until_issued, *schedule)
        got = run_schedule(ring_until_issued, *schedule)
        # Return instant, rings, contended visits and stall ns per thread.
        assert got.done == want.done
        assert got.sim.now == want.sim.now
        assert got.sq.issued_tail == want.sq.issued_tail == len(schedule[0])

    def test_retaken_between_two_visits(self):
        """Released at 1000 and re-taken at 1010, both between the visits at
        960.637 and 1020.637: the woken waiter lands on its visit, finds the
        new holder, books one more contended visit and parks again."""
        for algo in (spin_until_issued, ring_until_issued):
            rig = Rig()
            rig.holder(9, 0.0, 1000.0, advance=False)
            rig.holder(8, 1010.0, 500.0, advance=False)
            rig.submitter(algo, 0, 0.137, 0.5)
            rig.sim.run()
            when, stats, stall = rig.done[0]
            # 25 visits from 0.637 to 1500.637 found a holder; 1560.637 rang.
            assert stats == {"doorbell_contended": 26, "doorbell_rings": 1}
            assert stall == 26 * 60.0
            t = 0.137 + 0.5
            for _ in range(26):
                t += 60.0
            assert when == t + 800.0

    def test_covered_while_parked(self):
        """Another holder's tail move covers the parked thread's slot: it
        returns from its next visit without touching the doorbell."""
        rig = Rig()
        rig.holder(9, 0.0, 100.0, advance=False)
        rig.submitter(ring_until_issued, 0, 1.0, 1.0)
        rig.holder(8, 105.0, 300.0, advance=True)
        rig.sim.run()
        when, stats, stall = rig.done[0]
        assert stats == {"doorbell_contended": 3}  # at 2, 62 (parked), 122
        assert when == 122.0 and stall == 120.0

    def test_a_long_hold_costs_two_events(self):
        rig = Rig()
        rig.holder(9, 0.0, 60.0 * 10**4, advance=False)
        rig.submitter(ring_until_issued, 0, 1.0, 1.0)
        rig.sim.run(max_events=40)
        _, stats, stall = rig.done[0]
        assert stats["doorbell_contended"] == 10**4
        assert stall == 60.0 * 10**4
        # holder 3, submitter: spawn, start, store, wake, landing, ring.
        assert rig.sim.event_count <= 10


class TestLiveness:
    def test_a_holder_that_never_releases_is_a_named_deadlock(self):
        rig = Rig()
        assert rig.lock.try_acquire(AgileLockChain("wedged"))
        rig.submitter(ring_until_issued, 3, 0.0, 10.0)
        with pytest.raises(SimDeadlockError) as excinfo:
            rig.sim.run()
        assert "t3: waiting on event 'sqdb.s0.q0.released'" in str(excinfo.value)

    def test_kill_while_parked_disarms_the_hook(self):
        rig = Rig()
        wedged = AgileLockChain("wedged")
        assert rig.lock.try_acquire(wedged)
        proc = rig.submitter(ring_until_issued, 0, 0.0, 10.0)
        rig.sim.run(max_events=3)
        assert len(rig.lock.released._waiters) == 1
        proc.kill()
        assert rig.lock.released._waiters == []
        rig.lock.release(wedged)  # wakes nobody
        rig.sim.run()
        assert rig.sim.event_count == 3

    def test_a_cycle_closed_while_a_thread_is_parked_is_reported(self):
        """t0 holds ``line`` and parks on the doorbell lock; the doorbell's
        holder then wants ``line``.  The debugger names the cycle at that
        attempt — nobody has to be spinning for it to be seen — and the
        parked thread cost one ``lock.blocked`` record, not one per period."""
        debugger = LockDebugger(enabled=True)
        rig = Rig(debugger)
        log = record(rig.sim, debugger)
        line = AgileLock(rig.sim, "line", debugger)
        ringer = AgileLockChain("ringer")

        def holder():
            assert rig.lock.try_acquire(ringer)
            yield Timeout(5_000.0)
            line.try_acquire(ringer)

        rig.sim.spawn(holder(), name="ringer")
        parked = rig.submitter(ring_until_issued, 0, 1.0, 1.0, held=[line])
        with pytest.raises(SimError) as excinfo:
            rig.sim.run()
        assert isinstance(excinfo.value.__cause__, DeadlockError)
        assert "line -> sqdb.s0.q0" in str(excinfo.value.__cause__)
        assert parked.alive
        assert parked.waiting_description() == "event 'sqdb.s0.q0.released'"
        assert [e.kind for e in log.events()].count("lock.blocked") == 2
