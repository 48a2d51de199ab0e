"""Tests for SimLock."""

from __future__ import annotations

import pytest

from repro.sim import SimError, SimLock, Timeout


class TestSimLock:
    def test_try_acquire_and_owner(self, sim):
        lock = SimLock(sim, "l")
        assert lock.try_acquire("t0")
        assert lock.owner == "t0"
        assert not lock.try_acquire("t1")
        lock.release("t0")
        assert lock.owner is None

    def test_release_by_non_owner_is_error(self, sim):
        lock = SimLock(sim)
        lock.try_acquire("t0")
        with pytest.raises(SimError):
            lock.release("t1")

    def test_blocking_acquire_transfers_ownership_fifo(self, sim):
        lock = SimLock(sim)
        order = []

        def worker(tag):
            yield from lock.acquire(tag)
            order.append((tag, sim.now))
            yield Timeout(5)
            lock.release(tag)

        for tag in ("a", "b", "c"):
            sim.spawn(worker(tag))
        sim.run()
        assert order == [("a", 0), ("b", 5), ("c", 10)]

    def test_reacquire_same_owner_raises(self, sim):
        lock = SimLock(sim, "l")
        lock.try_acquire("t0")

        def worker():
            yield from lock.acquire("t0")

        sim.spawn(worker(), name="w")
        with pytest.raises(SimError):
            sim.run()

    def test_waiters_listing(self, sim):
        """Queued waiters are served in the order they queued."""
        lock = SimLock(sim)
        lock.try_acquire("holder")
        seen = []

        def worker(tag):
            yield from lock.acquire(tag)
            seen.append(tag)
            lock.release(tag)

        def inspector():
            yield Timeout(1)  # both workers are queued by now
            lock.release("holder")

        sim.spawn(worker("w1"))
        sim.spawn(worker("w2"))
        sim.spawn(inspector())
        sim.run()
        assert seen == ["w1", "w2"]
