"""Tests for SimLock and Gate."""

from __future__ import annotations

import pytest

from repro.sim import Gate, SimError, SimLock, Timeout


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
        lock = SimLock(sim)
        lock.try_acquire("holder")
        seen = []

        def worker(tag):
            yield from lock.acquire(tag)
            lock.release(tag)

        def inspector():
            yield Timeout(1)  # both workers are queued by now
            seen.append(lock.waiters())
            lock.release("holder")

        sim.spawn(worker("w1"))
        sim.spawn(worker("w2"))
        sim.spawn(inspector())
        sim.run()
        assert seen == [["w1", "w2"]]


class TestGate:
    def test_open_gate_does_not_block(self, sim):
        gate = Gate(sim, is_open=True)
        log = []

        def proc():
            yield from gate.wait()
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [0.0]

    def test_closed_gate_blocks_until_open(self, sim):
        gate = Gate(sim)
        log = []

        def waiter(tag):
            yield from gate.wait()
            log.append((tag, sim.now))

        def opener():
            yield Timeout(20)
            gate.open()

        sim.spawn(waiter("a"))
        sim.spawn(waiter("b"))
        sim.spawn(opener())
        sim.run()
        assert log == [("a", 20), ("b", 20)]

    def test_reclose_blocks_new_waiters(self, sim):
        gate = Gate(sim, is_open=True)
        log = []

        def early():
            yield from gate.wait()
            log.append(("early", sim.now))
            gate.close()

        def late():
            yield Timeout(5)
            yield from gate.wait()
            log.append(("late", sim.now))

        def reopener():
            yield Timeout(50)
            gate.open()

        sim.spawn(early())
        sim.spawn(late())
        sim.spawn(reopener())
        sim.run()
        assert log == [("early", 0), ("late", 50)]
