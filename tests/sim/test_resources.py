"""Tests for semaphores, FIFO servers, bandwidth pipes, and the capped
processor-sharing server."""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    BandwidthPipe,
    Event,
    FairShareServer,
    FifoServer,
    Semaphore,
    SimError,
    Simulator,
    Timeout,
)


class TestSemaphore:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Semaphore(sim, 0)

    def test_try_acquire_respects_capacity(self, sim):
        sem = Semaphore(sim, 2)
        assert sem.try_acquire()
        assert sem.try_acquire()
        assert not sem.try_acquire()
        sem.release()
        assert sem.try_acquire()

    def test_blocking_acquire_fifo(self, sim):
        sem = Semaphore(sim, 1)
        order = []

        def worker(tag, hold):
            yield from sem.acquire()
            order.append((tag, sim.now))
            yield Timeout(hold)
            sem.release()

        sim.spawn(worker("a", 10))
        sim.spawn(worker("b", 10))
        sim.spawn(worker("c", 10))
        sim.run()
        assert order == [("a", 0), ("b", 10), ("c", 20)]

    def test_over_release_is_error(self, sim):
        sem = Semaphore(sim, 1)
        with pytest.raises(SimError):
            sem.release()

    def test_try_acquire_defers_to_waiters(self, sim):
        """A non-blocking acquire must not jump the FIFO queue."""
        sem = Semaphore(sim, 1)
        got = []

        def holder():
            yield from sem.acquire()
            yield Timeout(10)
            sem.release()

        def waiter():
            yield from sem.acquire()
            got.append("waiter")
            sem.release()

        def sniper():
            yield Timeout(10)  # release instant: waiter is queued
            got.append(("sniper", sem.try_acquire()))

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.spawn(sniper())
        sim.run()
        assert ("sniper", False) in got or got[0] == "waiter"


class TestFifoServer:
    def test_jobs_serialize(self, sim):
        server = FifoServer(sim)
        ends = []

        def job(service):
            yield from server.process(service)
            ends.append(sim.now)

        for service in (5, 3, 2):
            sim.spawn(job(service))
        sim.run()
        assert ends == [5, 8, 10]
        assert server.busy_time == 10

    def test_utilization(self, sim):
        server = FifoServer(sim)

        def job():
            yield from server.process(10)
            yield Timeout(10)

        sim.spawn(job())
        sim.run()
        assert server.utilization() == pytest.approx(0.5)


class TestBandwidthPipe:
    def test_rate_and_latency(self, sim):
        pipe = BandwidthPipe(sim, bytes_per_ns=2.0, latency_ns=100)
        done = []

        def job():
            yield from pipe.transfer(4096)
            done.append(sim.now)

        sim.spawn(job())
        sim.run()
        # 4096 B / 2 B/ns = 2048 ns wire + 100 ns propagation.
        assert done == [2148.0]
        assert pipe.bytes_moved == 4096

    def test_transfers_serialize_on_wire_but_overlap_latency(self, sim):
        pipe = BandwidthPipe(sim, bytes_per_ns=1.0, latency_ns=50)
        done = []

        def job(tag):
            yield from pipe.transfer(100)
            done.append((tag, sim.now))

        sim.spawn(job("a"))
        sim.spawn(job("b"))
        sim.run()
        # a: 100 wire + 50 lat = 150; b: waits 100, 100 wire, 50 lat = 250.
        assert done == [("a", 150.0), ("b", 250.0)]

    def test_invalid_args(self, sim):
        with pytest.raises(ValueError):
            BandwidthPipe(sim, bytes_per_ns=0)
        pipe = BandwidthPipe(sim, bytes_per_ns=1)

        def job():
            yield from pipe.transfer(-1)

        sim.spawn(job(), name="bad")
        with pytest.raises(SimError):
            sim.run()


class TestFairShareServer:
    def test_single_job_runs_at_cap(self, sim):
        ps = FairShareServer(sim, total_rate=4.0, per_job_cap=1.0)
        done = []

        def job():
            yield from ps.process(100)
            done.append(sim.now)

        sim.spawn(job())
        sim.run()
        # Capped at 1 unit/ns even though the server could do 4.
        assert done == [pytest.approx(100.0)]

    def test_jobs_within_capacity_do_not_interfere(self, sim):
        ps = FairShareServer(sim, total_rate=4.0, per_job_cap=1.0)
        done = []

        def job(tag):
            yield from ps.process(100)
            done.append((tag, sim.now))

        for tag in range(4):
            sim.spawn(job(tag))
        sim.run()
        assert [t for _, t in done] == pytest.approx([100.0] * 4)

    def test_oversubscription_shares_fairly(self, sim):
        ps = FairShareServer(sim, total_rate=4.0, per_job_cap=1.0)
        done = []

        def job(tag):
            yield from ps.process(100)
            done.append((tag, sim.now))

        for tag in range(8):
            sim.spawn(job(tag))
        sim.run()
        # 8 identical jobs at aggregate rate 4 -> each gets 0.5/ns -> 200 ns.
        assert [t for _, t in done] == pytest.approx([200.0] * 8)

    def test_late_arrival_slows_existing_job(self, sim):
        ps = FairShareServer(sim, total_rate=1.0)
        done = {}

        def job(tag, work, start):
            yield Timeout(start)
            yield from ps.process(work)
            done[tag] = sim.now

        sim.spawn(job("a", 100, 0))
        sim.spawn(job("b", 100, 50))
        sim.run()
        # a runs alone for 50 ns (50 done), then shares: remaining 50 at 0.5
        # -> a ends at 150.  b then runs alone: did 50 by t=150, ends at 200.
        assert done["a"] == pytest.approx(150.0)
        assert done["b"] == pytest.approx(200.0)

    def test_zero_work_completes_instantly(self, sim):
        ps = FairShareServer(sim, total_rate=1.0)
        done = []

        def job():
            yield from ps.process(0)
            done.append(sim.now)
            if False:
                yield  # keep this a generator even with the early return

        sim.spawn(job())
        sim.run()
        assert done == [0.0]

    def test_negative_work_rejected(self, sim):
        ps = FairShareServer(sim, total_rate=1.0)
        with pytest.raises(ValueError):
            list(ps.process(-1))

    def test_work_conservation(self, sim):
        ps = FairShareServer(sim, total_rate=2.0)

        def job(work, start):
            yield Timeout(start)
            yield from ps.process(work)

        total = 0.0
        for i in range(10):
            work = 10.0 + i
            total += work
            sim.spawn(job(work, i * 3))
        sim.run()
        assert ps.work_done == pytest.approx(total, rel=1e-6)
        assert ps.active_jobs == 0


# -- lazily armed departures against the eager formulation they replace ------


class EagerFairShareServer:
    """Reference: the ``FairShareServer`` this file's subject replaced.  Every
    arrival and every departure supersedes the pending callback and schedules
    the head's departure afresh."""

    _EPS = 1e-9

    def __init__(self, sim, total_rate, per_job_cap):
        self.sim, self.total_rate, self.per_job_cap = sim, total_rate, per_job_cap
        self._V = self._last_t = self.work_done = 0.0
        self._jobs, self._seq, self._version, self.fired = [], 0, 0, 0

    def _advance(self, now):
        dt, n = now - self._last_t, len(self._jobs)
        if dt > 0 and n:
            rate = min(self.per_job_cap, self.total_rate / n)
            self._V += dt * rate
            self.work_done += dt * rate * n
        self._last_t = now

    def _reschedule(self, now):
        self._version += 1
        if self._jobs:
            rate = min(self.per_job_cap, self.total_rate / len(self._jobs))
            dt = max((self._jobs[0][0] - self._V) / rate, 0.0)
            self.sim.schedule_at(now + dt, self._on_departure, self._version)

    def _on_departure(self, version):
        self.fired += 1
        if version != self._version:
            return
        self._advance(self.sim.now)
        if self._jobs and self._V < self._jobs[0][0]:
            self._V = self._jobs[0][0]
        ready = []
        while self._jobs and self._jobs[0][0] <= self._V + self._EPS:
            ready.append(heapq.heappop(self._jobs))
        self._reschedule(self.sim.now)
        for job in ready:
            job[2].trigger()

    def process(self, work):
        self._advance(self.sim.now)
        self._seq += 1
        ev = Event(self.sim)
        heapq.heappush(self._jobs, (self._V + work, self._seq, ev))
        self._reschedule(self.sim.now)
        yield ev


class CountedFairShareServer(FairShareServer):
    """The real server, counting what its callbacks did."""

    fired = rearms = cohorts = arms = 0

    def _arm(self, when):
        self.arms += 1
        super()._arm(when)

    def _on_departure(self, version):
        self.fired += 1
        live, n = version == self._version, len(self._jobs)
        super()._on_departure(version)
        if live and len(self._jobs) == n:
            self.rearms += 1
        elif live:
            self.cohorts += 1


def run_fair_share(cls, jobs, max_events=None):
    """All jobs are spawned at t=0 and sleep to their arrival, so every
    arrival's wake-up is older than any departure callback and wins a tie
    with it in both formulations: what is compared is the arming alone."""
    sim = Simulator()
    ps = cls(sim, 4.0, 1.0)  # shares below the cap from the fifth job on
    done, preempts = {}, [0]

    def job(i, start, work):
        yield Timeout(start)
        arms = getattr(ps, "arms", 0)
        (ev,) = ps.process(work)  # the arrival runs here
        preempts[0] += getattr(ps, "arms", 0) - arms
        yield ev
        done[i] = sim.now

    for i, (start, work) in enumerate(jobs):
        sim.spawn(job(i, start, work))
    sim.run(max_events=max_events)
    return ps, done, preempts[0]


#: Arrival times repeat (ties, bursts that cross the cap and drain back
#: under it); work is mostly not a dyadic rational.
FAIR_JOBS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.5, 10 / 3, 7.1, 40.0]),
        st.one_of(
            st.sampled_from([0.1, 1 / 3, 1.0, 2.0, 7.3]),
            st.floats(min_value=1e-3, max_value=50.0),
        ),
    ),
    min_size=1, max_size=24,
)


class TestLazyArming:
    @settings(max_examples=300, deadline=None)
    @given(FAIR_JOBS)
    def test_bit_equal_to_eager_rearming(self, jobs):
        eager, want, _ = run_fair_share(EagerFairShareServer, jobs)
        lazy, got, preempts = run_fair_share(CountedFairShareServer, jobs)
        assert got == want  # every departure time, exactly
        assert (lazy.work_done, lazy._V) == (eager.work_done, eager._V)
        assert lazy.active_jobs == 0 and lazy._armed == float("inf")
        # One callback per arm, and an arm only where the head changed.
        assert lazy.fired == lazy.arms <= lazy.cohorts + preempts + lazy.rearms
        assert lazy.fired <= eager.fired

    def test_arrivals_under_the_cap_cost_no_callback(self, sim):
        ps = CountedFairShareServer(sim, 4.0, 1.0)

        def job(start):
            yield Timeout(start)
            yield from ps.process(10.0)

        for start in (0.0, 1.0, 2.0, 3.0):
            sim.spawn(job(start))
        sim.run()
        # Four staggered departures: one arm by the first arrival, three by
        # the departures before the last; no arrival after the first re-armed.
        assert (ps.fired, ps.cohorts, ps.rearms) == (4, 4, 0)

    def test_crossing_the_cap_fires_early_and_rearms_once(self, sim):
        ps = CountedFairShareServer(sim, 2.0, 1.0)
        done = []

        def job(start, work):
            yield Timeout(start)
            yield from ps.process(work)
            done.append(sim.now)

        sim.spawn(job(0.0, 10.0))
        for _ in range(3):  # n = 4 > 2: the share halves at t = 5
            sim.spawn(job(5.0, 100.0))
        sim.run()
        assert done[0] == 15.0  # 5 at rate 1, then 5 more at rate 1/2
        assert ps.rearms == 1  # the callback armed for t = 10 found out

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=1e6, max_value=1e15),
        st.lists(st.floats(min_value=1e-12, max_value=1e-3), min_size=1, max_size=8),
    )
    def test_a_rearm_never_refires_in_place(self, start, works):
        """Work so small beside ``now`` that the departure delay rounds to
        zero (and V residues that leave the head a hair unfinished): the
        callback must snap and retire, not re-arm at the same instant."""
        jobs = [(start, w) for w in works]
        ps, done, _ = run_fair_share(
            CountedFairShareServer, jobs, max_events=20 * len(jobs) + 20
        )
        assert len(done) == len(jobs) and ps.active_jobs == 0
        _, want, _ = run_fair_share(EagerFairShareServer, jobs)
        assert done == want
