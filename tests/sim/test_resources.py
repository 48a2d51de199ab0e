"""Tests for FIFO servers, bandwidth pipes, and the capped
processor-sharing server."""

from __future__ import annotations

import heapq
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    BandwidthPipe,
    Event,
    FairShareServer,
    FifoServer,
    Signal,
    SimDeadlockError,
    SimError,
    Simulator,
    Timeout,
)


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

    def test_invalid_args(self, sim):
        """A negative service time would move ``free_at`` backwards and
        let a later job start before an earlier one ends."""
        server = FifoServer(sim)
        server.reserve(10)
        with pytest.raises(ValueError):
            server.reserve(-5)
        assert server.free_at == 10


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
        assert ps._jobs == []


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

    fired = rearms = cohorts = arms = preempts = 0

    def _arm(self, when):
        self.arms += 1
        super()._arm(when)

    def process(self, work):
        arms = self.arms
        (ev,) = super().process(work)  # the arrival runs here
        self.preempts += self.arms - arms  # 1 iff it became the head
        yield ev

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
    done = {}

    def job(i, start, work):
        yield Timeout(start)
        yield from ps.process(work)
        done[i] = sim.now

    for i, (start, work) in enumerate(jobs):
        sim.spawn(job(i, start, work))
    sim.run(max_events=max_events)
    return ps, done


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
        eager, want = run_fair_share(EagerFairShareServer, jobs)
        lazy, got = run_fair_share(CountedFairShareServer, jobs)
        assert got == want  # every departure time, exactly
        assert (lazy.work_done, lazy._V) == (eager.work_done, eager._V)
        assert lazy._jobs == [] and lazy._armed == float("inf")
        # One callback per arm, and an arm only where the head changed.
        assert lazy.fired == lazy.arms <= lazy.cohorts + lazy.preempts + lazy.rearms
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
        ps, done = run_fair_share(
            CountedFairShareServer, jobs, max_events=20 * len(jobs) + 20
        )
        assert len(done) == len(jobs) and ps._jobs == []
        _, want = run_fair_share(EagerFairShareServer, jobs)
        assert done == want


# -- closed-form FIFO against the semaphore formulation it replaces ----------


class TokenFifoServer:
    """Reference: a one-token semaphore held for a ``Timeout(service)``.
    The queue holds the token's holder, then its waiters in arrival order;
    a release hands the token to the oldest."""

    def __init__(self, sim):
        self.sim, self._queue, self.busy_time = sim, deque(), 0.0

    def process(self, service_ns):
        turn = Event(self.sim)
        self._queue.append(turn)
        if len(self._queue) > 1:
            yield turn
        try:
            if service_ns > 0:
                yield Timeout(service_ns)
            self.busy_time += service_ns
        finally:
            self._queue.popleft()
            if self._queue:
                self._queue[0].trigger()


class TokenPipe:
    """Reference: the wire is a :class:`TokenFifoServer`, propagation a
    second timeout."""

    def __init__(self, sim, bytes_per_ns, latency_ns):
        self.bytes_per_ns, self.latency_ns = bytes_per_ns, latency_ns
        self._server, self.bytes_moved = TokenFifoServer(sim), 0

    def transfer(self, nbytes):
        yield from self._server.process(nbytes / self.bytes_per_ns)
        self.bytes_moved += nbytes
        if self.latency_ns > 0:
            yield Timeout(self.latency_ns)


def run_fifo(closed_form, jobs):
    """Two servers and two pipes; each job makes one visit to one of them.
    Returns per-job completion times, per-resource arrival order, and the
    books at quiescence."""
    sim = Simulator()
    if closed_form:
        servers = [FifoServer(sim), FifoServer(sim)]
        pipes = [BandwidthPipe(sim, 3.0, 0.0), BandwidthPipe(sim, 0.7, 12.3)]
    else:
        servers = [TokenFifoServer(sim), TokenFifoServer(sim)]
        pipes = [TokenPipe(sim, 3.0, 0.0), TokenPipe(sim, 0.7, 12.3)]
    done, arrivals = {}, {r: [] for r in range(4)}

    def job(i, start, resource, amount):
        yield Timeout(start)
        arrivals[resource].append(i)
        if resource < 2:
            yield from servers[resource].process(amount)
        else:
            yield from pipes[resource - 2].transfer(int(amount * 10))
        done[i] = sim.now

    for i, spec in enumerate(jobs):
        sim.spawn(job(i, *spec))
    sim.run()
    books = [s.busy_time for s in servers] + [
        (p._server.busy_time, p.bytes_moved) for p in pipes
    ]
    return done, arrivals, books


FIFO_JOBS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.1, 0.1, 1 / 3, 2.0, 2.0, 7.7, 50.0]),
        st.integers(min_value=0, max_value=3),
        st.one_of(
            st.sampled_from([0.0, 0.0, 0.1, 1 / 3, 1.9, 2.0]),
            st.floats(min_value=0.0, max_value=40.0),
        ),
    ),
    min_size=1, max_size=30,
)


class TestClosedFormFifo:
    @settings(max_examples=300, deadline=None)
    @given(FIFO_JOBS)
    def test_bit_equal_to_the_semaphore_formulation(self, jobs):
        want, order, want_books = run_fifo(False, jobs)
        got, got_order, got_books = run_fifo(True, jobs)
        assert got == want  # every completion time, exactly
        assert got_order == order and got_books == want_books
        for resource, ids in order.items():  # FIFO: nobody overtakes
            ends = [got[i] for i in ids]
            assert ends == sorted(ends), resource

    def test_one_event_per_job_under_backlog(self, sim):
        """10^5 back-to-back jobs: each costs its one wake-up, nothing for
        queueing, however deep the backlog."""
        server = FifoServer(sim)
        workers, visits = 100, 1000

        def worker():
            for _ in range(visits):
                yield from server.process(0.3)

        for _ in range(workers):
            sim.spawn(worker())
        sim.run()
        assert sim.event_count == workers + workers * visits
        assert server.busy_time == pytest.approx(0.3 * workers * visits)
        assert sim.now == server.free_at

    def test_busy_time_never_runs_ahead_of_the_clock(self, sim):
        """Service is booked at reservation, so a backlogged server's books
        are ahead of time; what it reports is not."""
        server = FifoServer(sim)
        reference = TokenFifoServer(sim)
        samples = []

        def job(target, start, service):
            yield Timeout(start)
            yield from target.process(service)

        def sampler():
            for _ in range(60):
                yield Timeout(1.7)
                samples.append((server.utilization(), reference.busy_time))
                assert server.busy_time <= reference.busy_time + 1.9 + 1e-9

        for target in (server, reference):
            for k in range(40):  # 76 ns of work offered in the first 10 ns
                sim.spawn(job(target, 0.25 * k, 1.9))
        sim.spawn(sampler())
        sim.run()
        assert all(u <= 1.0 for u, _ in samples)
        assert samples[20][0] == 1.0  # saturated while the backlog lasts
        assert server.busy_time == reference.busy_time  # at quiescence, exactly

    def test_uncontended_zero_service_costs_no_event(self, sim):
        server = FifoServer(sim)

        def job():
            yield from server.process(0.0)
            yield from server.process(0.0)

        sim.spawn(job())
        sim.run()
        assert sim.event_count == 1 and sim.now == 0.0

    def test_a_killed_process_keeps_its_reservation(self):
        """Mid-atomic and mid-transfer kills: the waiters behind finish when
        they would have anyway (the slot is not handed on early), and the
        machine stops and drains with nobody stranded."""
        from tests.helpers import make_host

        def run(kill):
            host = make_host()
            sim, hbm, pipe = host.sim, host.gpu.hbm, host.gpu.pcie_pipe
            done = {}

            def atomic(tag):
                yield from hbm.atomic()
                done[tag] = sim.now

            def dma(tag):
                yield from pipe.transfer(1 << 16)
                done[tag] = sim.now

            host.start()
            procs = {
                tag: sim.spawn(body(tag), name=tag)
                for tag, body in [("a0", atomic), ("a1", atomic),
                                  ("d0", dma), ("d1", dma)]
            }
            sim.run(until=1.0)  # a0 and d0 in service, a1 and d1 behind them
            assert not done
            for tag in kill:
                procs[tag].kill()
            sim.run()
            host.stop()
            host.drain()
            sim.run()
            assert not any(p.alive for p in procs.values())
            return done

        everyone = run(kill=())
        survivors = run(kill=("a0", "d0"))
        assert survivors == {t: everyone[t] for t in ("a1", "d1")}


# -- parked back-off against the spin it replaces -----------------------------


class SpinningSignal:
    """Reference: the wait ``Signal.park`` replaced.  The waiter makes every
    visit of its back-off grid and looks, each time, whether the state it
    waits for changed since it started waiting."""

    def __init__(self, sim):
        self.sim, self.fires = sim, 0

    def fire(self):
        self.fires += 1

    def park(self, period, limit=None):
        seen, visits = self.fires, 0
        while True:
            yield Timeout(period)
            visits += 1
            if self.fires != seen or visits == limit:
                return visits


def run_parks(cls, waiters, fires, max_events=None):
    """Each waiter sleeps to its start and parks once; the fires are
    scheduled before anything runs, so a fire at the instant of a visit is
    dispatched before the visit in both formulations (a tie sees it)."""
    sim = Simulator()
    signal = cls(sim)
    landed = {}

    def waiter(i, start, period, limit):
        yield Timeout(start)
        visits = yield from signal.park(period, limit)
        landed[i] = (sim.now, visits)

    for when in fires:
        sim.schedule_at(when, signal.fire)
    for i, spec in enumerate(waiters):
        sim.spawn(waiter(i, *spec), name=f"waiter{i}")
    sim.run(max_events=max_events)
    return sim, landed


#: Periods are mostly not dyadic rationals, so grid times are rounded sums;
#: fire times include exact grid points of the (0.0, 60.0) waiter and
#: instants before every waiter started.
PARKS = st.tuples(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0, 0.1, 7.3, 1e3 / 3]),
            st.sampled_from([60.0, 0.1, 130.1, 1e3 / 7]),
            st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
        ),
        min_size=1, max_size=6,
    ),
    st.lists(
        st.one_of(
            st.sampled_from([0.0, 60.0, 120.0, 600.0]),
            st.floats(min_value=0.0, max_value=5e3),
        ),
        min_size=1, max_size=5,
    ),
)


class TestParkedBackoff:
    @settings(max_examples=300, deadline=None)
    @given(PARKS)
    def test_bit_equal_to_the_spinning_wait(self, parks):
        waiters, fires = parks
        # Every unbounded waiter needs a fire after it started.
        fires = fires + [max(fires) + 2e3]
        _, want = run_parks(SpinningSignal, waiters, fires)
        sim, got = run_parks(Signal, waiters, fires)
        assert got == want  # landing time and visits made, exactly
        bounded = sum(limit is not None for _, _, limit in waiters)
        # spawn, start, wake and landing per waiter; a bounded one also pays
        # its alarm's spawn and expiry.  The fires themselves are events.
        assert sim.event_count <= 4 * len(waiters) + 2 * bounded + len(fires)

    def test_a_long_silence_costs_two_events(self, sim):
        signal = Signal(sim)
        out = []

        def waiter():
            out.append((yield from signal.park(60.0)))

        sim.spawn(waiter())
        sim.schedule_at(60.0 * 10**4 + 1.0, signal.fire)
        sim.run(max_events=10)
        assert out == [10**4 + 1] and sim.now == 60.0 * (10**4 + 1)
        assert sim.event_count == 4  # start, fire, wake, landing

    def test_the_limit_is_a_deadline_on_the_grid(self, sim):
        """Nobody fires: the waiter lands on visit ``limit`` of its own
        grid, reached by the same additions the spin makes."""
        signal = Signal(sim)
        out = []

        def waiter():
            yield Timeout(0.3)
            out.append((yield from signal.park(0.1, 1000)))

        sim.spawn(waiter())
        sim.run()
        t = 0.3
        for _ in range(1000):
            t += 0.1
        assert out == [1000] and sim.now == t != 0.3 + 1000 * 0.1
        assert sim.event_count <= 6

    def test_nobody_fires_is_a_named_deadlock(self, sim):
        signal = Signal(sim, "door.released")

        def waiter():
            yield from signal.park(60.0)

        sim.spawn(waiter(), name="thread7")
        with pytest.raises(SimDeadlockError, match=r"thread7.*'door.released'"):
            sim.run()

    @pytest.mark.parametrize("limit", [None, 50])
    def test_a_killed_waiter_leaves_the_signal(self, sim, limit):
        signal = Signal(sim)

        def waiter():
            yield from signal.park(60.0, limit)

        def sleeper():  # lets the alarm of the bounded park expire
            yield Timeout(60.0 * 60)

        proc = sim.spawn(waiter())
        sim.spawn(sleeper())
        sim.run(max_events=3)
        assert len(signal._waiters) == 1
        proc.kill()
        assert signal._waiters == []
        signal.fire()  # nothing to wake, nothing to trip over
        sim.run()
