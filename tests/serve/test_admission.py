"""Bounded admission: occupancy bound, shedding, queue timeouts."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.admission import AdmissionQueue
from repro.serve.request import Request, RequestClass, RequestState
from repro.sim.engine import Simulator, Timeout
from repro.telemetry.metrics import Counter, Gauge

CLS = RequestClass(name="t", pages=1, slo_ns=1_000_000.0)
TIMEOUT_CLS = RequestClass(
    name="short", pages=1, slo_ns=1_000_000.0, queue_timeout_ns=100.0
)


def make_queue(capacity=4, on_terminal=None, sim=None):
    sim = sim if sim is not None else Simulator()
    counter = Counter("serve.admission", labels=("shed", "queue_timeout"))
    gauge = Gauge(clock=lambda: sim.now, name="serve.admission.depth")
    q = AdmissionQueue(
        sim, capacity, counter, depth_gauge=gauge, on_terminal=on_terminal
    )
    return sim, counter, gauge, q


def _req(rid, cls=CLS, arrival=0.0):
    return Request(rid=rid, cls=cls, arrival_ns=arrival, pages=((0, rid),))


class TestAdmission:
    def test_sheds_at_capacity(self):
        shed = []
        _sim, counter, _gauge, q = make_queue(
            capacity=2, on_terminal=shed.append
        )
        reqs = [_req(i) for i in range(3)]
        assert q.offer(reqs[0]) is True
        assert q.offer(reqs[1]) is True
        assert q.offer(reqs[2]) is False
        assert reqs[2].state is RequestState.SHED
        assert counter.get("shed") == 1
        assert shed == [reqs[2]]
        assert len(q) == 2

    def test_poll_fifo(self):
        _sim, _counter, _gauge, q = make_queue()
        reqs = [_req(i) for i in range(3)]
        for req in reqs:
            q.offer(req)
        assert [q.poll(), q.poll(), q.poll()] == reqs
        assert q.poll() is None

    def test_queue_timeout_aborts_on_poll(self):
        aborted = []
        sim = Simulator()
        _sim, counter, _gauge, q = make_queue(
            capacity=4, on_terminal=aborted.append, sim=sim
        )
        stale = _req(0, cls=TIMEOUT_CLS)
        fresh = _req(1, cls=CLS)

        def driver():
            q.offer(stale)
            yield Timeout(500.0)  # past TIMEOUT_CLS's 100 ns budget
            q.offer(fresh)
            assert q.poll() is fresh

        sim.spawn(driver(), name="driver")
        sim.run()
        assert stale.state is RequestState.ABORTED
        assert counter.get("queue_timeout") == 1
        assert aborted == [stale]

    def test_offer_after_close_raises(self):
        _sim, _counter, _gauge, q = make_queue()
        q.close()
        with pytest.raises(RuntimeError):
            q.offer(_req(0))

    def test_wait_wakes_on_offer_and_close(self):
        sim = Simulator()
        _sim, _counter, _gauge, q = make_queue(sim=sim)
        pulled = []

        def consumer():
            while True:
                yield from q.wait_for_request()
                req = q.poll()
                if req is None and q.closed:
                    return
                if req is not None:
                    pulled.append(req)

        def producer():
            yield Timeout(10.0)
            q.offer(_req(0))
            yield Timeout(10.0)
            q.close()

        sim.spawn(consumer(), name="consumer")
        sim.spawn(producer(), name="producer")
        sim.run()
        assert len(pulled) == 1
        assert q.drained

    def test_depth_gauge_tracks_occupancy(self):
        _sim, _counter, gauge, q = make_queue(capacity=8)
        for i in range(5):
            q.offer(_req(i))
        assert gauge.maximum() == 5
        q.poll()
        assert gauge.snapshot()["value"] == 4


class TestOccupancyBound:
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        ops=st.lists(
            st.sampled_from(["offer", "poll"]), min_size=1, max_size=60
        ),
    )
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_occupancy_never_exceeds_capacity(self, capacity, ops):
        """Invariant: no interleaving of offers and polls pushes the queue
        past its bound, and every offered request is either queued, pulled,
        or terminally shed — never lost."""
        terminals = []
        _sim, counter, gauge, q = make_queue(
            capacity=capacity, on_terminal=terminals.append
        )
        offered, pulled = [], []
        for i, op in enumerate(ops):
            if op == "offer":
                req = _req(i)
                offered.append(req)
                q.offer(req)
            else:
                req = q.poll()
                if req is not None:
                    pulled.append(req)
            assert len(q) <= capacity
        assert gauge.maximum() <= capacity
        shed = [r for r in offered if r.state is RequestState.SHED]
        queued = [r for r in offered if r.state is RequestState.QUEUED]
        assert len(shed) + len(queued) == len(offered)
        assert len(pulled) + len(q) == len(queued)
        assert terminals == shed
        assert counter.get("shed") == len(shed)
