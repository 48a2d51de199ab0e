"""Unit tests for the discrete-event engine: processes, events, timeouts,
ordering, deadlock and stall detection."""

from __future__ import annotations

import pytest

from repro.sim import (
    At,
    Event,
    SimDeadlockError,
    SimError,
    SimStallError,
    Simulator,
    Timeout,
)


def test_timeout_advances_clock(sim):
    log = []

    def proc():
        yield Timeout(10)
        log.append(sim.now)
        yield Timeout(5.5)
        log.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert log == [10, 15.5]
    assert sim.now == 15.5


def test_zero_timeout_and_bare_yield_do_not_advance_time(sim):
    def proc():
        yield Timeout(0)
        yield None

    sim.spawn(proc())
    sim.run()
    assert sim.now == 0.0


def test_negative_timeout_rejected(sim):
    with pytest.raises(ValueError):
        Timeout(-1)


def test_event_passes_value(sim):
    results = []

    def waiter(ev):
        value = yield ev
        results.append(value)

    def trigger(ev):
        yield Timeout(3)
        ev.trigger("payload")

    ev = sim.event("e")
    sim.spawn(waiter(ev))
    sim.spawn(trigger(ev))
    sim.run()
    assert results == ["payload"]
    assert ev.triggered


def test_already_triggered_event_resumes_immediately(sim):
    results = []

    def proc(ev):
        value = yield ev
        results.append((sim.now, value))

    ev = sim.event()
    ev.trigger(42)
    sim.spawn(proc(ev))
    sim.run()
    assert results == [(0.0, 42)]

    def passer(ev):
        yield from ev.wait()
        results.append("passed")

    # ``wait()`` passes a triggered event without the resume event.
    before = sim.event_count
    sim.spawn(passer(ev))
    sim.run()
    assert results[-1] == "passed" and sim.event_count == before + 1


def test_event_double_trigger_is_error(sim):
    ev = sim.event("dup")
    ev.trigger(1)
    with pytest.raises(SimError):
        ev.trigger(2)


def test_event_fail_throws_into_waiter(sim):
    caught = []

    def proc(ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    ev = sim.event()
    sim.spawn(proc(ev))

    def failer():
        yield Timeout(1)
        ev.fail(ValueError("boom"))

    sim.spawn(failer())
    sim.run()
    assert caught == ["boom"]


def test_process_join_returns_value(sim):
    def child():
        yield Timeout(7)
        return "done"

    def parent():
        value = yield sim.spawn(child(), name="child")
        return value

    p = sim.spawn(parent(), name="parent")
    sim.run()
    assert p.value == "done"
    assert sim.now == 7


def test_join_already_finished_process(sim):
    def child():
        return 5
        yield  # pragma: no cover

    def parent(c):
        yield Timeout(10)
        value = yield c
        return value

    c = sim.spawn(child())
    p = sim.spawn(parent(c))
    sim.run()
    assert p.value == 5


def test_unhandled_process_exception_surfaces_from_run(sim):
    def bad():
        yield Timeout(1)
        raise RuntimeError("kernel panic")

    sim.spawn(bad(), name="bad")
    with pytest.raises(SimError, match="bad"):
        sim.run()


def test_fifo_ordering_at_same_timestamp(sim):
    order = []

    def proc(tag):
        yield Timeout(5)
        order.append(tag)

    for tag in "abc":
        sim.spawn(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_horizon(sim):
    def proc():
        yield Timeout(100)

    sim.spawn(proc())
    sim.run(until=40)
    assert sim.now == 40


def test_run_until_procs_leaves_others_running(sim):
    def short():
        yield Timeout(5)

    def long():
        yield Timeout(500)

    s = sim.spawn(short())
    long_proc = sim.spawn(long())
    sim.run(until_procs=[s])
    assert not s.alive
    assert long_proc.alive
    assert sim.now == 5


def test_deadlock_detected_when_events_never_fire(sim):
    def proc():
        ev = sim.event("never")
        yield ev

    sim.spawn(proc(), name="stuck")
    with pytest.raises(SimDeadlockError, match="stuck"):
        sim.run()


def test_daemon_does_not_block_completion(sim):
    def daemon():
        while True:
            yield Timeout(10)

    def worker():
        yield Timeout(25)

    sim.spawn(daemon(), name="d", daemon=True)
    sim.spawn(worker(), name="w")
    sim.run()
    assert sim.now == 25


def test_watchdog_detects_stall_with_live_daemon():
    sim = Simulator(watchdog_ns=100)

    def daemon():
        while True:
            yield Timeout(10)

    def stuck():
        yield sim.event("never")

    sim.spawn(daemon(), name="d", daemon=True)
    sim.spawn(stuck(), name="stuck")
    with pytest.raises(SimStallError, match="stuck"):
        sim.run()


def test_kill_stops_daemon_and_triggers_done(sim):
    ticks = []

    def daemon():
        while True:
            yield Timeout(10)
            ticks.append(sim.now)

    def worker(d):
        yield Timeout(35)
        d.kill()

    d = sim.spawn(daemon(), name="d", daemon=True)
    sim.spawn(worker(d))
    sim.run()
    assert ticks == [10, 20, 30]
    assert not d.alive
    assert d.done_event.triggered


def test_yield_unsupported_object_is_error(sim):
    def proc():
        yield 42

    sim.spawn(proc(), name="odd")
    with pytest.raises(SimError):
        sim.run()


def test_call_at_past_rejected(sim):
    def proc():
        yield Timeout(10)
        with pytest.raises(ValueError):
            sim.schedule_at(5, lambda: None)

    sim.spawn(proc())
    sim.run()


def test_determinism_two_runs_identical():
    def build():
        sim = Simulator()
        log = []

        def worker(i):
            for k in range(3):
                yield Timeout((i * 7 + k * 3) % 11 + 1)
                log.append((sim.now, i, k))

        for i in range(5):
            sim.spawn(worker(i), name=f"w{i}")
        sim.run()
        return log

    assert build() == build()


def test_nested_generators_via_yield_from(sim):
    log = []

    def inner():
        yield Timeout(4)
        log.append("inner")
        return 99

    def outer():
        value = yield from inner()
        log.append(("outer", value))

    sim.spawn(outer())
    sim.run()
    assert log == ["inner", ("outer", 99)]


def test_max_events_counts_relative_to_each_run_call(sim):
    """``run(max_events=n)`` processes n events *per call* while
    ``event_count`` stays the lifetime total across calls."""

    def ticker():
        while True:
            yield Timeout(1)

    sim.spawn(ticker(), name="tick")
    sim.run(max_events=5)
    assert sim.event_count == 5
    sim.run(max_events=5)
    # A lifetime-total interpretation would stop immediately here.
    assert sim.event_count == 10
    sim.run(max_events=3)
    assert sim.event_count == 13


def test_waiting_description_reports_join_target(sim):
    def sleeper():
        yield Timeout(100)

    def joiner(target):
        yield target

    target = sim.spawn(sleeper(), name="sleeper")
    waiter = sim.spawn(joiner(target), name="joiner")
    sim.run(until=10)
    assert waiter.waiting_description() == "joining process 'sleeper'"
    assert "timeout" in target.waiting_description()
    sim.run()
    assert waiter.waiting_description() == "runnable"


def test_schedule_immediate_runs_after_queued_same_time_events(sim):
    log = []

    def proc():
        log.append("proc")
        yield Timeout(1)

    sim.spawn(proc(), name="p")
    sim.schedule_at(sim.now, log.append, "cb1")
    sim.schedule_at(sim.now, log.append, "cb2")
    sim.run()
    # FIFO among same-timestamp work: spawn was queued first.
    assert log == ["proc", "cb1", "cb2"]


def test_schedule_at_fires_at_absolute_time(sim):
    seen = []

    def stamp(tag):
        seen.append((sim.now, tag))

    sim.schedule_at(5.0, stamp, "later")
    sim.schedule_at(0.0, stamp, "now")
    sim.run()
    assert seen == [(0.0, "now"), (5.0, "later")]
    assert sim.now == 5.0


def test_schedule_at_counts_as_pending_work(sim):
    """The run loop must not declare completion while a raw callback is
    still in flight (e.g. a doorbell value crossing the PCIe link)."""
    fired = []
    sim.schedule_at(7.0, fired.append, "x")
    sim.run()
    assert fired == ["x"]


def test_schedule_api_rejects_past(sim):
    def proc():
        yield Timeout(10)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)

    sim.spawn(proc())
    sim.run()


# -- At: wake at an absolute time ---------------------------------------------


def test_at_lands_on_the_exact_float(sim):
    """No ``now + delay`` in between: 1.1 + (7.7 - 1.1) is not 7.7, and a
    wake-up for 7.7 computed by the caller must land on 7.7."""
    seen = []

    def proc():
        yield Timeout(1.1)
        assert sim.now + (7.7 - sim.now) != 7.7  # what a Timeout would do
        yield At(7.7)
        seen.append(sim.now)
        assert (yield At(1e9 / 3)) is None
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [7.7, 1e9 / 3]


def test_at_now_resumes_through_the_immediate_fifo(sim):
    """``At(now)`` is ``Timeout(0)``: same instant, behind what is queued."""
    order = []

    def proc(tag, make):
        yield Timeout(5)
        yield make()
        order.append((tag, sim.now))

    sim.spawn(proc("at", lambda: At(sim.now)))
    sim.spawn(proc("t0", lambda: Timeout(0)))
    sim.spawn(proc("at2", lambda: At(5.0)))
    sim.run()
    assert order == [("at", 5), ("t0", 5), ("at2", 5)]
    assert not sim._heap  # nothing went through the timeout heap at t=5


def test_at_in_the_past_fails_the_process(sim):
    def proc():
        yield Timeout(10)
        yield At(9.5)

    sim.spawn(proc(), name="late")
    with pytest.raises(SimError) as info:
        sim.run()
    assert sim.now == 10  # no silent immediate resume either
    message = str(info.value.__cause__)
    assert "'late'" in message and "At(9.5)" in message and "now 10" in message


def test_at_in_the_past_reaches_a_joiner_and_a_thrown_step(sim):
    def late():
        try:
            yield sim.event("fails")
        except ValueError:
            yield At(float("nan"))  # not a time at all: same error

    def joiner(proc):
        with pytest.raises(SimError, match="in the past"):
            yield proc
        return "seen"

    ev_proc = sim.spawn(late(), name="late")
    j = sim.spawn(joiner(ev_proc))
    sim.run(max_events=2)
    ev_proc._waiting_on.fail(ValueError("boom"))
    sim.run()
    assert j.value == "seen"


def test_stall_report_names_the_wake_time():
    sim = Simulator(watchdog_ns=100)

    def daemon():
        while True:
            yield Timeout(10)

    def sleeper():
        yield At(1e6)

    sim.spawn(daemon(), name="d", daemon=True)
    proc = sim.spawn(sleeper(), name="sleeper")
    with pytest.raises(SimStallError, match="sleeper: waiting on wake at 1000000.0 ns"):
        sim.run()
    assert proc.waiting_description() == "wake at 1000000.0 ns"
