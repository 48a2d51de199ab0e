"""The serve state machine: legality, single-terminal, timestamps."""

from __future__ import annotations

import pytest

from repro.serve.request import (
    LEGAL_TRANSITIONS,
    Request,
    RequestClass,
    RequestState,
    ServeStateError,
    TERMINAL_STATES,
)

CLS = RequestClass(name="t", pages=1, slo_ns=1_000_000.0)


def _req() -> Request:
    return Request(rid=1, cls=CLS, arrival_ns=100.0, pages=((0, 1),))


class TestStateMachine:
    def test_happy_path_records_timestamps(self):
        req = _req()
        req.transition(RequestState.QUEUED, 110.0)
        req.transition(RequestState.BATCHED, 120.0)
        req.transition(RequestState.DISPATCHED, 130.0)
        req.transition(RequestState.COMPLETED, 400.0)
        assert req.admitted_ns == 110.0
        assert req.batched_ns == 120.0
        assert req.dispatched_ns == 130.0
        assert req.finished_ns == 400.0
        assert req.latency_ns == 300.0
        assert req.terminal
        assert req.within_slo

    def test_shed_straight_from_created(self):
        req = _req()
        req.transition(RequestState.SHED, 105.0)
        assert req.state is RequestState.SHED
        assert req.terminal
        assert not req.within_slo

    def test_queue_timeout_abort_from_queued(self):
        req = _req()
        req.transition(RequestState.QUEUED, 110.0)
        req.transition(RequestState.ABORTED, 500.0)
        assert req.state is RequestState.ABORTED
        assert req.batched_ns is None

    def test_illegal_transitions_raise(self):
        req = _req()
        with pytest.raises(ServeStateError):
            req.transition(RequestState.COMPLETED, 200.0)  # skip the pipeline
        req.transition(RequestState.QUEUED, 110.0)
        with pytest.raises(ServeStateError):
            req.transition(RequestState.DISPATCHED, 120.0)  # skip BATCHED

    def test_terminal_states_are_absorbing(self):
        for terminal in TERMINAL_STATES:
            assert LEGAL_TRANSITIONS[terminal] == frozenset()
        req = _req()
        req.transition(RequestState.SHED, 105.0)
        for state in RequestState:
            with pytest.raises(ServeStateError):
                req.transition(state, 200.0)

    def test_every_state_reaches_a_terminal(self):
        # Graph sanity: from every state some terminal is reachable.
        for start in RequestState:
            seen = set()
            frontier = {start}
            while frontier:
                seen |= frontier
                frontier = {
                    nxt
                    for state in frontier
                    for nxt in LEGAL_TRANSITIONS[state]
                } - seen
            assert seen & TERMINAL_STATES, f"no terminal reachable from {start}"

    def test_latency_requires_terminal(self):
        req = _req()
        with pytest.raises(ServeStateError):
            _ = req.latency_ns

    def test_slo_miss_when_late(self):
        req = _req()
        req.transition(RequestState.QUEUED, 110.0)
        req.transition(RequestState.BATCHED, 120.0)
        req.transition(RequestState.DISPATCHED, 130.0)
        req.transition(RequestState.COMPLETED, 100.0 + CLS.slo_ns + 1.0)
        assert not req.within_slo

