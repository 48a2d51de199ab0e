"""Weighted-fair admission: share bounds, shed guards, and terminal
accounting under tenancy — unit-driven and engine-driven."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.config import FaultConfig, RecoveryConfig
from repro.serve.arrival import Poisson
from repro.serve.request import Request, RequestClass, RequestState
from repro.serve.wfq import TenancyConfig, TenantShare, WeightedFairAdmission
from repro.sim.engine import Simulator
from repro.telemetry.metrics import Counter

from tests.serve.helpers import small_serve_engine
from tests.serve.test_property import _assert_books_balance


def make_wfq(shares, capacity=1024):
    sim = Simulator()
    events = Counter("adm", "test", labels=("shed", "queue_timeout"))
    shed = []
    return WeightedFairAdmission(
        sim,
        capacity,
        TenancyConfig(tuple(shares)),
        events,
        on_terminal=shed.append,
    ), shed


def make_request(rid, cls):
    return Request(rid, cls, arrival_ns=0.0, pages=((0, rid),))


def fill(wfq, classes, per_class):
    rid = 0
    for _ in range(per_class):
        for cls in classes:
            wfq.offer(make_request(rid, cls))
            rid += 1


class TestShareValidation:
    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            TenantShare("a", weight=0.0)

    def test_shed_frac_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TenantShare("a", max_shed_frac=1.5)

    def test_duplicate_share_names_rejected(self):
        with pytest.raises(ValueError):
            TenancyConfig((TenantShare("a"), TenantShare("a")))

    def test_unknown_class_fails_fast_on_offer(self):
        wfq, _ = make_wfq([TenantShare("a")])
        stranger = RequestClass(name="b", lba_space=16)
        with pytest.raises(KeyError):
            wfq.offer(make_request(0, stranger))


class TestWeightedFairOrder:
    def test_pulls_follow_weights_exactly_under_constant_backlog(self):
        a = RequestClass(name="a", lba_space=16)
        b = RequestClass(name="b", lba_space=16)
        wfq, _ = make_wfq(
            [TenantShare("a", weight=3.0), TenantShare("b", weight=1.0)]
        )
        fill(wfq, [a, b], per_class=40)
        order = [wfq.poll().cls.name for _ in range(40)]
        # Virtual time 1/3 vs 1: every window of 4 pulls serves a thrice.
        for i in range(0, 40, 4):
            window = order[i : i + 4]
            assert window.count("a") == 3 and window.count("b") == 1

    def test_idle_class_banks_no_credit(self):
        a = RequestClass(name="a", lba_space=16)
        b = RequestClass(name="b", lba_space=16)
        wfq, _ = make_wfq([TenantShare("a"), TenantShare("b")])
        # Only b is backlogged for a while...
        for rid in range(8):
            wfq.offer(make_request(rid, b))
        for _ in range(8):
            assert wfq.poll().cls.name == "b"
        # ...then a arrives: it joins at the current virtual time, so it
        # does NOT get 8 back-to-back pulls to "catch up".
        fill(wfq, [a, b], per_class=6)
        order = [wfq.poll().cls.name for _ in range(12)]
        assert order.count("a") == 6
        assert max(
            len(run)
            for run in "".join(c[0] for c in order).split("b")
        ) <= 2  # never a long all-a burst


class TestShedGuard:
    def test_victim_is_the_most_affordable_class(self):
        a = RequestClass(name="a", slo_ns=1e6, lba_space=16)
        b = RequestClass(name="b", slo_ns=9e6, lba_space=16)
        wfq, shed = make_wfq(
            [
                TenantShare("a", priority=1),
                TenantShare("b", priority=0, max_shed_frac=1.0),
            ],
            capacity=4,
        )
        fill(wfq, [a, b], per_class=2)  # full
        assert wfq.offer(make_request(99, a))  # admitted
        assert [r.cls.name for r in shed] == ["b"]
        assert shed[0].state is RequestState.SHED

    def test_guarded_class_is_passed_over(self):
        a = RequestClass(name="a", lba_space=16)
        b = RequestClass(name="b", lba_space=16)
        wfq, shed = make_wfq(
            [
                TenantShare("a", priority=1, max_shed_frac=1.0),
                # b is the natural victim (priority 0) but its guard
                # forbids any shed at all.
                TenantShare("b", priority=0, max_shed_frac=0.0),
            ],
            capacity=4,
        )
        fill(wfq, [a, b], per_class=2)
        wfq.offer(make_request(99, a))
        assert [r.cls.name for r in shed] == ["a"]

    def test_all_guarded_falls_back_to_least_critical(self):
        a = RequestClass(name="a", lba_space=16)
        b = RequestClass(name="b", lba_space=16)
        wfq, shed = make_wfq(
            [
                TenantShare("a", priority=1, max_shed_frac=0.0),
                TenantShare("b", priority=0, max_shed_frac=0.0),
            ],
            capacity=2,
        )
        fill(wfq, [a, b], per_class=1)
        wfq.offer(make_request(99, a))
        # Liveness beats the bound: the least critical class eats it.
        assert [r.cls.name for r in shed] == ["b"]


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    wa=st.floats(min_value=1.0, max_value=8.0),
    wb=st.floats(min_value=1.0, max_value=8.0),
    wc=st.floats(min_value=1.0, max_value=8.0),
    per_class=st.integers(min_value=20, max_value=100),
)
def test_wfq_share_bound_property(wa, wb, wc, per_class):
    """Under constant backlog, every class receives at least its weight
    share of pulls minus a constant lag — the classic WFQ bound, for ANY
    weights.  No class is ever starved below its share."""
    weights = {"a": wa, "b": wb, "c": wc}
    classes = [RequestClass(name=n, lba_space=16) for n in weights]
    wfq, _ = make_wfq(
        [TenantShare(n, weight=w) for n, w in weights.items()]
    )
    fill(wfq, classes, per_class=per_class)
    total_pulls = per_class  # leave every queue still backlogged
    pulls = dict.fromkeys(weights, 0)
    for _ in range(total_pulls):
        pulls[wfq.poll().cls.name] += 1
    total_weight = sum(weights.values())
    for name, w in weights.items():
        fair = total_pulls * w / total_weight
        # Bounded lag: within one pull per competing class of fair share.
        assert pulls[name] >= fair - len(weights)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    read_err=st.floats(min_value=0.0, max_value=0.2),
    drop=st.floats(min_value=0.0, max_value=0.2),
)
def test_exactly_one_terminal_under_tenancy_and_storm(seed, read_err, drop):
    """The serve pipeline's books balance with the weighted-fair queue in
    place of FIFO, while the device layer errors and drops CQEs: every
    request still reaches exactly one terminal state."""
    classes = [
        RequestClass(name="hot", pages=1, slo_ns=1e6, lba_space=128),
        RequestClass(name="bulk", pages=4, slo_ns=8e6, lba_space=128,
                     lba_base=128),
    ]
    tenancy = TenancyConfig(
        (
            TenantShare("hot", weight=4.0, priority=1, max_shed_frac=0.2),
            TenantShare("bulk", weight=1.0, priority=0, max_shed_frac=0.9),
        )
    )
    engine = small_serve_engine(
        rate_rps=120_000.0,
        duration_ns=300_000.0,
        seed=seed,
        classes=classes,
        arrivals={c.name: Poisson(60_000.0) for c in classes},
        admission_capacity=16,
        tenancy=tenancy,
        config_overrides=dict(
            seed=seed,
            faults=FaultConfig(
                flash_read_error_rate=read_err,
                cqe_drop_rate=drop,
            ),
            recovery=RecoveryConfig(
                enabled=True,
                command_timeout_ns=400_000.0,
                scan_interval_ns=100_000.0,
                max_retries=3,
                retry_backoff_ns=20_000.0,
                breaker_threshold=1_000_000,
            ),
        ),
    )
    report = engine.run()
    _assert_books_balance(engine, report)
    host = engine.backend.host
    assert host.issue.inflight() == 0
    assert host.recovery.resubmitting == 0
