"""Property tests (serve tentpole satellites).

Two invariants hold for ANY seed, offered rate, and admission bound —
including with a fault storm raging underneath the backend:

1. admission occupancy never exceeds the configured bound (overload turns
   into visible SHED, never hidden queueing);
2. every request the load generator creates reaches exactly one terminal
   state — COMPLETED, SHED, or ABORTED — and the per-class counters agree
   with the request objects, so nothing is ever double-counted or lost.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import FaultConfig, RecoveryConfig
from repro.serve.request import RequestState, TERMINAL_STATES

from tests.serve.helpers import small_serve_engine

rates = st.floats(
    min_value=0.0, max_value=0.2, allow_nan=False, allow_infinity=False
)


def _assert_books_balance(engine, report):
    # A low-rate draw can legitimately offer zero requests in a short
    # window; the invariants then hold vacuously.
    for req in engine.requests:
        assert req.state in TERMINAL_STATES, f"non-terminal leak: {req!r}"
    counts = {
        state: sum(1 for r in engine.requests if r.state is state)
        for state in TERMINAL_STATES
    }
    assert report.offered == len(engine.requests)
    assert report.completed == counts[RequestState.COMPLETED]
    assert report.shed == counts[RequestState.SHED]
    assert report.aborted == counts[RequestState.ABORTED]
    assert report.completed + report.shed + report.aborted == report.offered


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    rate_rps=st.floats(min_value=5_000.0, max_value=400_000.0),
    capacity=st.integers(min_value=1, max_value=48),
)
def test_admission_occupancy_never_exceeds_bound(seed, rate_rps, capacity):
    engine = small_serve_engine(
        rate_rps=rate_rps,
        duration_ns=300_000.0,
        seed=seed,
        admission_capacity=capacity,
    )
    report = engine.run()
    assert engine.admission.depth.snapshot()["max"] <= capacity
    _assert_books_balance(engine, report)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    read_err=rates,
    drop=rates,
    outlier=rates,
)
def test_exactly_one_terminal_state_under_fault_storm(
    seed, read_err, drop, outlier
):
    """The serve pipeline's books balance even when the device layer is
    erroring, dropping CQEs, and stretching latencies: faulted requests
    surface as ABORTED (or complete after recovery retries), never hang."""
    engine = small_serve_engine(
        rate_rps=80_000.0,
        duration_ns=300_000.0,
        seed=seed,
        config_overrides=dict(
            seed=seed,
            faults=FaultConfig(
                flash_read_error_rate=read_err,
                cqe_drop_rate=drop,
                flash_latency_outlier_rate=outlier,
                flash_latency_outlier_mult=20.0,
            ),
            recovery=RecoveryConfig(
                enabled=True,
                command_timeout_ns=400_000.0,
                scan_interval_ns=100_000.0,
                max_retries=3,
                retry_backoff_ns=20_000.0,
                breaker_threshold=1_000_000,  # liveness under test
            ),
        ),
    )
    report = engine.run()
    _assert_books_balance(engine, report)
    # The backend released everything it took: no in-flight commands, no
    # recovery stragglers.
    host = engine.backend.host
    assert host.issue.inflight() == 0
    assert host.recovery.resubmitting == 0
