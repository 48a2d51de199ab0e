"""Consumer-side recovery: timeout + resubmit for dropped CQEs, stale
filtering of duplicates, error-status propagation through the cache and
Share Table, bounded retries, and the per-device circuit breaker."""

from __future__ import annotations

import numpy as np

from repro.config import FaultConfig, RecoveryConfig
from repro.core import AgileLockChain
from repro.core.issue import AgileIoError, DeviceDeadError
from repro.nvme.command import Status

from tests.helpers import make_host, run_kernel

FAST_RECOVERY = RecoveryConfig(
    enabled=True,
    command_timeout_ns=150_000.0,
    scan_interval_ns=50_000.0,
    max_retries=4,
    retry_backoff_ns=10_000.0,
)


def _seed_page(host, lba: int, byte: int) -> None:
    host.ssds[0].flash.write_page_data(lba, np.full(4096, byte, np.uint8))


class TestDroppedCqe:
    def test_timeout_resubmits_and_data_arrives(self):
        """A silently lost completion is detected by the deadline scan,
        resubmitted with a fresh generation token, and the retried command
        delivers the data — the waiter never learns anything went wrong."""
        host = make_host(
            faults=FaultConfig(cqe_drop_first=1), recovery=FAST_RECOVERY
        )
        _seed_page(host, 3, 0x7C)
        dest = host.alloc_view(4096)
        outcome = {}

        def body(tc, ctrl):
            chain = AgileLockChain(f"t{tc.tid}")
            txn = yield from ctrl.raw_read(tc, chain, 0, 3, dest)
            outcome["completion"] = yield from txn.wait()

        run_kernel(host, body, block=1)
        assert outcome["completion"].ok
        assert int(dest[0]) == 0x7C
        rec = host.trace.counter("recovery")
        assert rec["timeouts"] >= 1
        assert rec["resubmissions"] >= 1
        assert host.ssds[0].dropped_cqes == 1
        assert host.issue.inflight() == 0

    def test_duplicate_cqe_is_stale_filtered(self):
        """The second posting of a duplicated completion targets an
        already-retired pending entry and must be dropped as stale — not
        completed twice, not treated as a protocol error."""
        host = make_host(
            faults=FaultConfig(cqe_duplicate_rate=1.0), recovery=FAST_RECOVERY
        )
        _seed_page(host, 5, 0x2B)
        dest = host.alloc_view(4096)
        outcome = {}

        def body(tc, ctrl):
            chain = AgileLockChain(f"t{tc.tid}")
            txn = yield from ctrl.raw_read(tc, chain, 0, 5, dest)
            outcome["completion"] = yield from txn.wait()
            # A second command keeps the service polling past the first
            # command's duplicate posting, so the stale copy is consumed
            # (and filtered) rather than left un-polled at shutdown.
            txn = yield from ctrl.raw_read(tc, chain, 0, 5, dest)
            yield from txn.wait()

        run_kernel(host, body, block=1)
        assert outcome["completion"].ok
        assert int(dest[0]) == 0x2B
        assert host.ssds[0].duplicated_cqes == 2
        assert host.trace.counter("io")["stale_completions"] >= 1
        assert host.issue.inflight() == 0


class TestFlashErrors:
    def test_cache_fill_error_recycles_line_and_retries(self):
        """An error-status CQE on a cache fill must flip the line
        BUSY -> INVALID (never leave it stuck BUSY) and wake waiters to
        retry; with the media error gone, the second fill succeeds."""
        host = make_host(faults=FaultConfig(flash_read_fail_first=1))
        _seed_page(host, 9, 0x4D)
        got = {}

        def body(tc, ctrl):
            chain = AgileLockChain(f"t{tc.tid}")
            line = yield from ctrl.read_page(tc, chain, 0, 9)
            got["byte"] = int(line.buffer[0])
            ctrl.cache.unpin(line)

        run_kernel(host, body, block=1)
        assert got["byte"] == 0x4D
        cache = host.trace.counter("cache")
        assert cache["fill_errors"] == 1
        assert host.ssds[0].errors == 1
        assert host.ssds[0].flash.read_errors == 1
        assert host.driver.device_stats()[0]["errors"] == 1

    def test_persistent_fill_failure_raises_clean_error(self):
        """When every retry hits a media error the reader gets a bounded
        AgileIoError — completion-or-clean-failure, never a hang."""
        host = make_host(faults=FaultConfig(flash_read_fail_first=100))
        raised = {}

        def body(tc, ctrl):
            chain = AgileLockChain(f"t{tc.tid}")
            try:
                yield from ctrl.read_page(tc, chain, 0, 2)
            except AgileIoError as exc:
                raised["error"] = str(exc)

        run_kernel(host, body, block=1)
        assert "failed" in raised["error"]
        assert host.trace.counter("cache")["fill_failures_observed"] >= 1
        assert host.issue.inflight() == 0

    def test_share_table_entry_retired_on_failed_fill(self):
        """A failed async_read fill marks the buffer failed and retires the
        Share Table entry so later readers re-fetch instead of sharing
        garbage."""
        host = make_host(faults=FaultConfig(flash_read_fail_first=1))
        _seed_page(host, 4, 0x66)
        buf = host.make_buffer(label="t0")
        got = {}

        def body(tc, ctrl):
            chain = AgileLockChain(f"t{tc.tid}")
            first = yield from ctrl.async_read(tc, chain, 0, 4, buf)
            yield from first.wait()
            got["first_ok"] = first.ok
            second = yield from ctrl.async_read(tc, chain, 0, 4, buf)
            yield from second.wait()
            got["second_ok"] = second.ok
            got["byte"] = int(second.view[0])
            # The retry re-registered ownership; the failed fill's entry is
            # gone, so this is a fresh one that release retires normally.
            got["reregistered"] = ctrl.share_table.entry((0, 4)) is not None
            yield from ctrl.release_buffer(tc, chain, second)

        run_kernel(host, body, block=1)
        assert got["first_ok"] is False
        assert got["second_ok"] is True
        assert got["byte"] == 0x66
        assert got["reregistered"] is True
        assert host.trace.counter("ctrl")["async_read_failures"] == 1
        assert host.trace.counter("share")["share_fill_failures"] == 1
        assert host.share_table.entry((0, 4)) is None  # released -> retired


class TestCircuitBreaker:
    def test_breaker_opens_and_fails_fast(self):
        """With every CQE dropped, retries exhaust, the breaker opens, the
        waiter gets a synthetic ABORTED completion, and the *next* submit
        fails immediately with DeviceDeadError + diagnostics."""
        host = make_host(
            faults=FaultConfig(cqe_drop_rate=1.0),
            recovery=RecoveryConfig(
                enabled=True,
                command_timeout_ns=100_000.0,
                scan_interval_ns=25_000.0,
                max_retries=1,
                retry_backoff_ns=5_000.0,
                breaker_threshold=2,
            ),
        )
        dest = host.alloc_view(4096)
        outcome = {}

        def body(tc, ctrl):
            chain = AgileLockChain(f"t{tc.tid}")
            txn = yield from ctrl.raw_read(tc, chain, 0, 1, dest)
            outcome["completion"] = yield from txn.wait()
            try:
                yield from ctrl.raw_read(tc, chain, 0, 2, dest)
            except DeviceDeadError as exc:
                outcome["dead"] = str(exc)

        run_kernel(host, body, block=1)
        assert outcome["completion"].status is Status.ABORTED
        assert not outcome["completion"].ok
        assert "circuit breaker open" in outcome["dead"]
        rec = host.trace.counter("recovery")
        assert rec["breakers_opened"] == 1
        assert rec["commands_failed"] >= 1
        io = host.trace.counter("io")
        assert io["failed_fast"] == 1
        assert host.recovery.breakers[0].open
        assert "consecutive failures" in host.recovery.dead_reason(0)
        assert host.issue.inflight() == 0

    def test_a_failed_fast_async_read_leaves_no_entry_to_join(self):
        """A fail-fast submit issues nothing, so the Share Table entry its
        miss registered is retired before the error leaves ``async_read``:
        a second thread's read of the same page misses and fails fast too,
        instead of joining a fill that never comes."""
        host = make_host(recovery=FAST_RECOVERY)
        host.recovery.breakers[0].open = True
        bufs = [host.make_buffer() for _ in range(2)]
        errors = {}

        def body(tc, ctrl):
            chain = AgileLockChain(f"t{tc.tid}")
            yield from tc.compute(1_000.0 * tc.tid)  # thread 1 reads second
            try:
                got = yield from ctrl.async_read(tc, chain, 0, 7, bufs[tc.tid])
                errors[tc.tid] = f"joined {got.label}"
            except DeviceDeadError as exc:
                errors[tc.tid] = type(exc).__name__

        run_kernel(host, body, block=2)
        assert errors == {0: "DeviceDeadError", 1: "DeviceDeadError"}
        assert host.share_table.entry((0, 7)) is None
        assert bufs[0].failed and bufs[0].source is None
        assert host.trace.counter("io")["failed_fast"] == 2
