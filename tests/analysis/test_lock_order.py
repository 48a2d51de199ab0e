"""Lock-order analysis over real simulated lock traffic (paper §3.5).

The central claim: a genuine A->B / B->A inversion is reported *even when
the run never deadlocks* because the two processes touched the locks at
disjoint simulated times — strictly stronger than the runtime
LockDebugger, which only fires when the inversion actually blocks.
"""

from __future__ import annotations

import pytest

from repro.analysis import LockOrderAnalyzer, analyze
from repro.core.locks import AgileLock, AgileLockChain, LockDebugger
from repro.sim.engine import Timeout

from tests.helpers import record


@pytest.fixture
def traced():
    return LockDebugger()


@pytest.fixture
def log(sim, traced):
    return record(sim, traced)


def _locker(lock_x, lock_y, chain, hold_ns=10.0):
    """Acquire x then y, hold briefly, release in LIFO order."""

    def proc():
        yield from lock_x.acquire(chain)
        yield Timeout(hold_ns)
        yield from lock_y.acquire(chain)
        yield Timeout(hold_ns)
        lock_y.release(chain)
        lock_x.release(chain)

    return proc()


class TestInversionDetection:
    def test_ab_ba_inversion_names_both_processes_and_locks(self, sim, traced, log):
        """proc_fwd takes A->B at t=0; proc_rev takes B->A starting t=1000.
        They never contend, the run completes cleanly, and the analyzer
        still reports the latent deadlock with full attribution."""
        lock_a = AgileLock(sim, "lockA", traced)
        lock_b = AgileLock(sim, "lockB", traced)
        fwd = AgileLockChain("proc_fwd")
        rev = AgileLockChain("proc_rev")

        def reversed_later():
            yield Timeout(1000.0)  # long after proc_fwd released everything
            yield from _locker(lock_b, lock_a, rev)

        sim.spawn(_locker(lock_a, lock_b, fwd), name="fwd")
        sim.spawn(reversed_later(), name="rev")
        sim.run()  # completes: no deadlock in THIS interleaving

        inversions = LockOrderAnalyzer().feed(
            log.events()
        ).inversions()
        assert len(inversions) == 1
        inv = inversions[0]
        assert {inv.lock_a, inv.lock_b} == {"lockA", "lockB"}
        forward_chains = {c for c, _t in inv.forward_chains}
        reverse_chains = {c for c, _t in inv.reverse_chains}
        assert forward_chains == {"proc_fwd"}
        assert reverse_chains == {"proc_rev"}
        text = inv.describe()
        assert "proc_fwd" in text and "proc_rev" in text
        assert "lockA" in text and "lockB" in text

    def test_consistent_order_is_clean(self, sim, traced, log):
        lock_a = AgileLock(sim, "lockA", traced)
        lock_b = AgileLock(sim, "lockB", traced)
        for i in range(4):
            sim.spawn(
                _locker(lock_a, lock_b, AgileLockChain(f"w{i}")), name=f"w{i}"
            )
        sim.run()
        analyzer = LockOrderAnalyzer().feed(log.events())
        assert analyzer.acquisitions == 8
        assert analyzer.inversions() == []
        assert analyzer.cycles() == []

    def test_three_lock_cycle_caught_by_cycle_search(self, sim, traced, log):
        """A->B, B->C, C->A: no pairwise inversion exists, only the DFS
        cycle search sees the length-3 latent deadlock."""
        locks = {n: AgileLock(sim, n, traced) for n in ("A", "B", "C")}

        def staggered(first, second, chain_name, start):
            chain = AgileLockChain(chain_name)

            def proc():
                yield Timeout(start)
                yield from _locker(locks[first], locks[second], chain)

            return proc()

        sim.spawn(staggered("A", "B", "p0", 0.0), name="p0")
        sim.spawn(staggered("B", "C", "p1", 500.0), name="p1")
        sim.spawn(staggered("C", "A", "p2", 1000.0), name="p2")
        sim.run()

        analyzer = LockOrderAnalyzer().feed(log.events())
        assert analyzer.inversions() == []  # pairwise is blind here
        cycles = analyzer.cycles()
        assert len(cycles) == 1
        assert set(cycles[0]) == {"A", "B", "C"}

    def test_full_report_flags_inversion_as_not_clean(self, sim, traced, log):
        lock_a = AgileLock(sim, "lockA", traced)
        lock_b = AgileLock(sim, "lockB", traced)

        def rev_later():
            yield Timeout(1000.0)
            yield from _locker(lock_b, lock_a, AgileLockChain("rev"))

        sim.spawn(_locker(lock_a, lock_b, AgileLockChain("fwd")), name="f")
        sim.spawn(rev_later(), name="r")
        sim.run()
        report = analyze(log)
        assert not report.clean
        assert "lock-order inversion" in report.summary()


class TestCycleReportOrder:
    def test_dynamic_cycles_canonical(self):
        an = LockOrderAnalyzer()
        an._edges = {
            ("y", "z"): {("c1", 1.0)},
            ("z", "x"): {("c1", 2.0)},
            ("x", "y"): {("c1", 3.0)},
        }
        assert an.cycles() == [["x", "y", "z", "x"]]


def _early_return(lock, chain, bail):
    """A kernel in which one path to the exit skips the release."""

    def proc():
        yield from lock.acquire(chain)
        yield Timeout(10.0)
        if bail:
            return
        lock.release(chain)

    return proc()


class TestLeakedLock:
    """A lock nobody contends for trips neither the LockDebugger nor the
    watchdog; the offline replay reports it held at the end of the log."""

    def test_kernel_that_returns_with_a_lock_held(self, sim, traced, log):
        lock = AgileLock(sim, "sqdb.s1.q0", traced)
        sim.spawn(_early_return(lock, AgileLockChain("t0"), bail=False))
        sim.run()
        assert analyze(log).clean

        sim.spawn(_early_return(lock, AgileLockChain("t1"), bail=True))
        sim.run()  # completes: nobody else wants the lock
        report = analyze(log)
        assert not report.clean
        assert report.leaks == [
            "lock 'sqdb.s1.q0' acquired by t1 at t=10 was never released"
        ]
        assert report.leaks[0] in report.summary()
        assert not (report.inversions or report.cycles or report.races)

    def test_release_whose_acquire_fell_off_the_log_is_ignored(self, sim):
        debugger = LockDebugger()
        log = record(sim, debugger, maxlen=1)  # keeps only the release
        lock = AgileLock(sim, "cacheset0", debugger)
        sim.spawn(_early_return(lock, AgileLockChain("t0"), bail=False))
        sim.run()
        assert [e.kind for e in log.events()] == ["lock.release"]
        report = analyze(log)
        assert report.clean
        assert report.events_dropped == 1
        assert "analyzed 1 events (1 older ones dropped)" in report.summary()

    def test_deadlocked_run_ends_with_its_locks_held(self, sim, traced, log):
        """Figure 1's naive engine deadlocks *by design*, so a log of it
        ends with locks held and its tests (tests/core/test_deadlock.py,
        tests/faults/test_naive_dropped_cqe.py) judge the DeadlockError /
        stall report, never ``report.clean``.  The leak list is then the
        set of locks the deadlocked chains held."""
        from repro.core import DeadlockError
        from repro.sim import SimError

        lock_a = AgileLock(sim, "lockA", traced)
        lock_b = AgileLock(sim, "lockB", traced)
        sim.spawn(_locker(lock_a, lock_b, AgileLockChain("fwd")), name="f")
        sim.spawn(_locker(lock_b, lock_a, AgileLockChain("rev")), name="r")
        with pytest.raises(SimError) as excinfo:
            sim.run()
        assert isinstance(excinfo.value.__cause__, DeadlockError)
        leaks = analyze(log).leaks
        assert len(leaks) == 2 and "'lockA'" in leaks[0] and "'lockB'" in leaks[1]

    def test_leak_in_a_storm_kernel_flips_analysis_clean(
        self, monkeypatch, tmp_path
    ):
        """End to end: one storm thread leaves an uncontended lock held.
        Every other liveness check still holds; ``analysis_clean`` and the
        exit code flip."""
        import json

        from repro.bench.__main__ import main
        from repro.faults import storm

        from tests.serve.test_experiments import cli_args

        out = tmp_path / "storm.json"
        assert main([*cli_args("storm"), "--out", str(out)]) == 0

        def leaky_stage(host, spec, outcomes, honest=storm._stage_storm):
            body = honest(host, spec, outcomes)
            lock = AgileLock(host.sim, "leaked", host.debugger)

            def leaky_body(tc, ctrl):
                yield from body(tc, ctrl)
                if tc.tid == 0:
                    yield from lock.acquire(AgileLockChain("storm.t0"))

            return leaky_body

        monkeypatch.setattr(storm, "_stage_storm", leaky_stage)
        assert main([*cli_args("storm"), "--out", str(out)]) == 1
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert [n for n, c in checks.items() if not c["ok"]] == ["analysis_clean"]
        assert "lock 'leaked' acquired by storm.t0" in checks["analysis_clean"]["detail"]


class TestRealProtocolLockOrder:
    def test_issue_path_lock_order_is_consistent(self):
        """The real AGILE issue path (SQ slot -> doorbell lock) must show a
        consistent global acquisition order across a whole workload."""
        import numpy as np

        from repro.analysis import attach
        from repro.core import AgileLockChain as Chain

        from tests.helpers import make_host, run_kernel

        host = make_host()
        session = attach(host)
        host.load_data(0, 0, np.arange(8 * 1024, dtype=np.uint32))

        def body(tc, ctrl):
            chain = Chain(f"t{tc.tid}")
            line = yield from ctrl.read_page(tc, chain, 0, tc.tid % 8)
            yield from ctrl.cache.read_line(tc, line, 64)
            ctrl.cache.unpin(line)

        run_kernel(host, body, grid=1, block=16)
        analyzer = LockOrderAnalyzer().feed(session.log.events())
        assert analyzer.acquisitions > 0
        assert analyzer.inversions() == []
        assert analyzer.cycles() == []
