"""Lock discipline over real simulated lock traffic (paper §3.5).

AGILE and BaM hold one ``AgileLock`` at a time, so no order of two locks
can ever invert on them; a test-side reader of each ``lock.acquire``
record's ``held_before`` pins that.  The analysis session's held-lock map
names every lock a run ends with, which the runtime LockDebugger cannot
see when nobody else wants the lock.
"""

from __future__ import annotations

import pytest

from repro.analysis import AnalysisSession, attach
from repro.bench.__main__ import EXPERIMENTS
from repro.core.locks import AgileLock, AgileLockChain, LockDebugger
from repro.sim.engine import Timeout
from repro.sim.probe import Probe, listening

from tests.serve.test_experiments import MINI


@pytest.fixture
def traced():
    return LockDebugger()


def analyse(sim, debugger):
    """Hand ``debugger`` a probe with an analysis session on it."""
    debugger.probe = Probe(sim)
    return AnalysisSession().attach(debugger.probe)


@pytest.fixture
def session(sim, traced):
    return analyse(sim, traced)


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
    watchdog; the analysis session reports it held at the end of the run."""

    def test_kernel_that_returns_with_a_lock_held(self, sim, traced, session):
        lock = AgileLock(sim, "sqdb.s1.q0", traced)
        sim.spawn(_early_return(lock, AgileLockChain("t0"), bail=False))
        sim.run()
        assert session.report().clean

        sim.spawn(_early_return(lock, AgileLockChain("t1"), bail=True))
        sim.run()  # completes: nobody else wants the lock
        report = session.report()
        assert not report.clean
        assert report.leaks == [
            "lock 'sqdb.s1.q0' acquired by t1 at t=10 was never released"
        ]
        assert report.leaks[0] in report.summary()

    def test_release_of_a_lock_held_before_attach_is_ignored(self, sim):
        debugger = LockDebugger()
        lock = AgileLock(sim, "cacheset0", debugger)
        sim.spawn(_early_return(lock, AgileLockChain("t0"), bail=False))
        sim.run(until=5.0)  # the lock is held until t=10
        session = analyse(sim, debugger)
        sim.run()
        report = session.report()
        assert report.clean
        assert report.summary().startswith("analyzed 1 events: ")

    def test_deadlocked_run_ends_with_its_locks_held(self, sim, traced, session):
        """Figure 1's naive engine deadlocks *by design*, so a run of it
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
        leaks = session.report().leaks
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


def _nested(host, found):
    """Subscribe a reader of ``host``'s ``lock.acquire`` records: it books
    the host kind, counts acquisitions and keeps every one made while
    another lock was held."""
    kind, acquired, nested = type(host).__name__, [0], []
    found.append((kind, acquired, nested))

    def acquire(record):
        acquired[0] += 1
        if record["held_before"]:
            nested.append((record["held_before"], record["lock"]))

    host.instrument().subscribe("lock.acquire", acquire)


def _acquisitions(name, sets):
    """``(host class, [acquisitions], nested acquisitions)`` of every
    machine one run of experiment ``name`` builds, each under the full
    analysis session."""
    found = []

    def build(host):
        attach(host)
        _nested(host, found)

    with listening("analysis", build):
        exp = EXPERIMENTS[name]
        exp.run(*exp.configure(sets))
    return found


class TestOneLockAtATime:
    """AGILE and BaM never hold two ``AgileLock``s at once (the
    ``core/locks.py`` claim), so no acquisition of theirs names a held
    lock; only the naive Figure 1 baseline, which holds SQE locks across
    issues, nests."""

    @pytest.mark.parametrize("name, sets, hosts", [
        ("fig11", MINI["fig11"], {"AgileHost", "BamHost"}),
        ("write-path", MINI["write-path"], {"AgileHost"}),
        ("storm", ["intensity=0"], {"AgileHost"}),
    ])
    def test_agile_and_bam_acquire_with_nothing_held(self, name, sets, hosts):
        found = _acquisitions(name, sets)
        assert {host for host, _, _ in found} == hosts
        for host in hosts:
            assert sum(n[0] for h, n, _ in found if h == host) > 0
        assert [nested for _, _, nested in found if nested] == []

    @pytest.mark.parametrize("planted", [False, True])
    def test_cached_read_kernel(self, monkeypatch, planted):
        """The AGILE issue path (SQ slot -> doorbell lock) of a cached-read
        kernel acquires with nothing held; planting a lock held around the
        doorbell ring shows in ``held_before``."""
        import numpy as np

        from repro.core.issue import IssueEngine

        from tests.helpers import make_host, run_kernel

        host = make_host()
        if planted:
            outer = AgileLock(host.sim, "outer", host.debugger)
            honest = IssueEngine.publish_and_ring

            def nested(self, tc, chain, *args):
                yield from outer.acquire(chain)
                yield from honest(self, tc, chain, *args)
                outer.release(chain)

            monkeypatch.setattr(IssueEngine, "publish_and_ring", nested)
        found = []
        _nested(host, found)
        host.load_data(0, 0, np.arange(8 * 1024, dtype=np.uint32))

        def body(tc, ctrl):
            chain = AgileLockChain(f"t{tc.tid}")
            line = yield from ctrl.read_page(tc, chain, 0, tc.tid % 8)
            yield from tc.hbm_load(64)  # copy out of the pinned line
            ctrl.cache.unpin(line)

        run_kernel(host, body, grid=1, block=16)
        [(_, acquired, held)] = found
        assert acquired[0] > 0 and bool(held) == planted

    def test_naive_cell_acquires_with_a_lock_held(self):
        """The reader can fire: the naive engine rings its doorbell while
        its SQE lock is held."""
        found = _acquisitions(
            "serve-sweep",
            ["duration_ns=1e6", "system=naive", "target_rps=20000"],
        )
        assert sum(len(nested) for _, _, nested in found) > 0
