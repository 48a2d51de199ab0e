"""Seeded violations of every runtime invariant checker class.

Each test proves its checker fails *loudly*: either by feeding the exact
event a buggy model would emit, or by breaking a real model and running
the real protocol until the checker fires inside the model call.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.analysis import InvariantViolation, attach
from repro.baselines import BamHost
from repro.analysis.invariants import (
    CacheStateChecker,
    CqPhaseChecker,
    ShareTableChecker,
    SqConformanceChecker,
)
from repro.config import GpuConfig, PcieConfig
from repro.core import AgileHost, AgileLockChain
from repro.core.cache import LineState
from repro.gpu import KernelSpec, LaunchConfig
from repro.core.sharetable import BufState
from repro.mem import Hbm
from repro.nvme.command import NvmeCompletion
from repro.nvme.queue import make_queue_pair
from repro.sim.probe import Probe

from tests.helpers import make_host, run_kernel, small_config


class _FakeQueue:
    """Stands in for an SQ/CQ as the ``src`` of synthetic events."""

    def __init__(self, depth: int = 4):
        self.depth = depth


@pytest.fixture
def probe(sim):
    return Probe(sim)


class TestSqConformance:
    def test_cid_reuse_while_in_flight_fires(self, probe):
        checker = SqConformanceChecker().attach(probe)
        src = _FakeQueue()
        probe.emit("sq.publish", src=src, qid=0, slot=1, cid=1)
        with pytest.raises(InvariantViolation, match="CID 1 reused"):
            probe.emit("sq.publish", src=src, qid=0, slot=1, cid=1)
        assert checker.events_checked == 2

    def test_cid_may_be_reused_after_release(self, probe):
        SqConformanceChecker().attach(probe)
        src = _FakeQueue()
        probe.emit("sq.publish", src=src, qid=0, slot=1, cid=1)
        probe.emit("sq.release", src=src, qid=0, slot=1, occupancy=0)
        probe.emit("sq.publish", src=src, qid=0, slot=1, cid=1)  # fine

    def test_issued_tail_regression_fires(self, probe):
        SqConformanceChecker().attach(probe)
        src = _FakeQueue()
        probe.emit("sq.advance", src=src, qid=0, tail=4, alloc_tail=4)
        with pytest.raises(InvariantViolation, match="regressed"):
            probe.emit("sq.advance", src=src, qid=0, tail=2, alloc_tail=4)

    def test_doorbell_ahead_of_visible_sqes_fires(self, sim, probe):
        """The §2.3.3 hazard: ringing a tail beyond the ISSUED entries."""
        hbm = Hbm(sim, GpuConfig(), capacity=1 << 20)
        qp = make_queue_pair(
            sim, 0, 4, hbm.alloc(4 * 64), hbm.alloc(4 * 16), PcieConfig()
        )
        qp.sq.probe = probe
        qp.sq.doorbell.probe = probe
        SqConformanceChecker().attach(probe)
        qp.sq.try_reserve()
        qp.sq.try_reserve()
        probe.emit("sq.advance", src=qp.sq, qid=0, tail=1, alloc_tail=2)

        def ring():
            yield from qp.sq.doorbell.ring(2)  # tail 2 but only 1 ISSUED

        proc = sim.spawn(ring(), name="ring")
        with pytest.raises(Exception) as excinfo:
            sim.run(until_procs=[proc])
        assert "memory-visible" in str(excinfo.value) or "memory-visible" in (
            str(excinfo.value.__cause__)
        )


class TestCqPhase:
    def test_wrong_phase_bit_fires(self, probe):
        CqPhaseChecker().attach(probe)
        src = _FakeQueue(depth=4)
        for pos in range(4):  # pass 0: phase True
            probe.emit(
                "cq.post", src=src, qid=0, pos=pos, slot=pos, phase=True,
                cid=pos, sq_id=0, head_doorbell=pos, occupancy=0,
            )
        # Pass 1 must flip the phase to False; a stale True is a violation.
        with pytest.raises(InvariantViolation, match="phase bit"):
            probe.emit(
                "cq.post", src=src, qid=0, pos=4, slot=0, phase=True,
                cid=0, sq_id=0, head_doorbell=4, occupancy=0,
            )

    def test_non_consecutive_post_fires(self, probe):
        CqPhaseChecker().attach(probe)
        src = _FakeQueue(depth=4)
        probe.emit("cq.post", src=src, qid=0, pos=0, slot=0, phase=True,
                 cid=0, sq_id=0, head_doorbell=0, occupancy=0)
        with pytest.raises(InvariantViolation, match="expected 1"):
            probe.emit("cq.post", src=src, qid=0, pos=2, slot=2, phase=True,
                     cid=2, sq_id=0, head_doorbell=0, occupancy=0)

    def test_overwrite_of_unconsumed_entry_fires(self, probe):
        CqPhaseChecker().attach(probe)
        src = _FakeQueue(depth=2)
        probe.emit("cq.post", src=src, qid=0, pos=0, slot=0, phase=True,
                 cid=0, sq_id=0, head_doorbell=0, occupancy=0)
        probe.emit("cq.post", src=src, qid=0, pos=1, slot=1, phase=True,
                 cid=1, sq_id=0, head_doorbell=0, occupancy=0)
        with pytest.raises(InvariantViolation, match="overwrites"):
            probe.emit("cq.post", src=src, qid=0, pos=2, slot=0, phase=False,
                     cid=0, sq_id=0, head_doorbell=0, occupancy=0)

    def test_buggy_model_phase_caught_end_to_end(self, sim, probe):
        """Break the real CompletionQueue's phase computation and drive the
        real post path: the checker must fail the device_post call."""
        hbm = Hbm(sim, GpuConfig(), capacity=1 << 20)
        qp = make_queue_pair(
            sim, 0, 2, hbm.alloc(2 * 64), hbm.alloc(2 * 16), PcieConfig()
        )
        cq = qp.cq
        cq.probe = probe
        CqPhaseChecker().attach(probe)
        cq._phase_at = lambda pos: True  # the seeded bug: phase never flips
        for pos in range(2):
            cq.device_post(NvmeCompletion(cid=0, sq_id=0, sq_head=0))
            cq.consume_to(pos + 1)
            cq.doorbell.device_value = pos + 1  # host rang the head doorbell
        with pytest.raises(InvariantViolation, match="phase bit"):
            cq.device_post(NvmeCompletion(cid=0, sq_id=0, sq_head=0))


class TestCacheState:
    def test_illegal_transition_fires(self, probe):
        CacheStateChecker().attach(probe)
        with pytest.raises(InvariantViolation, match="BUSY -> MODIFIED"):
            probe.emit(
                "cache.state", src=None, line=3, set=0, way=3,
                old=LineState.BUSY, new=LineState.MODIFIED, tag=(0, 7),
                reason="seeded",
            )

    def test_real_cache_illegal_transition_fires(self):
        """Drive the real funnel: writing a BUSY line is the classic bug
        (data lands, then the in-flight fill silently overwrites it)."""
        host = make_host()
        session = attach(host)
        # INVALID -> BUSY: legal
        line, _wb = host.cache._claim_way(0, (0, 0))
        assert line.state is LineState.BUSY
        with pytest.raises(InvariantViolation):
            host.cache.set_line_state(line, LineState.MODIFIED, reason="bug")
        assert session.events_seen >= 2

    def test_unpinned_write_fires(self, probe):
        checker = CacheStateChecker().attach(probe)
        probe.emit("cache.access", line=3, tag=(0, 5), tid=0, pinned=True)
        with pytest.raises(InvariantViolation, match="without a pin"):
            probe.emit("cache.access", line=3, tag=(0, 5), tid=1, pinned=False)
        assert checker.events_checked == 2 and checker.transitions == 0

    def test_real_unpinned_write_fails_inside_the_call(self):
        """A cached page written without its pin (§2.3.2) fails inside the
        write: one thread, no second access needed."""
        host = make_host()
        host.preload_cache(0, [4])

        def body(tc, ctrl):
            chain = AgileLockChain("t")
            line = yield from ctrl.cache.acquire(tc, chain, 0, 4, pin=False)
            with pytest.raises(InvariantViolation, match="thread 0 wrote"):
                yield from ctrl.cache.write_line(tc, line, np.ones(8, np.uint8))

        run_kernel(host, body, block=1)

    def test_legal_lifecycle_is_silent(self, probe):
        checker = CacheStateChecker().attach(probe)
        legal = [
            (LineState.INVALID, LineState.BUSY),
            (LineState.BUSY, LineState.READY),
            (LineState.READY, LineState.MODIFIED),
            (LineState.MODIFIED, LineState.BUSY),
        ]
        for old, new in legal:
            probe.emit("cache.state", src=None, line=0, set=0, way=0,
                     old=old, new=new, tag=(0, 0), reason="t")
        assert checker.transitions == len(legal)


class TestShareTable:
    def test_illegal_transition_fires(self, probe):
        ShareTableChecker().attach(probe)
        with pytest.raises(InvariantViolation, match="OWNED -> EXCLUSIVE"):
            probe.emit(
                "share.state", src=None, tag=(0, 1), old=BufState.OWNED,
                new=BufState.EXCLUSIVE, refcount=1, owner_tid=0, reason="s",
            )

    def test_invalidate_with_live_references_fires(self, probe):
        ShareTableChecker().attach(probe)
        with pytest.raises(InvariantViolation, match="refcount 2"):
            probe.emit(
                "share.state", src=None, tag=(0, 1), old=BufState.SHARED,
                new=BufState.INVALID, refcount=2, owner_tid=0, reason="s",
            )

    def test_two_live_owners_fires(self, probe):
        ShareTableChecker().attach(probe)
        with pytest.raises(InvariantViolation, match="two owners"):
            probe.emit(
                "share.register", src=None, tag=(0, 1), owner_tid=5,
                replaced_refcount=1, replaced_same_buf=False,
            )


class TestEndToEndClean:
    def test_every_suite_machine_runs_under_the_session(self):
        """The suite arms the ``analysis`` role for every test
        (tests/conftest.py): a host nobody attached to is judged too."""
        host = make_host()
        host.load_data(0, 3, np.full(4096, 7, dtype=np.uint8))
        buf = host.alloc_view(4096)

        def body(tc, ctrl):
            txn = yield from ctrl.raw_read(tc, AgileLockChain("t"), 0, 3, buf)
            yield from txn.wait()

        run_kernel(host, body, block=1)
        assert buf[0] == 7
        assert host.analysis is not None
        assert host.analysis.events_checked() > 0

    def test_real_workload_passes_all_checkers(self):
        """A real cached-read workload emits hundreds of protocol events and
        every checker stays silent; the offline report is clean too."""
        host = make_host()
        session = attach(host)
        pages = 16
        host.load_data(0, 0, np.arange(pages * 1024, dtype=np.uint32))

        def body(tc, ctrl):
            chain = AgileLockChain(f"clean.t{tc.tid}")
            for i in range(3):
                line = yield from ctrl.read_page(
                    tc, chain, 0, (tc.tid + i) % pages
                )
                yield from tc.hbm_load(64)  # copy out of the pinned line
                ctrl.cache.unpin(line)

        run_kernel(host, body, grid=1, block=32)
        assert session.events_seen > 100
        assert session.events_checked() > 0
        report = session.report()
        assert report.clean, report.summary()

    @pytest.mark.parametrize(
        "host_cls", [AgileHost, BamHost, partial(AgileHost, num_gpus=2)],
        ids=["agile", "bam", "agile-2gpu"],
    )
    def test_every_host_kind_is_checked(self, host_cls):
        """The machine's one walk reaches every host kind's rings,
        doorbells, locks and caches, so the checkers judge BaM and
        multi-GPU runs too."""
        host = host_cls(small_config())
        session = attach(host)
        host.load_data(0, 0, np.arange(16 * 1024, dtype=np.uint32))

        def body(tc, ctrl):
            chain = AgileLockChain(f"kinds.t{tc.tid}")
            line = yield from ctrl.read_page(tc, chain, 0, tc.tid % 16)
            ctrl.cache.unpin(line)

        kernel = KernelSpec(name="kinds", body=body, registers_per_thread=48)
        with host:
            if len(host.gpus) > 1:
                host.run_kernels(kernel, LaunchConfig(1, 32), [(), ()])
            else:
                host.run_kernel(kernel, LaunchConfig(1, 32))
            host.drain()
        sq, cq, cache = session.checkers[:3]
        assert sq.events_checked > 0 and cq.events_checked > 0
        assert cache.events_checked > 0
        report = session.report()
        assert report.clean, report.summary()
