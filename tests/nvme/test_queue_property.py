"""Property tests for the NVMe ring protocol under random interleavings.

hypothesis drives an arbitrary sequence of submit/complete steps against
one queue pair while a reference model tracks what the protocol *must*
guarantee: CID uniqueness among outstanding commands, phase-bit discipline
across ring wraps, FIFO fetch order, and pointer bounds.  The doorbell
delivery that normally takes simulated PCIe time is synced manually so
the whole protocol state machine can be exercised without an event loop.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GpuConfig, PcieConfig
from repro.mem import Hbm
from repro.nvme.command import NvmeCommand, NvmeCompletion, Opcode
from repro.nvme.queue import SlotState, make_queue_pair
from repro.sim import Simulator

DEPTH = 4

#: One interleaving step: True = try to submit, False = try to complete.
steps = st.lists(st.booleans(), min_size=1, max_size=200)


def fresh_pair():
    sim = Simulator()
    hbm = Hbm(sim, GpuConfig(), capacity=1 << 20)
    qp = make_queue_pair(
        sim, 0, DEPTH, hbm.alloc(DEPTH * 64), hbm.alloc(DEPTH * 16),
        PcieConfig(),
    )
    return sim, qp


class Driver:
    """Host+device both ends of one queue pair, with instant doorbells."""

    def __init__(self, qp):
        self.qp = qp
        self.host_cq_pos = 0  # monotonic CQ poll position
        self.outstanding_cids: set[int] = set()
        self.submitted_fifo: list[int] = []  # CIDs in submission order
        self.fetched_fifo: list[int] = []    # CIDs in device-fetch order
        self.phase_log: list[tuple[int, bool]] = []  # (pos, phase) of CQEs

    def try_submit(self) -> bool:
        sq = self.qp.sq
        reserved = sq.try_reserve()
        if reserved is None:
            # Full is the only legal reason.
            assert SlotState.EMPTY not in sq.state
            return False
        slot, cid = reserved
        # Protocol invariant: the CID handed out is not in flight.
        assert cid not in self.outstanding_cids
        sq.publish(slot, NvmeCommand(opcode=Opcode.READ, cid=cid, lba=cid))
        tail = sq.advance_tail()
        assert tail is not None
        sq.doorbell.device_value = tail  # instant MMIO delivery
        self.outstanding_cids.add(cid)
        self.submitted_fifo.append(cid)
        return True

    def try_complete(self) -> bool:
        """Device fetches one command, posts its CQE; host consumes it."""
        sq, cq = self.qp.sq, self.qp.cq
        if sq.device_pending() <= 0 or not cq.device_try_reserve():
            return False
        cmd = sq.device_fetch()
        self.fetched_fifo.append(cmd.cid)
        cq.device_post(
            NvmeCompletion(cid=cmd.cid, sq_id=cmd.sq_id, sq_head=sq.fetch_head)
        )
        self.phase_log.append(
            (cq.device_tail - 1, cq.slots[(cq.device_tail - 1) % DEPTH].phase)
        )
        # Host side: poll, release the SQ slot, ring the CQ head doorbell.
        completion = cq.peek(self.host_cq_pos)
        assert completion is not None, "posted CQE must be phase-visible"
        assert completion.cid in self.outstanding_cids
        sq.release(completion.cid)  # CID == slot index
        self.outstanding_cids.discard(completion.cid)
        self.host_cq_pos += 1
        cq.consume_to(self.host_cq_pos)
        cq.doorbell.device_value = self.host_cq_pos
        return True


@given(plan=steps)
@settings(max_examples=150, deadline=None)
def test_random_interleavings_preserve_protocol(plan):
    _sim, qp = fresh_pair()
    drv = Driver(qp)
    for do_submit in plan:
        if do_submit:
            drv.try_submit()
        else:
            drv.try_complete()
        # Global invariants after every step:
        assert qp.sq.issued_tail <= qp.sq.alloc_tail
        assert qp.sq.fetch_head <= qp.sq.doorbell.device_value
        assert len(drv.outstanding_cids) <= DEPTH
        assert qp.cq.device_tail - qp.cq.doorbell.device_value <= DEPTH
    # Device fetched in exact submission order (single SQ is FIFO).
    assert drv.fetched_fifo == drv.submitted_fifo[: len(drv.fetched_fifo)]
    # Phase bits follow pass parity at every posted position.
    for pos, phase in drv.phase_log:
        assert phase == ((pos // DEPTH) % 2 == 0)


@given(plan=steps)
@settings(max_examples=100, deadline=None)
def test_stale_phase_never_matches(plan):
    """peek() beyond what was posted must return None even though the ring
    memory still holds old CQEs from the previous pass."""
    _sim, qp = fresh_pair()
    drv = Driver(qp)
    for do_submit in plan:
        (drv.try_submit if do_submit else drv.try_complete)()
        assert qp.cq.peek(drv.host_cq_pos) is None or (
            drv.host_cq_pos < qp.cq.device_tail
        )


def test_phase_bit_flips_across_three_wraps():
    """Drain the pair one command at a time through >= 3 full ring wraps
    and check the phase bit toggles exactly at each wrap boundary."""
    _sim, qp = fresh_pair()
    drv = Driver(qp)
    total = DEPTH * 3 + 2
    for _ in range(total):
        assert drv.try_submit()
        assert drv.try_complete()
    assert [pos for pos, _ in drv.phase_log] == list(range(total))
    for pos, phase in drv.phase_log:
        expected = (pos // DEPTH) % 2 == 0
        assert phase == expected
    # And all slots came back EMPTY: the lifecycle closed for every command.
    assert all(s is SlotState.EMPTY for s in qp.sq.state)
    assert drv.outstanding_cids == set()


def test_cid_reuse_only_after_completion():
    """Fill the queue: every CID distinct.  Complete one: its CID (and only
    its CID) becomes available again."""
    _sim, qp = fresh_pair()
    drv = Driver(qp)
    for _ in range(DEPTH):
        assert drv.try_submit()
    assert len(drv.outstanding_cids) == DEPTH
    assert not drv.try_submit()  # full: no CID available
    assert drv.try_complete()  # frees exactly the oldest CID
    freed = drv.submitted_fifo[0]
    assert freed not in drv.outstanding_cids
    assert drv.try_submit()
    assert drv.submitted_fifo[-1] == freed  # the freed CID is what came back
