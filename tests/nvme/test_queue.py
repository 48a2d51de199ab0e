"""Tests for SQ/CQ ring semantics: slot life cycle, tail scan, phase bits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import GpuConfig, PcieConfig
from repro.mem import Hbm
from repro.nvme import (
    CompletionQueue,
    NvmeCommand,
    NvmeCompletion,
    Opcode,
    SlotState,
    SubmissionQueue,
)
from repro.nvme.queue import make_queue_pair
from repro.sim import SimError, Simulator


@pytest.fixture
def qp(sim):
    hbm = Hbm(sim, GpuConfig(), capacity=1 << 20)
    return make_queue_pair(
        sim, 0, 4, hbm.alloc(4 * 64), hbm.alloc(4 * 16), PcieConfig()
    )


def _cmd(cid: int) -> NvmeCommand:
    return NvmeCommand(opcode=Opcode.READ, cid=cid, lba=cid)


class TestSubmissionQueue:
    def test_reserve_until_full(self, qp):
        sq = qp.sq
        slots = [sq.try_reserve() for _ in range(4)]
        assert [s for s, _ in slots] == [0, 1, 2, 3]
        assert sq.try_reserve() is None  # ring full

    def test_cid_equals_slot(self, qp):
        slot, cid = qp.sq.try_reserve()
        assert cid == slot

    def test_publish_requires_reserved(self, qp):
        with pytest.raises(SimError):
            qp.sq.publish(0, _cmd(0))

    def test_advance_tail_stops_at_gap(self, qp):
        sq = qp.sq
        s0, _ = sq.try_reserve()
        s1, _ = sq.try_reserve()
        s2, _ = sq.try_reserve()
        # Publish slots 0 and 2, leave 1 reserved-but-invisible.
        sq.publish(s0, _cmd(0))
        sq.publish(s2, _cmd(2))
        assert sq.advance_tail() == 1  # only slot 0 becomes ISSUED
        assert sq.state[s0] is SlotState.ISSUED
        assert sq.state[s2] is SlotState.UPDATED
        # Once the gap fills, the scan publishes the rest of the batch.
        sq.publish(s1, _cmd(1))
        assert sq.advance_tail() == 3
        assert sq.advance_tail() is None  # nothing new

    def test_release_requires_issued(self, qp):
        sq = qp.sq
        slot, _ = sq.try_reserve()
        sq.publish(slot, _cmd(0))
        with pytest.raises(SimError):
            sq.release(slot)
        sq.advance_tail()
        sq.release(slot)
        assert sq.state[slot] is SlotState.EMPTY

    def test_slot_reuse_after_release(self, qp):
        sq = qp.sq
        for _ in range(4):
            slot, _ = sq.try_reserve()
            sq.publish(slot, _cmd(slot))
        sq.advance_tail()
        assert sq.try_reserve() is None
        sq.release(0)
        slot, cid = sq.try_reserve()
        assert slot == 0 and cid == 0

    def test_full_when_oldest_slot_still_busy(self, qp):
        """Ring semantics: freeing a *later* slot does not unblock the ring
        if the slot at the allocation position is still outstanding."""
        sq = qp.sq
        for _ in range(4):
            slot, _ = sq.try_reserve()
            sq.publish(slot, _cmd(slot))
        sq.advance_tail()
        sq.release(2)  # out-of-order completion frees slot 2
        # Next allocation position is slot 0, which is still ISSUED.
        assert sq.try_reserve() is None

    def test_device_fetch_follows_doorbell(self, sim, qp):
        sq = qp.sq
        slot, _ = sq.try_reserve()
        sq.publish(slot, _cmd(0))
        tail = sq.advance_tail()
        assert sq.device_pending() == 0  # doorbell not visible yet

        def ring():
            yield from sq.doorbell.ring(tail)

        sim.spawn(ring())
        sim.run()
        assert sq.device_pending() == 1
        cmd = sq.device_fetch()
        assert cmd.cid == 0 and cmd.sq_id == 0
        assert sq.device_pending() == 0

    def test_device_fetch_empty_is_error(self, qp):
        with pytest.raises(SimError):
            qp.sq.device_fetch()

    def test_outstanding_counts_non_empty(self, qp):
        sq = qp.sq
        sq.try_reserve()
        slot, _ = sq.try_reserve()
        sq.publish(slot, _cmd(1))
        assert sum(s is not SlotState.EMPTY for s in sq.state) == 2


class TestCompletionQueue:
    def _completion(self, cid: int) -> NvmeCompletion:
        return NvmeCompletion(cid=cid, sq_id=0, sq_head=0)

    def test_post_and_peek_first_pass(self, qp):
        cq = qp.cq
        cq.device_post(self._completion(3))
        assert cq.peek(0).cid == 3
        assert cq.peek(1) is None

    def test_phase_bit_invalidates_stale_entries(self, qp):
        cq = qp.cq
        # Fill pass 0 (phase True) and consume it.
        for i in range(4):
            cq.device_post(self._completion(i))
        cq.consume_to(4)
        cq.doorbell.device_value = 4  # simulate head doorbell arrival
        # Before the device posts pass-1 entries, peeking pass-1 positions
        # must NOT see the stale pass-0 entries.
        assert cq.peek(4) is None
        cq.device_post(self._completion(9))
        assert cq.peek(4).cid == 9

    def test_device_stalls_when_full(self, qp):
        cq = qp.cq
        for i in range(4):
            cq.device_post(self._completion(i))
        assert not cq.device_has_space()
        with pytest.raises(SimError):
            cq.device_post(self._completion(4))
        cq.doorbell.device_value = 2
        assert cq.device_has_space()

    def test_consume_bounds_checked(self, qp):
        cq = qp.cq
        with pytest.raises(SimError):
            cq.consume_to(1)  # beyond device tail
        cq.device_post(self._completion(0))
        cq.consume_to(1)
        with pytest.raises(SimError):
            cq.consume_to(0)  # backwards


class TestCommandValidation:
    def test_cid_range(self):
        with pytest.raises(ValueError):
            NvmeCommand(opcode=Opcode.READ, cid=0x10000, lba=0)

    def test_num_pages_positive(self):
        with pytest.raises(ValueError):
            NvmeCommand(opcode=Opcode.READ, cid=0, lba=0, num_pages=0)

    def test_negative_lba(self):
        with pytest.raises(ValueError):
            NvmeCommand(opcode=Opcode.READ, cid=0, lba=-1)

    def test_queue_pair_id_mismatch(self, sim):
        hbm = Hbm(sim, GpuConfig(), capacity=1 << 20)
        from repro.mem import Doorbell

        sq = SubmissionQueue(
            sim, 0, 4, hbm.alloc(256), Doorbell(sim, PcieConfig())
        )
        cq = CompletionQueue(
            sim, 1, 4, hbm.alloc(64), Doorbell(sim, PcieConfig())
        )
        from repro.nvme import QueuePair

        with pytest.raises(ValueError):
            QueuePair(sq, cq)

    def test_min_depth(self, sim):
        hbm = Hbm(sim, GpuConfig(), capacity=1 << 20)
        from repro.mem import Doorbell

        with pytest.raises(ValueError):
            SubmissionQueue(sim, 0, 1, hbm.alloc(64), Doorbell(sim, PcieConfig()))
