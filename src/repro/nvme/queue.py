"""Submission/completion queue rings with NVMe pointer-and-phase semantics.

These classes hold protocol *state*; simulated time is charged by the
actors that touch them (GPU threads in :mod:`repro.core.issue`, the SSD
controller in :mod:`repro.nvme.device`).

Pointers are kept monotonic (not wrapped) internally, which sidesteps the
classic full/empty ring ambiguity; the slot index is always ``ptr % depth``.

The per-SQE life cycle implements the paper's Algorithm 2 lock states:

    EMPTY -> RESERVED -> UPDATED -> ISSUED -> EMPTY
             (thread     (command   (tail      (completion seen;
             owns slot)  visible)   published)  slot reusable)

``RESERVED`` is the window between a thread winning the slot and its command
becoming visible in memory; to every other thread it is indistinguishable
from EMPTY's "not yet visible" case, exactly as in the paper's tail-scan
description (§3.3.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.config import PcieConfig
from repro.mem.hbm import HbmBuffer
from repro.mem.pcie import Doorbell
from repro.nvme.command import NvmeCommand, NvmeCompletion
from repro.sim.engine import SimError, Simulator
from repro.sim.sync import Signal


class SlotState(enum.IntEnum):
    EMPTY = 0
    RESERVED = 1
    UPDATED = 2
    ISSUED = 3


class SubmissionQueue:
    """One NVMe submission queue living in simulated GPU HBM."""

    def __init__(
        self,
        sim: Simulator,
        qid: int,
        depth: int,
        buffer: HbmBuffer,
        doorbell: Doorbell,
    ):
        if depth < 2:
            raise ValueError("NVMe queues need at least 2 entries")
        self.sim = sim
        self.qid = qid
        self.depth = depth
        self.buffer = buffer
        self.doorbell = doorbell
        self.entries: List[Optional[NvmeCommand]] = [None] * depth
        self.state: List[SlotState] = [SlotState.EMPTY] * depth
        #: Optional :class:`~repro.sim.probe.Probe` (slot transitions).
        self.probe = None
        #: Monotonic count of slots ever reserved (next slot = alloc_tail % depth).
        self.alloc_tail = 0
        #: Monotonic publish pointer: slots below it have been doorbell-visible.
        self.issued_tail = 0
        #: Monotonic device-side fetch pointer.
        self.fetch_head = 0
        self.submitted = 0
        #: Monotonic count of slots returned to EMPTY (occupancy is
        #: ``alloc_tail - released`` without scanning the ring).
        self.released = 0

    # -- producer (GPU) side --------------------------------------------------

    def try_reserve(self) -> Optional[tuple[int, int]]:
        """Atomically claim the next ring slot.

        Returns ``(slot, cid)`` or ``None`` if the queue is full.  The CID is
        the slot index: since a slot stays non-EMPTY until its completion is
        processed, slot indices are unique among outstanding commands in
        this SQ — the paper's uniqueness requirement for CIDs "within a
        batch using the same SQ".
        """
        slot = self.alloc_tail % self.depth
        if self.state[slot] is not SlotState.EMPTY:
            return None
        self.state[slot] = SlotState.RESERVED
        self.alloc_tail += 1
        if self.probe is not None:
            self.probe.emit(
                "sq.reserve", src=self, qid=self.qid, slot=slot, cid=slot,
                alloc_tail=self.alloc_tail, occupancy=self.alloc_tail - self.released,
            )
        return slot, slot

    def publish(self, slot: int, cmd: NvmeCommand) -> None:
        """Make the command visible in memory (RESERVED -> UPDATED)."""
        if self.state[slot] is not SlotState.RESERVED:
            raise SimError(
                f"SQ{self.qid} slot {slot} published from {self.state[slot].name}"
            )
        cmd.sq_id = self.qid
        cmd.slot = slot
        self.entries[slot] = cmd
        self.state[slot] = SlotState.UPDATED
        if self.probe is not None:
            self.probe.emit(
                "sq.publish", src=self, qid=self.qid, slot=slot, cid=cmd.cid,
            )

    def advance_tail(self) -> Optional[int]:
        """Scan UPDATED slots in ring order, mark them ISSUED, and return the
        new monotonic tail to write to the doorbell (Algorithm 2 line 15),
        or ``None`` if nothing new became publishable."""
        moved = False
        while self.issued_tail < self.alloc_tail:
            slot = self.issued_tail % self.depth
            if self.state[slot] is not SlotState.UPDATED:
                break  # not visible yet (EMPTY/RESERVED) -> stop the batch
            self.state[slot] = SlotState.ISSUED
            self.issued_tail += 1
            self.submitted += 1
            moved = True
        if moved and self.probe is not None:
            self.probe.emit(
                "sq.advance", src=self, qid=self.qid, tail=self.issued_tail,
                alloc_tail=self.alloc_tail,
            )
        return self.issued_tail if moved else None

    def release(self, slot: int) -> None:
        """Free the slot after its completion is processed (-> EMPTY)."""
        if self.state[slot] is not SlotState.ISSUED:
            raise SimError(
                f"SQ{self.qid} slot {slot} released from {self.state[slot].name}"
            )
        self.entries[slot] = None
        self.state[slot] = SlotState.EMPTY
        self.released += 1
        if self.probe is not None:
            self.probe.emit(
                "sq.release", src=self, qid=self.qid, slot=slot,
                occupancy=self.alloc_tail - self.released,
            )

    # -- consumer (SSD) side ---------------------------------------------------

    def device_pending(self) -> int:
        """Commands published but not yet fetched, as seen by the device."""
        return self.doorbell.device_value - self.fetch_head

    def device_fetch(self) -> NvmeCommand:
        """Pop the next command at the device fetch head."""
        if self.device_pending() <= 0:
            raise SimError(f"SQ{self.qid}: device fetch with nothing pending")
        slot = self.fetch_head % self.depth
        cmd = self.entries[slot]
        if cmd is None or self.state[slot] is not SlotState.ISSUED:
            raise SimError(
                f"SQ{self.qid}: device fetched slot {slot} in state "
                f"{self.state[slot].name} (doorbell raced ahead of memory?)"
            )
        self.fetch_head += 1
        if self.probe is not None:
            self.probe.emit(
                "sq.fetch", src=self, qid=self.qid, slot=slot, cid=cmd.cid,
                fetch_head=self.fetch_head, doorbell=self.doorbell.device_value,
            )
        return cmd

    # -- introspection ----------------------------------------------------------

    def outstanding(self) -> int:
        return sum(1 for s in self.state if s is not SlotState.EMPTY)


@dataclass
class _CqSlot:
    completion: NvmeCompletion
    phase: bool


class CompletionQueue:
    """One NVMe completion queue living in simulated GPU HBM.

    The device posts entries with an alternating phase bit; the host detects
    new entries by comparing the stored phase with the phase expected for
    that pass of the ring, without ever clearing memory — exactly the
    mechanism Algorithm 1 polls on.
    """

    def __init__(
        self,
        sim: Simulator,
        qid: int,
        depth: int,
        buffer: HbmBuffer,
        doorbell: Doorbell,
    ):
        if depth < 2:
            raise ValueError("NVMe queues need at least 2 entries")
        self.sim = sim
        self.qid = qid
        self.depth = depth
        self.buffer = buffer
        #: Host-written head doorbell (monotonic consumed count).
        self.doorbell = doorbell
        self.slots: List[Optional[_CqSlot]] = [None] * depth
        #: Monotonic device-side post pointer.
        self.device_tail = 0
        #: Slots reserved by in-flight posts (between reserve and post).
        self._reserved = 0
        #: Monotonic host-side consumption pointer (local, pre-doorbell).
        self.host_head = 0
        #: Fired when the host's head doorbell frees entries: a device post
        #: that found the queue full waits here.
        self.space = Signal(sim, f"cq{qid}.space")
        self.posted = 0
        #: Optional :class:`~repro.sim.probe.Probe`.
        self.probe = None
        #: Fired by every :meth:`device_post`: how a parked polling warp
        #: learns its partition is no longer empty (its service sets it).
        self.on_post: Optional[Signal] = None

    # -- device side -------------------------------------------------------------

    def device_has_space(self) -> bool:
        """True if posting one more CQE would not overwrite an unconsumed
        entry.  The device compares its tail with the host's head doorbell —
        the reason the paper stresses that hosts must keep ringing CQ head
        doorbells or the SSD stalls (§2.1)."""
        return (
            self.device_tail + self._reserved - self.doorbell.device_value
            < self.depth
        )

    def device_try_reserve(self) -> bool:
        """Atomically claim space for one upcoming CQE post.  The post
        itself takes simulated time (CQE DMA), so concurrent executors must
        reserve before yielding or they could overfill the ring."""
        if not self.device_has_space():
            return False
        self._reserved += 1
        return True

    def device_post(self, completion: NvmeCompletion) -> None:
        if self._reserved > 0:
            self._reserved -= 1
        elif not self.device_has_space():
            raise SimError(f"CQ{self.qid}: post into a full queue")
        slot = self.device_tail % self.depth
        phase = self._phase_at(self.device_tail)
        self.slots[slot] = _CqSlot(completion, phase)
        self.device_tail += 1
        self.posted += 1
        if self.probe is not None:
            self.probe.emit(
                "cq.post", src=self, qid=self.qid, pos=self.device_tail - 1,
                slot=slot, phase=phase, cid=completion.cid, sq_id=completion.sq_id,
                head_doorbell=self.doorbell.device_value,
                occupancy=self.device_tail - self.host_head,
            )
        if self.on_post is not None:
            self.on_post.fire()

    # -- host side ------------------------------------------------------------------

    def _phase_at(self, pos: int) -> bool:
        """Phase bit for pass ``pos // depth``: True on pass 0, toggling
        each wrap, so stale entries from the previous pass never match."""
        return (pos // self.depth) % 2 == 0

    def peek(self, pos: int) -> Optional[NvmeCompletion]:
        """Read the CQE at monotonic position ``pos``; ``None`` unless a
        completion with the expected phase for this pass is present."""
        slot_obj = self.slots[pos % self.depth]
        if slot_obj is None:
            return None
        if slot_obj.phase != self._phase_at(pos):
            return None
        return slot_obj.completion

    def consume_to(self, pos: int) -> None:
        """Advance the host's local head to ``pos`` (not yet doorbelled)."""
        if pos < self.host_head or pos > self.device_tail:
            raise SimError(
                f"CQ{self.qid}: consume_to({pos}) outside "
                f"[{self.host_head}, {self.device_tail}]"
            )
        self.host_head = pos
        if self.probe is not None:
            self.probe.emit(
                "cq.consume", src=self, qid=self.qid, pos=pos,
                occupancy=self.device_tail - pos,
            )


class QueuePair:
    """An SQ/CQ pair sharing an index, as registered with one SSD."""

    def __init__(self, sq: SubmissionQueue, cq: CompletionQueue):
        if sq.qid != cq.qid:
            raise ValueError("queue pair must share an id")
        self.sq = sq
        self.cq = cq

    @property
    def qid(self) -> int:
        return self.sq.qid


def make_queue_pair(
    sim: Simulator,
    qid: int,
    depth: int,
    sq_buffer: HbmBuffer,
    cq_buffer: HbmBuffer,
    pcie_cfg: PcieConfig,
) -> QueuePair:
    """Construct a queue pair with fresh doorbell registers."""
    sq_db = Doorbell(sim, pcie_cfg, name=f"sq{qid}.db")
    cq_db = Doorbell(sim, pcie_cfg, name=f"cq{qid}.db")
    sq = SubmissionQueue(sim, qid, depth, sq_buffer, sq_db)
    cq = CompletionQueue(sim, qid, depth, cq_buffer, cq_db)
    return QueuePair(sq, cq)
