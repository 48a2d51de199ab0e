"""Trace construction helpers and AGILE/BaM API lowerings.

The lowering functions emit representative instruction mixes for each API
fast path.  They are not instruction-exact transcriptions of the CUDA
sources (which we do not have); they encode the *state each path keeps
live*, which is what determines register pressure:

- AGILE cache access: tag/set math and a line pointer;
- BaM cache access: the same plus reference-count bookkeeping;
- BaM synchronous read: cache access + issue + the *inline CQ-polling state
  machine* (queue base, head, phase, mask, CID, doorbell shadow), live
  simultaneously with the caller's accumulators;
- AGILE service kernel: the Algorithm 1 loop state.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Sequence

from repro.kir.ops import Instr, Trace, VReg


class TraceBuilder:
    """Incrementally builds a :class:`Trace`."""

    def __init__(self, name: str):
        self._name = name
        self._instrs: List[Instr] = []
        self._pinned: List[VReg] = []
        self._next_vid = 0

    # -- value creation -------------------------------------------------------

    def _fresh(self, name: str, width: int) -> VReg:
        self._next_vid += 1
        return VReg(vid=self._next_vid, name=name, width=width)

    def param(self, name: str, width: int = 1) -> VReg:
        """A kernel parameter: pinned live for the whole kernel."""
        reg = self._fresh(name, width)
        self._pinned.append(reg)
        return reg

    def op(
        self,
        opname: str,
        srcs: Sequence[VReg] = (),
        *,
        width: int = 1,
        name: str = "",
    ) -> VReg:
        """Emit an instruction producing one new value."""
        dst = self._fresh(name or opname, width)
        self._instrs.append(Instr(op=opname, dst=(dst,), src=tuple(srcs)))
        return dst

    def effect(self, opname: str, srcs: Sequence[VReg] = ()) -> None:
        """Emit a side-effecting instruction with no result (store, atomic)."""
        self._instrs.append(Instr(op=opname, src=tuple(srcs)))

    def sink(self, *regs: VReg) -> None:
        """Mark values as consumed here (extends their live range)."""
        self.effect("sink", regs)

    @contextmanager
    def loop(self) -> Iterator[None]:
        """A loop body: values defined before the loop and used inside are
        loop-carried, so their live ranges extend over the whole body (the
        back edge re-reads them)."""
        entry = len(self._instrs)
        yield
        body = self._instrs[entry:]
        defined_before: set[int] = set()
        for instr in self._instrs[:entry]:
            for reg in instr.dst:
                defined_before.add(reg.vid)
        for reg in self._pinned:
            defined_before.add(reg.vid)
        carried = {}
        for instr in body:
            for reg in instr.src:
                if reg.vid in defined_before:
                    carried[reg.vid] = reg
        if carried:
            self.effect("backedge", tuple(carried.values()))

    def build(self) -> Trace:
        return Trace(name=self._name, instrs=list(self._instrs),
                     pinned=list(self._pinned))


# ---------------------------------------------------------------------------
# AGILE API lowerings
# ---------------------------------------------------------------------------

def lower_agile_cache_access(b: TraceBuilder, key: VReg) -> VReg:
    """AGILE's lean cache probe: hash, set index, tag check, line pointer."""
    h = b.op("hash", [key])
    set_idx = b.op("mod", [h])
    state = b.op("ld.state", [set_idx])
    b.effect("atom.cas", [state])
    line = b.op("line.ptr", [set_idx, state], width=2, name="line")
    return line


def lower_agile_array_get(b: TraceBuilder, idx: VReg) -> VReg:
    """Array-like synchronous get: coalesce, cache access, barrier wait,
    element load."""
    mask = b.op("warp.match", [idx])
    b.sink(b.op("warp.elect", [mask]))
    line = lower_agile_cache_access(b, idx)
    gate = b.op("gate.ld", [line])
    b.effect("wait", [gate])
    off = b.op("off.calc", [idx])
    value = b.op("ld.global", [line, off], name="elem")
    return value


# ---------------------------------------------------------------------------
# BaM API lowerings
# ---------------------------------------------------------------------------

def lower_bam_cache_access(b: TraceBuilder, key: VReg) -> VReg:
    """BaM's bucket-locked cache probe with reference counting."""
    h = b.op("hash", [key])
    bucket = b.op("mod", [h])
    lock = b.op("ld.lock", [bucket])
    b.effect("atom.cas", [lock])
    refcnt = b.op("ld.ref", [bucket])
    b.effect("atom.add", [refcnt])
    state = b.op("ld.state", [bucket])
    b.effect("atom.cas", [state])
    line = b.op("line.ptr", [bucket, state, refcnt], width=2, name="line")
    b.effect("atom.sub", [refcnt, lock])
    return line


def begin_bam_poll(b: TraceBuilder, slot: VReg) -> list[VReg]:
    """Materialize the inline CQ-polling state (the registers AGILE's
    service keeps out of application kernels)."""
    cq_base = b.op("cq.base", [slot], width=2, name="cq_base")
    head = b.op("cq.head", [cq_base], name="head")
    phase = b.op("cq.phase", [head], name="phase")
    mask = b.op("cq.mask", [cq_base], name="mask")
    cid = b.op("cid.mine", [slot], name="cid")
    db_shadow = b.op("db.shadow", [cq_base], name="db")
    return [cq_base, head, phase, mask, cid, db_shadow]


def finish_bam_poll(b: TraceBuilder, poll_state: list[VReg]) -> None:
    """The polling loop itself: every iteration touches all poll state."""
    with b.loop():
        cqe = b.op("ld.cqe", poll_state[:4], width=2)
        found = b.op("cmp.cid", [cqe, poll_state[4]])
        b.effect("atom.cas", [found, poll_state[5]])
        b.sink(*poll_state)
    b.effect("st.mmio", [poll_state[5]])


def lower_bam_sync_read(
    b: TraceBuilder, idx: VReg, interleaved: int = 1
) -> List[VReg]:
    """``interleaved`` independent synchronous reads as the compiler
    schedules them: all issues first, then all polls — so the poll state of
    each access is live simultaneously (the multi-access kernels BFS/SpMV
    hit this; VectorMean with one access site does not)."""
    accesses = []
    for k in range(interleaved):
        key = b.op("key.calc", [idx], name=f"key{k}")
        line = lower_bam_cache_access(b, key)
        slot = b.op("reserve", [key])
        b.effect("atom.cas", [slot])
        cmd = b.op("cmd.build", [key, slot])
        b.effect("st.sqe", [slot, cmd])
        db = b.op("tail.scan", [slot])
        b.effect("st.mmio", [db])
        poll_state = begin_bam_poll(b, slot)
        accesses.append((line, poll_state))
    values = []
    for line, poll_state in accesses:
        finish_bam_poll(b, poll_state)
        off = b.op("off.calc", [idx])
        values.append(b.op("ld.global", [line, off], name="elem"))
    return values
