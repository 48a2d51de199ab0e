"""Runtime protocol-invariant checkers (paper Algs. 1-2, §3.4, §3.4.1).

Each checker subscribes to the record kinds it judges on a machine's
:class:`~repro.sim.probe.Probe` and validates the protocol-level claims
the paper makes but the models do not mechanically enforce.  Checkers
raise :class:`InvariantViolation` *inside* the emitting model call, so a
protocol bug fails the simulation at the exact simulated instant it
happens instead of surfacing later as a plausible-looking but wrong
bandwidth number.

Because checkers consume records rather than patching model internals, a
seeded violation can be demonstrated by emitting synthetic records —
which is exactly how ``tests/analysis`` proves each checker class fires.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.core.cache import LineState
from repro.core.sharetable import BufState
from repro.sim.engine import SimError
from repro.sim.probe import Probe, Record


class InvariantViolation(SimError):
    """A protocol invariant was broken at simulation time."""


class InvariantChecker:
    """Base class: subscribes to the record kinds it judges."""

    #: Record kinds this checker subscribes to.
    KINDS: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.events_checked = 0

    def attach(self, probe: Probe) -> "InvariantChecker":
        for kind in self.KINDS:
            probe.subscribe(kind, self._on_event)
        return self

    def _on_event(self, event: Record) -> None:
        self.events_checked += 1
        self.check(event)

    def check(self, event: Record) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def fail(self, event: Record, message: str) -> None:
        raise InvariantViolation(
            f"[{type(self).__name__}] t={event.t:.0f} ns: {message} "
            f"(event: {event.kind} {event.data.get('qid', '')})"
        )


class SqConformanceChecker(InvariantChecker):
    """NVMe submission-queue conformance (paper Algorithm 2).

    Checked per SQ object (events carry ``src``):

    - **CID uniqueness**: a CID published while a command with the same CID
      is still in flight on the same SQ is a violation — the paper requires
      CIDs to be unique among outstanding commands of a queue.
    - **Tail monotonicity and bounds**: the issued tail never regresses and
      never passes the allocation tail; the device fetch pointer never
      passes the doorbell-visible tail.
    - **Doorbell-write ordering vs. SQE visibility**: a doorbell ring for a
      tail value larger than the number of ISSUED (memory-visible) SQEs
      means the device could fetch garbage — the §2.3.3 hazard AGILE's
      doorbell lock exists to prevent.  Ring values must also be monotonic.
    """

    KINDS = (
        "sq.reserve", "sq.publish", "sq.advance", "sq.release", "sq.fetch",
        "mmio.ring",
    )

    def __init__(self) -> None:
        super().__init__()
        #: Per-SQ in-flight CIDs (publish .. release window).
        self._inflight: Dict[int, Set[int]] = {}
        self._issued_tail: Dict[int, int] = {}
        self._rung: Dict[int, int] = {}
        #: Maps a doorbell object id to its SQ object id, learnt from the
        #: SQ's first reservation (every ring follows one).
        self._db_to_sq: Dict[int, int] = {}

    def _on_event(self, event: Record) -> None:
        # CQ head doorbells ring too; only SQ tail rings are judged here.
        if event.kind != "mmio.ring" or id(event["src"]) in self._db_to_sq:
            self.events_checked += 1
            self.check(event)

    def check(self, event: Record) -> None:
        if event.kind == "mmio.ring":
            sq_key = self._db_to_sq[id(event["src"])]
            value = event["value"]
            if value < self._rung.get(sq_key, 0):
                self.fail(
                    event,
                    f"SQ doorbell regressed: rang {value} after "
                    f"{self._rung[sq_key]}",
                )
            if value > self._issued_tail.get(sq_key, 0):
                self.fail(
                    event,
                    f"doorbell rang tail {value} but only "
                    f"{self._issued_tail.get(sq_key, 0)} SQEs are "
                    f"memory-visible (ISSUED) — device would fetch garbage",
                )
            self._rung[sq_key] = value
            return
        key = id(event["src"])
        if event.kind == "sq.reserve":
            self._db_to_sq[id(event["src"].doorbell)] = key
        elif event.kind == "sq.publish":
            cids = self._inflight.setdefault(key, set())
            cid = event["cid"]
            if cid in cids:
                self.fail(
                    event,
                    f"CID {cid} reused on SQ{event['qid']} while a command "
                    f"with the same CID is still in flight",
                )
            cids.add(cid)
        elif event.kind == "sq.release":
            # CID == slot in this implementation (queue.py try_reserve).
            self._inflight.setdefault(key, set()).discard(event["slot"])
        elif event.kind == "sq.advance":
            tail = event["tail"]
            prev = self._issued_tail.get(key, 0)
            if tail < prev:
                self.fail(event, f"issued tail regressed: {tail} < {prev}")
            if tail > event["alloc_tail"]:
                self.fail(
                    event,
                    f"issued tail {tail} passed alloc tail "
                    f"{event['alloc_tail']}",
                )
            self._issued_tail[key] = tail
        elif event.kind == "sq.fetch":
            if event["fetch_head"] > event["doorbell"]:
                self.fail(
                    event,
                    f"device fetch head {event['fetch_head']} passed the "
                    f"visible doorbell value {event['doorbell']}",
                )


class CqPhaseChecker(InvariantChecker):
    """NVMe completion-queue conformance (paper Algorithm 1).

    - **Phase-bit discipline**: the phase of a posted CQE must match the
      pass parity of its monotonic position (True on even passes), i.e. the
      bit toggles exactly once per ring wrap and is constant within a pass.
    - **Post position monotonicity**: CQEs are posted at consecutive
      monotonic positions, one per post.
    - **No overwrite of unconsumed entries**: a post at position ``p``
      requires ``p - head_doorbell < depth`` — otherwise the device just
      destroyed a completion the host never saw (§2.1's stall hazard turned
      data loss).
    - **Host head bounds**: ``consume_to`` positions are monotonic.
    """

    KINDS = ("cq.post", "cq.consume")

    def __init__(self) -> None:
        super().__init__()
        self._next_pos: Dict[int, int] = {}
        self._consumed: Dict[int, int] = {}

    def check(self, event: Record) -> None:
        key = id(event["src"])
        if event.kind == "cq.post":
            pos = event["pos"]
            expected = self._next_pos.get(key)
            if expected is not None and pos != expected:
                self.fail(
                    event,
                    f"CQE posted at position {pos}, expected {expected} "
                    f"(posts must be consecutive)",
                )
            depth = getattr(event["src"], "depth", None)
            if depth:
                expected_phase = (pos // depth) % 2 == 0
                if event["phase"] != expected_phase:
                    self.fail(
                        event,
                        f"phase bit {event['phase']} at position {pos} "
                        f"breaks per-wrap discipline (expected "
                        f"{expected_phase} on pass {pos // depth})",
                    )
                head = event["head_doorbell"]
                if pos - head >= depth:
                    self.fail(
                        event,
                        f"CQE at position {pos} overwrites an unconsumed "
                        f"entry (head doorbell {head}, depth {depth})",
                    )
            self._next_pos[key] = pos + 1
        elif event.kind == "cq.consume":
            pos = event["pos"]
            prev = self._consumed.get(key, 0)
            if pos < prev:
                self.fail(event, f"host head regressed: {pos} < {prev}")
            self._consumed[key] = pos


#: Paper-legal transitions of the four-state software cache (§3.4).
LEGAL_LINE_TRANSITIONS: Set[Tuple[LineState, LineState]] = {
    (LineState.INVALID, LineState.BUSY),    # case (b): claim + fill
    (LineState.INVALID, LineState.READY),   # host preload (test methodology)
    (LineState.BUSY, LineState.READY),      # fill completes
    (LineState.READY, LineState.MODIFIED),  # write hit
    (LineState.READY, LineState.BUSY),      # clean eviction + re-claim
    (LineState.MODIFIED, LineState.BUSY),   # dirty eviction + re-claim
}

#: Transitions legal only on the fault-recovery path, keyed by the reasons
#: that justify them.  ``BUSY -> INVALID`` normally means dropping an
#: in-flight fill; with reason ``fill_error`` it is the *required* recovery
#: action for a fill whose NVMe command completed with an error status
#: (the line must not stick in BUSY).
FAILURE_LINE_TRANSITIONS: Dict[Tuple[LineState, LineState], Set[str]] = {
    (LineState.BUSY, LineState.INVALID): {"fill_error"},
}


class CacheStateChecker(InvariantChecker):
    """Cache line FSM legality: only §3.4 transitions may occur.

    Notably illegal: ``BUSY -> MODIFIED`` (writing a line whose fill is in
    flight), ``BUSY -> INVALID`` (dropping an in-flight fill) unless the
    fill *failed* (reason ``fill_error``), and ``INVALID -> MODIFIED``
    (dirtying a line that holds no data).
    """

    KINDS = ("cache.state",)

    def __init__(self) -> None:
        super().__init__()
        self.transitions = 0

    def check(self, event: Record) -> None:
        old, new = event["old"], event["new"]
        self.transitions += 1
        if (old, new) in LEGAL_LINE_TRANSITIONS:
            return
        allowed_reasons = FAILURE_LINE_TRANSITIONS.get((old, new))
        if allowed_reasons and event["reason"] in allowed_reasons:
            return
        self.fail(
            event,
            f"illegal cache-line transition {old.name} -> {new.name} "
            f"on line {event['line']} (tag {event['tag']}, "
            f"reason {event['reason']!r})",
        )


#: Legal Share Table transitions (paper §3.4.1 MOESI reinterpretation).
LEGAL_BUF_TRANSITIONS: Set[Tuple[BufState, BufState]] = {
    (BufState.EXCLUSIVE, BufState.SHARED),    # second reader joins
    (BufState.EXCLUSIVE, BufState.MODIFIED),  # owner writes
    (BufState.EXCLUSIVE, BufState.INVALID),   # sole owner retires
    (BufState.SHARED, BufState.OWNED),        # a sharer writes
    (BufState.SHARED, BufState.INVALID),      # last sharer retires
    (BufState.MODIFIED, BufState.OWNED),      # reader joins dirty buffer
    (BufState.MODIFIED, BufState.INVALID),    # propagated + retired
    (BufState.OWNED, BufState.INVALID),       # propagated + retired
}


class ShareTableChecker(InvariantChecker):
    """Share Table coherence (paper §3.4.1).

    - **Transition legality** among the five MOESI-style buffer states.
    - **Single ownership**: a new registration must never displace an entry
      that still has live references to a *different* buffer — two live
      owners for one (ssd, lba) source would fork the data.
    - **Invalidation precedes ownership transfer**: retirement
      (``-> INVALID``) requires refcount zero.
    """

    KINDS = ("share.state", "share.register")

    def check(self, event: Record) -> None:
        if event.kind == "share.state":
            old, new = event["old"], event["new"]
            if (old, new) not in LEGAL_BUF_TRANSITIONS:
                self.fail(
                    event,
                    f"illegal share-entry transition {old.name} -> "
                    f"{new.name} for source {event['tag']}",
                )
            if new is BufState.INVALID and event["refcount"] != 0:
                self.fail(
                    event,
                    f"entry {event['tag']} invalidated with refcount "
                    f"{event['refcount']} — invalidation must follow the "
                    f"last release",
                )
        elif event.kind == "share.register":
            if (
                event["replaced_refcount"] > 0
                and not event["replaced_same_buf"]
            ):
                self.fail(
                    event,
                    f"source {event['tag']} re-registered to a second "
                    f"buffer while {event['replaced_refcount']} references "
                    f"to the first are live (two owners)",
                )
