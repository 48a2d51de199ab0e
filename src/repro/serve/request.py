"""Requests, tenant request classes, and the serve state machine.

Every request walks one path through a fixed lifecycle::

    CREATED --admit--> QUEUED --pull--> BATCHED --launch--> DISPATCHED
       |                 |                  |                   |
       +--queue full--> SHED   +--timeout--> ABORTED <--I/O error+
                                                COMPLETED <--ok--+

Exactly one terminal state (``COMPLETED`` / ``SHED`` / ``ABORTED``) is
reached, exactly once, and **only** via :meth:`Request.transition` — the
lint rule AGL008 bans ad-hoc assignments of terminal states anywhere else,
so shed/timeout/abort accounting can trust the machine instead of auditing
every mutation site.  Timestamps for each hop are recorded on the request,
which is all the SLO accountant needs to attribute latency to queueing,
batching, or service.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from repro.config import Checked, legal


class RequestState(Enum):
    """Lifecycle states of one serving request."""

    CREATED = "created"
    QUEUED = "queued"
    BATCHED = "batched"
    DISPATCHED = "dispatched"
    COMPLETED = "completed"
    SHED = "shed"
    ABORTED = "aborted"


#: States a request can never leave.
TERMINAL_STATES = frozenset(
    {RequestState.COMPLETED, RequestState.SHED, RequestState.ABORTED}
)

#: Legal transitions (the serve state machine).  Terminal states map to the
#: empty set: a second terminal transition is a bug, never a recount.
LEGAL_TRANSITIONS = {
    RequestState.CREATED: frozenset(
        {RequestState.QUEUED, RequestState.SHED}
    ),
    RequestState.QUEUED: frozenset(
        {RequestState.BATCHED, RequestState.SHED, RequestState.ABORTED}
    ),
    RequestState.BATCHED: frozenset(
        {RequestState.DISPATCHED, RequestState.ABORTED}
    ),
    RequestState.DISPATCHED: frozenset(
        {RequestState.COMPLETED, RequestState.ABORTED}
    ),
    RequestState.COMPLETED: frozenset(),
    RequestState.SHED: frozenset(),
    RequestState.ABORTED: frozenset(),
}


class ServeStateError(RuntimeError):
    """An illegal request-state transition was attempted."""


@dataclass(frozen=True)
class RequestClass(Checked):
    """One tenant / request shape with its own SLO budget.

    ``pages`` is the number of 4 KiB pages one request reads; ``weight``
    is the tenant's share of the offered load; ``slo_ns`` is the
    end-to-end latency budget used for goodput (a completed request past
    its budget counts as an SLO miss, not goodput).  ``queue_timeout_ns``
    bounds time in the admission queue: a request older than this is
    ABORTED at pull time instead of being served long past its deadline.
    """

    name: str
    pages: int = legal(1, ge=1)
    slo_ns: float = legal(2_000_000.0, gt=0)
    weight: float = legal(1.0, gt=0)
    queue_timeout_ns: float = legal(math.inf, ge=0, le=math.inf)
    #: Logical LBA span the class's reads target (pages sampled uniformly
    #: unless the arrival process replays an explicit access trace).
    lba_space: int = legal(4096, ge=1)
    #: First logical LBA of the class's region.  Classes get disjoint
    #: regions so tenant-affine placement can give each its own devices.
    lba_base: int = legal(0, ge=0)
    #: Fraction of page draws redirected into the hot head of the region
    #: (``hot_fraction`` of the span).  0.0 keeps the uniform draw — and
    #: the identical rng stream the pre-skew engine consumed.
    skew: float = legal(0.0, ge=0, le=1)
    hot_fraction: float = legal(0.125, gt=0, le=1)
    #: What one request does with its pages: ``"read"`` (the default),
    #: ``"write"`` (cache-bypassing streaming stores — checkpoint shards),
    #: ``"modify"`` (read-modify-write through the cache, creating
    #: MODIFIED lines whose durability rides on eviction write-back), or
    #: ``"paged"`` (reads routed through the four-state cache + Share
    #: Table — KV-cache paging, where residency and eviction of cold
    #: pages under HBM pressure are the point of the experiment).
    op: str = legal("read", choices=("read", "write", "modify", "paged"))


class Request:
    """One in-flight serving request (open-loop: it exists whether or not
    the system has capacity for it)."""

    __slots__ = (
        "rid", "cls", "arrival_ns", "pages", "_state",
        "admitted_ns", "batched_ns", "dispatched_ns", "finished_ns",
    )

    def __init__(
        self,
        rid: int,
        cls: RequestClass,
        arrival_ns: float,
        pages: Tuple[Tuple[int, int], ...],
    ):
        self.rid = rid
        self.cls = cls
        self.arrival_ns = arrival_ns
        #: Physical (ssd_index, device_lba) coordinates this request reads,
        #: resolved once at arrival through the backend's placement policy
        #: (or replayed verbatim from a physical trace).
        self.pages = pages
        self._state = RequestState.CREATED
        self.admitted_ns: Optional[float] = None
        self.batched_ns: Optional[float] = None
        self.dispatched_ns: Optional[float] = None
        self.finished_ns: Optional[float] = None

    @property
    def state(self) -> RequestState:
        return self._state

    @property
    def terminal(self) -> bool:
        return self._state in TERMINAL_STATES

    def transition(self, new: RequestState, now: float) -> None:
        """Move to ``new`` at simulated time ``now``; the single legal
        mutation point for request state (AGL008)."""
        if new not in LEGAL_TRANSITIONS[self._state]:
            raise ServeStateError(
                f"request {self.rid} ({self.cls.name}): illegal transition "
                f"{self._state.value} -> {new.value}"
            )
        self._state = new
        if new is RequestState.QUEUED:
            self.admitted_ns = now
        elif new is RequestState.BATCHED:
            self.batched_ns = now
        elif new is RequestState.DISPATCHED:
            self.dispatched_ns = now
        elif new in TERMINAL_STATES:
            self.finished_ns = now

    @property
    def latency_ns(self) -> float:
        """End-to-end latency (arrival to terminal state)."""
        if self.finished_ns is None:
            raise ServeStateError(
                f"request {self.rid} has not reached a terminal state"
            )
        return self.finished_ns - self.arrival_ns

    @property
    def within_slo(self) -> bool:
        """Completed inside the class's latency budget."""
        return (
            self._state is RequestState.COMPLETED
            and self.latency_ns <= self.cls.slo_ns
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Request({self.rid}, {self.cls.name}, {self._state.value}, "
            f"t={self.arrival_ns:.0f})"
        )
