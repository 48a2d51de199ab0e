"""The instrumentation spine: one probe per machine, one record type.

Every instrumented model part holds a ``probe`` attribute that is ``None``
while nothing listens, so an instrumentation site costs one attribute
check.  :meth:`repro.core.machine.Machine.instrument` hands one
:class:`Probe` to every part of a machine; subscribers take its records
per kind and record passively, so a probed run dispatches the same events
as an unprobed one.

The contract: :data:`KINDS` declares every record kind and its payload
fields once.  Emitting an undeclared kind or a payload with a missing or
extra field raises :class:`RecordError`, and so does reading a field the
kind does not declare.

The switch: ``with listening(role, build):`` calls ``build(machine)`` for
every machine built inside the block; the innermost block per role wins,
and ``build=None`` silences the role.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Protocol records: slot, pointer, lock and line-state transitions.  The
#: analysis session judges these as they arrive.
PROTOCOL: Dict[str, str] = {
    "sq.reserve": "src qid slot cid alloc_tail occupancy",
    "sq.publish": "src qid slot cid",
    "sq.advance": "src qid tail alloc_tail",
    "sq.release": "src qid slot occupancy",
    "sq.fetch": "src qid slot cid fetch_head doorbell",
    "cq.post": "src qid pos slot phase cid sq_id head_doorbell occupancy",
    "cq.consume": "src qid pos occupancy",
    "mmio.ring": "src name value",
    "mmio.deliver": "src name value",
    "lock.blocked": "src lock chain held",
    "lock.acquire": "src lock chain held_before",
    "lock.release": "src lock chain",
    "cache.state": "src line set way old new tag reason",
    "cache.access": "line tag tid pinned",
    "share.state": "src tag old new refcount owner_tid reason",
    "share.register": "src tag owner_tid replaced_refcount replaced_same_buf",
    "fault.cqe_drop": "src qid cid status",
}

#: Timeline records: telemetry turns these into spans, counters and
#: histograms (``t0`` is a span's start; it ends at the record's time).
TIMELINE: Dict[str, str] = {
    "sim.run": "t0 events",
    "gpu.kernel": "name t0 grid_dim block_dim",
    "gpu.stall": "reason ns",
    "hbm.traffic": "direction nbytes",
    "pcie.dma": "src direction nbytes",
    "nvme.fetch": "src batch",
    "nvme.exec": "src op t0 qid cid lba pages status",
    "ftl.gc": "src t0 moved_pages blocks free_blocks",
    "cache.fill": "t0 ssd lba ok",
    "cache.dram_fill": "t0 ssd lba",
    "io.done": "op label t0 ssd lba cid ok retries",
    "serve.batch": "worker bid t0 requests pages",
    "gauge": "name layer track value",
}

#: Every declared kind -> its payload field names.
KINDS = {kind: frozenset(f.split()) for kind, f in {**PROTOCOL, **TIMELINE}.items()}


class RecordError(Exception):
    """A record broke the declared contract (kind or payload fields)."""


class Record:
    """One instrumentation record: simulated time, kind, payload."""

    __slots__ = ("t", "kind", "data")

    def __init__(self, t: float, kind: str, data: Dict[str, Any]):
        self.t = t
        self.kind = kind
        self.data = data

    def __getitem__(self, key: str) -> Any:
        if key in self.data:
            return self.data[key]
        raise RecordError(f"{self.kind!r} records declare no field {key!r}")


class Probe:
    """One machine's record fan-out: emitters call :meth:`emit`,
    subscribers register per kind with :meth:`subscribe`."""

    def __init__(self, sim: Any):
        self.sim = sim
        self._routes: Dict[str, Tuple[Callable[[Record], None], ...]] = (
            dict.fromkeys(KINDS, ())
        )

    def subscribe(self, kind: str, fn: Callable[[Record], None]) -> None:
        if kind not in KINDS:
            raise RecordError(f"undeclared record kind {kind!r}")
        self._routes[kind] += (fn,)

    def emit(self, kind: str, **data: Any) -> None:
        if data.keys() != KINDS.get(kind):
            raise RecordError(
                f"{kind!r} payload {sorted(data)} does not match its declared "
                f"fields {sorted(KINDS[kind]) if kind in KINDS else 'undeclared'}"
            )
        fns = self._routes[kind]
        if fns:
            record = Record(self.sim.now, kind, data)
            for fn in fns:
                fn(record)


# -- the switch ----------------------------------------------------------------

_armed: Dict[str, List[Optional[Callable]]] = {}


@contextmanager
def listening(role: str, build: Optional[Callable]) -> Iterator[None]:
    """Call ``build(machine)`` for every machine built inside the block."""
    stack = _armed.setdefault(role, [])
    stack.append(build)
    try:
        yield
    finally:
        stack.pop()


def armed() -> List[Tuple[str, Callable]]:
    """The innermost builder of each armed role, in arming order."""
    return [(role, s[-1]) for role, s in _armed.items() if s and s[-1] is not None]
