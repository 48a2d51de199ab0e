"""Warps and warp-level primitives.

The key primitive is :meth:`Warp.coalesce`, the simulator's stand-in for the
CUDA warp-vote/shuffle sequence (``__match_any_sync`` + leader election)
that AGILE uses for first-level request coalescing (paper §3.3.2): every
active lane contributes a request key, lanes with equal keys form a group,
the lowest lane becomes the group leader and fetches on behalf of the
group, and the other lanes wait for the leader to publish the result.

Because the simulator does not run lanes in literal lockstep, ``coalesce``
acts as a convergence point: it blocks until every *active* lane of the
warp has arrived, mirroring a full-mask ``__syncwarp``.  Lanes that do not
participate in a round pass ``NOT_PARTICIPATING`` (the predicated-off case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Hashable, List, Optional

from repro.sim.engine import Event, SimError, Simulator

#: Sentinel key for predicated-off lanes in a coalescing round.
NOT_PARTICIPATING = object()


@dataclass
class CoalesceSlot:
    """What one lane gets back from a coalescing round."""

    key: Hashable
    leader: bool
    #: Lanes (thread ids) sharing this key, including the leader.
    group: List[int]
    #: Leader publishes the fetched value here; followers wait on it.
    result: Event

    def publish(self, value: Any = None) -> None:
        """Leader-side: hand the per-key result to the followers."""
        self.result.trigger(value)


class _Round:
    __slots__ = ("keys", "arrived_event", "slots")

    def __init__(self, sim: Simulator, warp_name: str, idx: int):
        self.keys: Dict[int, Hashable] = {}
        self.arrived_event = Event(sim, name=f"{warp_name}.round{idx}")
        self.slots: Dict[int, CoalesceSlot] = {}


class Warp:
    """A group of up to ``warp_size`` threads scheduled together."""

    def __init__(self, sim: Simulator, warp_id: int, name: str = ""):
        self.sim = sim
        self.warp_id = warp_id
        self.name = name or f"warp{warp_id}"
        self._members: set[int] = set()
        self._round: Optional[_Round] = None
        self._round_idx = 0
        self.coalesce_rounds = 0
        self.coalesced_away = 0
        #: Optional :class:`repro.sim.probe.Probe` (convergence stalls).
        self.probe = None

    # -- membership (threads register at kernel start, retire at exit) -------

    def register(self, tid: int) -> None:
        self._members.add(tid)

    def retire(self, tid: int) -> None:
        """A thread leaving the kernel stops participating in convergence."""
        self._members.discard(tid)
        rnd = self._round
        if rnd is not None and len(rnd.keys) >= len(self._members):
            self._complete_round()

    # -- coalescing ------------------------------------------------------------

    def coalesce(
        self, tid: int, key: Hashable
    ) -> Generator[Any, Any, Optional[CoalesceSlot]]:
        """Converge the warp on a request round; see module docstring.

        Returns this lane's :class:`CoalesceSlot`, or ``None`` if the lane
        passed ``NOT_PARTICIPATING``.
        """
        if tid not in self._members:
            raise SimError(f"thread {tid} not registered with {self.name}")
        if self._round is None:
            self._round_idx += 1
            self._round = _Round(self.sim, self.name, self._round_idx)
        rnd = self._round
        if tid in rnd.keys:
            raise SimError(
                f"thread {tid} arrived twice in one coalescing round of "
                f"{self.name}"
            )
        rnd.keys[tid] = key
        if len(rnd.keys) >= len(self._members):
            self._complete_round()
        elif self.probe is not None:
            wait_t0 = self.sim.now
            yield rnd.arrived_event
            self.probe.emit(
                "gpu.stall", reason="warp_converge", ns=self.sim.now - wait_t0,
            )
        else:
            yield rnd.arrived_event
        slot = rnd.slots.get(tid)
        return slot

    def _complete_round(self) -> None:
        rnd = self._round
        if rnd is None or rnd.arrived_event.triggered:
            return
        self._round = None
        self.coalesce_rounds += 1
        groups: Dict[Hashable, List[int]] = {}
        for tid, key in sorted(rnd.keys.items()):
            if key is NOT_PARTICIPATING:
                continue
            groups.setdefault(key, []).append(tid)
        for key, group in groups.items():
            result = Event(self.sim, name=f"{self.name}.result.{key!r}")
            leader = group[0]
            self.coalesced_away += len(group) - 1
            for tid in group:
                rnd.slots[tid] = CoalesceSlot(
                    key=key, leader=(tid == leader), group=group, result=result
                )
        rnd.arrived_event.trigger()
