"""Offline happens-before race and lock-order analysis (paper §3.5).

Both analyzers replay the records an :class:`~repro.sim.trace.EventLog`
retained during a run, so they report *potential* bugs even when the
particular seed's interleaving happened to be benign:

- :class:`LockOrderAnalyzer` builds the lock-acquisition-order graph over
  every :class:`~repro.core.locks.AgileLockChain`/``AgileLock`` operation.
  A cycle in that graph means two chains acquired the same locks in
  opposite orders — a latent deadlock that a different interleaving can
  trigger even though this run completed.  This is strictly stronger than
  the runtime :class:`~repro.core.locks.LockDebugger`, which only fires
  when the inversion actually blocks.
- :class:`DataRaceAnalyzer` applies an Eraser-style lockset discipline to
  cache-line data copies: AGILE's synchronization rule for line data is
  the *pin* (§2.3.2 — a pin is held across every bounded copy).  Two
  accesses to the same line incarnation from different threads, at least
  one a write and at least one unpinned, are an unsynchronized read/write
  pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.sim.probe import Record
from repro.sim.trace import EventLog


def simple_cycles(edges: Iterable[Tuple[str, str]]) -> List[List[str]]:
    """Simple cycles of the directed graph with these ``(held, acquired)``
    edges.

    Output is canonical — each cycle rotated so its smallest node comes
    first, deduplicated, and the list sorted — so reports diff cleanly
    between runs regardless of edge insertion order.
    """
    graph: Dict[str, Set[str]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
    out: List[List[str]] = []
    seen: Set[Tuple[str, ...]] = set()
    visiting: List[str] = []
    state: Dict[str, int] = {}  # 0 unvisited / 1 on stack / 2 done

    def dfs(node: str) -> None:
        state[node] = 1
        visiting.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt, 0) == 1:
                nodes = visiting[visiting.index(nxt):]
                pivot = nodes.index(min(nodes))
                nodes = nodes[pivot:] + nodes[:pivot]
                key = tuple(nodes)
                if key not in seen:
                    seen.add(key)
                    out.append(nodes + [nodes[0]])
            elif state.get(nxt, 0) == 0:
                dfs(nxt)
        visiting.pop()
        state[node] = 2

    for node in sorted(graph):
        if state.get(node, 0) == 0:
            dfs(node)
    out.sort()
    return out


@dataclass(frozen=True)
class LockOrderInversion:
    """Two locks acquired in opposite orders by different chains."""

    lock_a: str
    lock_b: str
    #: Chains that acquired a-then-b, with the sim time of the witness.
    forward_chains: Tuple[Tuple[str, float], ...]
    #: Chains that acquired b-then-a.
    reverse_chains: Tuple[Tuple[str, float], ...]

    def describe(self) -> str:
        fwd = ", ".join(f"{c} (t={t:.0f})" for c, t in self.forward_chains)
        rev = ", ".join(f"{c} (t={t:.0f})" for c, t in self.reverse_chains)
        return (
            f"lock-order inversion between {self.lock_a!r} and "
            f"{self.lock_b!r}: [{fwd}] acquired {self.lock_a} -> "
            f"{self.lock_b} but [{rev}] acquired {self.lock_b} -> "
            f"{self.lock_a}"
        )


@dataclass(frozen=True)
class RaceReport:
    """An unsynchronized read/write pair on one cache-line incarnation."""

    line: int
    tag: Optional[tuple]
    first: Tuple[int, str, bool, float]   # (tid, rw, pinned, t)
    second: Tuple[int, str, bool, float]

    def describe(self) -> str:
        def fmt(acc: Tuple[int, str, bool, float]) -> str:
            tid, rw, pinned, t = acc
            kind = "write" if rw == "w" else "read"
            pin = "pinned" if pinned else "UNPINNED"
            return f"t{tid} {kind} ({pin}, t={t:.0f})"

        return (
            f"potential race on cache line {self.line} (tag {self.tag}): "
            f"{fmt(self.first)} vs {fmt(self.second)}"
        )


class LockOrderAnalyzer:
    """Builds the acquisition-order graph; reports inversions and leaks."""

    def __init__(self) -> None:
        #: (held, acquired) -> witnesses {(chain, t)}.
        self._edges: Dict[Tuple[str, str], Set[Tuple[str, float]]] = {}
        #: lock -> (chain, t) of its acquire, until a release answers it.
        self._held: Dict[str, Tuple[str, float]] = {}
        self.acquisitions = 0

    def feed(self, events: Iterable[Record]) -> "LockOrderAnalyzer":
        for event in events:
            if event.kind == "lock.release":
                self._held.pop(event["lock"], None)
            if event.kind != "lock.acquire":
                continue
            self.acquisitions += 1
            target = event["lock"]
            chain = event["chain"]
            self._held[target] = (chain, event.t)
            for held in event["held_before"]:
                if held == target:
                    continue
                self._edges.setdefault((held, target), set()).add(
                    (chain, event.t)
                )
        return self

    def inversions(self) -> List[LockOrderInversion]:
        """Pairwise inversions: edges present in both directions."""
        found: List[LockOrderInversion] = []
        seen: Set[Tuple[str, str]] = set()
        for (a, b), forward in sorted(self._edges.items()):
            if (b, a) in seen or (a, b) in seen:
                continue
            reverse = self._edges.get((b, a))
            if not reverse:
                continue
            seen.add((a, b))
            found.append(
                LockOrderInversion(
                    lock_a=a,
                    lock_b=b,
                    forward_chains=tuple(sorted(forward)),
                    reverse_chains=tuple(sorted(reverse)),
                )
            )
        return found

    def leaks(self) -> List[str]:
        """Locks still held at the end of the log."""
        return [
            f"lock {lock!r} acquired by {chain} at t={t:.0f} was never released"
            for lock, (chain, t) in sorted(self._held.items())
        ]

    def cycles(self) -> List[List[str]]:
        """Simple cycles in the acquisition-order graph (covers chains of
        length > 2 that pairwise inspection misses: A->B->C->A)."""
        return simple_cycles(self._edges)


class DataRaceAnalyzer:
    """Pin-discipline (lockset-style) checking of cache data accesses."""

    def __init__(self) -> None:
        #: line index -> current incarnation counter (bumped on re-claim).
        self._generation: Dict[int, int] = {}
        #: (line, generation) -> accesses [(tid, rw, pinned, t)].
        self._accesses: Dict[
            Tuple[int, int], List[Tuple[int, str, bool, float]]
        ] = {}
        self._tags: Dict[Tuple[int, int], Optional[tuple]] = {}

    def feed(self, events: Iterable[Record]) -> "DataRaceAnalyzer":
        for event in events:
            if event.kind == "cache.state":
                # A transition to BUSY re-purposes the line for a new tag:
                # accesses to different incarnations can never race.
                if getattr(event["new"], "name", "") == "BUSY":
                    line = event["line"]
                    self._generation[line] = self._generation.get(line, 0) + 1
            elif event.kind == "cache.access":
                line = event["line"]
                gen = self._generation.get(line, 0)
                key = (line, gen)
                self._accesses.setdefault(key, []).append(
                    (event["tid"], event["rw"], event["pinned"], event.t)
                )
                self._tags[key] = event["tag"]
        return self

    def races(self) -> List[RaceReport]:
        found: List[RaceReport] = []
        for key, accesses in sorted(self._accesses.items()):
            line, _gen = key
            reported: Set[Tuple[int, int]] = set()
            for i, first in enumerate(accesses):
                for second in accesses[i + 1:]:
                    if first[0] == second[0]:
                        continue  # same thread
                    if first[1] != "w" and second[1] != "w":
                        continue  # read/read
                    if first[2] and second[2]:
                        continue  # both pinned: synchronized by discipline
                    pair = (first[0], second[0])
                    if pair in reported:
                        continue
                    reported.add(pair)
                    found.append(
                        RaceReport(
                            line=line, tag=self._tags.get(key),
                            first=first, second=second,
                        )
                    )
        return found


@dataclass
class AnalysisReport:
    """Combined offline findings for one recorded run."""

    inversions: List[LockOrderInversion] = field(default_factory=list)
    cycles: List[List[str]] = field(default_factory=list)
    races: List[RaceReport] = field(default_factory=list)
    leaks: List[str] = field(default_factory=list)
    events_seen: int = 0
    #: Older records the bounded log dropped (findings cover the rest).
    events_dropped: int = 0

    @property
    def clean(self) -> bool:
        return not (self.inversions or self.cycles or self.races or self.leaks)

    def summary(self) -> str:
        dropped = self.events_dropped
        lines = [
            f"analyzed {self.events_seen} events"
            f"{f' ({dropped} older ones dropped)' if dropped else ''}: "
            f"{len(self.inversions)} lock-order inversion(s), "
            f"{len(self.cycles)} acquisition cycle(s), "
            f"{len(self.races)} potential data race(s)"
        ]
        for inv in self.inversions:
            lines.append(f"  - {inv.describe()}")
        for cyc in self.cycles:
            lines.append(f"  - acquisition cycle: {' -> '.join(cyc)}")
        for race in self.races:
            lines.append(f"  - {race.describe()}")
        lines.extend(f"  - {leak}" for leak in self.leaks)
        return "\n".join(lines)


def analyze(log: EventLog) -> AnalysisReport:
    """Run both offline analyzers over a recorded log."""
    events = list(log.events())
    lock = LockOrderAnalyzer().feed(events)
    data = DataRaceAnalyzer().feed(events)
    return AnalysisReport(
        inversions=lock.inversions(),
        cycles=lock.cycles(),
        races=data.races(),
        leaks=lock.leaks(),
        events_seen=len(events),
        events_dropped=log.dropped,
    )
