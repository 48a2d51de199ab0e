"""AGILE locks, lock chains, and the deadlock-cycle detector.

The paper's §3.5 debug option: every thread carries an ``AgileLockChain``
(a linked list of the locks it currently holds).  When a thread fails to
acquire a target lock, each lock it already holds is marked as *dependent
on* the target ("I will not be released until my owner obtains the
target").  If the target lock's transitive dependency chain leads back to
any lock the thread already holds, the dependency graph has a cycle and a
:class:`DeadlockError` is raised with the cycle spelled out.

AGILE's own code paths never block while holding a lock (that is the design
contribution), so the detector stays silent for them; it exists so *user-
customized* cache/share policies — and the naive-async baseline that
reproduces the paper's Figure 1 — get an immediate diagnosis instead of a
silent hang.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Set

from repro.sim.engine import SimError, Simulator
from repro.sim.sync import Signal, SimLock


class DeadlockError(SimError):
    """A circular lock dependency was detected."""


class LockDebugger:
    """Global dependency graph over :class:`AgileLock` objects.

    Edge ``H -> T`` means: H's release currently depends on its owner
    acquiring T.  Edges are added on failed acquires and cleared when the
    blocked acquire finally succeeds or the held lock is released.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._edges: Dict["AgileLock", Set["AgileLock"]] = {}
        self.checks = 0
        self.deadlocks_found = 0
        #: Optional :class:`~repro.sim.probe.Probe`; every lock operation
        #: of every :class:`AgileLock` built with this debugger is emitted
        #: here, which is what the lock-order analyzer judges.
        self.probe = None

    def on_failed_acquire(
        self, chain: "AgileLockChain", target: "AgileLock"
    ) -> None:
        if self.probe is not None:
            self.probe.emit(
                "lock.blocked", src=target, lock=target.name, chain=chain.name,
                held=[l.name for l in chain.held],
            )
        if not self.enabled or not chain.held:
            return
        for held in chain.held:
            self._edges.setdefault(held, set()).add(target)
        self.checks += 1
        cycle = self._find_path(target, set(chain.held))
        if cycle is not None:
            self.deadlocks_found += 1
            held_names = ", ".join(l.name for l in chain.held)
            path = " -> ".join(l.name for l in cycle)
            raise DeadlockError(
                f"circular lock dependency: thread {chain.name!r} holds "
                f"[{held_names}] and wants {target.name!r}, but "
                f"{target.name!r} transitively depends on a held lock "
                f"(dependency path: {path})"
            )

    def on_acquired(self, chain: "AgileLockChain", target: "AgileLock") -> None:
        if self.probe is not None:
            # ``chain.held`` already contains ``target`` at this point.
            self.probe.emit(
                "lock.acquire", src=target, lock=target.name, chain=chain.name,
                held_before=[l.name for l in chain.held if l is not target],
            )
        if not self.enabled:
            return
        for held in chain.held:
            deps = self._edges.get(held)
            if deps is not None:
                deps.discard(target)

    def on_release(
        self, lock: "AgileLock", chain: Optional["AgileLockChain"] = None
    ) -> None:
        if self.probe is not None:
            self.probe.emit(
                "lock.release", src=lock, lock=lock.name,
                chain=chain.name if chain is not None else None,
            )
        if not self.enabled:
            return
        self._edges.pop(lock, None)

    def _find_path(
        self, start: "AgileLock", goals: Set["AgileLock"]
    ) -> Optional[List["AgileLock"]]:
        """DFS from ``start`` through dependency edges; returns a path that
        reaches any goal lock, or ``None``."""
        stack: List[tuple["AgileLock", List["AgileLock"]]] = [(start, [start])]
        seen: Set["AgileLock"] = set()
        while stack:
            node, path = stack.pop()
            if node in goals:
                return path
            if node in seen:
                continue
            seen.add(node)
            for nxt in self._edges.get(node, ()):
                stack.append((nxt, path + [nxt]))
        return None


class AgileLockChain:
    """Per-thread record of currently held locks (paper Listing 1, line 6).

    Also serves as the thread's lock-owner identity.
    """

    __slots__ = ("name", "held")

    def __init__(self, name: str = "chain"):
        self.name = name
        self.held: List["AgileLock"] = []

    def _push(self, lock: "AgileLock") -> None:
        self.held.append(lock)

    def _pop(self, lock: "AgileLock") -> None:
        self.held.remove(lock)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AgileLockChain({self.name!r}, held={[l.name for l in self.held]})"


class AgileLock:
    """A named lock participating in chain tracking and deadlock detection."""

    __slots__ = ("sim", "name", "debugger", "_lock", "released")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        debugger: Optional[LockDebugger] = None,
    ):
        self.sim = sim
        self.name = name
        self.debugger = debugger
        self._lock = SimLock(sim, name)
        #: Fired by every :meth:`release`: where a thread that backs off
        #: between ``try_acquire`` attempts parks until there is a point.
        self.released = Signal(sim, f"{name}.released")

    @property
    def locked(self) -> bool:
        return self._lock.locked

    @property
    def owner(self) -> Optional[AgileLockChain]:
        return self._lock.owner  # type: ignore[return-value]

    def try_acquire(self, chain: AgileLockChain) -> bool:
        """Non-blocking acquire.  On failure, records dependency edges and
        runs the cycle check (which may raise :class:`DeadlockError`)."""
        if self._lock.try_acquire(chain):
            chain._push(self)
            if self.debugger is not None:
                self.debugger.on_acquired(chain, self)
            return True
        if self.debugger is not None:
            self.debugger.on_failed_acquire(chain, self)
        return False

    def acquire(self, chain: AgileLockChain) -> Generator[Any, Any, None]:
        """Blocking acquire through the FIFO wait queue."""
        if self.try_acquire(chain):
            return
        yield from self._lock.acquire(chain)
        chain._push(self)
        if self.debugger is not None:
            self.debugger.on_acquired(chain, self)

    def release(self, chain: AgileLockChain) -> None:
        self._lock.release(chain)
        chain._pop(self)
        if self.debugger is not None:
            self.debugger.on_release(self, chain)
        self.released.fire()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AgileLock({self.name!r}, locked={self.locked})"
