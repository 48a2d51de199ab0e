"""Synchronization primitives layered on the engine: mutex and signal."""

from __future__ import annotations

from typing import Any, Generator, Hashable, Optional

from repro.sim.engine import At, Event, SimError, Simulator


class SimLock:
    """FIFO mutex with owner tracking.

    Unlike a counting semaphore, a lock remembers *who*
    holds it, which the AGILE lock-chain deadlock detector (paper §3.5)
    needs in order to build the waits-for graph.
    """

    __slots__ = ("sim", "name", "owner", "_waiters", "_ev_name")

    def __init__(self, sim: Simulator, name: str = "lock"):
        self.sim = sim
        self.name = name
        self.owner: Optional[Hashable] = None
        self._waiters: list[tuple[Hashable, Event]] = []
        # Precomputed once: contended acquires are hot, names are debug-only.
        self._ev_name = f"{name}.acquire"

    @property
    def locked(self) -> bool:
        return self.owner is not None

    def try_acquire(self, who: Hashable) -> bool:
        if self.owner is None and not self._waiters:
            self.owner = who
            return True
        return False

    def acquire(self, who: Hashable) -> Generator[Any, Any, None]:
        if self.try_acquire(who):
            return
        if self.owner == who:
            raise SimError(f"{who!r} re-acquired non-reentrant lock {self.name!r}")
        ev = Event(self.sim, name=self._ev_name)
        self._waiters.append((who, ev))
        yield ev

    def release(self, who: Hashable) -> None:
        if self.owner != who:
            raise SimError(
                f"{who!r} released lock {self.name!r} owned by {self.owner!r}"
            )
        if self._waiters:
            next_who, ev = self._waiters.pop(0)
            self.owner = next_who
            ev.trigger()
        else:
            self.owner = None


class Signal:
    """One-shot hook on a state change: the owner of the state calls
    :meth:`fire`; a process blocks on the next one with :meth:`wait`, and
    one that would otherwise re-check the state on a fixed back-off period
    with :meth:`park` — two events, however many periods the change takes."""

    __slots__ = ("sim", "name", "_waiters")

    def __init__(self, sim: Simulator, name: str = "signal"):
        self.sim = sim
        self.name = name
        self._waiters: list[Event] = []

    def fire(self) -> None:
        """Wake every process parked since the last fire."""
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for ev in waiters:
                ev.trigger()

    def _alarm(self, ev: Event, when: float) -> Generator[Any, Any, None]:
        yield At(when)
        if ev in self._waiters:
            self._waiters.remove(ev)
            ev.trigger()

    def wait(self, deadline: Optional[float] = None) -> Generator[Any, Any, None]:
        """Block until the next :meth:`fire`, or ``deadline`` if that is first."""
        ev = Event(self.sim, name=self.name)
        self._waiters.append(ev)
        if deadline is not None:
            self.sim.spawn(self._alarm(ev, deadline), name=self.name, daemon=True)
        try:
            yield ev
        finally:  # also runs when a waiting process is killed
            if not ev.triggered:
                self._waiters.remove(ev)

    def park(
        self, period: float, limit: Optional[int] = None
    ) -> Generator[Any, Any, int]:
        """Sit out the visits of ``while ...: yield Timeout(period)`` that
        cannot observe anything: :meth:`wait` (with ``limit``, until that
        visit of the grid at the latest), then land on the first visit at or
        after now with one ``At``.  The grid is replayed addition by
        addition, so the landing time is bit-equal to the spinning waiter's.
        Returns the visits made, the landing one included; the caller books
        the skipped ones."""
        sim = self.sim
        t = sim.now
        deadline = None
        if limit is not None:
            deadline = t
            for _ in range(limit):
                deadline += period
        yield from self.wait(deadline)
        t += period
        visits = 1
        while t < sim.now:
            t += period
            visits += 1
        yield At(t)
        return visits
