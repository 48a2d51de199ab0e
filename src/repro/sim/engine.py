"""Core event loop, processes, events, and timeouts.

Times are floats in nanoseconds.  Ties are broken by a monotonically
increasing sequence number, making runs bit-deterministic.

Scheduling is two-tiered (the dispatch fast path):

- an **immediate FIFO deque** holds every ``delay == 0.0`` schedule — the
  overwhelmingly common case (process resumes, event wakeups, cooperative
  re-schedules).  Appending to and popping from a deque is O(1) with no
  comparison work.
- a **timeout heap** keyed by ``(time, seq)`` holds only true timeouts,
  :class:`At` wake-ups and absolute-time callbacks.

Both tiers share one global sequence counter, and the dispatcher always
pops whichever front has the smaller ``(time, seq)``, so the merged order
is bit-identical to the classic single-heap formulation: among events at
the same timestamp, schedule order wins (FIFO).  The immediate queue is
drained before simulated time may advance.

Dispatch is allocation-free on the fast path: instead of a fresh closure
per step, each :class:`Process` owns one reusable ``[seq, kind, target,
payload]`` dispatch record that is mutated in place and appended to the
queue.  Raw callbacks go through the narrow scheduler-facing API,
:meth:`Simulator.schedule_at`, which takes ``fn, *args`` so callers never
need to build a ``lambda``.

Deadlock handling is first-class because the paper's motivating bug
(Figure 1) *is* a deadlock: the engine detects both global deadlock (event
queues empty while non-daemon processes still wait) and stalls (no
non-daemon process has advanced for ``watchdog_ns`` of simulated time
while daemons keep the queues warm), and reports which processes are
stuck on what.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

SimGenerator = Generator[Any, Any, Any]

#: Dispatch-record kinds.  A record is ``[seq, kind, target, payload]``:
#: SEND/THROW target a :class:`Process` (resume value / exception in the
#: payload slot); CALL targets a plain callable with an argument tuple.
_K_SEND = 0
_K_THROW = 1
_K_CALL = 2


class SimError(RuntimeError):
    """Base class for simulation errors."""


class SimDeadlockError(SimError):
    """Raised when no events remain but non-daemon processes still wait."""


class SimStallError(SimError):
    """Raised when the watchdog sees no non-daemon progress for too long."""


class Timeout:
    """Awaitable delay.  ``yield Timeout(dt)`` resumes ``dt`` ns later."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = delay
        self.value = value


class At:
    """Awaitable wake-up.  ``yield At(when)`` resumes at absolute time
    ``when`` exactly: no ``now + delay`` rounding between the caller's
    arithmetic and the heap key.  ``when`` must not be in the past."""

    __slots__ = ("when",)

    def __init__(self, when: float):
        self.when = when

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"At({self.when})"


class Event:
    """One-shot event.  Processes yielding an untriggered event block until
    :meth:`trigger` (resumed with the trigger value) or :meth:`fail` (the
    exception is thrown into the waiting generator).

    Yielding an already-triggered event resumes immediately — this makes
    "maybe already done" barriers (e.g. AGILE transaction barriers) natural.
    """

    __slots__ = ("sim", "name", "_waiters", "_triggered", "_value", "_exc")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._waiters: list[Process] = []
        self._triggered = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    def wait(self) -> Generator[Any, Any, None]:
        """``yield from ev.wait()``: block until triggered; a triggered event
        passes at once, without the resume event ``yield ev`` would cost."""
        if not self._triggered:
            yield self

    def trigger(self, value: Any = None) -> None:
        if self._triggered:
            raise SimError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        waiters = self._waiters
        if waiters:
            # Batched wakeup: enqueue every waiter's dispatch record in one
            # pass (schedule order == waiter registration order, matching
            # the historical per-waiter _schedule semantics).
            sim = self.sim
            imm = sim._immediate
            seq = sim._seq
            for proc in waiters:
                proc._waiting_on = None
                seq += 1
                if proc._rec_queued:
                    imm.append([seq, _K_SEND, proc, value])
                else:
                    rec = proc._record
                    rec[0] = seq
                    rec[1] = _K_SEND
                    rec[3] = value
                    proc._rec_queued = True
                    imm.append(rec)
            sim._seq = seq
            self._waiters = []

    def fail(self, exc: BaseException) -> None:
        if self._triggered:
            raise SimError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._exc = exc
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            proc._schedule_throw(exc)

    def _add_waiter(self, proc: "Process") -> None:
        if self._triggered:
            if self._exc is not None:
                proc._schedule_throw(self._exc)
            else:
                proc._schedule_resume(self._value)
        else:
            self._waiters.append(proc)
            proc._waiting_on = self


class Process:
    """A running simulation process wrapping a generator.

    Yield targets: :class:`Timeout`, :class:`At`, :class:`Event`, another
    :class:`Process` (join), or ``None`` (yield the engine, resume at the
    same timestamp after other pending events — a cooperative re-schedule).
    """

    __slots__ = (
        "sim",
        "name",
        "daemon",
        "_gen",
        "alive",
        "_done_event",
        "value",
        "_waiting_on",
        "_record",
        "_rec_queued",
    )

    def __init__(
        self,
        sim: "Simulator",
        gen: SimGenerator,
        name: str = "proc",
        daemon: bool = False,
    ):
        self.sim = sim
        self.name = name
        self.daemon = daemon
        self._gen = gen
        self.alive = True
        self.value: Any = None
        self._done_event = Event(sim, name=f"{name}.done")
        self._waiting_on: Any = None
        #: Reusable dispatch record.  A process has at most one pending
        #: resume at a time, so the same list is mutated and re-enqueued
        #: for every step; ``_rec_queued`` guards the rare overlap.
        self._record: list = [0, _K_SEND, self, None]
        self._rec_queued = False

    # -- engine plumbing ---------------------------------------------------

    def _enqueue(
        self, kind: int, payload: Any, when: Optional[float] = None
    ) -> None:
        """Queue this process's next step, now or at absolute time ``when``
        (record reuse fast path)."""
        sim = self.sim
        sim._seq += 1
        if self._rec_queued:
            rec = [sim._seq, kind, self, payload]
        else:
            rec = self._record
            rec[0] = sim._seq
            rec[1] = kind
            rec[3] = payload
            self._rec_queued = True
        if when is None or when == sim.now:
            sim._immediate.append(rec)
        else:
            heapq.heappush(sim._heap, (when, rec[0], rec))

    def _schedule_resume(self, value: Any) -> None:
        self._waiting_on = None
        self._enqueue(_K_SEND, value)

    def _schedule_throw(self, exc: BaseException) -> None:
        self._waiting_on = None
        self._enqueue(_K_THROW, exc)

    def _step_send(self, value: Any) -> None:
        if not self.alive:
            return
        if not self.daemon:
            self.sim._last_progress = self.sim.now
        try:
            item = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:
            self._finish_error(exc)
            return
        # The overwhelmingly common yields — Timeout, At and a pending
        # Event — are handled inline; everything else falls through to
        # _dispatch.  Same behaviour, one less call per step.
        if type(item) is Timeout:
            self._waiting_on = item
            self._enqueue(_K_SEND, item.value, self.sim.now + item.delay)
        elif type(item) is At and item.when >= self.sim.now:
            self._waiting_on = item
            self._enqueue(_K_SEND, None, item.when)
        elif isinstance(item, Event) and not item._triggered:
            item._waiters.append(self)
            self._waiting_on = item
        else:
            self._dispatch(item)

    def _step_throw(self, exc: BaseException) -> None:
        if not self.alive:
            return
        if not self.daemon:
            self.sim._last_progress = self.sim.now
        try:
            item = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as err:
            self._finish_error(err)
            return
        if type(item) is Timeout:
            self._waiting_on = item
            self._enqueue(_K_SEND, item.value, self.sim.now + item.delay)
        elif type(item) is At and item.when >= self.sim.now:
            self._waiting_on = item
            self._enqueue(_K_SEND, None, item.when)
        elif isinstance(item, Event) and not item._triggered:
            item._waiters.append(self)
            self._waiting_on = item
        else:
            self._dispatch(item)

    def _dispatch(self, item: Any) -> None:
        if item is None:
            self._enqueue(_K_SEND, None)
        elif type(item) is Timeout:
            self._waiting_on = item
            self._enqueue(_K_SEND, item.value, self.sim.now + item.delay)
        elif isinstance(item, Event):
            item._add_waiter(self)
        elif isinstance(item, Process):
            item._done_event._add_waiter(self)
            if self._waiting_on is not None:
                # Still blocked: report the join target, not its done-event.
                self._waiting_on = item
        elif type(item) is At:  # refused inline: schedule_at's rule
            self._finish_error(SimError(
                f"process {self.name!r} yielded {item!r} in the past "
                f"(now {self.sim.now})"
            ))
        else:
            exc = SimError(
                f"process {self.name!r} yielded unsupported object {item!r}"
            )
            self._finish_error(exc)

    def _finish(self, value: Any) -> None:
        self.alive = False
        self.value = value
        self.sim._proc_finished(self)
        self._done_event.trigger(value)

    def _finish_error(self, exc: BaseException) -> None:
        self.alive = False
        self.sim._proc_finished(self)
        if self._done_event._waiters:
            self._done_event.fail(exc)
        else:
            # No joiner: surface the failure from the event loop itself.
            self.sim._crash(exc, self)

    # -- public API ----------------------------------------------------------

    @property
    def done_event(self) -> Event:
        """Event triggered with the process return value on completion."""
        return self._done_event

    def kill(self) -> None:
        """Terminate the process immediately (used to stop daemons)."""
        if not self.alive:
            return
        self.alive = False
        self._gen.close()
        self.sim._proc_finished(self)
        if not self._done_event.triggered:
            self._done_event.trigger(None)

    def waiting_description(self) -> str:
        """Human-readable description of what this process is blocked on."""
        target = self._waiting_on
        if target is None:
            return "runnable"
        if isinstance(target, Event):
            return f"event {target.name!r}"
        if isinstance(target, Timeout):
            return f"timeout {target.delay} ns"
        if isinstance(target, At):
            return f"wake at {target.when} ns"
        if isinstance(target, Process):
            return f"joining process '{target.name}'"
        return repr(target)


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        p = sim.spawn(my_generator(), name="worker")
        sim.run()             # until no non-daemon work remains
        print(sim.now, p.value)
    """

    def __init__(self, watchdog_ns: float = 0.0):
        self.now: float = 0.0
        #: FIFO of dispatch records scheduled at the current time.
        self._immediate: deque[list] = deque()
        #: True timeouts only: ``(time, seq, record)``.
        self._heap: list[tuple[float, int, list]] = []
        self._seq = 0
        self._alive_nondaemon = 0
        self._alive: set[Process] = set()
        self._last_progress = 0.0
        #: Simulated ns of daemon-only activity tolerated before declaring a
        #: stall.  0 disables the watchdog.
        self.watchdog_ns = watchdog_ns
        self._crashed: Optional[tuple[BaseException, Process]] = None
        #: Lifetime total of dispatched events (across all run() calls).
        self.event_count = 0
        self._raw_pending = 0
        #: Alive targets of the current bounded run() call, maintained by
        #: _proc_finished so the hot loop never rescans the target list.
        self._run_targets: Optional[set[Process]] = None
        #: Optional :class:`repro.sim.probe.Probe` (``sim.run`` windows).
        self.probe = None

    # -- scheduling ----------------------------------------------------------

    def schedule_at(
        self, when: float, fn: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``; at
        ``when == now`` it runs after every already-queued same-time event
        (FIFO).

        This is the scheduler-facing API for model code: no closure needed —
        pass the callable and its arguments.  Raw callbacks count as pending
        work (e.g. an in-flight doorbell value that has not yet reached the
        SSD): ``run()`` will not declare the simulation finished while any
        are outstanding.
        """
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        self._raw_pending += 1
        self._seq += 1
        if when == self.now:
            self._immediate.append([self._seq, _K_CALL, fn, args])
        else:
            heapq.heappush(self._heap, (when, self._seq, [self._seq, _K_CALL, fn, args]))

    def close(self) -> None:
        """End the simulation for good: drop every pending event and kill
        every live process.  A suspended process's frame holds model
        objects and they hold the simulator, so a run that ends with a
        daemon still scheduled (a background GC pass, say) would otherwise
        keep its whole machine in a reference cycle.  Nothing is simulated
        after this, so the kill order is moot."""
        self._heap.clear()
        self._raw_pending = 0
        for proc in list(self._alive):
            proc.kill()
        self._immediate.clear()

    def _crash(self, exc: BaseException, proc: Process) -> None:
        if self._crashed is None:
            self._crashed = (exc, proc)

    def _proc_finished(self, proc: Process) -> None:
        self._alive.discard(proc)
        if not proc.daemon:
            self._alive_nondaemon -= 1
        if self._run_targets is not None:
            self._run_targets.discard(proc)

    # -- process management ---------------------------------------------------

    def spawn(
        self, gen: SimGenerator, name: str = "proc", daemon: bool = False
    ) -> Process:
        """Create a process from a generator and schedule its first step."""
        proc = Process(self, gen, name=name, daemon=daemon)
        self._alive.add(proc)
        if not daemon:
            self._alive_nondaemon += 1
        proc._enqueue(_K_SEND, None)
        return proc

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(delay, value)

    # -- running ---------------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        until_procs: Optional[Iterable[Process]] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Drive the event loop.

        Stops when: all non-daemon processes finish; simulated time reaches
        ``until``; all of ``until_procs`` complete; or ``max_events`` events
        have been processed *by this call* (``event_count`` stays the
        lifetime total).  Raises :class:`SimDeadlockError` if the queues
        drain while non-daemon processes still wait, and
        :class:`SimStallError` if the watchdog fires.
        """
        targets: Optional[set[Process]] = None
        if until_procs is not None:
            targets = {p for p in until_procs if p.alive}
        self._run_targets = targets
        probe = self.probe
        if probe is not None:
            span_t0 = self.now
            span_e0 = self.event_count
        try:
            self._run(until, targets, max_events)
        finally:
            self._run_targets = None
            if probe is not None:
                # Passive record — never a scheduled event, so the
                # dispatched stream is identical with the probe off.
                probe.emit("sim.run", t0=span_t0, events=self.event_count - span_e0)

    def _run(
        self,
        until: Optional[float],
        targets: Optional[set[Process]],
        max_events: Optional[int],
    ) -> None:
        imm = self._immediate
        heap = self._heap
        heappop = heapq.heappop
        watchdog = self.watchdog_ns
        processed = 0
        now = self.now
        while imm or heap:
            if self._crashed is not None:
                exc, proc = self._crashed
                self._crashed = None
                raise SimError(
                    f"process {proc.name!r} died with an unhandled error"
                ) from exc
            if targets is not None:
                if not targets:
                    return
            elif self._alive_nondaemon == 0 and self._raw_pending == 0:
                return
            # Pop whichever front has the smaller (time, seq).  Immediate
            # records carry the current timestamp, so only a heap entry that
            # already expired (time == now) with an older seq can precede
            # them; the immediate tier is always drained before time moves.
            from_heap = True
            if imm:
                rec = imm[0]
                if heap and heap[0][0] <= now and heap[0][1] < rec[0]:
                    when, _, rec = heappop(heap)
                else:
                    imm.popleft()
                    when = now
                    from_heap = False
            else:
                when, _, rec = heappop(heap)
            if until is not None and when > until:
                # Put it back; we stop exactly at the horizon.
                if from_heap:
                    heapq.heappush(heap, (when, rec[0], rec))
                else:
                    imm.appendleft(rec)
                self.now = until
                return
            self.now = now = when
            if (
                watchdog > 0
                and self._alive_nondaemon > 0
                and when - self._last_progress > watchdog
            ):
                raise SimStallError(self._stall_report())
            kind = rec[1]
            if kind == _K_SEND:
                target = rec[2]
                payload = rec[3]
                if rec is target._record:
                    target._rec_queued = False
                    rec[3] = None
                target._step_send(payload)
            elif kind == _K_CALL:
                self._raw_pending -= 1
                rec[2](*rec[3])
            else:
                target = rec[2]
                payload = rec[3]
                if rec is target._record:
                    target._rec_queued = False
                    rec[3] = None
                target._step_throw(payload)
            self.event_count += 1
            if max_events is not None:
                processed += 1
                if processed >= max_events:
                    return
        if self._crashed is not None:
            exc, proc = self._crashed
            self._crashed = None
            raise SimError(
                f"process {proc.name!r} died with an unhandled error"
            ) from exc
        if targets:
            raise SimDeadlockError(self._stall_report())
        if self._alive_nondaemon > 0:
            raise SimDeadlockError(self._stall_report())

    def _stall_report(self) -> str:
        stuck = [
            f"  {p.name}: waiting on {p.waiting_description()}"
            for p in sorted(self._alive, key=lambda p: p.name)
            if p.alive and not p.daemon
        ]
        header = (
            f"simulation made no non-daemon progress "
            f"(t={self.now:.0f} ns, last progress at "
            f"{self._last_progress:.0f} ns); blocked processes:"
        )
        return "\n".join([header] + (stuck or ["  (none alive)"]))
