"""Property tests for the two-tier scheduler (immediate deque + timeout heap).

The refactored engine routes ``delay == 0.0`` work through a FIFO deque and
true timeouts through a heap, merging by ``(time, seq)``.  Its contract is
bit-identical ordering with the classic formulation: one heap keyed by
``(time, seq)`` where ``seq`` is a global schedule counter.  Hypothesis
generates adversarial interleavings — nested callback trees and processes
mixing zero and non-zero delays — and compares the engine's dispatch order
against a direct single-heap reference model.  ``At`` wake-ups take the
same two tiers (``At(now)`` the deque, a later time the heap).
"""

from __future__ import annotations

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import At, Simulator, Timeout

#: Delay pool: zero-delay biased (it is the common case in the real models),
#: with repeated values so same-timestamp ties actually happen.
DELAYS = st.sampled_from([0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 2.0])

#: A schedule tree: (delay, children) — firing a node schedules its children.
NODES = st.recursive(
    st.tuples(DELAYS, st.just(())),
    lambda kids: st.tuples(DELAYS, st.lists(kids, max_size=3)),
    max_leaves=25,
)
PROGRAMS = st.lists(NODES, min_size=1, max_size=8)


def run_engine_callbacks(program):
    """Execute a schedule tree on the real engine via the narrow API."""
    sim = Simulator()
    order = []
    ids = itertools.count()

    def fire(nid, kids):
        order.append((sim.now, nid))
        for child in kids:
            schedule(child)

    def schedule(node):
        delay, kids = node
        nid = next(ids)
        if delay == 0.0:
            sim.schedule_at(sim.now, fire, nid, kids)
        else:
            sim.schedule_at(sim.now + delay, fire, nid, kids)

    for node in program:
        schedule(node)
    sim.run()
    return order


def run_reference_callbacks(program):
    """The classic single-heap (time, seq) scheduler, straight-line."""
    heap = []
    seq = itertools.count()
    ids = itertools.count()
    order = []
    now = 0.0

    def schedule(node, now):
        delay, kids = node
        nid = next(ids)
        heapq.heappush(heap, (now + delay, next(seq), nid, kids))

    for node in program:
        schedule(node, now)
    while heap:
        now, _, nid, kids = heapq.heappop(heap)
        order.append((now, nid))
        for child in kids:
            schedule(child, now)
    return order


@settings(max_examples=200, deadline=None)
@given(PROGRAMS)
def test_callback_order_matches_single_heap_reference(program):
    assert run_engine_callbacks(program) == run_reference_callbacks(program)


#: Per-process scripts for the generator-process property.  A step is a
#: relative delay (zero: a bare yield) or an absolute wake-up time, clamped
#: to now; the pool repeats so ``At`` ties with timeouts and with ``At(now)``.
STEPS = st.one_of(
    st.tuples(st.just("delay"), DELAYS),
    st.tuples(st.just("at"), st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 3.0])),
)
SCRIPTS = st.lists(
    st.lists(STEPS, min_size=1, max_size=6), min_size=1, max_size=6
)


def run_engine_processes(scripts):
    sim = Simulator()
    order = []

    def worker(i, steps):
        for step, (kind, x) in enumerate(steps):
            if kind == "at":
                yield At(max(x, sim.now))
            elif x == 0.0:
                yield None  # cooperative re-schedule at the same timestamp
            else:
                yield Timeout(x)
            order.append((sim.now, i, step))

    for i, steps in enumerate(scripts):
        sim.spawn(worker(i, steps), name=f"w{i}")
    sim.run()
    return order


def run_reference_processes(scripts):
    """Single-heap model of the same processes: spawning queues a step at
    t=0; each step re-queues the next with a fresh global seq."""
    heap = []
    seq = itertools.count()
    order = []
    # Spawn order defines the initial seq numbers, exactly like spawn().
    for i, steps in enumerate(scripts):
        heapq.heappush(heap, (0.0, next(seq), i, -1))
    while heap:
        now, _, i, step = heapq.heappop(heap)
        if step >= 0:
            order.append((now, i, step))
        nxt = step + 1
        if nxt < len(scripts[i]):
            kind, x = scripts[i][nxt]
            when = max(x, now) if kind == "at" else now + x
            heapq.heappush(heap, (when, next(seq), i, nxt))
    return order


@settings(max_examples=300, deadline=None)
@given(SCRIPTS)
def test_process_wakeup_order_matches_single_heap_reference(scripts):
    assert run_engine_processes(scripts) == run_reference_processes(scripts)


@given(st.integers(min_value=2, max_value=12))
@settings(max_examples=50, deadline=None)
def test_fifo_among_same_timestamp_schedules(n):
    """Pure zero-delay storm: strict FIFO in schedule order."""
    sim = Simulator()
    seen = []
    for i in range(n):
        sim.schedule_at(0.0, seen.append, i)
    sim.run()
    assert seen == list(range(n))
    assert sim.now == 0.0
