"""Cyclic-garbage census: which reference cycles does a run leave behind?

Test-side only.  ``cyclic_garbage()`` runs a ``with`` block with the
cyclic GC off.  On exit it finds what reference counting could not free
the way the collector does (every tracked object's references from other
tracked objects subtracted from its refcount; what is left over is
referenced from outside, and whatever that reaches is alive), but without
collecting: a collection first closes the suspended generators it finds,
and what only their frames held is freed before anyone can look at it.
:attr:`Garbage.objects` is the rest, and the GC is restored as it was.
:meth:`Garbage.cycles` splits that garbage into strongly connected
components and labels every edge between two model objects ``Class.attr
-> Class``; the dicts, lists, closures, bound methods and generator frames
in between are folded into the label (``via Machine.__init__.<lambda>``).
A cycle then reads as the attributes that close it::

    with cyclic_garbage() as garbage:
        run_dlrm("bam", config1(), ...)     # locals die with the call
    print(garbage.report(Hbm, Ftl))         # cycles that pin HBM or flash

Objects a block leaves *reachable* (a module-level cache, a test's local)
are not garbage and do not show up here.  The walk visits every object
the interpreter tracks, so the guard test runs it only to explain a failure.
"""

from __future__ import annotations

import functools
import gc
import sys
import types
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Set, Tuple

#: Containers and code objects folded into an edge label, never its ends.
_GLUE = (
    dict, list, tuple, set, frozenset, deque, functools.partial,
    types.CellType, types.FunctionType, types.MethodType,
    types.BuiltinMethodType, types.FrameType, types.GeneratorType,
    types.CodeType,
)


def _is_node(obj: object) -> bool:
    return not isinstance(obj, (_GLUE, type))


def _attrs(obj: object) -> Iterator[Tuple[str, Any]]:
    """Attribute name/value pairs of an instance (``__dict__`` and slots)."""
    yield from getattr(obj, "__dict__", {}).items()
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if hasattr(obj, name) and name != "__dict__":
                yield name, getattr(obj, name)


def _via(obj: object) -> str:
    if isinstance(obj, types.MethodType):
        return obj.__func__.__qualname__
    if isinstance(obj, (types.FunctionType, types.GeneratorType)):
        return obj.__qualname__
    return ""


class Garbage:
    """What one ``cyclic_garbage()`` block left for the cyclic collector."""

    def __init__(self) -> None:
        self.objects: List[object] = []

    def of_type(self, *classes: type) -> List[object]:
        return [o for o in self.objects if isinstance(o, classes)]

    def _graph(self) -> Dict[int, List[int]]:
        ids = {id(o) for o in self.objects}
        return {
            id(o): [id(r) for r in gc.get_referents(o) if id(r) in ids]
            for o in self.objects
        }

    def cycles(self) -> List[List[object]]:
        """Strongly connected components with a cycle in them (iterative
        Tarjan over the garbage graph), largest first."""
        graph = self._graph()
        by_id = {id(o): o for o in self.objects}
        index: Dict[int, int] = {}
        low: Dict[int, int] = {}
        stack: List[int] = []
        on_stack: Set[int] = set()
        out: List[List[object]] = []
        for root in graph:
            if root in index:
                continue
            work = [(root, 0)]
            while work:
                node, i = work.pop()
                if i == 0:
                    index[node] = low[node] = len(index)
                    stack.append(node)
                    on_stack.add(node)
                succ = graph[node]
                if i < len(succ):
                    work.append((node, i + 1))
                    nxt = succ[i]
                    if nxt not in index:
                        work.append((nxt, 0))
                    elif nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                    continue
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        comp.append(member)
                        if member == node:
                            break
                    if len(comp) > 1 or node in graph[node]:
                        out.append([by_id[m] for m in comp])
        return sorted(out, key=len, reverse=True)

    def edges(self, cycle: List[object]) -> List[str]:
        """``Class.attr -> Class`` for every edge between two model objects
        of ``cycle``, glue objects in between folded into a ``via`` note."""
        members = {id(o) for o in cycle}
        found: Set[str] = set()
        for src in cycle:
            if not _is_node(src):
                continue
            for attr, value in _attrs(src):
                if id(value) not in members:
                    continue
                # Breadth-first through glue until the next model objects.
                seen = {id(value)}
                frontier = [(value, _via(value))]
                while frontier:
                    obj, via = frontier.pop(0)
                    if _is_node(obj):
                        note = f" (via {via})" if via else ""
                        found.add(
                            f"{type(src).__name__}.{attr} -> "
                            f"{type(obj).__name__}{note}"
                        )
                        continue
                    for ref in gc.get_referents(obj):
                        if id(ref) in members and id(ref) not in seen:
                            seen.add(id(ref))
                            frontier.append((ref, via or _via(ref)))
        return sorted(found)

    def holding(self, *classes: type) -> List[List[object]]:
        """The cycles that keep an instance of ``classes`` alive: it is a
        member, or reachable through garbage that is in no other cycle (a
        cycle that reaches it only through another is not the one to cut).
        """
        graph = self._graph()
        cycles = self.cycles()
        owner = {id(o): n for n, cycle in enumerate(cycles) for o in cycle}
        targets = {id(o) for o in self.of_type(*classes)}
        held = []
        for n, cycle in enumerate(cycles):
            todo = [id(o) for o in cycle]
            seen = set(todo)
            while todo:
                node = todo.pop()
                if node in targets:
                    held.append(cycle)
                    break
                for nxt in graph[node]:
                    if nxt not in seen and owner.get(nxt, n) == n:
                        seen.add(nxt)
                        todo.append(nxt)
        return held

    def report(self, *classes: type) -> str:
        """The edges of every cycle that pins an instance of ``classes``,
        cycles with the same edges counted once."""
        groups: Dict[Tuple[str, ...], List[int]] = {}
        for cycle in self.holding(*classes):
            groups.setdefault(tuple(self.edges(cycle)), []).append(len(cycle))
        if not groups:
            return "no cycle reaches " + ", ".join(c.__name__ for c in classes)
        lines = []
        for edges, sizes in groups.items():
            lines.append(f"{len(sizes)} cycle(s) of {max(sizes)} objects:")
            lines.extend(f"  {edge}" for edge in edges)
        return "\n".join(lines)


def _unreachable() -> List[object]:
    """Tracked objects only reference cycles keep alive (see the module
    docstring), found without running the collector."""
    objs = gc.get_objects()
    index = {id(o): i for i, o in enumerate(objs)}
    internal = [0] * len(objs)
    for o in objs:
        for ref in gc.get_referents(o):
            i = index.get(id(ref))
            if i is not None:
                internal[i] += 1
    del o  # the loop variable would count as an outside reference
    alive = bytearray(len(objs))
    todo = []
    for i in range(len(objs)):
        # ``getrefcount`` also counts ``objs`` and its own argument.
        if sys.getrefcount(objs[i]) - 2 > internal[i]:
            alive[i] = 1
            todo.append(i)
    while todo:
        for ref in gc.get_referents(objs[todo.pop()]):
            i = index.get(id(ref))
            if i is not None and not alive[i]:
                alive[i] = 1
                todo.append(i)
    dead = [o for o, live in zip(objs, alive) if not live]
    # Labelling reads ``__dict__``, which can create an instance's dict on
    # first access; create them all now, so the graph holds still.
    seen = {id(o) for o in dead}
    for o in list(dead):
        attrs = getattr(o, "__dict__", None) if _is_node(o) else None
        if type(attrs) is dict and id(attrs) not in seen:
            seen.add(id(attrs))
            dead.append(attrs)
    return dead


@contextmanager
def cyclic_garbage() -> Iterator[Garbage]:
    """Run the block with the cyclic GC off; yield the :class:`Garbage`
    it left (filled on exit).  The GC's enabled state is restored whether
    or not the block raises."""
    book = Garbage()
    enabled = gc.isenabled()
    gc.collect()  # start from a clean slate: earlier garbage is not ours
    gc.disable()
    try:
        yield book
    finally:
        try:
            book.objects = _unreachable()
        finally:
            if enabled:
                gc.enable()
