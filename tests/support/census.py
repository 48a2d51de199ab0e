"""Yield-site census: which ``yield`` does the simulator spend its events on?

Test-side only.  ``census()`` wraps :meth:`Process._step_send` for the
duration of a ``with`` block and books every resume of a live process to
the innermost suspended generator frame (file:line of the ``yield`` being
resumed) and to what that yield waited on (``Timeout``, ``At`` or an
event).  A fixed-period ``Timeout`` site holding a large share of all
dispatched events is a wait-by-spinning loop: the waiter should park on
the state change it waits for and rejoin its back-off grid (DESIGN §2
item 6, "the general rule").
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

from repro.sim.engine import At, Process, Timeout

Site = Tuple[str, int, str, str]  # (file, line, function, awaited kind)


class Census:
    def __init__(self) -> None:
        self.sites: Counter[Site] = Counter()
        #: Resumes of live processes (first steps and raw callbacks are
        #: events too, so this is a little below ``Simulator.event_count``).
        self.resumes = 0

    def record(self, proc: Process) -> None:
        gen = proc._gen
        while getattr(gen, "gi_yieldfrom", None) is not None:
            gen = gen.gi_yieldfrom
        frame = getattr(gen, "gi_frame", None)
        if frame is None or frame.f_lasti < 0:
            return  # a process's first step resumes no yield
        awaited = proc._waiting_on
        kind = (
            "Timeout" if type(awaited) is Timeout
            else "At" if type(awaited) is At
            else "event"
        )
        self.resumes += 1
        code = frame.f_code
        self.sites[(code.co_filename, frame.f_lineno, code.co_name, kind)] += 1

    def top(
        self, n: Optional[int] = None, kind: str = ""
    ) -> List[Tuple[Site, int]]:
        """The ``n`` busiest sites (all by default), optionally of one kind."""
        rows = [
            (site, count) for site, count in self.sites.most_common()
            if not kind or site[3] == kind
        ]
        return rows[:n]

    def table(self, n: int = 10) -> str:
        """Top-``n`` sites as text, with their share of all resumes."""
        lines = [f"{'resumes':>9} {'share':>6}  kind     site"]
        for (path, line, func, kind), count in self.top(n):
            where = os.sep.join(path.split(os.sep)[-3:])
            lines.append(
                f"{count:>9} {count / self.resumes:>6.1%}  {kind:<8} "
                f"{where}:{line} {func}"
            )
        return "\n".join(lines)


@contextmanager
def census() -> Iterator[Census]:
    book = Census()
    step = Process._step_send

    def counted(self: Process, value: object) -> None:
        if self.alive:
            book.record(self)
        step(self, value)

    Process._step_send = counted  # type: ignore[method-assign]
    try:
        yield book
    finally:
        Process._step_send = step  # type: ignore[method-assign]
