"""Transactions and user-specified buffers.

A :class:`Transaction` is the barrier ``async_issue`` hands back to the
user thread (paper Fig. 3, "lock a"): the AGILE service clears it when the
matching completion arrives, so threads wait on the barrier — never on an
NVMe queue lock.

An :class:`AgileBuf` is a user-registered device buffer that ``async_read``
/ ``async_write`` target; when the Share Table is enabled these buffers
join the coherency domain (§3.4.1).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

import numpy as np

from repro.nvme.command import NvmeCompletion
from repro.sim.engine import Event, Simulator


class Transaction:
    """The status barrier for one asynchronous NVMe command."""

    __slots__ = ("sim", "gate", "completion", "on_complete", "issued_at",
                 "completed_at", "label")

    def __init__(self, sim: Simulator, label: str = "txn"):
        self.sim = sim
        self.label = label
        self.gate = Event(sim, name=f"{label}.barrier")
        self.completion: Optional[NvmeCompletion] = None
        #: Optional service-side callback run at completion (cache fill,
        #: buffer ready, eviction finalization ...), before waiters wake.
        self.on_complete: Optional[Callable[[NvmeCompletion], None]] = None
        self.issued_at = sim.now
        self.completed_at: Optional[float] = None

    def finish(self, completion: NvmeCompletion) -> None:
        """Called by the AGILE service when the completion is processed."""
        self.completion = completion
        self.completed_at = self.sim.now
        if self.on_complete is not None:
            self.on_complete(completion)
        self.gate.trigger()  # once: service and recovery pop the record first

    def wait(self) -> Generator[Any, Any, Optional[NvmeCompletion]]:
        """Block until the transaction completes (``buf.wait()`` in the
        paper's Listing 1)."""
        yield from self.gate.wait()
        return self.completion


class AgileBuf:
    """A user-specified device buffer (``AgileBufPtr`` in Listing 1).

    ``view`` is a NumPy view of simulated HBM sized to one or more cache
    lines.  ``ready`` is open whenever the buffer's last fill completed;
    ``wait()`` mirrors the paper's ``buf.wait()``.
    """

    __slots__ = ("sim", "view", "ready", "source", "label", "failed")

    def __init__(self, sim: Simulator, view: np.ndarray, label: str = "buf"):
        self.sim = sim
        self.view = view
        self.label = label
        self.ready = Event(sim, name=f"{label}.ready")
        self.ready.trigger()
        #: (ssd_index, lba) the buffer currently mirrors, if any.
        self.source: Optional[tuple[int, int]] = None
        #: True when the most recent fill ended in an I/O error; ``wait``
        #: still returns (completion-or-clean-failure, never a hang) and
        #: consumers check :attr:`ok` before trusting ``view``.
        self.failed = False

    @property
    def size(self) -> int:
        return int(self.view.size)

    @property
    def ok(self) -> bool:
        return not self.failed

    def begin_fill(self, source: tuple[int, int]) -> None:
        if self.ready.triggered:  # an unfinished fill keeps its waiters
            self.ready = Event(self.sim, name=self.ready.name)
        self.source = source
        self.failed = False

    def finish_fill(self) -> None:
        if not self.ready.triggered:  # a cache-hit copy has no fill pending
            self.ready.trigger()

    def fail_fill(self) -> None:
        """The fill's NVMe command completed with an error status: mark the
        buffer failed, then open the gate so waiters (owner and every Share
        Table sharer — they hold this same object) observe the failure."""
        self.failed = True
        self.finish_fill()

    def wait(self) -> Generator[Any, Any, None]:
        """Block until the most recent ``async_read`` into this buffer has
        landed (paper Listing 1 line 14)."""
        yield from self.ready.wait()

    def as_array(self, dtype: np.dtype | str) -> np.ndarray:
        return self.view.view(dtype)
