"""Seed-deterministic open-loop arrival processes.

An arrival process is a pure gap generator: given a named stream from
:class:`~repro.sim.rng.RngStreams` it yields inter-arrival gaps in
simulated nanoseconds, forever.  The serve engine turns the gaps into
requests; nothing here touches the event loop, so identical seeds
reproduce identical request timelines bit-for-bit regardless of which
system (AGILE / BaM / naive) consumes them.

Two processes cover the workloads the serving layer runs:

- :class:`Poisson` — memoryless arrivals at a fixed rate (the M/x/1
  baseline every saturation curve starts from);
- :class:`TraceReplay` — replays a recorded gap sequence, optionally
  scaled, in lock-step with the page targets recorded beside it so real
  workload locality flows into the serving layer.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.config import NS_PER_S


class ArrivalProcess:
    """Base class: a gap generator."""

    def gaps(self, rng: np.random.Generator) -> Iterator[float]:
        raise NotImplementedError


class Poisson(ArrivalProcess):
    """Memoryless arrivals at ``rate_rps`` requests per second."""

    def __init__(self, rate_rps: float):
        if rate_rps <= 0:
            raise ValueError("rate_rps must be > 0")
        self.rate_rps = float(rate_rps)

    @property
    def mean_gap_ns(self) -> float:
        return NS_PER_S / self.rate_rps

    def gaps(self, rng: np.random.Generator) -> Iterator[float]:
        mean = self.mean_gap_ns
        while True:
            yield float(rng.exponential(mean))


class TraceReplay(ArrivalProcess):
    """Replay a recorded inter-arrival gap sequence, cycling forever.

    ``scale`` < 1 compresses the trace (higher offered load), > 1
    stretches it.  ``pages`` optionally carries the per-request page
    coordinates recorded with the trace — the engine consumes them in
    lock-step with the gaps, so workload locality is preserved.
    ``logical`` optionally carries per-request *logical* LBA tuples
    instead: the engine resolves them through the backend's placement
    policy at arrival (exactly like sampled pages), so a logical trace
    replays the same workload on any array size or placement policy —
    what the cache-routed (``op="paged"``/``"modify"``) classes need,
    since their tags are logical.
    """

    def __init__(
        self,
        gaps_ns: Sequence[float],
        scale: float = 1.0,
        pages: Optional[Sequence[Tuple[Tuple[int, int], ...]]] = None,
        logical: Optional[Sequence[Tuple[int, ...]]] = None,
    ):
        if not len(gaps_ns):
            raise ValueError("trace must contain at least one gap")
        if scale <= 0:
            raise ValueError("scale must be > 0")
        if any(g < 0 for g in gaps_ns):
            raise ValueError("gaps must be non-negative")
        if pages is not None and len(pages) != len(gaps_ns):
            raise ValueError("pages must pair 1:1 with gaps")
        if logical is not None and len(logical) != len(gaps_ns):
            raise ValueError("logical LBAs must pair 1:1 with gaps")
        if pages is not None and logical is not None:
            raise ValueError(
                "a trace carries physical pages or logical LBAs, not both"
            )
        self.gaps_ns = tuple(float(g) for g in gaps_ns)
        self.scale = float(scale)
        self.pages = tuple(pages) if pages is not None else None
        self.logical = (
            tuple(tuple(int(x) for x in group) for group in logical)
            if logical is not None
            else None
        )

    def gaps(self, rng: np.random.Generator) -> Iterator[float]:
        while True:
            for gap in self.gaps_ns:
                yield gap * self.scale

    def page_sequence(self) -> Iterator[Tuple[Tuple[int, int], ...]]:
        """Cycle the recorded per-request page coordinates (1:1 with
        :meth:`gaps`); only valid when the trace carries pages."""
        if self.pages is None:
            raise ValueError("trace was recorded without page coordinates")
        while True:
            for coords in self.pages:
                yield coords

    def logical_sequence(self) -> Iterator[Tuple[int, ...]]:
        """Cycle the recorded per-request logical LBAs (1:1 with
        :meth:`gaps`); only valid when the trace carries logical LBAs."""
        if self.logical is None:
            raise ValueError("trace was recorded without logical LBAs")
        while True:
            for group in self.logical:
                yield group
