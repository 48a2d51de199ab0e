"""Seed-deterministic open-loop arrival processes.

An arrival process is a pure gap generator: given a named stream from
:class:`~repro.sim.rng.RngStreams` it yields inter-arrival gaps in
simulated nanoseconds, forever.  The serve engine turns the gaps into
requests; nothing here touches the event loop, so identical seeds
reproduce identical request timelines bit-for-bit regardless of which
system (AGILE / BaM / naive) consumes them.

Three processes cover the workloads the serving literature cares about:

- :class:`Poisson` — memoryless arrivals at a fixed rate (the M/x/1
  baseline every saturation curve starts from);
- :class:`Mmpp` — a two-state Markov-modulated Poisson process whose
  calm/burst phases produce the bursty traffic that exposes admission
  and batching policy (open-loop bursts cannot be flow-controlled away);
- :class:`TraceReplay` — replays a recorded gap sequence, optionally
  scaled, in lock-step with the page targets recorded beside it so real
  workload locality flows into the serving layer.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.config import NS_PER_S


class ArrivalProcess:
    """Base class: a named, rate-parameterised gap generator."""

    kind = "base"

    def gaps(self, rng: np.random.Generator) -> Iterator[float]:
        raise NotImplementedError

    @property
    def mean_rate_rps(self) -> float:
        """Long-run offered rate in requests per second."""
        raise NotImplementedError

    def scaled(self, factor: float) -> "ArrivalProcess":
        """A copy offering ``factor`` times the load (sweep knob)."""
        raise NotImplementedError


class Poisson(ArrivalProcess):
    """Memoryless arrivals at ``rate_rps`` requests per second."""

    kind = "poisson"

    def __init__(self, rate_rps: float):
        if rate_rps <= 0:
            raise ValueError("rate_rps must be > 0")
        self.rate_rps = float(rate_rps)

    @property
    def mean_gap_ns(self) -> float:
        return NS_PER_S / self.rate_rps

    @property
    def mean_rate_rps(self) -> float:
        return self.rate_rps

    def scaled(self, factor: float) -> "Poisson":
        return Poisson(self.rate_rps * factor)

    def gaps(self, rng: np.random.Generator) -> Iterator[float]:
        mean = self.mean_gap_ns
        while True:
            yield float(rng.exponential(mean))


class Mmpp(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (calm / burst).

    The process dwells exponentially in each state and emits Poisson
    arrivals at the state's rate.  Because the dwell clock and the arrival
    clock are both memoryless, switching state mid-gap just means
    resampling the residual gap at the new rate — which is exactly what
    the generator does.
    """

    kind = "mmpp"

    def __init__(
        self,
        calm_rps: float,
        burst_rps: float,
        calm_dwell_ns: float = 2_000_000.0,
        burst_dwell_ns: float = 500_000.0,
    ):
        if calm_rps <= 0 or burst_rps <= 0:
            raise ValueError("rates must be > 0")
        if burst_rps < calm_rps:
            raise ValueError("burst_rps must be >= calm_rps")
        self.calm_rps = float(calm_rps)
        self.burst_rps = float(burst_rps)
        self.calm_dwell_ns = float(calm_dwell_ns)
        self.burst_dwell_ns = float(burst_dwell_ns)

    @property
    def mean_rate_rps(self) -> float:
        # Stationary occupancy is proportional to each state's dwell time.
        total = self.calm_dwell_ns + self.burst_dwell_ns
        return (
            self.calm_rps * self.calm_dwell_ns
            + self.burst_rps * self.burst_dwell_ns
        ) / total

    def scaled(self, factor: float) -> "Mmpp":
        return Mmpp(
            self.calm_rps * factor,
            self.burst_rps * factor,
            self.calm_dwell_ns,
            self.burst_dwell_ns,
        )

    def gaps(self, rng: np.random.Generator) -> Iterator[float]:
        burst = False
        remaining = float(rng.exponential(self.calm_dwell_ns))
        carried = 0.0
        while True:
            rate = self.burst_rps if burst else self.calm_rps
            gap = float(rng.exponential(NS_PER_S / rate))
            if gap <= remaining:
                remaining -= gap
                yield carried + gap
                carried = 0.0
            else:
                # Dwell expires first: carry the elapsed fraction into the
                # next state and resample there (memorylessness makes the
                # residual redraw exact, not an approximation).
                carried += remaining
                burst = not burst
                remaining = float(
                    rng.exponential(
                        self.burst_dwell_ns if burst else self.calm_dwell_ns
                    )
                )


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

    kind = "trace"

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

    @property
    def mean_rate_rps(self) -> float:
        mean_gap = sum(self.gaps_ns) / len(self.gaps_ns) * self.scale
        return NS_PER_S / mean_gap if mean_gap > 0 else float("inf")

    def scaled(self, factor: float) -> "TraceReplay":
        return TraceReplay(
            self.gaps_ns,
            scale=self.scale / factor,
            pages=self.pages,
            logical=self.logical,
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
