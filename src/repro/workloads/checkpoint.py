"""DLRM-checkpoint-style streaming write workload.

Recommendation-model training periodically checkpoints its embedding
tables to SSD: long sequential shard writes sweeping the table, with the
hot head of the table (the rows training actually touches) rewritten far
more often than the cold tail.  Replayed against the serve layer this is
the canonical write-heavy tenant: every pass over the table invalidates
the previous copy of each page, and the hot-head rewrites concentrate
churn — exactly the pattern that makes an FTL garbage-collect and the
write-amplification ledger read above 1.0.

The stream here is fully deterministic (no RNG): the shard schedule is a
pure function of the spec, so a (seed, config) serve run replays the
identical write timeline on every backend and every repetition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.config import NS_PER_S, Checked, ConfigError, legal
from repro.serve.arrival import TraceReplay


@dataclass(frozen=True)
class CheckpointSpec(Checked):
    """Shape of one embedding-table checkpoint stream.

    ``table_pages`` is the logical span of the table; each request writes
    one ``shard_pages``-page sequential shard.  After every
    ``hot_rewrite_period`` sequential shards, one extra shard rewrites the
    hot head (the first ``hot_fraction`` of the table), cycling through
    it — the churn source.  ``passes`` full table sweeps are recorded;
    the serve engine cycles the trace if the window outlasts it.
    """

    table_pages: int = legal(512, ge=1)
    shard_pages: int = legal(4, ge=1)
    hot_fraction: float = legal(0.125, gt=0, le=1)
    hot_rewrite_period: int = legal(4, ge=0)
    passes: int = legal(4, ge=1)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shard_pages > self.table_pages:
            raise ConfigError("shard_pages must not exceed table_pages")

    @property
    def hot_pages(self) -> int:
        return max(1, int(self.table_pages * self.hot_fraction))


def checkpoint_shards(spec: CheckpointSpec) -> List[Tuple[int, ...]]:
    """The deterministic shard schedule as tuples of table-relative LBAs:
    sequential sweep shards interleaved with cycling hot-head rewrites."""
    shards: List[Tuple[int, ...]] = []
    hot_cursor = 0
    for _ in range(spec.passes):
        for i, start in enumerate(range(0, spec.table_pages, spec.shard_pages)):
            end = min(start + spec.shard_pages, spec.table_pages)
            shards.append(tuple(range(start, end)))
            if (
                spec.hot_rewrite_period
                and (i + 1) % spec.hot_rewrite_period == 0
            ):
                hot = spec.hot_pages
                shards.append(
                    tuple(
                        (hot_cursor + k) % hot for k in range(spec.shard_pages)
                    )
                )
                hot_cursor = (hot_cursor + spec.shard_pages) % hot
    return shards


def checkpoint_trace(
    spec: CheckpointSpec,
    rate_rps: float,
    place: Callable[..., Tuple[int, int]],
    lba_base: int = 0,
    tenant: Optional[str] = None,
) -> TraceReplay:
    """Build a replayable serve trace from the shard schedule.

    ``place`` is the backend's placement resolver (``backend.place``);
    every shard's logical pages are resolved once here, so the recorded
    physical coordinates agree with whatever the read side resolves for
    the same region.  Arrivals are evenly spaced at ``rate_rps`` —
    checkpoint writers are paced, not bursty.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be > 0")
    gap = NS_PER_S / rate_rps
    gaps: List[float] = []
    pages: List[Tuple[Tuple[int, int], ...]] = []
    for shard in checkpoint_shards(spec):
        coords: List[Tuple[int, int]] = []
        for lba in shard:
            coord = place(lba_base + lba, tenant=tenant)
            if coord not in coords:
                coords.append(coord)
        gaps.append(gap)
        pages.append(tuple(coords))
    return TraceReplay(gaps, pages=pages)
