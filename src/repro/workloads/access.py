"""Shared SSD-access helpers for the application workloads.

``StripedRegion`` maps a typed array staged at a logical LBA range to
(ssd, lba, offset) coordinates through the host's placement policy (by
default the paper's page-interleaved multi-SSD layout), and the reader
functions fetch elements/ranges through ``ctrl.read_page``, which the AGILE
and the BaM controller both provide, with identical application-side
logic — the paper's "identical kernel implementations" methodology (§4.5,
§4.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from repro.config import CacheConfig, SsdConfig, SystemConfig
from repro.core import AgileLockChain
from repro.gpu.thread import ThreadContext
from repro.placement import PlacementPolicy


def workload_config(
    num_ssds: int, cache_lines: int, queue_pairs: int = 8, queue_depth: int = 64
) -> SystemConfig:
    """The application workloads' machine: ``num_ssds`` 1 GiB devices
    behind an 8-way software cache of ``cache_lines`` lines."""
    base = SystemConfig(
        cache=CacheConfig(num_lines=cache_lines, ways=8),
        ssds=(SsdConfig(name="ssd0", capacity_bytes=1 << 30),),
        queue_pairs=queue_pairs,
        queue_depth=queue_depth,
    )
    return base.with_ssds(num_ssds)


@dataclass(frozen=True)
class StripedRegion:
    """A typed array region at logical LBA ``base`` of ``placement``."""

    base: int
    placement: PlacementPolicy
    dtype: np.dtype
    page_size: int = 4096

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def items_per_page(self) -> int:
        return self.page_size // self.itemsize

    def locate(self, elem_idx: int) -> tuple[int, int, int]:
        """-> (ssd, lba, byte offset) of one element, via the placement."""
        page = elem_idx // self.items_per_page
        offset = (elem_idx % self.items_per_page) * self.itemsize
        ssd, lba = self.placement.place(self.base + page)
        return ssd, lba, offset


def row_base(placement: PlacementPolicy, row: int) -> int:
    """Logical base of a region starting at device row ``row``: under the
    default stripe-of-one map its page ``p`` sits at row ``row + p // n``
    of SSD ``p % n``."""
    return row * placement.geometry.num_ssds


def region(
    placement: PlacementPolicy, row: int, dtype: np.dtype | str
) -> StripedRegion:
    """The typed region that starts at device row ``row``."""
    return StripedRegion(row_base(placement, row), placement, np.dtype(dtype))


def read_element(
    ctrl,
    tc: ThreadContext,
    chain: AgileLockChain,
    reg: StripedRegion,
    elem_idx: int,
) -> Generator[Any, Any, Any]:
    """Read one typed element through the system's cache."""
    ssd, lba, off = reg.locate(int(elem_idx))
    line = yield from ctrl.read_page(tc, chain, ssd, lba)
    yield from tc.hbm_load(reg.itemsize)
    value = line.buffer[off : off + reg.itemsize].view(reg.dtype)[0]
    ctrl.cache.unpin(line)
    return value


def read_range(
    ctrl,
    tc: ThreadContext,
    chain: AgileLockChain,
    reg: StripedRegion,
    first: int,
    count: int,
) -> Generator[Any, Any, np.ndarray]:
    """Read ``count`` consecutive typed elements (may span pages)."""
    out = np.empty(count, dtype=reg.dtype)
    done = 0
    while done < count:
        ssd, lba, off = reg.locate(int(first + done))
        line = yield from ctrl.read_page(tc, chain, ssd, lba)
        take = min((reg.page_size - off) // reg.itemsize, count - done)
        nbytes = take * reg.itemsize
        yield from tc.hbm_load(nbytes)
        out[done : done + take] = line.buffer[off : off + nbytes].view(reg.dtype)
        ctrl.cache.unpin(line)
        done += take
    return out


def region_page_coords(
    reg: StripedRegion, num_items: int
) -> list[tuple[int, int]]:
    """All (ssd, lba) pairs a region of ``num_items`` elements occupies —
    used to preload the software cache for the Fig. 11 methodology."""
    nbytes = num_items * reg.itemsize
    n_pages = (nbytes + reg.page_size - 1) // reg.page_size
    return [reg.placement.place(reg.base + p) for p in range(n_pages)]


def preload_regions(host, *extents: tuple[StripedRegion, int]) -> None:
    """Preload every page of each ``(region, num_items)`` extent into the
    host's software cache, one ``preload_cache`` call per SSD."""
    by_ssd: dict[int, list[int]] = {}
    for reg, num_items in extents:
        for ssd, lba in region_page_coords(reg, num_items):
            by_ssd.setdefault(ssd, []).append(lba)
    for ssd, lbas in by_ssd.items():
        host.preload_cache(ssd, lbas)
