"""Array-like synchronous API (paper §3.5, Method 3).

``ctrl.get_array_wrap(dtype)`` views the SSDs as a two-dimensional array:
the first index selects the SSD, the second the element.  Element accesses
are routed through the software cache with the full two-level coalescing
pipeline (warp first, cache second — §3.3.2) and block until the data is
resident, i.e. the synchronous access model that AGILE-sync and the BaM
comparison use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from repro.core.locks import AgileLockChain
from repro.gpu.thread import ThreadContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ctrl import AgileCtrl


class AgileArray:
    """``agileArr[dev_idx][elem_idx]`` equivalent."""

    def __init__(self, ctrl: "AgileCtrl", dtype: np.dtype | str, base_lba: int = 0):
        self.ctrl = ctrl
        self.dtype = np.dtype(dtype)
        self.base_lba = base_lba
        line = ctrl.line_size
        if line % self.dtype.itemsize != 0:
            raise ValueError(
                f"dtype {self.dtype} does not pack evenly into "
                f"{line}-byte cache lines"
            )
        self.elems_per_page = line // self.dtype.itemsize

    def _locate(self, elem_idx: int) -> tuple[int, int]:
        lba = self.base_lba + elem_idx // self.elems_per_page
        offset = (elem_idx % self.elems_per_page) * self.dtype.itemsize
        return lba, offset

    # -- element get (synchronous read) ---------------------------------------

    def get(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        elem_idx: int,
        coalesce: bool = True,
    ) -> Generator[Any, Any, Any]:
        """Read one element.

        ``coalesce=True`` runs the warp-level dedup round first (§3.3.2) —
        use it only in warp-uniform code where every active lane performs
        the same number of accesses, as with CUDA's ``__syncwarp``.  For
        data-dependent loops (graph traversals) pass ``coalesce=False``:
        requests are then deduplicated by the cache alone.
        """
        lba, offset = self._locate(elem_idx)
        if coalesce:
            shared = yield from self.ctrl.read_page_coalesced(
                tc, chain, ssd_idx, lba
            )
            line = shared.line
        else:
            line = yield from self.ctrl.read_page(tc, chain, ssd_idx, lba)
        yield from tc.hbm_load(self.dtype.itemsize)
        buf = line.buffer
        value = buf[offset : offset + self.dtype.itemsize].view(self.dtype)[0]
        if coalesce:
            self.ctrl.finish_coalesced_read(tc, shared)
        else:
            self.ctrl.cache.unpin(line)
        return value

    def get_many(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        first_elem: int,
        count: int,
        coalesce: bool = False,
    ) -> Generator[Any, Any, np.ndarray]:
        """Read ``count`` consecutive elements (may span pages).

        Defaults to the uncoalesced path because span lengths are usually
        data-dependent (see :meth:`get`)."""
        out = np.empty(count, dtype=self.dtype)
        done = 0
        while done < count:
            lba, offset = self._locate(first_elem + done)
            if coalesce:
                shared = yield from self.ctrl.read_page_coalesced(
                    tc, chain, ssd_idx, lba
                )
                line = shared.line
            else:
                line = yield from self.ctrl.read_page(tc, chain, ssd_idx, lba)
            avail = (self.ctrl.line_size - offset) // self.dtype.itemsize
            take = min(avail, count - done)
            nbytes = take * self.dtype.itemsize
            yield from tc.hbm_load(nbytes)
            chunk = line.buffer[offset : offset + nbytes].view(self.dtype)
            out[done : done + take] = chunk
            if coalesce:
                self.ctrl.finish_coalesced_read(tc, shared)
            else:
                self.ctrl.cache.unpin(line)
            done += take
        return out

    # -- element set (write-back through the cache) ------------------------------

    def set(
        self,
        tc: ThreadContext,
        chain: AgileLockChain,
        ssd_idx: int,
        elem_idx: int,
        value: Any,
    ) -> Generator[Any, Any, None]:
        """Write one element; the line turns MODIFIED and is persisted by
        eviction write-back (or an explicit flush)."""
        lba, offset = self._locate(elem_idx)
        cache = self.ctrl.cache
        line = yield from cache.acquire(
            tc, chain, ssd_idx, lba, pin=True, wait=True, for_write=True
        )
        raw = np.array([value], dtype=self.dtype)
        yield from cache.write_line(tc, line, raw, offset)
        cache.unpin(line)
