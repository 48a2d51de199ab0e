"""Tests for striped-region addressing, the generic readers, and the
multi-SSD layout the paper workloads take from the host's placement."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import BamHost
from repro.core import AgileHost, AgileLockChain
from repro.placement import ArrayGeometry, make_placement
from repro.workloads.access import (
    read_element,
    read_range,
    region,
    region_page_coords,
    workload_config,
)
from repro.workloads.dlrm import EmbeddingLayout
from repro.workloads.graphs import load_graph, uniform_random_graph
from repro.workloads.io_sweep import _make_kernel

from tests.helpers import make_host, run_kernel

PAGE = 4096


def stripe_of_one(num_ssds: int):
    """The default placement of a ``num_ssds``-wide array of 1 GiB SSDs."""
    return make_placement("striped").attach(ArrayGeometry(num_ssds, 1 << 18))


class TestStripedRegion:
    def test_locate_within_page(self):
        reg = region(stripe_of_one(1), 10, np.int64)
        ssd, lba, off = reg.locate(3)
        assert (ssd, lba, off) == (0, 10, 24)

    def test_locate_crosses_pages(self):
        reg = region(stripe_of_one(1), 10, np.int64)  # 512 items/page
        ssd, lba, off = reg.locate(512)
        assert (ssd, lba, off) == (0, 11, 0)

    def test_striping_alternates_ssds(self):
        reg = region(stripe_of_one(2), 0, np.int64)
        assert reg.locate(0)[0] == 0
        assert reg.locate(512)[0] == 1
        assert reg.locate(1024)[0] == 0
        # LBAs advance once per stripe pass.
        assert reg.locate(1024)[1] == 1

    def test_page_coords_cover_region(self):
        reg = region(stripe_of_one(2), 5, np.float32)
        coords = region_page_coords(reg, 3000)  # 12000 B -> 3 pages
        assert coords == [(0, 5), (1, 5), (0, 6)]


class TestReaders:
    def test_read_element_values(self):
        host = make_host()
        data = np.arange(2048, dtype=np.int64)
        host.load_data(0, 0, data)
        reg = region(host.placement, 0, np.int64)
        got = {}

        def body(tc, ctrl, got):
            chain = AgileLockChain(f"c{tc.tid}")
            got[tc.tid] = int(
                (yield from read_element(ctrl, tc, chain, reg, tc.tid * 100))
            )

        run_kernel(host, body, block=8, args=(got,))
        assert got == {t: t * 100 for t in range(8)}

    def test_read_range_spans_pages(self):
        host = make_host()
        data = np.arange(4096, dtype=np.int64)
        host.load_data(0, 0, data)
        reg = region(host.placement, 0, np.int64)
        out = {}

        def body(tc, ctrl, out):
            chain = AgileLockChain("c")
            out["v"] = yield from read_range(ctrl, tc, chain, reg, 500, 100)

        run_kernel(host, body, block=1, args=(out,))
        assert np.array_equal(out["v"], np.arange(500, 600))


@settings(max_examples=50, deadline=None)
@given(
    num_ssds=st.integers(min_value=1, max_value=4),
    itemsize_pow=st.integers(min_value=0, max_value=3),
    indices=st.lists(st.integers(min_value=0, max_value=100_000),
                     min_size=2, max_size=20, unique=True),
)
def test_locate_is_injective(num_ssds, itemsize_pow, indices):
    """Property: distinct elements never map to the same (ssd, lba, offset)."""
    dtype = {0: np.uint8, 1: np.uint16, 2: np.uint32, 3: np.uint64}[itemsize_pow]
    reg = region(stripe_of_one(num_ssds), 7, dtype)
    coords = [reg.locate(i) for i in indices]
    assert len(set(coords)) == len(coords)
    for ssd, lba, off in coords:
        assert 0 <= ssd < num_ssds
        assert lba >= 7
        assert 0 <= off < reg.page_size
        assert off % reg.itemsize == 0


@pytest.mark.parametrize("n", [1, 2, 3])
class TestHostLayout:
    """The paper's multi-SSD layout, now resolved by the host's policy: a
    region at device row ``b`` keeps page ``p`` at ``(p % n, b + p // n)``."""

    @pytest.mark.parametrize("make", [AgileHost, BamHost], ids=["agile", "bam"])
    def test_graph_regions_land_page_interleaved(self, n, make):
        host = make(workload_config(n, 64))
        graph = uniform_random_graph(3000, degree=4, seed=1, with_values=True)
        x = np.arange(3000, dtype=np.float32)
        layout = load_graph(host, graph, x=x)
        regions = [
            (layout.row_ptr_lba, graph.row_ptr),
            (layout.col_idx_lba, graph.col_idx),
            (layout.values_lba, graph.values),
            (layout.x_lba, x),
        ]
        for b, data in regions:
            reg = region(host.placement, b, data.dtype)
            raw = data.view(np.uint8)
            n_pages = -(-raw.size // PAGE)
            assert n_pages > 1
            for p in range(n_pages):
                where = (p % n, b + p // n)
                assert reg.locate(p * reg.items_per_page)[:2] == where
                chunk = raw[p * PAGE : (p + 1) * PAGE]
                stored = host.read_flash(*where, PAGE)
                assert np.array_equal(stored[: chunk.size], chunk)

    @pytest.mark.parametrize("make", [AgileHost, BamHost], ids=["agile", "bam"])
    def test_embedding_pages_land_page_interleaved(self, n, make):
        host = make(workload_config(n, 64))
        layout = EmbeddingLayout((800, 500), dim=64, placement=host.placement)
        for p in range(layout.total_pages):
            ssd, lba, off = layout.locate(p * layout.vecs_per_page)
            assert (ssd, lba, off) == (p % n, p // n, 0)

    def test_io_sweep_sends_request_i_to_ssd_i_mod_n(self, n):
        """Fig. 5/6: "request *i* goes to SSD *i* mod *n*"."""
        issued = []

        def raw_read(tc, chain, ssd, lba, buf):
            issued.append((tc.tid, ssd))
            return SimpleNamespace(wait=lambda: iter(()))
            yield

        placement = AgileHost(workload_config(n, 64)).placement
        body = _make_kernel("read", 5, placement, 1000, 2)
        ctrl = SimpleNamespace(raw_read=raw_read)
        for tid in range(3):
            list(body(SimpleNamespace(tid=tid), ctrl, [None] * 3, 0))
        assert [ssd for _, ssd in issued] == [i % n for i in range(15)]
