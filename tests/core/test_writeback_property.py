"""Property-based tests for the dirty-data write path.

Two contracts, checked under Hypothesis-randomized traffic:

1. **Eviction durability accounting** — every MODIFIED line evicted under
   cache pressure produces *exactly one* device program (the write-back),
   no program happens without one, the write-back ledger balances
   (taken == acked, none lost without faults), and every written value is
   recoverable from the cache or the flash afterwards.
2. **Share Table dirty hand-offs** — when a dirty user buffer is shared
   across threads and released in arbitrary interleavings, the last
   release propagates the update into the software cache as a MODIFIED
   line, the table retires every entry, and the subsequent eviction
   persists the propagated value to flash with exactly one program.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.core import AgileLockChain

from tests.helpers import make_host, run_kernel

N_PAGES = 16


@st.composite
def rw_workloads(draw):
    n_ops = draw(st.integers(min_value=1, max_value=30))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["modify", "read"]))
        page = draw(st.integers(min_value=0, max_value=N_PAGES - 1))
        value = draw(st.integers(min_value=1, max_value=250))
        ops.append((kind, page, value))
    return ops


@settings(max_examples=20, deadline=None)
@given(ops=rw_workloads(), cache_lines=st.sampled_from([4, 8]))
def test_dirty_eviction_programs_exactly_once(ops, cache_lines):
    """Random modify/read traffic on a cache far smaller than the working
    set: the only device programs are eviction write-backs, one each."""
    host = make_host(
        cache=CacheConfig(num_lines=cache_lines, ways=min(4, cache_lines))
    )
    shadow = {}
    failures = []

    def body(tc, ctrl):
        chain = AgileLockChain("wbprop")
        for kind, page, value in ops:
            if kind == "modify":
                yield from ctrl.write_page_logical(
                    tc, chain, page, np.full(4096, value, dtype=np.uint8)
                )
                shadow[page] = value
            else:
                line = yield from ctrl.read_page_logical(tc, chain, page)
                got = int(line.buffer[0])
                expected = shadow.get(page, 0)
                if got != expected:
                    failures.append((page, got, expected))
                ctrl.cache.unpin(line)

    run_kernel(host, body, block=1)
    assert not failures

    cache = host.cache
    taken = int(cache.stats.get("writebacks"))
    acked = int(cache.stats.get("writebacks_acked"))
    lost = int(cache.stats.get("writebacks_lost"))
    # The ledger balances, and without fault injection nothing is lost.
    assert taken == acked
    assert lost == 0
    # Exactly one program per evicted dirty line — and no other source of
    # programs exists in this workload.
    ftl = host.ssds[0].flash.ftl
    assert ftl.host_programs == taken
    assert ftl.gc_programs == 0 or ftl.host_programs >= taken
    ftl.check_conservation()

    # No pins leak, and every written value survives somewhere.
    for line in cache.lines:
        assert line.pins == 0
    for page, value in shadow.items():
        ssd, lba = host.placement.place(page)
        line = cache.lookup(ssd, lba)
        if line is not None and line.valid:
            assert int(line.buffer[0]) == value
        else:
            assert int(host.ssds[ssd].flash.read_page_data(lba)[0]) == value


@settings(max_examples=15, deadline=None)
@given(
    n_sharers=st.integers(min_value=1, max_value=5),
    writer_values=st.lists(
        st.integers(min_value=1, max_value=250), min_size=1, max_size=5
    ),
    page=st.integers(min_value=0, max_value=7),
)
def test_share_table_dirty_handoff_coherent(n_sharers, writer_values, page):
    """One owner plus ``n_sharers`` threads hand a dirty buffer around; a
    trailing eviction sweep (run by whichever thread releases last) then
    forces the propagated MODIFIED line out to flash."""
    num_lines = 8
    host = make_host(cache=CacheConfig(num_lines=num_lines, ways=4))
    n_threads = 1 + n_sharers
    done = []
    sweep_base = 100

    def body(tc, ctrl):
        chain = AgileLockChain(f"handoff.t{tc.tid}")
        if tc.tid == 0:
            # Make the page cache-resident so the final release has a line
            # to propagate into (the fill path of async_read bypasses the
            # cache and SSD->buffer transfers leave no resident copy).
            line = yield from ctrl.read_page(tc, chain, 0, page)
            ctrl.cache.unpin(line)
        buf = host.make_buffer(label=f"handoff.{tc.tid}")
        got = yield from ctrl.async_read(tc, chain, 0, page, buf)
        yield from got.wait()
        value = writer_values[tc.tid % len(writer_values)]
        got.view[:4096] = value
        ctrl.share_table.mark_modified(tc, (0, page))
        yield from tc.compute(50.0 * (tc.tid + 1))
        yield from ctrl.release_buffer(tc, chain, got)
        done.append(tc.tid)
        if len(done) == n_threads:
            # Last release already propagated; now push the dirty line out.
            for lba in range(sweep_base, sweep_base + 4 * num_lines):
                swept = yield from ctrl.read_page(tc, chain, 0, lba)
                ctrl.cache.unpin(swept)

    run_kernel(host, body, block=n_threads)

    # Every entry retired: the table holds no residual ownership records.
    assert host.share_table.entry((0, page)) is None
    cache = host.cache
    for line in cache.lines:
        assert line.pins == 0
    taken = int(cache.stats.get("writebacks"))
    acked = int(cache.stats.get("writebacks_acked"))
    assert taken == acked
    assert int(cache.stats.get("writebacks_lost")) == 0
    # The dirty hand-off was propagated and then persisted by eviction:
    # the flash copy carries one of the written values, via exactly one
    # program per write-back.
    ftl = host.ssds[0].flash.ftl
    assert ftl.host_programs == taken
    assert taken >= 1
    flash_value = int(host.ssds[0].flash.read_page_data(page)[0])
    assert flash_value in set(writer_values)
    ftl.check_conservation()
