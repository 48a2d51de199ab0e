"""Planted bugs, each caught by the part that owns its bug class.

The cheap model rows of the planted-bug matrix: each test plants one bug
in a real model with ``monkeypatch`` and shows that its catcher fires,
either a check inside the simulation (an invariant checker, a queue or
engine check, the test-side ``held_before`` reader) or the tier-1 test
whose data check sees the damage, run here under the plant.  The lint
rows are ``tests/analysis/test_lint.py::TestPlantsInTheTree``.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.config import CacheConfig
from repro.core import AgileLockChain
from repro.core.cache import SoftwareCache
from repro.core.issue import IssueEngine
from repro.core.sharetable import ShareTable
from repro.nvme.device import SsdController
from repro.nvme.ftl import Ftl
from repro.nvme.queue import SubmissionQueue
from repro.serve.engine import ServeEngine
from repro.serve.request import RequestState
from repro.sim import SimError

from tests.analysis.test_lock_order import _nested
from tests.core import test_ctrl, test_writeback_property
from tests.helpers import make_host, run_kernel
from tests.serve.helpers import small_serve_engine


def _messages(exc):
    """The messages of ``exc`` and every error it was raised from."""
    while exc is not None:
        yield str(exc)
        exc = exc.__cause__


def test_a_claim_that_skips_busy_fails_the_cache_fsm(monkeypatch):
    """A dirty victim re-claimed without going BUSY stays valid, so its
    writer copies in before the fill lands; the fill then takes the line
    MODIFIED -> READY, which the cache-state checker refuses."""
    honest = SoftwareCache.set_line_state

    def skip_claim(self, line, new, reason=""):
        if reason != "claim":
            honest(self, line, new, reason)

    monkeypatch.setattr(SoftwareCache, "set_line_state", skip_claim)
    host = make_host(cache=CacheConfig(num_lines=8, ways=8))

    def body(tc, ctrl):
        chain = AgileLockChain("t")
        for lba in range(9):  # the ninth page re-claims a dirty line
            page = np.full(4096, lba, np.uint8)
            yield from ctrl.write_page(tc, chain, 0, lba, page)

    with pytest.raises(SimError) as excinfo:
        run_kernel(host, body, block=1)
    assert any("MODIFIED -> READY" in m for m in _messages(excinfo.value))


def test_a_cqe_posted_twice_is_an_unknown_command(monkeypatch):
    """Without recovery the issue engine's completion table is strict: the
    second copy of a CQE names a command that has already retired."""
    honest = SsdController._post_one

    def twice(self, qp, cmd, status):
        yield from honest(self, qp, cmd, status)
        yield from honest(self, qp, cmd, status)

    monkeypatch.setattr(SsdController, "_post_one", twice)
    host = make_host()
    dest = host.alloc_view(4096)

    def body(tc, ctrl):
        for lba in (3, 4):  # the service meets the copy while serving lba 4
            txn = yield from ctrl.raw_read(tc, AgileLockChain("t"), 0, lba, dest)
            yield from txn.wait()

    with pytest.raises(SimError) as excinfo:
        run_kernel(host, body, block=1)
    assert any(
        "completion for unknown command" in m for m in _messages(excinfo.value)
    )


def test_a_line_opened_before_its_fill_lands_fails_the_cache_fsm(monkeypatch):
    """A claimed line marked READY as soon as its fill is issued lets the
    writer dirty it at once; the fill then lands on the written bytes and
    takes the line MODIFIED -> READY."""
    honest = SoftwareCache._start_fill

    def open_early(self, tc, chain, line, tag, writeback):
        yield from honest(self, tc, chain, line, tag, writeback)
        self._finish_fill(line, tag)

    monkeypatch.setattr(SoftwareCache, "_start_fill", open_early)
    host = make_host()

    def body(tc, ctrl):
        page = np.full(4096, 7, np.uint8)
        yield from ctrl.write_page(tc, AgileLockChain("t"), 0, 3, page)
        yield from tc.compute(100_000)  # let the fill land

    with pytest.raises(SimError) as excinfo:
        run_kernel(host, body, block=1)
    assert any("MODIFIED -> READY" in m for m in _messages(excinfo.value))


def test_a_set_lock_held_across_the_fill_nests(monkeypatch):
    """Holding the cache set lock while the fill is issued nests the
    doorbell lock inside it, which ``held_before`` shows."""
    honest = SoftwareCache._start_fill

    def locked(self, tc, chain, line, tag, writeback):
        lock = self._set_locks[line.set_idx]
        yield from lock.acquire(chain)
        yield from honest(self, tc, chain, line, tag, writeback)
        lock.release(chain)

    monkeypatch.setattr(SoftwareCache, "_start_fill", locked)
    host = make_host()
    found = []
    _nested(host, found)

    def body(tc, ctrl):
        line = yield from ctrl.read_page(tc, AgileLockChain(f"t{tc.tid}"), 0, tc.tid)
        ctrl.cache.unpin(line)

    run_kernel(host, body, block=8)
    [(_, _, nested)] = found
    assert nested and all(
        held[0].startswith("cacheset") and lock.startswith("sqdb.")
        for held, lock in nested
    )


def test_a_skipped_share_drop_keeps_the_entry_and_its_write(monkeypatch):
    """One sharer's release that skips its refcount drop leaves the entry
    live forever, so the dirty hand-off never propagates; the Share Table
    property finds the entry still registered."""
    honest = ShareTable.release
    skipped = []

    def skip_one(self, tc, tag):
        if not skipped and self.entry(tag).refcount > 1:
            skipped.append(tag)
            return
        yield from honest(self, tc, tag)

    monkeypatch.setattr(ShareTable, "release", skip_one)
    coherent = test_writeback_property.test_share_table_dirty_handoff_coherent
    with pytest.raises(AssertionError, match="is None"):
        coherent.hypothesis.inner_test(n_sharers=1, writer_values=[9], page=5)
    assert skipped == [(0, 5)]


def test_an_sq_slot_recycled_before_its_cqe_is_fetched_empty(monkeypatch):
    """Releasing an SQ slot once its doorbell is rung, not at its
    completion, hands the device an EMPTY slot to fetch."""
    honest_ring = IssueEngine.publish_and_ring
    honest_complete = IssueEngine.complete
    honest_release = SubmissionQueue.release
    completing = []

    def release_at_issue(self, tc, chain, ssd_idx, qp, slot, cmd):
        yield from honest_ring(self, tc, chain, ssd_idx, qp, slot, cmd)
        qp.sq.release(slot)

    def complete_without_release(self, *args, **kwargs):
        completing.append(True)
        try:
            return honest_complete(self, *args, **kwargs)
        finally:
            completing.pop()

    def release(self, slot):
        if not completing:
            honest_release(self, slot)

    monkeypatch.setattr(IssueEngine, "publish_and_ring", release_at_issue)
    monkeypatch.setattr(IssueEngine, "complete", complete_without_release)
    monkeypatch.setattr(SubmissionQueue, "release", release)
    host = make_host()

    def body(tc, ctrl):
        line = yield from ctrl.read_page(tc, AgileLockChain(f"t{tc.tid}"), 0, tc.tid)
        ctrl.cache.unpin(line)

    with pytest.raises(SimError) as excinfo:
        run_kernel(host, body, block=16)
    assert any(
        "fetched slot" in m and "EMPTY" in m for m in _messages(excinfo.value)
    )


def test_a_dropped_write_back_loses_the_page(monkeypatch):
    """The first dirty eviction issues no write-back; reading that page
    back finds the flash's old bytes (page 0 reads 0, not 1), which the
    write-back property's read check reports."""
    honest = SoftwareCache._start_fill
    dropped = []

    def drop_one(self, tc, chain, line, tag, writeback):
        if writeback is not None and not dropped:
            dropped.append(writeback[:2])
            writeback = None
        yield from honest(self, tc, chain, line, tag, writeback)

    monkeypatch.setattr(SoftwareCache, "_start_fill", drop_one)
    ops = [("modify", p, p + 1) for p in range(6)]
    ops += [("read", p, 0) for p in range(6)]
    exactly_once = test_writeback_property.test_dirty_eviction_programs_exactly_once
    with pytest.raises(AssertionError, match=re.escape("not [(0, 0, 1)]")):
        exactly_once.hypothesis.inner_test(ops=ops, cache_lines=4)
    assert len(dropped) == 1


def test_a_terminal_state_set_around_transition_fails_the_slo_books(
    monkeypatch,
):
    """The lint's retired AGL008 bug class: a request made terminal by
    assigning its state, not through ``transition``, has no finish time,
    and the SLO accountant refuses it."""

    def assign(self, req, ok):
        req._state = RequestState.COMPLETED if ok else RequestState.ABORTED
        self.slo.record_terminal(req)

    monkeypatch.setattr(ServeEngine, "_finish", assign)
    with pytest.raises(SimError) as excinfo:
        small_serve_engine(duration_ns=100_000.0).run()
    assert any(
        "has not reached a terminal state" in m
        for m in _messages(excinfo.value)
    )


def test_a_page_stored_around_the_ftl_commit_loses_the_rewrite(monkeypatch):
    """The lint's retired AGL014 bug class: flash bytes stored into the
    page map outside ``commit_program``'s payload path are overwritten by
    the commit's carry-forward of the old page, so the write-through data
    check reads the old bytes."""
    honest = Ftl.commit_program

    def around(self, lba, pp, data=None, *, gc=False):
        if data is not None and not gc:
            self._pages[pp] = np.array(data, dtype=np.uint8, copy=True)
            data = None
        honest(self, lba, pp, data, gc=gc)

    monkeypatch.setattr(Ftl, "commit_program", around)
    with pytest.raises(AssertionError, match="== 200"):
        test_ctrl.TestAsyncBuffers().test_async_write_through()
