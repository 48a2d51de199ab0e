"""Tests for customizable share policies."""

from __future__ import annotations

from repro.core import AgileHost, AgileLockChain
from repro.core.sharetable import SharePolicy

from tests.helpers import run_kernel, small_config


class TestSharePolicyCustomization:
    def test_declining_policy_blocks_sharing(self):
        class NeverShare(SharePolicy):
            def should_share(self, entry, requester_tid):
                return False

        host = AgileHost(small_config(), share_policy=NeverShare())
        bufs = [host.make_buffer() for _ in range(4)]
        ids = {}

        def body(tc, ctrl, bufs, ids):
            chain = AgileLockChain(f"t{tc.tid}")
            # Stagger arrivals inside the ~55 us flash window so later
            # threads look up while the first registration is still live.
            yield tc.sim.timeout(tc.tid * 10_000)
            got = yield from ctrl.async_read(tc, chain, 0, 4, bufs[tc.tid])
            yield from got.wait()
            ids[tc.tid] = id(got)
            yield from ctrl.release_buffer(tc, chain, got)

        run_kernel(host, body, block=4, args=(bufs, ids))
        share = host.trace.counter("share")
        assert share.get("share_hits", 0) == 0
        assert share["share_declined"] >= 1
