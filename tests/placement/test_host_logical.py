"""Host-level logical addressing: load/read/kernel paths through the
placement layer, device stats."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from repro.config import PlacementConfig, RecoveryConfig
from repro.core import AgileHost, AgileLockChain

from tests.helpers import run_kernel, small_config

PAGE = 4096


def array_config(num_ssds: int, policy: str = "striped", **place_kw):
    cfg = small_config(placement=PlacementConfig(policy=policy, **place_kw))
    return cfg.with_ssds(num_ssds)


def pattern(n_pages: int) -> np.ndarray:
    return np.arange(n_pages * PAGE, dtype=np.uint8)


class TestLogicalRoundtrip:
    @pytest.mark.parametrize(
        "policy", ["striped", "shard", "load_aware", "tenant_affine"]
    )
    def test_load_then_read_logical(self, policy):
        host = AgileHost(array_config(2, policy, shard_span=64))
        data = pattern(6)
        assert host.load_logical(3, data, tenant="t") == 6
        npt.assert_array_equal(
            host.read_logical(3, data.size, tenant="t"), data
        )

    def test_single_device_logical_is_physical(self):
        """The default stripe on one SSD is the identity map: logical loads
        land at the same flash bytes as physical loads."""
        host = AgileHost(small_config())
        data = pattern(2)
        host.load_logical(5, data)
        npt.assert_array_equal(host.read_flash(0, 5, data.size), data)
        assert host.placement.place(17) == (0, 17)

    def test_striped_logical_layout_on_flash(self):
        """Stripe-of-one: logical page p lands at row p//n of device p%n."""
        host = AgileHost(array_config(2))
        data = pattern(4)
        host.load_logical(0, data)
        for p in range(4):
            npt.assert_array_equal(
                host.read_flash(p % 2, p // 2, PAGE),
                data[p * PAGE : (p + 1) * PAGE],
            )


class TestKernelLogicalReads:
    def test_read_page_logical_returns_loaded_bytes(self):
        host = AgileHost(array_config(2))
        data = pattern(4)
        host.load_logical(0, data)
        got = {}

        def body(tc, ctrl, _args):
            chain = AgileLockChain(f"t{tc.tid}")
            line = yield from ctrl.read_page_logical(tc, chain, 3)
            got["page"] = bytes(line.buffer[:8])
            ctrl.cache.unpin(line)

        run_kernel(host, body, block=1, args=(None,))
        assert got["page"] == bytes(data[3 * PAGE : 3 * PAGE + 8])

    def test_raw_read_logical_bypasses_cache(self):
        host = AgileHost(array_config(2))
        data = pattern(4)
        host.load_logical(0, data)
        dest = host.alloc_view(PAGE)

        def body(tc, ctrl, _args):
            chain = AgileLockChain(f"t{tc.tid}")
            txn = yield from ctrl.raw_read_logical(tc, chain, 2, dest)
            completion = yield from txn.wait()
            assert completion is not None and completion.ok

        run_kernel(host, body, block=1, args=(None,))
        npt.assert_array_equal(dest, data[2 * PAGE : 3 * PAGE])

    def test_logical_and_physical_share_one_line(self):
        """A page has one cache line whatever name reaches it: a logical
        acquire and a physical acquire of it return the same line, and a
        logical cached write is what a physical cached read sees."""
        host = AgileHost(array_config(2))
        host.load_logical(0, pattern(4))
        ssd, dev = host.placement.place(1)
        assert (ssd, dev) == (1, 0)  # its logical and physical names differ

        def body(tc, ctrl, _args):
            chain = AgileLockChain(f"t{tc.tid}")
            yield from ctrl.write_page_logical(
                tc, chain, 1, np.full(PAGE, 0x5A, dtype=np.uint8)
            )
            line_p = yield from ctrl.read_page(tc, chain, ssd, dev)
            assert (line_p.buffer == 0x5A).all()
            line_l = yield from ctrl.read_page_logical(tc, chain, 1)
            assert line_l is line_p
            ctrl.cache.unpin(line_l)
            ctrl.cache.unpin(line_p)

        run_kernel(host, body, block=1, args=(None,))


class TestOtherHosts:
    def test_multigpu_host_shares_one_placement(self):
        host = AgileHost(array_config(2), num_gpus=2)
        data = pattern(2)
        host.load_logical(0, data)
        assert all(
            node.ctrl.placement is host.placement for node in host.nodes
        )


class TestDeviceStats:
    def test_device_stats_carry_index_and_name(self):
        host = AgileHost(array_config(3))
        stats = host.driver.device_stats()
        assert [s["index"] for s in stats] == [0, 1, 2]
        assert [s["name"] for s in stats] == ["ssd0", "ssd1", "ssd2"]
        assert all("completed_reads" in s for s in stats)

    def test_device_health_carries_index_too(self):
        """Device health is the stats row plus the breaker of the same
        index."""
        cfg = small_config(recovery=RecoveryConfig(enabled=True))
        host = AgileHost(cfg.with_ssds(2))
        stats = host.driver.device_stats()
        assert [s["index"] for s in stats] == [0, 1]
        assert [br.open for br in host.recovery.breakers] == [False, False]
