"""One contract, three hosts: everything ``repro.core.machine.Machine``
promises must hold on :class:`AgileHost` with one GPU or two and on
:class:`BamHost` alike — workloads and serve backends rely on it
instead of branching on the host type."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from repro.baselines import BamHost
from repro.config import SsdConfig
from repro.core import AgileHost, AgileLockChain
from repro.gpu import KernelSpec, LaunchConfig
from repro.sim import Timeout

from tests.helpers import small_config

PAGE = 4096

HOSTS = {
    "agile": AgileHost,
    "bam": BamHost,
    "multigpu": lambda cfg: AgileHost(cfg, num_gpus=2),
}




@pytest.fixture(params=sorted(HOSTS))
def make(request):
    return HOSTS[request.param]


@pytest.fixture
def host(make):
    return make(small_config())


class TestStaging:
    #: The default stripe-of-one map: the identity on one SSD, page
    #: interleave on two.
    @pytest.mark.parametrize(
        "ssds", [pytest.param(1, id="identity"), pytest.param(2, id="striped")]
    )
    def test_logical_roundtrip_through_placement(self, make, ssds):
        host = make(small_config().with_ssds(ssds))
        data = np.arange(4 * PAGE, dtype=np.uint8)
        assert host.load_logical(1, data) == 4
        for lba in range(1, 5):
            ssd, dev = host.placement.place(lba)
            npt.assert_array_equal(
                host.read_flash(ssd, dev, PAGE),
                data[(lba - 1) * PAGE : lba * PAGE],
            )

    def test_physical_roundtrip(self, host):
        data = np.arange(5000, dtype=np.int16)
        host.load_data(0, 3, data)
        npt.assert_array_equal(
            host.read_flash(0, 3, data.nbytes, np.int16), data
        )

    def test_alloc_view_is_a_writable_hbm_region(self, host):
        view = host.alloc_view(PAGE)
        assert view.shape == (PAGE,) and view.dtype == np.uint8
        view[:] = 7
        assert np.shares_memory(view, host.gpu.hbm.backing)


class TestExecution:
    def test_with_enters_and_exits(self, host):
        with host as entered:
            assert entered is host
        host.drain()  # nothing in flight: legal on every machine, any time

    def test_a_deep_queue_config_fits_in_hbm(self, make):
        """Each GPU's SQ/CQ rings live in its HBM beside the cache: ~92 MiB
        of them here, more than the 64 MiB of headroom HBM was sized with
        before it counted them."""
        host = make(small_config(
            ssds=(SsdConfig(name="ssd0", max_queue_depth=1 << 18),),
            queue_pairs=8,
            queue_depth=150_000,
        ))
        host.load_data(0, 3, np.full(PAGE, 7, dtype=np.uint8))
        buf = host.alloc_view(PAGE)
        chain = AgileLockChain("deep")

        def body(tc, ctrl):
            if host.nodes[0].service is not None:  # AGILE retires raw reads
                txn = yield from ctrl.raw_read(tc, chain, 0, 3, buf)
                yield from txn.wait()
            else:  # BaM reads through its cache
                line = yield from ctrl.read_page(tc, chain, 0, 3)
                buf[:] = line.buffer
                ctrl.cache.unpin(line)

        with host:
            host.run_kernel(KernelSpec(name="deep", body=body), LaunchConfig(1, 1))
        assert (buf == 7).all()
        assert host.driver.device_stats()[0]["completed_reads"] == 1

    def test_run_kernel_returns_launch_duration(self, host):
        seen = []

        def body(tc, ctrl):
            seen.append(ctrl)
            yield from tc.compute(100)

        with host:
            t0 = host.sim.now
            duration = host.run_kernel(
                KernelSpec(name="k", body=body), LaunchConfig(1, 4)
            )
        assert duration == host.sim.now - t0 > 0
        assert seen == [host.nodes[0].ctrl] * 4


class TestIntrospection:
    def test_sim_and_devices_collectors(self, host):
        collected = host.trace.collect()
        assert collected["sim"] == {
            "now": host.sim.now, "event_count": host.sim.event_count,
        }
        assert list(collected["devices"]) == ["ssd0"]
        assert host.stats() == host.trace.counters_snapshot()

    def test_registry_is_clocked_by_the_simulator(self, host):
        """A gauge set at two different sim times has a time-weighted mean
        strictly between its values (an unclocked registry reports the last
        value — the multi-GPU host's bug before the shared base)."""
        gauge = host.trace.gauge("contract.depth")

        def proc():
            yield Timeout(10)
            gauge.set(4.0)
            yield Timeout(10)

        host.sim.spawn(proc())
        host.sim.run()
        assert 0.0 < gauge.mean() < 4.0
