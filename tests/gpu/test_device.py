"""Tests for GPU kernel execution: dispatch waves, fair-share compute,
latency hiding, SM reservation."""

from __future__ import annotations

import pytest

from repro.config import GpuConfig
from repro.gpu import Gpu, KernelSpec, LaunchConfig
from repro.sim import Simulator, Timeout


@pytest.fixture
def gpu(sim):
    return Gpu(sim, GpuConfig(num_sms=2), hbm_capacity=1 << 20)


def test_every_thread_runs_once(sim, gpu):
    seen = []

    def body(tc, out):
        out.append(tc.tid)
        return
        yield  # pragma: no cover

    kernel = KernelSpec(name="mark", body=body)
    cfg = LaunchConfig(grid_dim=3, block_dim=64)
    gpu.run_to_completion(kernel, cfg, args=(seen,))
    assert len(seen) == 192
    assert len(set(seen)) == 192


def test_thread_identifiers(sim, gpu):
    rows = []

    def body(tc, out):
        out.append((tc.block_id, tc.lane, tc.warp.warp_id))
        return
        yield  # pragma: no cover

    kernel = KernelSpec(name="ids", body=body)
    gpu.run_to_completion(kernel, LaunchConfig(2, 48), args=(rows,))
    blocks = {b for b, _, _ in rows}
    lanes = [l for _, l, _ in rows]
    warps = {w for _, _, w in rows}
    assert blocks == {0, 1}
    assert max(lanes) == 31  # 48-thread block = warp of 32 + warp of 16
    assert len(warps) == 4


def test_compute_kernel_duration_scales_with_oversubscription(sim):
    """2x the resident threads on a saturated SM -> ~2x the runtime."""
    gpu_cfg = GpuConfig(num_sms=1, issue_width=4, clock_ghz=1.0)

    def body(tc):
        yield from tc.compute(1000)

    def run(block_dim):
        s = Simulator()
        g = Gpu(s, gpu_cfg, hbm_capacity=1 << 16)
        return g.run_to_completion(
            KernelSpec(name="c", body=body), LaunchConfig(1, block_dim)
        )

    t256 = run(256)
    t512 = run(512)
    assert t512 / t256 == pytest.approx(2.0, rel=0.05)


def test_under_subscribed_sm_runs_at_full_speed(sim):
    gpu_cfg = GpuConfig(num_sms=1, issue_width=4, clock_ghz=1.0, warp_size=32)

    def body(tc):
        yield from tc.compute(1000)

    s = Simulator()
    g = Gpu(s, gpu_cfg, hbm_capacity=1 << 16)
    # 64 threads <= issue_width * warp_size = 128 -> no contention.
    t = g.run_to_completion(KernelSpec(name="c", body=body), LaunchConfig(1, 64))
    assert t == pytest.approx(1000.0, rel=1e-6)  # 1000 cycles at 1 GHz


def test_blocks_dispatch_in_waves(sim):
    """More blocks than residency slots -> sequential waves, and a freed
    slot goes to the oldest waiting block."""
    gpu_cfg = GpuConfig(num_sms=1, max_blocks_per_sm=2, max_warps_per_sm=4,
                        issue_width=4)
    starts = {}

    def body(tc):
        starts.setdefault(tc.block_id, tc.sim.now)
        yield Timeout(100)

    s = Simulator()
    g = Gpu(s, gpu_cfg, hbm_capacity=1 << 16)
    kernel = KernelSpec(name="w", body=body, registers_per_thread=16)
    # 6 blocks, 2 resident at a time -> 3 waves of 100 ns.
    t = g.run_to_completion(kernel, LaunchConfig(6, 32))
    assert t == pytest.approx(300.0, rel=1e-6)
    assert starts == {0: 0, 1: 0, 2: 100, 3: 100, 4: 200, 5: 200}


def test_stalled_warps_free_issue_slots_for_ready_warps(sim):
    """Warp-level latency hiding: threads blocked on a Timeout (an I/O
    stand-in) don't consume SM issue bandwidth."""
    gpu_cfg = GpuConfig(num_sms=1, issue_width=1, clock_ghz=1.0, warp_size=32)

    done = {}

    def io_then_compute(tc):
        yield Timeout(10_000)
        yield from tc.compute(100)
        done.setdefault("io", tc.sim.now)

    def compute_only(tc):
        yield from tc.compute(1000)
        done.setdefault("compute", tc.sim.now)

    s = Simulator()
    g = Gpu(s, gpu_cfg, hbm_capacity=1 << 16)
    launch_a = g.launch(KernelSpec(name="io", body=io_then_compute),
                        LaunchConfig(1, 32))
    launch_b = g.launch(KernelSpec(name="cmp", body=compute_only),
                        LaunchConfig(1, 32))

    def waiter():
        yield launch_a.done
        yield launch_b.done

    p = s.spawn(waiter(), name="waiter")
    s.run(until_procs=[p])
    # The compute warp finished long before the I/O warp resumed: its 32
    # threads shared 32 thread-cycles/cycle -> 1000 cycles ~ 1000 ns.
    assert done["compute"] < 10_000
    assert done["io"] >= 10_000


def test_reserve_sms_excludes_them_from_dispatch(sim, gpu):
    used = set()

    def body(tc, out):
        out.add(tc.sm.index)
        return
        yield  # pragma: no cover

    kernel = KernelSpec(name="r", body=body)
    gpu.run_to_completion(
        kernel, LaunchConfig(4, 32), args=(used,), reserve_sms=1
    )
    assert used == {0}


def test_reserving_all_sms_is_an_error(sim, gpu):
    kernel = KernelSpec(name="r", body=lambda tc: iter(()))
    with pytest.raises(ValueError):
        gpu.launch(kernel, LaunchConfig(1, 32), reserve_sms=2)


def test_kernel_return_values_via_thread_procs(sim, gpu):
    def body(tc):
        yield from tc.compute(1)
        return tc.tid * 2

    kernel = KernelSpec(name="ret", body=body)
    launch = gpu.launch(kernel, LaunchConfig(1, 4))

    def waiter():
        yield launch.done

    p = sim.spawn(waiter(), name="w")
    sim.run(until_procs=[p])
    values = sorted(proc.value for proc in launch.thread_procs)
    tids = sorted(proc.value // 2 for proc in launch.thread_procs)
    assert values == [t * 2 for t in tids]


def test_duration_raises_while_running(sim, gpu):
    def body(tc):
        yield Timeout(100)

    launch = gpu.launch(KernelSpec(name="d", body=body), LaunchConfig(1, 32))
    with pytest.raises(RuntimeError):
        _ = launch.duration
    sim.run()
    assert launch.duration == pytest.approx(100.0)
