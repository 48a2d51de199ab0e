"""Tests for warp-level coalescing and convergence."""

from __future__ import annotations

import pytest

from repro.config import GpuConfig
from repro.gpu import Gpu, KernelSpec, LaunchConfig
from repro.gpu.warp import NOT_PARTICIPATING, Warp
from repro.sim import SimError, Simulator, Timeout


class TestWarpDirect:
    def test_register_and_retire(self, sim):
        """A round waits for every registered lane; retiring lane 2 at
        t=5 completes lane 1's round then."""
        warp = Warp(sim, 0)
        warp.register(1)
        warp.register(2)
        slots = []

        def lane1():
            slots.append((yield from warp.coalesce(1, "k")))

        def retire2():
            yield Timeout(5)
            warp.retire(2)

        sim.spawn(lane1(), name="t1")
        sim.spawn(retire2(), name="t2")
        sim.run()
        assert sim.now == 5 and slots[0].group == [1]

    def test_unregistered_thread_rejected(self, sim):
        warp = Warp(sim, 0)

        def proc():
            yield from warp.coalesce(99, "k")

        sim.spawn(proc(), name="x")
        with pytest.raises(SimError):
            sim.run()

    def test_double_arrival_rejected(self, sim):
        warp = Warp(sim, 0)
        warp.register(1)
        warp.register(2)

        def proc():
            # Arrive twice in the same round without the warp completing.
            gen = warp.coalesce(1, "a")
            next(gen, None)
            yield from warp.coalesce(1, "b")

        sim.spawn(proc(), name="x")
        with pytest.raises(SimError):
            sim.run()


def _run_coalesce_kernel(block_dim, key_fn, publish_value=True):
    """Launch one block where each thread coalesces on key_fn(tc) and
    leaders publish their key; returns list of (tid, slot-or-None, value)."""
    sim = Simulator()
    gpu = Gpu(sim, GpuConfig(num_sms=1), hbm_capacity=1 << 16)
    rows = []

    def body(tc, out):
        key = key_fn(tc)
        slot = yield from tc.coalesce(key)
        if slot is None:
            out.append((tc.tid, None, None))
            return
        if slot.leader:
            value = f"data:{slot.key}" if publish_value else None
            slot.publish(value)
            out.append((tc.tid, "leader", value))
        else:
            value = yield slot.result
            out.append((tc.tid, "follower", value))

    kernel = KernelSpec(name="co", body=body)
    gpu.run_to_completion(kernel, LaunchConfig(1, block_dim), args=(rows,))
    return rows


class TestCoalescing:
    def test_all_same_key_one_leader(self):
        rows = _run_coalesce_kernel(32, lambda tc: "page7")
        leaders = [r for r in rows if r[1] == "leader"]
        followers = [r for r in rows if r[1] == "follower"]
        assert len(leaders) == 1
        assert len(followers) == 31
        assert all(v == "data:page7" for _, _, v in rows)

    def test_distinct_keys_all_leaders(self):
        rows = _run_coalesce_kernel(16, lambda tc: tc.tid)
        assert all(role == "leader" for _, role, _ in rows)

    def test_mixed_keys_group_counts(self):
        rows = _run_coalesce_kernel(32, lambda tc: tc.tid % 4)
        leaders = [r for r in rows if r[1] == "leader"]
        assert len(leaders) == 4

    def test_leader_is_lowest_tid_in_group(self):
        sim = Simulator()
        gpu = Gpu(sim, GpuConfig(num_sms=1), hbm_capacity=1 << 16)
        out = {}

        def body(tc, res):
            slot = yield from tc.coalesce("k")
            if slot.leader:
                res["leader"] = tc.tid
                res["group"] = slot.group
                slot.publish("x")
            else:
                yield slot.result

        gpu.run_to_completion(
            KernelSpec(name="lead", body=body), LaunchConfig(1, 8), args=(out,)
        )
        assert out["leader"] == min(out["group"])
        assert len(out["group"]) == 8

    def test_not_participating_lane_excluded(self):
        rows = _run_coalesce_kernel(
            8, lambda tc: NOT_PARTICIPATING if tc.lane == 0 else "k"
        )
        absent = [r for r in rows if r[1] is None]
        leaders = [r for r in rows if r[1] == "leader"]
        assert len(absent) == 1
        assert len(leaders) == 1

    def test_coalesce_statistics(self):
        sim = Simulator()
        gpu = Gpu(sim, GpuConfig(num_sms=1), hbm_capacity=1 << 16)
        warps = []

        def body(tc, ws):
            if tc.warp not in ws:
                ws.append(tc.warp)
            slot = yield from tc.coalesce("same")
            if slot.leader:
                slot.publish(1)
            else:
                yield slot.result

        gpu.run_to_completion(
            KernelSpec(name="s", body=body), LaunchConfig(1, 32), args=(warps,)
        )
        (warp,) = warps
        assert warp.coalesce_rounds == 1
        assert warp.coalesced_away == 31

    def test_sequential_rounds(self):
        """Threads can run several coalescing rounds back to back."""
        sim = Simulator()
        gpu = Gpu(sim, GpuConfig(num_sms=1), hbm_capacity=1 << 16)
        values = []

        def body(tc, out):
            for round_no in range(3):
                slot = yield from tc.coalesce(("page", round_no))
                if slot.leader:
                    slot.publish(round_no * 10)
                    out.append(round_no * 10)
                else:
                    v = yield slot.result
                    out.append(v)

        gpu.run_to_completion(
            KernelSpec(name="seq", body=body), LaunchConfig(1, 16), args=(values,)
        )
        assert sorted(values) == sorted([0] * 16 + [10] * 16 + [20] * 16)

    def test_retiring_thread_unblocks_round(self):
        """If one lane exits the kernel early, remaining lanes' convergence
        must not hang — retire() re-evaluates round completion."""
        sim = Simulator()
        gpu = Gpu(sim, GpuConfig(num_sms=1), hbm_capacity=1 << 16)
        done = []

        def body(tc, out):
            if tc.lane == 0:
                return  # early exit, participates in nothing
            yield Timeout(10)
            slot = yield from tc.coalesce("k")
            if slot.leader:
                slot.publish("v")
            else:
                yield slot.result
            out.append(tc.tid)

        gpu.run_to_completion(
            KernelSpec(name="exit", body=body), LaunchConfig(1, 8), args=(done,)
        )
        assert len(done) == 7
