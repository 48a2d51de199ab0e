"""Tests for the §5 multi-GPU extension: partitioned queue pairs over
shared SSDs, per-GPU AGILE stacks, contention behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CacheConfig, SsdConfig, SystemConfig
from repro.core import AgileLockChain
from repro.core.multigpu import MultiGpuAgileHost
from repro.gpu import KernelSpec, LaunchConfig


def _cfg(**overrides):
    defaults = dict(
        cache=CacheConfig(num_lines=64, ways=8, share_table=False),
        ssds=(SsdConfig(name="ssd0", capacity_bytes=1 << 26, channels=8),),
        queue_pairs=2,
        queue_depth=16,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def _read_kernel(results):
    def body(tc, ctrl, gpu_idx, n_threads):
        chain = AgileLockChain(f"g{gpu_idx}.t{tc.tid}")
        arr = ctrl.get_array_wrap(np.int64)
        tid = tc.tid % n_threads
        v = yield from arr.get(tc, chain, 0, (gpu_idx * 64 + tid) * 7,
                               coalesce=False)
        results[(gpu_idx, tid)] = int(v)

    return body


class TestConstruction:
    def test_queue_pairs_partitioned_disjointly(self):
        host = MultiGpuAgileHost(_cfg(), num_gpus=2)
        qids_g0 = {qp.qid for qp in host.nodes[0].issue.queue_pairs[0]}
        qids_g1 = {qp.qid for qp in host.nodes[1].issue.queue_pairs[0]}
        assert qids_g0 == {0, 1}
        assert qids_g1 == {2, 3}
        assert len(host.ssds[0].queue_pairs) == 4

    def test_ring_memory_lives_on_owning_gpu(self):
        host = MultiGpuAgileHost(_cfg(), num_gpus=2)
        for g, node in enumerate(host.nodes):
            for qp in node.issue.queue_pairs[0]:
                assert qp.sq.buffer.hbm is node.gpu.hbm

    def test_device_limit_enforced(self):
        cfg = _cfg(ssds=(SsdConfig(name="s", max_queue_pairs=3),))
        with pytest.raises(ValueError, match="exceed the device limit"):
            MultiGpuAgileHost(cfg, num_gpus=2)

    def test_at_least_one_gpu(self):
        with pytest.raises(ValueError):
            MultiGpuAgileHost(_cfg(), num_gpus=0)


class TestExecution:
    def test_both_gpus_read_correct_data(self):
        host = MultiGpuAgileHost(_cfg(), num_gpus=2)
        data = np.arange(10_000, dtype=np.int64)
        host.load_data(0, 0, data)
        results: dict = {}
        kernel = KernelSpec(
            name="mg", body=_read_kernel(results), registers_per_thread=40
        )
        with host:
            host.run_kernels(
                kernel,
                LaunchConfig(1, 32),
                per_gpu_args=[(0, 32), (1, 32)],
            )
        for (gpu_idx, tid), value in results.items():
            assert value == (gpu_idx * 64 + tid) * 7
        assert len(results) == 64

    def test_gpus_have_independent_caches(self):
        host = MultiGpuAgileHost(_cfg(), num_gpus=2)
        host.load_data(0, 0, np.arange(10_000, dtype=np.int64))
        results: dict = {}
        kernel = KernelSpec(
            name="mg2", body=_read_kernel(results), registers_per_thread=40
        )
        with host:
            host.run_kernels(kernel, LaunchConfig(1, 32),
                             per_gpu_args=[(0, 32), (1, 32)])
        # Each GPU missed in its own cache; no cross-GPU sharing.
        assert host.trace.counter("gpu0.cache")["misses"] > 0
        assert host.trace.counter("gpu1.cache")["misses"] > 0

    def test_shared_ssd_sees_traffic_from_all_gpus(self):
        host = MultiGpuAgileHost(_cfg(), num_gpus=2)
        host.load_data(0, 0, np.arange(10_000, dtype=np.int64))
        results: dict = {}
        kernel = KernelSpec(
            name="mg3", body=_read_kernel(results), registers_per_thread=40
        )
        with host:
            host.run_kernels(kernel, LaunchConfig(1, 32),
                             per_gpu_args=[(0, 32), (1, 32)])
        io0 = host.trace.counter("gpu0.io")["commands_submitted"]
        io1 = host.trace.counter("gpu1.io")["commands_submitted"]
        assert io0 > 0 and io1 > 0
        assert host.ssds[0].completed_reads == io0 + io1

    def test_kernel_requires_service(self):
        host = MultiGpuAgileHost(_cfg(), num_gpus=2)
        kernel = KernelSpec(name="k", body=lambda tc, ctrl: iter(()))
        with pytest.raises(RuntimeError, match="service not running"):
            host.launch_kernel(kernel, LaunchConfig(1, 32), gpu_idx=1)

    def test_args_arity_checked(self):
        host = MultiGpuAgileHost(_cfg(), num_gpus=2)
        kernel = KernelSpec(name="k", body=lambda tc, ctrl: iter(()))
        with host:
            with pytest.raises(ValueError, match="one argument tuple"):
                host.run_kernels(kernel, LaunchConfig(1, 32),
                                 per_gpu_args=[()])
