"""Tests for the §5 multi-GPU extension: partitioned queue pairs over
shared SSDs, the same full AGILE stack per GPU, contention behaviour."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import attach
from repro.config import CacheConfig, PlacementConfig, SsdConfig, SystemConfig
from repro.core import AgileHost, AgileLockChain, LruPolicy
from repro.core.cache import DramTier
from repro.faults.storm import _storm_config
from repro.gpu import KernelSpec, LaunchConfig
from repro.sim import Timeout


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
        host = AgileHost(_cfg(), num_gpus=2)
        qids_g0 = {qp.qid for qp in host.nodes[0].issue.queue_pairs[0]}
        qids_g1 = {qp.qid for qp in host.nodes[1].issue.queue_pairs[0]}
        assert qids_g0 == {0, 1}
        assert qids_g1 == {2, 3}
        assert len(host.ssds[0].queue_pairs) == 4

    def test_ring_memory_lives_on_owning_gpu(self):
        host = AgileHost(_cfg(), num_gpus=2)
        for g, node in enumerate(host.nodes):
            for qp in node.issue.queue_pairs[0]:
                assert qp.sq.buffer.hbm is node.gpu.hbm

    def test_device_limit_enforced(self):
        cfg = _cfg(ssds=(SsdConfig(name="s", max_queue_pairs=3),))
        with pytest.raises(ValueError, match="exceed the device limit"):
            AgileHost(cfg, num_gpus=2)

    def test_at_least_one_gpu(self):
        with pytest.raises(ValueError):
            AgileHost(_cfg(), num_gpus=0)

    def test_a_policy_instance_needs_one_gpu(self):
        """A CachePolicy instance attaches to one cache, so several GPUs
        cannot share it; they name the policy in the config instead."""
        with pytest.raises(ValueError, match="attaches to one cache"):
            AgileHost(_cfg(), num_gpus=2, policy=LruPolicy())
        AgileHost(_cfg(cache=CacheConfig(num_lines=64, ways=8, policy="lru")),
                  num_gpus=2)


class TestExecution:
    def test_both_gpus_read_correct_data(self):
        host = AgileHost(_cfg(), num_gpus=2)
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
        host = AgileHost(_cfg(), num_gpus=2)
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
        host = AgileHost(_cfg(), num_gpus=2)
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
        host = AgileHost(_cfg(), num_gpus=2)
        kernel = KernelSpec(name="k", body=lambda tc, ctrl: iter(()))
        with pytest.raises(RuntimeError, match="service not running"):
            host.launch_kernel(kernel, LaunchConfig(1, 32), gpu_idx=1)

    def test_args_arity_checked(self):
        host = AgileHost(_cfg(), num_gpus=2)
        kernel = KernelSpec(name="k", body=lambda tc, ctrl: iter(()))
        with host:
            with pytest.raises(ValueError, match="one argument tuple"):
                host.run_kernels(kernel, LaunchConfig(1, 32),
                                 per_gpu_args=[()])


class TestFullStack:
    def test_every_gpu_gets_the_configured_stack(self):
        """Fault plan, recovery, Share Table, DRAM tier, telemetry and the
        load-aware feeds reach a 2-GPU host exactly as a 1-GPU one; a
        faulted kernel on both GPUs ends with every read intact and a
        clean analysis report."""
        base = _storm_config(2, 1.0, 1)
        cfg = replace(
            base,
            cache=replace(base.cache, dram_tier_lines=16),
            placement=PlacementConfig(policy="load_aware"),
        )
        host = AgileHost(cfg, num_gpus=2, telemetry=True)
        session = attach(host)
        assert host.ssds[0].injector is host.fault_injector is not None
        assert host.telemetry is not None
        for g, node in enumerate(host.nodes):
            assert node.recovery is not None and node.issue.recovery is node.recovery
            assert node.share_table is not None
            assert isinstance(node.cache.dram_tier, DramTier)
            assert f"gpu{g}.recovery" in host.stats()
        assert len({id(node.recovery) for node in host.nodes}) == 2

        threads, reads = 32, 6
        page = cfg.ssds[0].page_size
        stamps = (np.arange(2 * threads * reads) % 256).astype(np.uint8)
        host.load_data(0, 0, np.repeat(stamps, page))
        outcomes: list = []

        def body(tc, ctrl, g):
            chain = AgileLockChain(f"g{g}.t{tc.tid}")
            for k in range(reads):
                lba = (g * threads + tc.tid % threads) * reads + k
                line = yield from ctrl.read_page(tc, chain, 0, lba)
                outcomes.append(bool((line.buffer == lba % 256).all()))
                ctrl.cache.unpin(line)

        samples = []

        def sampler():
            while len(outcomes) < 2 * threads * reads:
                pending = [len(node.issue.pending) for node in host.nodes]
                samples.append((host.placement.load()[0], pending))
                yield Timeout(2_000)

        kernel = KernelSpec(name="storm2", body=body, registers_per_thread=40)
        with host:
            host.sim.spawn(sampler(), name="sampler")
            host.run_kernels(kernel, LaunchConfig(1, threads), [(0,), (1,)])
            host.drain()
        assert outcomes == [True] * (2 * threads * reads)
        stats = host.stats()
        assert stats["faults"]["cqe_drops"] > 0
        assert stats["faults"]["flash_read_errors"] > 0
        assert all(stats[f"gpu{g}.recovery"]["resubmissions"] > 0 for g in range(2))
        # The load feed counts both GPUs' commands (the FTL adds nothing
        # on a read-only run), and at some sample both had some in flight.
        assert all(load == sum(p) for load, p in samples)
        assert any(min(p) > 0 for _load, p in samples)
        assert len(host.telemetry.spans) > 0
        report = session.report()
        assert report.clean, report.summary()


class TestContention:
    THREADS, READS = 64, 8

    def _run(self, both: bool):
        host = AgileHost(_cfg(), num_gpus=2)
        n = 2 * self.THREADS * self.READS
        host.load_data(0, 0, np.repeat(np.arange(n, dtype=np.int64), 512))
        wrong: list = []

        def body(tc, ctrl, g):
            chain = AgileLockChain(f"g{g}.t{tc.tid}")
            arr = ctrl.get_array_wrap(np.int64)
            for k in range(self.READS):
                lba = (g * self.THREADS + tc.tid % self.THREADS) * self.READS + k
                value = yield from arr.get(tc, chain, 0, lba * 512, coalesce=False)
                if value != lba:
                    wrong.append((g, lba))

        kernel = KernelSpec(name="contend", body=body, registers_per_thread=40)
        launch = LaunchConfig(1, self.THREADS)
        with host:
            if both:
                makespan = host.run_kernels(kernel, launch, [(0,), (1,)])
            else:
                makespan = host.run_kernel(kernel, launch, (0,))
        assert wrong == []
        return host, makespan

    def test_two_gpus_contend_for_one_ssd(self):
        """Paper §5: the same kernel code on two GPUs sharing one SSD.  The
        pair takes longer than GPU 0 alone (the SSD is shared) but less
        than twice as long (the GPUs' I/O overlaps, not serializes)."""
        _host, alone = self._run(both=False)
        host, both = self._run(both=True)
        assert 1.25 < both / alone < 1.95
        submitted = [
            host.trace.counter(f"gpu{g}.io")["commands_submitted"]
            for g in range(2)
        ]
        assert min(submitted) > 0
        assert host.ssds[0].completed_reads == sum(submitted)
