"""Tests for the Criteo trace generator and the DLRM pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.placement import placement_for_config
from repro.workloads.access import workload_config
from repro.workloads.criteo import DEFAULT_VOCAB_SIZES, make_criteo_trace
from repro.workloads.dlrm import (
    DLRM_CONFIGS,
    EmbeddingLayout,
    config1,
    config2,
    config3,
    expected_checksum,
    run_dlrm,
)

VOCAB = (800, 500, 300, 200)


def placement(num_ssds: int):
    return placement_for_config(workload_config(num_ssds, 64))


@pytest.fixture(scope="module")
def trace():
    return make_criteo_trace(1024, vocab_sizes=VOCAB, zipf_a=1.2, seed=3)


class TestCriteoTrace:
    def test_shape_and_bounds(self, trace):
        assert trace.indices.shape == (1024, 4)
        for f, vocab in enumerate(VOCAB):
            col = trace.indices[:, f]
            assert col.min() >= 0
            assert col.max() < vocab

    def test_default_has_26_features(self):
        t = make_criteo_trace(16)
        assert t.num_features == 26
        assert t.vocab_sizes == DEFAULT_VOCAB_SIZES

    def test_zipf_skew_present(self, trace):
        """A small head of ids should cover a large share of accesses."""
        col = trace.indices[:, 0]
        _, counts = np.unique(col, return_counts=True)
        counts = np.sort(counts)[::-1]
        head = counts[: max(1, len(counts) // 20)].sum()
        assert head / counts.sum() > 0.2

    def test_batches_wrap(self, trace):
        b = trace.batch(epoch=10_000, batch_size=32)
        assert b.shape == (32, 4)

    def test_deterministic(self):
        a = make_criteo_trace(64, vocab_sizes=VOCAB, seed=5)
        b = make_criteo_trace(64, vocab_sizes=VOCAB, seed=5)
        assert np.array_equal(a.indices, b.indices)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_criteo_trace(0)
        with pytest.raises(ValueError):
            make_criteo_trace(4, vocab_sizes=(0, 5))


class TestEmbeddingLayout:
    def test_locate_round_trip(self):
        layout = EmbeddingLayout(VOCAB, dim=64, placement=placement(2))
        seen = set()
        for vec in range(0, layout.total_vecs, 7):
            ssd, lba, off = layout.locate(vec)
            assert 0 <= ssd < 2
            assert off % layout.vec_bytes == 0
            key = (ssd, lba, off)
            assert key not in seen
            seen.add(key)

    def test_vector_index_offsets(self):
        layout = EmbeddingLayout(VOCAB, dim=64, placement=placement(1))
        assert layout.vector_index(0, 0) == 0
        assert layout.vector_index(1, 0) == VOCAB[0]
        assert layout.vector_index(3, 5) == sum(VOCAB[:3]) + 5

    def test_dim_must_pack(self):
        with pytest.raises(ValueError):
            EmbeddingLayout(VOCAB, dim=100, placement=placement(1))  # 400 B


class TestConfigs:
    def test_flop_ordering(self):
        assert config2().flops_per_sample() < config1().flops_per_sample()
        assert config1().flops_per_sample() < config3().flops_per_sample()

    def test_config3_is_6x_config1(self):
        assert config3().flops_per_sample() == pytest.approx(
            6 * config1().flops_per_sample()
        )

    def test_registry(self):
        assert set(DLRM_CONFIGS) == {"config1", "config2", "config3"}


class TestRunDlrm:
    KW = dict(batch=16, epochs=3, features=4, cache_lines=256,
              num_threads=32, queue_pairs=2, queue_depth=16)

    @pytest.mark.parametrize("system", ["bam", "agile_sync", "agile_async"])
    def test_checksum_correct(self, trace, system):
        """The gather must fetch the *right* embedding bytes end to end."""
        r = run_dlrm(system, config2(), trace=trace, **self.KW)
        exp = expected_checksum(config2(), trace, batch=16, epochs=3,
                                features=4)
        assert r.checksum == pytest.approx(exp, rel=1e-6)

    def test_async_not_slower_than_sync(self, trace):
        sync = run_dlrm("agile_sync", config1(), trace=trace, **self.KW)
        async_ = run_dlrm("agile_async", config1(), trace=trace, **self.KW)
        assert async_.total_ns <= sync.total_ns * 1.05

    def test_multi_ssd_checksum(self, trace):
        kw = dict(self.KW, num_ssds=2)
        r = run_dlrm("agile_sync", config2(), trace=trace, **kw)
        exp = expected_checksum(config2(), trace, batch=16, epochs=3,
                                features=4)
        assert r.checksum == pytest.approx(exp, rel=1e-6)

    def test_coalescing_ablation_runs(self, trace):
        r = run_dlrm("agile_sync", config2(), trace=trace,
                     warp_coalescing=False, **self.KW)
        exp = expected_checksum(config2(), trace, batch=16, epochs=3,
                                features=4)
        assert r.checksum == pytest.approx(exp, rel=1e-6)

    def test_result_accessors(self, trace):
        r = run_dlrm("agile_sync", config2(), trace=trace, **self.KW)
        assert r.ns_per_epoch == pytest.approx(r.total_ns / 3)
        assert r.stats  # trace snapshot propagated
