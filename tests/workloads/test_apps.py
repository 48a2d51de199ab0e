"""End-to-end application workload tests: BFS, SpMV, vector mean — every
system variant must produce bit-identical results to the reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.bfs import run_bfs
from repro.workloads.graphs import kronecker_graph, uniform_random_graph
from repro.workloads.spmv import run_spmv
from repro.workloads.vecmean import run_vector_mean

from tests.support.graph_reference import bfs_reference, spmv_reference


@pytest.fixture(scope="module")
def small_graph():
    return uniform_random_graph(256, degree=6, seed=11)


@pytest.fixture(scope="module")
def weighted_graph():
    return uniform_random_graph(128, degree=6, seed=12, with_values=True)


class TestBfs:
    @pytest.mark.parametrize("system", ["native", "agile", "bam"])
    def test_distances_match_reference(self, small_graph, system):
        ref = bfs_reference(small_graph, 0)
        result = run_bfs(system, small_graph, 0, cache_lines=512,
                         num_threads=64)
        assert np.array_equal(result.distances, ref)

    def test_kronecker_graph_distances(self):
        g = kronecker_graph(7, edge_factor=6, seed=13)
        ref = bfs_reference(g, 0)
        result = run_bfs("agile", g, 0, cache_lines=512, num_threads=64)
        assert np.array_equal(result.distances, ref)

    def test_preload_faster_than_full(self, small_graph):
        full = run_bfs("agile", small_graph, 0, cache_lines=512,
                       num_threads=64)
        pre = run_bfs("agile", small_graph, 0, preload=True, cache_lines=512,
                      num_threads=64)
        assert pre.total_ns < full.total_ns
        assert np.array_equal(pre.distances, full.distances)

    def test_native_is_fastest(self, small_graph):
        native = run_bfs("native", small_graph, 0, num_threads=64)
        agile = run_bfs("agile", small_graph, 0, preload=True,
                        cache_lines=512, num_threads=64)
        assert native.total_ns < agile.total_ns

    def test_max_levels_cap(self, small_graph):
        result = run_bfs("native", small_graph, 0, max_levels=1,
                         num_threads=64)
        assert result.levels == 1
        assert (result.distances <= 1).all()


class TestSpmv:
    @pytest.mark.parametrize("system", ["native", "agile", "bam"])
    def test_result_matches_scipy(self, weighted_graph, system):
        x = np.random.default_rng(5).random(
            weighted_graph.num_vertices
        ).astype(np.float32)
        ref = spmv_reference(weighted_graph, x)
        result = run_spmv(system, weighted_graph, x, cache_lines=512,
                          num_threads=64)
        assert np.allclose(result.y, ref, rtol=1e-5)

    def test_unweighted_rejected(self, small_graph):
        x = np.ones(small_graph.num_vertices, dtype=np.float32)
        with pytest.raises(ValueError, match="weighted"):
            run_spmv("agile", small_graph, x)

    def test_agile_cheaper_than_bam_preloaded(self, weighted_graph):
        """The Fig. 11 cache-API ordering on a small instance."""
        x = np.ones(weighted_graph.num_vertices, dtype=np.float32)
        agile = run_spmv("agile", weighted_graph, x, preload=True,
                         cache_lines=512, num_threads=64)
        bam = run_spmv("bam", weighted_graph, x, preload=True,
                       cache_lines=512, num_threads=64)
        assert agile.total_ns < bam.total_ns


class TestVectorMean:
    @pytest.mark.parametrize("system", ["native", "agile", "bam"])
    def test_mean_correct(self, system):
        data = np.random.default_rng(6).random(8192).astype(np.float32)
        result = run_vector_mean(system, data, num_threads=16)
        assert result.mean == pytest.approx(float(data.mean()), rel=1e-5)

    def test_multi_ssd_striping(self):
        data = np.arange(16384, dtype=np.float32)
        result = run_vector_mean("agile", data, num_ssds=2, num_threads=16)
        assert result.mean == pytest.approx(float(data.mean()), rel=1e-6)
