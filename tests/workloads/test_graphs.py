"""Tests for graph generators, CSR structure, and SSD layout."""

from __future__ import annotations

import numpy as np
import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import graphs
from repro.workloads.graphs import (
    CsrGraph,
    kronecker_graph,
    layout_graph,
    uniform_random_graph,
)

from tests.support.graph_reference import scipy_edges_to_csr, to_scipy


class TestUniformRandom:
    def test_shape_and_bounds(self):
        g = uniform_random_graph(100, degree=4, seed=1)
        assert g.num_vertices == 100
        assert g.row_ptr.shape == (101,)
        assert g.col_idx.min() >= 0
        assert g.col_idx.max() < 100
        assert g.row_ptr[-1] == g.num_edges

    def test_no_self_loops_or_duplicates(self):
        g = uniform_random_graph(50, degree=6, seed=2)
        for v in range(50):
            neigh = g.col_idx[g.row_ptr[v] : g.row_ptr[v + 1]]
            assert v not in neigh
            assert len(set(neigh.tolist())) == len(neigh)

    def test_row_ptr_monotonic(self):
        g = uniform_random_graph(64, degree=8, seed=3)
        assert (np.diff(g.row_ptr) >= 0).all()

    def test_deterministic(self):
        a = uniform_random_graph(64, degree=4, seed=9)
        b = uniform_random_graph(64, degree=4, seed=9)
        assert np.array_equal(a.col_idx, b.col_idx)

    def test_min_vertices(self):
        with pytest.raises(ValueError):
            uniform_random_graph(1)

    def test_roughly_uniform_degrees(self):
        g = uniform_random_graph(256, degree=16, seed=4)
        degrees = np.diff(g.row_ptr)
        # Uniform graphs have no heavy hitters.
        assert degrees.max() < 6 * degrees.mean()


class TestKronecker:
    def test_shape(self):
        g = kronecker_graph(7, edge_factor=8, seed=1)
        assert g.num_vertices == 128
        assert g.num_edges > 0

    def test_skewed_degree_distribution(self):
        """The '-K' graphs have hubs: max degree far above the mean."""
        g = kronecker_graph(9, edge_factor=16, seed=2)
        degrees = np.diff(g.row_ptr)
        assert degrees.max() > 6 * degrees.mean()

    def test_more_skewed_than_uniform(self):
        k = kronecker_graph(8, edge_factor=8, seed=3)
        u = uniform_random_graph(256, degree=8, seed=3)
        k_deg = np.diff(k.row_ptr).astype(float)
        u_deg = np.diff(u.row_ptr).astype(float)
        assert k_deg.std() / max(k_deg.mean(), 1e-9) > (
            u_deg.std() / u_deg.mean()
        )

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            kronecker_graph(0)

    def test_values_generated_when_requested(self):
        g = kronecker_graph(6, edge_factor=4, seed=4, with_values=True)
        assert g.values is not None
        assert g.values.shape[0] == g.num_edges
        assert (g.values > 0).all()


class TestScipyInterop:
    def test_csr_matches_networkx_connectivity(self):
        g = uniform_random_graph(40, degree=5, seed=7)
        nxg = nx.from_scipy_sparse_array(to_scipy(g), create_using=nx.DiGraph)
        for v in range(40):
            neigh = g.col_idx[g.row_ptr[v] : g.row_ptr[v + 1]]
            assert set(nxg.successors(v)) == set(neigh.tolist())

    @pytest.mark.parametrize("with_values", [False, True])
    @pytest.mark.parametrize(
        "make",
        [
            lambda values: uniform_random_graph(16, 4, seed=0, with_values=values),
            lambda values: uniform_random_graph(200, 8, seed=1, with_values=values),
            lambda values: uniform_random_graph(1000, 16, seed=2, with_values=values),
            lambda values: kronecker_graph(4, 4, seed=3, with_values=values),
            lambda values: kronecker_graph(8, 8, seed=4, with_values=values),
            lambda values: kronecker_graph(11, 16, seed=5, with_values=values),
        ],
        ids=["U16", "U200", "U1000", "K4", "K8", "K11"],
    )
    def test_csr_builder_matches_scipy_bit_for_bit(
        self, make, with_values, monkeypatch
    ):
        """The numpy builder gives scipy's canonical (sorted, deduplicated)
        CSR, and equal values show the RNG still draws ``size=nnz``."""
        ours = make(with_values)
        inputs = []

        def reference(src, dst, n, values, rng):
            inputs.append((src, dst, n))
            return scipy_edges_to_csr(src, dst, n, values, rng)

        monkeypatch.setattr(graphs, "_edges_to_csr", reference)
        theirs = make(with_values)
        (src, dst, n), = inputs
        assert (src == dst).any(), "no self-loop to drop"
        assert np.unique(src * n + dst).size < src.size, "no duplicate to merge"
        for name in ("row_ptr", "col_idx"):
            a, b = getattr(ours, name), getattr(theirs, name)
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b), name
        if with_values:
            assert ours.values.dtype == np.float32
            assert np.array_equal(ours.values, theirs.values)
        else:
            assert ours.values is None and theirs.values is None


class TestLayout:
    def test_regions_disjoint_and_ordered(self):
        g = uniform_random_graph(512, degree=8, seed=1, with_values=True)
        x = np.ones(512, dtype=np.float32)
        layout = layout_graph(g, x=x)
        assert layout.row_ptr_lba < layout.col_idx_lba
        assert layout.col_idx_lba < layout.values_lba
        assert layout.values_lba < layout.x_lba
        assert layout.x_lba < layout.total_pages

    def test_region_sizes_cover_data(self):
        g = uniform_random_graph(512, degree=8, seed=1)
        layout = layout_graph(g)
        row_pages = layout.col_idx_lba - layout.row_ptr_lba
        assert row_pages * 4096 >= g.row_ptr.nbytes


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=200),
    degree=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_csr_invariants(n, degree, seed):
    """Property: any generated CSR is structurally valid."""
    g = uniform_random_graph(n, degree=degree, seed=seed)
    assert g.row_ptr[0] == 0
    assert g.row_ptr[-1] == len(g.col_idx)
    assert (np.diff(g.row_ptr) >= 0).all()
    if g.num_edges:
        assert g.col_idx.min() >= 0
        assert g.col_idx.max() < n
