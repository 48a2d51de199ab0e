"""scipy references for the graph workloads.

Test-side only: the runtime builds and walks CSR graphs with numpy alone,
and tier-1 checks it here against scipy's sparse matrices.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.workloads.graphs import CsrGraph


def to_scipy(graph: CsrGraph) -> sp.csr_matrix:
    """The graph as a scipy CSR matrix (unit weights when unweighted)."""
    n = graph.num_vertices
    data = (
        graph.values
        if graph.values is not None
        else np.ones(graph.num_edges, dtype=np.float32)
    )
    return sp.csr_matrix((data, graph.col_idx, graph.row_ptr), shape=(n, n))


def bfs_reference(graph: CsrGraph, src: int = 0) -> np.ndarray:
    """Ground-truth BFS levels via scipy (-1 for unreachable)."""
    dist = csgraph.shortest_path(
        to_scipy(graph), method="D", unweighted=True, indices=src
    )
    return np.where(np.isinf(dist), -1, dist).astype(np.int64)


def spmv_reference(graph: CsrGraph, x: np.ndarray) -> np.ndarray:
    return to_scipy(graph).dot(x.astype(np.float64)).astype(np.float64)


def scipy_edges_to_csr(
    src: np.ndarray,
    dst: np.ndarray,
    n: int,
    with_values: bool,
    rng: np.random.Generator,
) -> CsrGraph:
    """The scipy ``coo -> csr -> sum_duplicates`` builder the generators
    used before their numpy one; same signature as ``_edges_to_csr``."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    mat = sp.coo_matrix(
        (np.ones(src.shape[0], dtype=np.float32), (src, dst)), shape=(n, n)
    ).tocsr()
    mat.sum_duplicates()
    values = None
    if with_values:
        values = rng.uniform(0.5, 1.5, size=mat.nnz).astype(np.float32)
    return CsrGraph(
        row_ptr=mat.indptr.astype(np.int64),
        col_idx=mat.indices.astype(np.int64),
        values=values,
    )
