"""Graph generation and SSD layout (GAP-benchmark style, paper §4.5).

Two generators mirroring the paper's inputs:

- ``uniform_random_graph`` — GAP's ``-u``: m edges drawn uniformly
  (Erdős–Rényi-like, regular degree distribution);
- ``kronecker_graph`` — GAP's ``-g``: R-MAT/Kronecker with the standard
  (A, B, C) = (0.57, 0.19, 0.19), giving the skewed degree distribution
  the paper's '-K' graphs have.

Graphs are stored in CSR (the paper's format) and laid out on the SSDs as
three page-aligned regions: row pointers, column indices, and (for SpMV)
values, plus the dense vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.workloads.access import row_base


@dataclass(frozen=True)
class CsrGraph:
    """Compressed sparse row adjacency (int64 indices, float32 values)."""

    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: Optional[np.ndarray] = None

    @property
    def num_vertices(self) -> int:
        return int(self.row_ptr.shape[0] - 1)

    @property
    def num_edges(self) -> int:
        return int(self.col_idx.shape[0])

    def neighbors(self, v: int) -> np.ndarray:
        return self.col_idx[self.row_ptr[v] : self.row_ptr[v + 1]]


def _edges_to_csr(
    src: np.ndarray,
    dst: np.ndarray,
    n: int,
    with_values: bool,
    rng: np.random.Generator,
) -> CsrGraph:
    # Deduplicate and drop self-loops, as GAP's builder does.  Sorting the
    # unique edge keys row-major gives the canonical CSR: rows ascending,
    # column indices sorted within each row.
    keep = src != dst
    key = np.unique(src[keep] * n + dst[keep])
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n), out=row_ptr[1:])
    values = None
    if with_values:
        values = rng.uniform(0.5, 1.5, size=key.shape[0]).astype(np.float32)
    return CsrGraph(row_ptr=row_ptr, col_idx=key % n, values=values)


def uniform_random_graph(
    n: int,
    degree: int = 16,
    seed: int = 0,
    with_values: bool = False,
) -> CsrGraph:
    """GAP-style uniform random graph with ~n*degree directed edges."""
    if n < 2:
        raise ValueError("need at least two vertices")
    rng = np.random.default_rng(seed)
    m = n * degree
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    return _edges_to_csr(src, dst, n, with_values, rng)


def kronecker_graph(
    scale: int,
    edge_factor: int = 16,
    seed: int = 0,
    with_values: bool = False,
) -> CsrGraph:
    """R-MAT/Kronecker graph: 2^scale vertices, ~edge_factor*2^scale edges,
    quadrant probabilities (0.57, 0.19, 0.19, 0.05) as in Graph500/GAP."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = n * edge_factor
    a, b, c = 0.57, 0.19, 0.19
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        # Quadrants: A -> (0,0), B -> (0,1), C -> (1,0), D -> (1,1).
        src_bit = (r >= a + b).astype(np.int64)
        dst_bit = ((r >= a) & (r < a + b) | (r >= a + b + c)).astype(np.int64)
        src |= src_bit << bit
        dst |= dst_bit << bit
    # Permute vertex ids so degree skew is not index-correlated.
    perm = rng.permutation(n)
    return _edges_to_csr(perm[src], perm[dst], n, with_values, rng)


@dataclass(frozen=True)
class GraphSsdLayout:
    """Page-aligned base LBAs for each CSR region on the (striped) SSDs."""

    row_ptr_lba: int
    col_idx_lba: int
    values_lba: int
    x_lba: int
    total_pages: int


def layout_graph(
    graph: CsrGraph,
    page_size: int = 4096,
    x: Optional[np.ndarray] = None,
) -> GraphSsdLayout:
    """Compute base pages for the CSR regions (regions are page-aligned)."""

    def pages(nbytes: int) -> int:
        return (nbytes + page_size - 1) // page_size

    row_pages = pages(graph.row_ptr.nbytes)
    col_pages = pages(graph.col_idx.nbytes)
    val_pages = pages(graph.values.nbytes) if graph.values is not None else 0
    x_pages = pages(x.nbytes) if x is not None else 0
    row_lba = 0
    col_lba = row_lba + row_pages
    val_lba = col_lba + col_pages
    x_lba = val_lba + val_pages
    return GraphSsdLayout(
        row_ptr_lba=row_lba,
        col_idx_lba=col_lba,
        values_lba=val_lba,
        x_lba=x_lba,
        total_pages=x_lba + x_pages,
    )


def load_graph(host, graph: CsrGraph, x: Optional[np.ndarray] = None,
               page_size: int = 4096) -> GraphSsdLayout:
    """Place a graph's CSR regions on the host's SSDs through its placement
    policy and return the layout.  Works with both AgileHost and BamHost."""
    layout = layout_graph(graph, page_size, x)
    regions = [
        (layout.row_ptr_lba, graph.row_ptr),
        (layout.col_idx_lba, graph.col_idx),
        (layout.values_lba, graph.values),
        (layout.x_lba, x),
    ]
    for row, data in regions:
        if data is not None:
            host.load_logical(row_base(host.placement, row), data)
    return layout
