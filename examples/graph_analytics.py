#!/usr/bin/env python3
"""Graph analytics on SSD-resident CSR graphs (paper §4.5).

Runs BFS and SpMV on a Kronecker (skewed) and a uniform random graph with
the AGILE and BaM systems, verifies results against the native variant
(graph in HBM, plain loads), and prints the Fig. 11-style execution-time
comparison.

Run:  python examples/graph_analytics.py
"""

import numpy as np

from repro.workloads.bfs import run_bfs
from repro.workloads.graphs import kronecker_graph, uniform_random_graph
from repro.workloads.spmv import run_spmv

N, DEGREE = 1024, 8

print("generating graphs (GAP-style)...")
u_graph = uniform_random_graph(N, degree=DEGREE, seed=3)
k_graph = kronecker_graph(int(np.log2(N)), edge_factor=DEGREE, seed=5)
k_weighted = kronecker_graph(
    int(np.log2(N)), edge_factor=DEGREE, seed=6, with_values=True
)
x = np.random.default_rng(7).random(k_weighted.num_vertices).astype(np.float32)

print(f"  U-graph: {u_graph.num_vertices} vertices, {u_graph.num_edges} edges")
print(f"  K-graph: {k_graph.num_vertices} vertices, {k_graph.num_edges} edges "
      f"(max degree {int(np.diff(k_graph.row_ptr).max())})\n")

# -- BFS ----------------------------------------------------------------------
for label, graph in (("U-graph", u_graph), ("K-graph", k_graph)):
    reference = run_bfs("native", graph, 0, num_threads=128).distances
    row = [label]
    for system in ("agile", "bam"):
        result = run_bfs(system, graph, 0, cache_lines=2048, num_threads=128)
        assert np.array_equal(result.distances, reference), (
            f"BFS/{system} distances diverge from native"
        )
        row.append(f"{system}={result.total_ns / 1e3:.0f}us")
    print("BFS ", " ".join(row), " (verified against native)")

# -- SpMV ---------------------------------------------------------------------
reference = run_spmv("native", k_weighted, x, num_threads=128).y
for system in ("agile", "bam"):
    result = run_spmv(system, k_weighted, x, cache_lines=2048, num_threads=128)
    assert np.allclose(result.y, reference, rtol=1e-5), (
        f"SpMV/{system} result diverges from native"
    )
    print(f"SpMV K-graph {system}={result.total_ns / 1e3:.0f}us "
          "(verified against native)")

print("\ngraph analytics OK")
