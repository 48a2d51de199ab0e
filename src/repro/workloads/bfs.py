"""Breadth-first search over an SSD-resident CSR graph (paper §4.5).

Level-synchronous BFS: the host keeps the frontier; one kernel launch per
level expands it.  Three variants, matching the paper's three-step
overhead-isolation methodology for Fig. 11:

1. ``native``  — graph data in HBM, accessed with plain loads (kernel time);
2. ``agile``/``bam`` with ``preload=True`` — all graph pages pre-installed
   in the software cache, so runtime shows kernel + cache-API time;
3. ``agile``/``bam`` with ``preload=False`` — full runs including NVMe I/O.

No application-level optimization in any variant (no direction reversal,
no frontier dedup bitmaps) so measured deltas are API overhead, exactly as
the paper argues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Literal, Optional

import numpy as np

from repro.baselines import BamHost
from repro.core import AgileHost, AgileLockChain
from repro.gpu import Gpu, KernelSpec, LaunchConfig
from repro.sim import Simulator
from repro.workloads.access import (
    preload_regions,
    read_range,
    region,
    workload_config,
)
from repro.workloads.graphs import CsrGraph, load_graph

#: Registers per thread by system; the agile and bam values are the
#: ``repro.kir`` estimates Fig. 12 reports, and set the occupancy simulated.
REGISTERS_PER_THREAD = {"native": 32, "agile": 37, "bam": 45}

SystemName = Literal["native", "agile", "bam"]


@dataclass
class BfsResult:
    system: SystemName
    distances: np.ndarray
    total_ns: float
    levels: int
    stats: Dict[str, Dict[str, float]] = field(default_factory=dict)


def _expand_kernel(system: str, row_reg, col_reg, graph: CsrGraph):
    """One BFS level expansion; shared logic across all three systems."""

    def body(tc, ctrl, frontier, dist, level, next_frontier, n_threads):
        chain = AgileLockChain(f"bfs.t{tc.tid}")
        tid = tc.tid % n_threads
        for k in range(tid, len(frontier), n_threads):
            v = int(frontier[k])
            if system == "native":
                yield from tc.hbm_load(16)
                start = int(graph.row_ptr[v])
                end = int(graph.row_ptr[v + 1])
                yield from tc.hbm_load(max(8 * (end - start), 8))
                neighbors = graph.col_idx[start:end]
            else:
                extents = yield from read_range(
                    ctrl, tc, chain, row_reg, v, 2
                )
                start, end = int(extents[0]), int(extents[1])
                if end > start:
                    neighbors = yield from read_range(
                        ctrl, tc, chain, col_reg, start, end - start
                    )
                else:
                    neighbors = ()
            yield from tc.compute(2 * max(len(neighbors), 1))
            for u in neighbors:
                u = int(u)
                if dist[u] < 0:
                    yield from tc.atomic()  # atomicCAS on the label
                    if dist[u] < 0:  # CAS winner check
                        dist[u] = level + 1
                        next_frontier.append(u)

    return body


def run_bfs(
    system: SystemName,
    graph: CsrGraph,
    src: int = 0,
    *,
    preload: bool = False,
    num_ssds: int = 1,
    cache_lines: int = 1024,
    num_threads: int = 128,
    max_levels: Optional[int] = None,
) -> BfsResult:
    """Run BFS on the chosen system; returns distances + simulated time."""
    n = graph.num_vertices

    if system == "native":
        sim = Simulator()
        gpu = Gpu(sim, workload_config(num_ssds, cache_lines).gpu,
                  hbm_capacity=1 << 22)
        host = None
        row_reg = col_reg = None
    else:
        cfg = workload_config(num_ssds, cache_lines)
        host = AgileHost(cfg) if system == "agile" else BamHost(cfg)
        sim = host.sim
        layout = load_graph(host, graph)
        row_reg = region(host.placement, layout.row_ptr_lba, np.int64)
        col_reg = region(host.placement, layout.col_idx_lba, np.int64)
        if preload:
            preload_regions(
                host, (row_reg, n + 1), (col_reg, graph.num_edges)
            )
        host.start()

    dist = np.full(n, -1, dtype=np.int64)
    dist[src] = 0
    frontier = [src]
    level = 0
    kernel = KernelSpec(
        name=f"bfs.{system}",
        body=_expand_kernel(system, row_reg, col_reg, graph),
        registers_per_thread=REGISTERS_PER_THREAD[system],
    )
    start_ns = sim.now
    while frontier and (max_levels is None or level < max_levels):
        next_frontier: list[int] = []
        threads = min(num_threads, max(len(frontier), 1))
        launch_cfg = LaunchConfig.for_threads(threads, 256)
        args = (np.asarray(frontier), dist, level, next_frontier, threads)
        if host is None:
            gpu.run_to_completion(kernel, launch_cfg, args=(None, *args))
        else:
            host.run_kernel(kernel, launch_cfg, args)
        frontier = next_frontier
        level += 1
    total = sim.now - start_ns
    if host is not None:
        host.stop()
    stats = host.stats() if host is not None else {}
    return BfsResult(
        system=system, distances=dist, total_ns=total, levels=level,
        stats=stats,
    )
