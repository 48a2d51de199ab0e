"""Sparse matrix-vector multiplication over SSD-resident CSR (paper §4.5).

Row-per-thread CSR SpMV with the matrix (row pointers, column indices,
values) *and* the dense input vector on the SSDs; the output vector lives
in HBM.  Same three variants / preload methodology as BFS (see
:mod:`repro.workloads.bfs`).  SpMV adds the random-access ``x[col]``
stream, which is why the paper sees the largest cache-API gaps here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Literal

import numpy as np

from repro.baselines import BamHost
from repro.core import AgileHost, AgileLockChain
from repro.gpu import Gpu, KernelSpec, LaunchConfig
from repro.sim import Simulator
from repro.workloads.access import (
    read_element,
    preload_regions,
    read_range,
    region,
    workload_config,
)
from repro.workloads.graphs import CsrGraph, layout_graph, load_graph

SystemName = Literal["native", "agile", "bam"]


@dataclass
class SpmvResult:
    system: SystemName
    y: np.ndarray
    total_ns: float
    stats: Dict[str, Dict[str, float]] = field(default_factory=dict)


def _spmv_kernel(system, row_reg, col_reg, val_reg, x_reg, graph, x):
    def body(tc, ctrl, y, n_threads):
        chain = AgileLockChain(f"spmv.t{tc.tid}")
        n = graph.num_vertices
        tid = tc.tid % n_threads
        for row in range(tid, n, n_threads):
            if system == "native":
                yield from tc.hbm_load(16)
                start = int(graph.row_ptr[row])
                end = int(graph.row_ptr[row + 1])
                count = end - start
                yield from tc.hbm_load(max(12 * count, 4))
                cols = graph.col_idx[start:end]
                vals = graph.values[start:end]
                yield from tc.hbm_load(4 * count)
                xs = x[cols]
            else:
                extents = yield from read_range(
                    system, ctrl, tc, chain, row_reg, row, 2
                )
                start, end = int(extents[0]), int(extents[1])
                count = end - start
                if count > 0:
                    cols = yield from read_range(
                        system, ctrl, tc, chain, col_reg, start, count
                    )
                    vals = yield from read_range(
                        system, ctrl, tc, chain, val_reg, start, count
                    )
                    xs = np.empty(count, dtype=np.float32)
                    for i, col in enumerate(cols):
                        xs[i] = yield from read_element(
                            system, ctrl, tc, chain, x_reg, int(col)
                        )
                else:
                    cols = vals = xs = np.empty(0, dtype=np.float32)
            yield from tc.compute(2 * max(count, 1))  # FMA per nonzero
            y[row] = float(
                np.dot(vals.astype(np.float64), xs.astype(np.float64))
            )

    return body


def run_spmv(
    system: SystemName,
    graph: CsrGraph,
    x: np.ndarray,
    *,
    preload: bool = False,
    num_ssds: int = 1,
    cache_lines: int = 1024,
    num_threads: int = 128,
) -> SpmvResult:
    if graph.values is None:
        raise ValueError("SpMV needs a weighted graph (with_values=True)")
    n = graph.num_vertices
    x = np.ascontiguousarray(x, dtype=np.float32)
    layout = layout_graph(graph, x=x)
    row_reg = region(layout.row_ptr_lba, num_ssds, np.int64)
    col_reg = region(layout.col_idx_lba, num_ssds, np.int64)
    val_reg = region(layout.values_lba, num_ssds, np.float32)
    x_reg = region(layout.x_lba, num_ssds, np.float32)

    if system == "native":
        sim = Simulator()
        gpu = Gpu(sim, workload_config(num_ssds, cache_lines).gpu,
                  hbm_capacity=1 << 22)
        host = None
    else:
        cfg = workload_config(num_ssds, cache_lines)
        host = AgileHost(cfg) if system == "agile" else BamHost(cfg)
        sim = host.sim
        load_graph(host, graph, x=x)
        if preload:
            preload_regions(
                host,
                (row_reg, n + 1),
                (col_reg, graph.num_edges),
                (val_reg, graph.num_edges),
                (x_reg, n),
            )
        host.start()

    y = np.zeros(n, dtype=np.float64)
    kernel = KernelSpec(
        name=f"spmv.{system}",
        body=_spmv_kernel(system, row_reg, col_reg, val_reg, x_reg, graph, x),
        registers_per_thread={"native": 36, "agile": 42, "bam": 56}[system],
    )
    threads = min(num_threads, n)
    launch_cfg = LaunchConfig.for_threads(threads, 256)
    start_ns = sim.now
    if host is None:
        gpu.run_to_completion(kernel, launch_cfg, args=(None, y, threads))
    else:
        host.run_kernel(kernel, launch_cfg, (y, threads))
        host.stop()
    total = sim.now - start_ns
    stats = host.stats() if host is not None else {}
    return SpmvResult(system=system, y=y, total_ns=total, stats=stats)
