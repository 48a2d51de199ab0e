"""Vector mean over an SSD-resident float32 array — the third Fig. 12
kernel, and a simple regression workload for the cache/IO paths."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Literal

import numpy as np

from repro.baselines import BamHost
from repro.core import AgileHost, AgileLockChain
from repro.gpu import Gpu, KernelSpec, LaunchConfig
from repro.sim import Simulator
from repro.workloads.access import read_range, region, workload_config

#: Registers per thread by system; the agile and bam values are the
#: ``repro.kir`` estimates Fig. 12 reports, and set the occupancy simulated.
REGISTERS_PER_THREAD = {"native": 28, "agile": 31, "bam": 32}

SystemName = Literal["native", "agile", "bam"]


@dataclass
class VecMeanResult:
    system: SystemName
    mean: float
    total_ns: float
    stats: Dict[str, Dict[str, float]] = field(default_factory=dict)


def run_vector_mean(
    system: SystemName,
    data: np.ndarray,
    *,
    num_ssds: int = 1,
    cache_lines: int = 512,
    num_threads: int = 64,
    chunk: int = 1024,
) -> VecMeanResult:
    """Compute the mean of ``data`` with the chosen system; each thread
    reduces ``chunk``-element spans in a grid-stride loop."""
    data = np.ascontiguousarray(data, dtype=np.float32)
    n = data.size

    if system == "native":
        sim = Simulator()
        gpu = Gpu(sim, workload_config(num_ssds, cache_lines).gpu, hbm_capacity=1 << 22)
        host = reg = None
    else:
        cfg = workload_config(num_ssds, cache_lines)
        host = AgileHost(cfg) if system == "agile" else BamHost(cfg)
        sim = host.sim
        host.load_logical(0, data)
        reg = region(host.placement, 0, np.float32)
        host.start()

    partials: list[float] = []

    def body(tc, ctrl, n_threads):
        chain = AgileLockChain(f"vm.t{tc.tid}")
        tid = tc.tid % n_threads
        acc = 0.0
        for first in range(tid * chunk, n, n_threads * chunk):
            count = min(chunk, n - first)
            if system == "native":
                yield from tc.hbm_load(4 * count)
                vals = data[first : first + count]
            else:
                vals = yield from read_range(
                    ctrl, tc, chain, reg, first, count
                )
            yield from tc.compute(count)  # one FMA per element
            acc += float(vals.astype(np.float64).sum())
        partials.append(acc)

    kernel = KernelSpec(
        name=f"vecmean.{system}",
        body=body,
        registers_per_thread=REGISTERS_PER_THREAD[system],
    )
    threads = min(num_threads, max(1, n // chunk))
    launch_cfg = LaunchConfig.for_threads(threads, 256)
    start_ns = sim.now
    if host is None:
        gpu.run_to_completion(kernel, launch_cfg, args=(None, threads))
    else:
        host.run_kernel(kernel, launch_cfg, (threads,))
        host.stop()
    total = sim.now - start_ns
    stats = host.stats() if host is not None else {}
    return VecMeanResult(
        system=system,
        mean=float(sum(partials) / n),
        total_ns=total,
        stats=stats,
    )
