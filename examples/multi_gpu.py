#!/usr/bin/env python3
"""Multi-GPU SSD sharing — the paper's §5 second extension, implemented.

Two simulated GPUs share one SSD: each receives a disjoint range of the
SSD's I/O queue pairs (ring memory pinned in its own HBM) and runs its own
unchanged AGILE stack.  Their kernels execute concurrently and genuinely
contend for the shared flash channels.

Run:  python examples/multi_gpu.py
"""

import numpy as np

from repro.config import CacheConfig, SsdConfig, SystemConfig
from repro.core import AgileLockChain, MultiGpuAgileHost
from repro.gpu import KernelSpec, LaunchConfig

cfg = SystemConfig(
    cache=CacheConfig(num_lines=128, ways=8, share_table=False),
    ssds=(SsdConfig(name="shared-ssd", capacity_bytes=1 << 28),),
    queue_pairs=4,  # per GPU; the SSD serves 8 in total
    queue_depth=32,
)
host = MultiGpuAgileHost(cfg, num_gpus=2)
data = np.arange(200_000, dtype=np.int64)
host.load_data(0, 0, data)

results: dict = {}


def kernel(tc, ctrl, gpu_idx, n_threads):
    """Each GPU reads a disjoint slice of the shared dataset."""
    chain = AgileLockChain(f"g{gpu_idx}.t{tc.tid}")
    arr = ctrl.get_array_wrap(np.int64)
    tid = tc.tid % n_threads
    total = 0
    for k in range(4):
        idx = gpu_idx * 100_000 + (tid * 4 + k) * 97
        value = yield from arr.get(tc, chain, 0, idx, coalesce=False)
        assert value == idx
        total += int(value)
    results[(gpu_idx, tid)] = total


spec = KernelSpec(name="mgpu", body=kernel, registers_per_thread=40)
with host:
    makespan = host.run_kernels(
        spec, LaunchConfig(2, 64), per_gpu_args=[(0, 128), (1, 128)]
    )

print(f"2 GPUs x 128 threads over one shared SSD: {makespan / 1e3:.1f} us")
for g in range(2):
    io = host.trace.counter(f"gpu{g}.io")
    cache = host.trace.counter(f"gpu{g}.cache")
    print(f"  gpu{g}: {int(io['commands_submitted'])} NVMe commands, "
          f"{int(cache['misses'])} cache misses "
          f"(queue pairs {sorted(qp.qid for qp in host.nodes[g].issue.queue_pairs[0])})")
print(f"  shared SSD completed {host.ssds[0].completed_reads} reads total")
assert len(results) == 256
print("multi-GPU OK — both GPUs read correct, disjoint data")
