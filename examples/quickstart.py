#!/usr/bin/env python3
"""Quickstart: read SSD-resident data from GPU threads through AGILE.

Mirrors the paper's Listing 1: configure the host, put data on the SSD,
start the AGILE service, run a kernel that uses the three access methods
(prefetch, async_read to a user buffer, the array-like synchronous API),
and stop the service.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.config import CacheConfig, SystemConfig
from repro.core import AgileHost, AgileLockChain
from repro.gpu import KernelSpec, LaunchConfig

# -- host-side setup (Listing 1 lines 22-40) ---------------------------------
cfg = SystemConfig(
    cache=CacheConfig(num_lines=256, ways=8, policy="clock"),
    queue_pairs=4,
    queue_depth=32,
)
host = AgileHost(cfg)

# A dataset of one million float32 values lives on the SSD.
data = np.arange(1_000_000, dtype=np.float32)
host.load_data(ssd_idx=0, start_lba=0, data=data)

results = {}
user_buffer = host.make_buffer(label="mybuf")


def kernel(tc, ctrl, out):
    """Each GPU thread reads a few elements and one full page."""
    chain = AgileLockChain(f"chain.t{tc.tid}")  # Listing 1 line 6

    # Method 1: prefetch a page we will need later (asynchronous).
    yield from ctrl.prefetch(tc, chain, 0, tc.tid % 64)

    # Method 3: array-like synchronous API — the SSD as a 2-D array.
    arr = ctrl.get_array_wrap(np.float32)
    value = yield from arr.get(tc, chain, 0, tc.tid * 1000)
    out[tc.tid] = float(value)

    # Method 2: async_read into a user buffer, overlap, then wait.
    if tc.tid == 0:
        buf = yield from ctrl.async_read(tc, chain, 0, 5, user_buffer)
        yield from tc.compute(2_000)  # overlapped computation
        yield from buf.wait()  # Listing 1 line 14
        page5 = buf.as_array(np.float32)
        assert page5[0] == data[5 * 1024]
        yield from ctrl.release_buffer(tc, chain, buf)


spec = KernelSpec(name="quickstart", body=kernel, registers_per_thread=40)
with host:  # startAgile ... stopAgile
    duration_ns = host.run_kernel(spec, LaunchConfig(grid_dim=2, block_dim=64), (results,))
    host.drain()

expected = {t: float(t * 1000) for t in range(128)}
assert results == expected, "data read through AGILE must match the source"

print(f"kernel time: {duration_ns / 1e3:.1f} us (simulated)")
print(f"cache stats: {host.cache.stats.snapshot()}")
print(f"io stats:    {host.trace.counter('io').snapshot()}")
print("quickstart OK — all 128 threads read the right values")
