"""Fig. 4 micro-benchmark: asynchronous vs synchronous I/O across
computation-to-communication (CTC) ratios.

Paper setup: 1024 threads in one block issue 64 NVMe commands each and
compute on the returned data; the CTC ratio is swept by scaling the number
of compute iterations.  The reproduction keeps the structure and scales
thread/request counts by parameter (defaults are laptop-sized).

The synchronous kernel fetches everything, then computes (the paper's sync
baseline).  The asynchronous kernel software-pipelines at thread level:
while computing on chunk *i*, chunk *i+1* is already in flight — the
overlap AGILE's transaction barriers make safe.

Expected shape: speedup = T_sync / T_async follows Eq. 1
(``1 + CTC`` for CTC <= 1, ``1 + 1/CTC`` above), peaking slightly below
CTC = 1 because issue/prefetch overheads cannot be hidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import CacheConfig, SsdConfig, SystemConfig
from repro.core import AgileHost, AgileLockChain
from repro.gpu import KernelSpec, LaunchConfig


@dataclass(frozen=True)
class CtcResult:
    ctc: float
    sync_ns: float
    async_ns: float

    @property
    def speedup(self) -> float:
        return self.sync_ns / self.async_ns


def ideal_speedup(ctc: float) -> float:
    """The paper's Equation 1."""
    if ctc < 0:
        raise ValueError("CTC ratio must be non-negative")
    if ctc <= 1.0:
        return 1.0 + ctc
    return 1.0 + 1.0 / ctc


def _ctc_config(num_threads: int) -> SystemConfig:
    return SystemConfig(
        cache=CacheConfig(num_lines=64, ways=8),  # unused by raw reads
        ssds=(SsdConfig(name="ssd0", capacity_bytes=1 << 30),),
        queue_pairs=16,
        queue_depth=128,
    )


def _make_sync_kernel(requests: int, compute_cycles: float):
    def body(tc, ctrl, bufs):
        chain = AgileLockChain(f"sync.t{tc.tid}")
        buf = bufs[tc.tid]
        # Phase 1: fetch all chunks (each waits for completion).
        for i in range(requests):
            txn = yield from ctrl.raw_read(
                tc, chain, 0, (tc.tid * requests + i) % 4096, buf
            )
            yield from txn.wait()
        # Phase 2: compute on the fetched data.
        for _ in range(requests):
            yield from tc.compute(compute_cycles)

    return body


def _make_async_kernel(requests: int, compute_cycles: float):
    def body(tc, ctrl, bufs):
        chain = AgileLockChain(f"async.t{tc.tid}")
        buf = bufs[tc.tid]
        pending = None
        for i in range(requests):
            txn = yield from ctrl.raw_read(
                tc, chain, 0, (tc.tid * requests + i) % 4096, buf
            )
            if pending is not None:
                # Compute on the previous chunk while this one is in flight.
                yield from tc.compute(compute_cycles)
                yield from pending.wait()
            pending = txn
        yield from tc.compute(compute_cycles)
        yield from pending.wait()

    return body


def _run_mode(
    mode: str,
    num_threads: int,
    requests: int,
    compute_cycles: float,
) -> float:
    host = AgileHost(_ctc_config(num_threads))
    bufs = [host.alloc_view(4096) for _ in range(num_threads)]
    maker = _make_sync_kernel if mode == "sync" else _make_async_kernel
    kernel = KernelSpec(
        name=f"ctc_{mode}",
        body=maker(requests, compute_cycles),
        registers_per_thread=48 if mode == "sync" else 52,
    )
    with host:
        duration = host.run_kernel(
            kernel, LaunchConfig.for_threads(num_threads, 256), (bufs,)
        )
        host.drain()
    return duration


def calibrate_comm_cycles(num_threads: int, requests: int) -> float:
    """Measure per-chunk communication time (in GPU cycles) with zero
    compute — the denominator of the CTC ratio."""
    t_comm = _run_mode("sync", num_threads, requests, 0.0)
    cfg = SystemConfig()
    per_chunk_ns = t_comm / requests
    return per_chunk_ns / cfg.gpu.cycle_ns


def run_ctc_experiment(
    ctc_ratios: List[float],
    num_threads: int = 256,
    requests: int = 16,
    comm_cycles_per_chunk: Optional[float] = None,
) -> List[CtcResult]:
    """Sweep CTC ratios; returns sync/async times and speedups per point."""
    if comm_cycles_per_chunk is None:
        comm_cycles_per_chunk = calibrate_comm_cycles(num_threads, requests)
    results = []
    for ctc in ctc_ratios:
        compute_cycles = ctc * comm_cycles_per_chunk
        sync_ns = _run_mode("sync", num_threads, requests, compute_cycles)
        async_ns = _run_mode("async", num_threads, requests, compute_cycles)
        results.append(CtcResult(ctc=ctc, sync_ns=sync_ns, async_ns=async_ns))
    return results
