"""Figs. 5-6: 4 KB random read/write bandwidth scaling across SSDs.

Requests are interleaved across SSDs exactly as the paper describes
(request *i* goes to SSD ``i mod n``).  Bandwidth is total bytes moved over
the simulated makespan of the request batch.  Expected shape: bandwidth
rises with concurrency and saturates at ~3.7 GB/s per SSD for reads and
~2.2 GB/s for writes (additive across SSDs), after enough concurrent
requests to keep every flash channel busy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from repro.config import CacheConfig, SsdConfig, SystemConfig
from repro.core import AgileHost, AgileLockChain
from repro.gpu import KernelSpec, LaunchConfig
from repro.placement import interleaved, round_robin


@dataclass(frozen=True)
class SweepPoint:
    num_ssds: int
    total_requests: int
    duration_ns: float
    bytes_moved: int
    #: Simulator events dispatched for this point (scheduler work, not
    #: simulated time).  Wall-clock throughput is measured by the bench
    #: layer, which owns real-time reads (AGL001); workloads only report
    #: the simulated-event count.
    sim_events: int = 0
    #: Error-status completions across all devices.  A fault-free sweep
    #: must report zero; the bench trend artifact records it so silent
    #: error-path regressions show up in CI history.
    device_errors: int = 0
    #: Telemetry snapshot (:meth:`repro.telemetry.Telemetry.snapshot`) when
    #: the point ran with telemetry enabled.
    telemetry: Optional[dict] = None

    @property
    def bandwidth_gbps(self) -> float:
        """Aggregate bandwidth in GB/s (decimal)."""
        return self.bytes_moved / self.duration_ns  # B/ns == GB/s


def _sweep_config(num_ssds: int) -> SystemConfig:
    base = SystemConfig(
        cache=CacheConfig(num_lines=64, ways=8),
        ssds=(SsdConfig(name="ssd0", capacity_bytes=1 << 30),),
        queue_pairs=16,
        queue_depth=256,
    )
    return base.with_ssds(num_ssds)


def _make_kernel(
    op: Literal["read", "write"],
    requests_per_thread: int,
    num_ssds: int,
    lba_space: int,
    inflight_per_thread: int,
):
    def body(tc, ctrl, bufs, rng_seed):
        chain = AgileLockChain(f"io.t{tc.tid}")
        buf = bufs[tc.tid]
        rng = np.random.default_rng(rng_seed + tc.tid)
        lbas = rng.integers(0, lba_space, size=requests_per_thread)
        # The paper's interleave, expressed through the placement layer's
        # round-robin shim (request i -> SSD ``i mod n``, random device LBA).
        policy = interleaved(num_ssds)
        pending = []
        for i in range(requests_per_thread):
            ssd, lba = round_robin(
                policy, tc.tid * requests_per_thread + i, int(lbas[i])
            )
            if op == "read":
                txn = yield from ctrl.raw_read(tc, chain, ssd, lba, buf)
            else:
                txn = yield from ctrl.raw_write(tc, chain, ssd, lba, buf)
            pending.append(txn)
            if len(pending) >= inflight_per_thread:
                yield from pending.pop(0).wait()
        for txn in pending:
            yield from txn.wait()

    return body


def run_bandwidth_sweep(
    op: Literal["read", "write"],
    num_ssds: int,
    total_requests: int,
    num_threads: int = 256,
    inflight_per_thread: int = 8,
    telemetry: bool = False,
) -> SweepPoint:
    """One point of Fig. 5 (op='read') / Fig. 6 (op='write').

    ``telemetry=True`` forces a telemetry session on the host (the point's
    snapshot lands in :attr:`SweepPoint.telemetry`); the default defers to
    any active :func:`repro.telemetry.capture` block, e.g. the bench CLI's
    ``--trace`` flag.
    """
    if op not in ("read", "write"):
        raise ValueError(f"op must be 'read' or 'write', got {op!r}")
    host = AgileHost(
        _sweep_config(num_ssds), telemetry=True if telemetry else None
    )
    threads = min(num_threads, total_requests)
    requests_per_thread = max(1, total_requests // threads)
    bufs = [host.alloc_view(4096) for _ in range(threads)]
    for b in bufs:
        b[:] = 0xAB
    lba_space = host.cfg.ssds[0].num_pages // 2
    kernel = KernelSpec(
        name=f"sweep_{op}",
        body=_make_kernel(
            op, requests_per_thread, num_ssds, lba_space, inflight_per_thread
        ),
        registers_per_thread=40,
    )
    with host:
        duration = host.run_kernel(
            kernel,
            LaunchConfig.for_threads(threads, 256),
            (bufs, host.cfg.seed),
        )
        host.drain()
    moved = sum(
        s.bytes_read if op == "read" else s.bytes_written for s in host.ssds
    )
    return SweepPoint(
        num_ssds=num_ssds,
        total_requests=threads * requests_per_thread,
        duration_ns=duration,
        bytes_moved=moved,
        sim_events=host.sim.event_count,
        device_errors=host.driver.total_errors(),
        telemetry=(
            host.telemetry.snapshot() if host.telemetry is not None else None
        ),
    )

